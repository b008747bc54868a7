"""End-to-end tests of the command-line driver."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chl import verify
from chl.cli import _write_json, main
from chl.process import EventLog
from chl.render import _text
from chl.verify import _summarize, coupling_sup_distances


def read(path):
    return path.read_bytes()


class TestSimulate:
    def test_writes_log_with_header(self, tmp_path):
        out = tmp_path / "a"
        assert main(["simulate", "--n", "10", "--lambda", "1", "--t", "3",
                     "--seed", "7", "--out", str(out)]) == 0
        log = EventLog.from_jsonl((out / "events.jsonl").read_text())
        assert log.params.radius_n == 10
        assert log.seed == 7
        assert (out / "config.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--n", "6", "--lambda", "0.8", "--t", "1", "--seed", "11",
                "--probe", "0+1i", "--trajectory"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("events.jsonl", "trajectory.csv", "config.json"):
            assert read(out1 / name) == read(out2 / name), name

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        # a file-system error is an input error: one line and exit 2, no traceback
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["simulate", "--t", "0.2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert out.read_text() == ""  # untouched, and no events.jsonl anywhere
        assert not list(tmp_path.rglob("events.jsonl"))

    def test_trajectory_row_count(self, tmp_path):
        out = tmp_path / "t"
        assert main(["simulate", "--n", "4", "--t", "0.5", "--seed", "7",
                     "--probe", "0+1i", "--trajectory", "--out", str(out)]) == 0
        log = EventLog.from_jsonl((out / "events.jsonl").read_text())
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + len(log) + 1  # header + t=0 + one per event

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHL_SEED", "9001")
        out = tmp_path / "env"
        assert main(["simulate", "--n", "2", "--t", "0.5", "--out", str(out)]) == 0
        log = EventLog.from_jsonl((out / "events.jsonl").read_text())
        assert log.seed == 9001

    def test_seed_zero_is_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHL_SEED", "9001")
        out = tmp_path / "zero"
        assert main(["simulate", "--n", "2", "--t", "0.5", "--seed", "0",
                     "--out", str(out)]) == 0
        log = EventLog.from_jsonl((out / "events.jsonl").read_text())
        assert log.seed == 0  # explicit 0 must not fall through to the env


class TestVerify:
    def test_single_check_report(self, tmp_path):
        out = tmp_path / "v"
        assert main(["verify", "--only", "quad_mean_shift", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        assert [c["check"] for c in report["checks"]] == ["quad_mean_shift"]
        assert report["checks"][0]["pass"] is True

    def test_unattainable_tolerance_exits_one_with_report(self, tmp_path):
        out = tmp_path / "vt"
        code = main(["verify", "--only", "quad_mean_shift", "--tol", "1e-20",
                     "--out", str(out)])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is False
        assert report["checks"][0]["values"]["converged"] is False

    def test_rate_grids_written(self, tmp_path):
        # a check with a rate grid writes it beside the report, 17 digits a float
        out = tmp_path / "v"
        assert main(["verify", "--only", "farfield_expansion", "--only", "quad_mean_shift",
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "config.json", "rate_farfield_expansion.csv", "report.json"]
        (result,) = verify.run_suite(only=["farfield_expansion"])
        rows = (out / "rate_farfield_expansion.csv").read_text().splitlines()
        assert rows[0] == "scale,error" and len(rows) == 1 + len(result.grid) > 2
        assert [tuple(map(float, r.split(","))) for r in rows[1:]] == list(result.grid)

    def test_unknown_check_usage_error(self, tmp_path):
        assert main(["verify", "--only", "bogus", "--out", str(tmp_path / "x")]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        args = ["verify", "--only", "quad_mean_shift", "--only", "shift_commutation"]
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert read(out1 / "report.json") == read(out2 / "report.json")


class TestConverge:
    def test_csv_and_summary(self, tmp_path):
        out = tmp_path / "c"
        assert main(["converge", "--replicas", "200", "--n-list", "4,8,16",
                     "--seed", "3", "--out", str(out)]) == 0
        rows = (out / "coupling.csv").read_text().splitlines()
        assert rows[0] == "N,mean_square_distance,ci99_halfwidth"
        assert len(rows) == 4
        means = [float(r.split(",")[1]) for r in rows[1:]]
        assert means[0] > means[1] > means[2]
        summary = json.loads((out / "converge.json").read_text())
        assert all(f >= 0.6 for f in summary["coupling"]["paired_decrease_fraction"])
        assert summary["slit_rate"]["r_squared"] >= 0.95

    def test_columns_are_the_mc_summary(self, tmp_path):
        out = tmp_path / "c"
        assert main(["converge", "--replicas", "50", "--n-list", "4,8", "--seed", "9",
                     "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "coupling.csv").read_text().splitlines()[1:]]
        summaries = _summarize(coupling_sup_distances(1.0, 1j, 0.5, [4.0, 8.0], 50, 9))
        assert [float(r[1]) for r in rows] == [s.mean.real for s in summaries]
        assert [float(r[2]) for r in rows] == [s.ci99_halfwidth for s in summaries]

    def test_window_flag(self, tmp_path):
        # a finite --window is echoed and truncates the half-plane process
        out = tmp_path / "c"
        assert main(["converge", "--replicas", "50", "--n-list", "4,8", "--seed", "9",
                     "--window", "2", "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["window"] == 2.0
        rows = [r.split(",") for r in (out / "coupling.csv").read_text().splitlines()[1:]]
        sups = coupling_sup_distances(1.0, 1j, 0.5, [4.0, 8.0], 50, 9, window=2.0)
        assert [float(r[1]) for r in rows] == [s.mean.real for s in _summarize(sups)]

    def test_floor_limited_slit_rate_is_degenerate(self, tmp_path):
        # at lambda 1e-6 every slit-rate error is below the residual floor:
        # no line to fit, so the rate reads slope 0 and r^2 0 and the run completes
        out = tmp_path / "c"
        assert main(["converge", "--lambda", "1e-6", "--replicas", "8", "--n-list", "4,8",
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "config.json", "converge.json", "coupling.csv", "rate_slit_convergence.csv"]
        summary = json.loads((out / "converge.json").read_text())
        assert summary["slit_rate"] == {"slope": 0.0, "r_squared": 0.0}

    def test_unresolvable_probe_exits_2(self, tmp_path, capsys):
        # a probe that resolves only to eps |z| > 1e-10 is moved by less than it
        # resolves: 0+1e15i wrote means of 0.0, and a trajectory of one repeated point.
        # From a flag or a config, the run stops before it samples and writes nothing
        cfg = tmp_path / "cfg.json"
        for probe in ("0+1e15i", "1e200+1e200i", "4.6e5i"):
            cfg.write_text(json.dumps({"probe": [probe]}))
            for command, argv in (("converge", ["--replicas", "8", "--n-list", "4,8"]),
                                  ("simulate", ["--trajectory"])):
                for given in (["--probe", probe], ["--config", str(cfg)]):
                    out = tmp_path / "o"
                    try:
                        code = main([command, *argv, *given, "--out", str(out)])
                    except SystemExit as exc:
                        code = exc.code
                    err = capsys.readouterr().err.splitlines()
                    assert code == 2 and len(err) == 1 and "cannot resolve probe" in err[0]
                    assert not out.exists(), (command, given)
        # just inside the bound eps |z| <= 1e-10 both commands run
        assert main(["converge", "--replicas", "8", "--n-list", "4,8", "--probe", "4.5e5i",
                     "--out", str(tmp_path / "c")]) == 0
        assert main(["simulate", "--t", "0.1", "--probe", "4.5e5i", "--trajectory",
                     "--out", str(tmp_path / "s")]) == 0

    @pytest.mark.parametrize("argv", [
        ["--n-list", "4"],  # one radius: nothing to compare
        ["--n-list", "4,4"],  # a repeated radius would be compared with itself
        ["--n-list", "8,4"],
        ["--probe", "1i", "--probe", "2i"],  # converge reads one probe point
    ], ids=["one-radius", "repeated-radius", "descending-radii", "two-probes"])
    def test_ignored_input_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "c"
        assert main(["converge", "--replicas", "8", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (out / "coupling.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["--n-list", "4,1e17", "--replicas", "20", "--t", "1e-16"],  # once a mean of 53680.2
        ["--n-list", "4,1e300", "--replicas", "2", "--t", "1e-300"],  # once inf, or an overflow
    ], ids=["1e17", "1e300"])
    def test_unresolved_radius_exit_2(self, tmp_path, capsys, argv):
        # an abscissa at the largest radius resolves eps pi N, above 1e-10: refused before sampling
        out = tmp_path / "c"
        assert main(["converge", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot resolve abscissae" in err
        assert not (out / "coupling.csv").exists()
        assert not (out / "config.json").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [[], ["--n-list", "4,8,16,32,64,128", "--replicas", "200"]],
                             ids=["defaults", "n-128"])
    def test_resolved_radii_still_run(self, tmp_path, argv):
        out = tmp_path / "c"
        assert main(["converge", *argv, "--out", str(out)]) == 0
        rows = (out / "coupling.csv").read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(v)) for r in rows for v in r.split(","))

    def test_artifacts_independent_of_threads(self, tmp_path):
        # --threads is accepted and has no effect
        outs = [tmp_path / f"t{threads}" for threads in (1, 2)]
        for threads, out in zip((1, 2), outs):
            assert main(["converge", "--replicas", "64", "--n-list", "4,8", "--seed", "5",
                         "--threads", str(threads), "--out", str(out)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert "config.json" in names
        for name in names:
            assert read(outs[0] / name) == read(outs[1] / name), name

    @pytest.mark.parametrize("replicas", ["0", "1"])
    def test_too_few_replicas_exit_2(self, tmp_path, capsys, replicas):
        # one replica has no spread (the CI would be nan); zero has no samples
        assert main(["converge", "--replicas", replicas, "--n-list", "4,8",
                     "--out", str(tmp_path / "c")]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "c" / "coupling.csv").exists()
        assert not (tmp_path / "c" / "config.json").exists()

    def test_replica_cap_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch):
        # the seed list and result rows are built up front, so the cap is checked
        # first; should it fail, the first seed drawn raises instead of using memory
        monkeypatch.setattr(verify, "mix_seed", _no_seed)
        huge = str(10**30)
        tracemalloc.start()
        try:
            code = main(["converge", "--replicas", huge, "--out", str(tmp_path / "c")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2**20
        assert capsys.readouterr().err == f"chl converge: need 2 to 1e+07 replicas, got {huge}\n"
        assert not list((tmp_path / "c").iterdir())


def _no_seed(seed, replica):
    """A stand-in for ``mix_seed`` where no replica seed may be drawn."""
    raise AssertionError(f"replica seed {replica} drawn")


_HEAD = {"N": 10.0, "lambda": 1.0, "delta": math.tanh(0.05), "horizon": 3.0, "seed": 7}


class TestRender:
    def test_round_trip_via_saved_log(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--n", "6", "--t", "1", "--seed", "5",
                     "--out", str(sim)]) == 0
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["render", "--input", str(sim / "events.jsonl"), "--out", str(r1)]) == 0
        assert main(["render", "--n", "6", "--lambda", "1", "--t", "1", "--seed", "5",
                     "--out", str(r2)]) == 0
        assert read(r1 / "cluster.svg") == read(r2 / "cluster.svg")
        assert read(r1 / "cluster.csv") == read(r2 / "cluster.csv")

    def test_missing_input_exit_2(self, tmp_path, capsys):
        assert main(["render", "--input", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_directory_input_exit_2(self, tmp_path, capsys):
        (tmp_path / "logs").mkdir()
        assert main(["render", "--input", str(tmp_path / "logs"),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "o" / "cluster.csv").exists()

    @pytest.mark.parametrize("head, events", [
        ({k: v for k, v in _HEAD.items() if k != "delta"}, [(1.0, 0.5)]),  # missing field
        (_HEAD, [(float("nan"), 0.5)]),  # non-finite time
        (_HEAD, [(1.0, 99.0)]),  # x outside [-pi N, pi N) at N = 10
        (_HEAD, [(1.0, math.pi * 10.0)]),  # right end of the domain is excluded
        (_HEAD, [(2.0, 0.5), (1.0, -0.5)]),  # unsorted times
        (_HEAD, [(0.0, 0.5)]),  # time not positive
        (_HEAD, [(3.5, 0.5)]),  # time beyond the horizon
        ({**_HEAD, "seed": True}, [(1.0, 0.5)]),  # JSON booleans are not numbers
        ({**_HEAD, "horizon": True}, [(1.0, 0.5)]),
        (_HEAD, [(True, 0.5)]),
    ], ids=["no-delta", "nan-time", "x-outside", "x-right-end", "unsorted", "t-zero",
            "t-past-horizon", "bool-seed", "bool-horizon", "bool-time"])
    def test_invalid_input_log_exit_2(self, tmp_path, capsys, head, events):
        lines = [json.dumps(head)] + [json.dumps({"t": t, "x": x}) for t, x in events]
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main(["render", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "o" / "cluster.csv").exists()

    def test_empty_log_writes_csv_only(self, tmp_path):
        out = tmp_path / "e"
        assert main(["render", "--n", "2", "--t", "1e-9", "--seed", "1",
                     "--out", str(out)]) == 0
        assert (out / "cluster.csv").read_text().splitlines() == [
            "event_index,birth_time,point_index,re,im"
        ]
        assert not (out / "cluster.svg").exists()

    def test_figure_style_run(self, tmp_path):
        # radius-10, horizon-3 cluster: many particles, tree-like fingers
        out = tmp_path / "fig"
        assert main(["render", "--n", "10", "--lambda", "1", "--t", "3",
                     "--seed", "1234", "--out", str(out)]) == 0
        svg = (out / "cluster.svg").read_text()
        assert svg.count("<polyline") >= 150
        rows = (out / "cluster.csv").read_text().splitlines()[1:]
        top = max(float(r.split(",")[4]) for r in rows)
        assert top > 3.0  # fingers grow well past one slit length


class TestConfigFile:
    def test_probe_literal_variants(self):
        from chl.cli import build_parser
        args = build_parser().parse_args(
            ["simulate", "--probe", "1i", "--probe", "2", "--probe=-0.5+0.25i"]
        )
        assert args.probe == [1j, 2 + 0j, -0.5 + 0.25j]

    @pytest.mark.parametrize("value", [
        "0.5-0.25i", "0-1i", "nan+1i", "1+nani", "inf+1i", "1+infi", "x",
        math.nan, {"re": 0.0, "im": -1.0}, {"re": math.inf, "im": 1.0},
    ])
    def test_probe_outside_closed_upper_half_plane_rejected(self, value):
        # the slit maps act on Im >= 0; below it cyl_slit would silently evaluate
        # its tan chart off the half-plane, and a nan probe would write nan trajectories
        import argparse
        from chl.cli import _complex
        with pytest.raises(argparse.ArgumentTypeError):
            _complex(value)

    def test_unreadable_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o2")]) == 2

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3.0, "t": 0.5, "seed": 100}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--seed", "200",
                     "--out", str(out)]) == 0
        log = EventLog.from_jsonl((out / "events.jsonl").read_text())
        assert log.params.radius_n == 3.0  # from config
        assert log.seed == 200  # flag wins

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "4", "--t", "0.5", "--seed", "11", "--probe", "0+1i", "--trajectory"],
        ["verify", "--only", "quad_mean_shift"],
        ["converge", "--n-list", "4,8", "--replicas", "64", "--probe", "0.5+0i", "--window", "2"],
        ["render", "--input", "<log>", "--forward", "--samples", "4"],
    ], ids=lambda argv: argv[0])
    def test_config_echo_round_trips(self, tmp_path, argv):
        # the echoed config must reproduce every artifact of the run, itself included
        log = tmp_path / "log"
        assert main(["simulate", "--n", "4", "--t", "0.5", "--seed", "3", "--out", str(log)]) == 0
        argv = [str(log / "events.jsonl") if a == "<log>" else a for a in argv]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(argv + ["--out", str(first)]) == 0
        assert main([argv[0], "--config", str(first / "config.json"), "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir()) and "config.json" in names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "chl.cli", "simulate", "--n", "2", "--t", "0.2",
             "--seed", "1", "--out", str(tmp_path / "sp")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "events" in proc.stdout

    @pytest.mark.parametrize("command, blob", [
        ("simulate", [1, 2]),  # not a JSON object
        ("simulate", {"bogus": 1}),  # unknown key
        ("simulate", {"threads": 2}),  # an option simulate does not read
        ("verify", {"n": 10.0}),  # nor does verify
        ("simulate", {"n": "ten"}),  # string for a number
        ("simulate", {"t": "0.5"}),  # even a numeric string
        ("render", {"samples": 2.5}),  # float for an integer
        ("simulate", {"seed": True}),  # bool for an integer
        ("render", {"forward": 1}),  # int for a switch
        ("simulate", {"probe": [{"re": 0.0, "im": "1"}]}),  # bad list element
        ("simulate", {"probe": "1i"}),  # a repeatable option takes a list
        ("converge", {"n_list": [4, "8"]}),  # bad radius
        ("converge", {"threads": 0}),  # not a positive count
        ("simulate", {"n": None}),  # null only for an option whose default is unset
        ("simulate", {"probe": [{"re": math.nan, "im": 1.0}]}),  # JSON NaN
        ("converge", {"probe": ["0-1i"]}),  # below the boundary
    ], ids=["non-object", "unknown", "dead-key", "dead-verify-key", "str-number",
            "numeric-str", "float-int", "bool-int", "int-switch", "bad-probe",
            "probe-not-list", "bad-radius", "zero-threads", "null-number",
            "nan-probe", "lower-probe"])
    def test_ill_typed_config_exit_2(self, tmp_path, capsys, command, blob):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(blob))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"chl {command}: ")
        assert not out.exists()

    def test_null_keeps_an_unset_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CHL_SEED", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"only": None, "seed": None}))
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--only", "quad_mean_shift",
                     "--out", str(out)]) == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["only"] == ["quad_mean_shift"] and echo["seed"] == 42


_AWKWARD = [-0.0, 5e-324, 0.1, -1e16, math.nan, math.inf, -math.inf, np.float64(0.1)]


class TestWriters:
    """Every CSV artifact goes through ``render._text`` and every JSON one through
    ``cli._write_json``; their text is held here exactly."""

    @pytest.mark.parametrize("template", ["%d,%.17g,%d,%.17g,%.17g", "%.17g,%d,%.17g,%.17g",
                                          "%.17g,%.17g,%.17g", "%.17g,%.17g"],
                             ids=["cluster", "trajectory", "coupling", "rate"])
    def test_text_lines_equal_format_specs(self, template):
        # each artifact's template against the f-string lines it replaced; every awkward
        # float in every column, and integers past 2**64
        specs = template.split(",")
        rows = [tuple(2**70 + k if s == "%d" else _AWKWARD[(k + j) % len(_AWKWARD)]
                      for j, s in enumerate(specs)) for k in range(len(_AWKWARD))]
        want = [",".join(f"{v}" if s == "%d" else f"{v:.17g}" for s, v in zip(specs, row))
                for row in rows]
        assert _text("a,b", template, rows) == "\n".join(["a,b", *want]) + "\n"
        assert _text("a,b", template, []) == "a,b\n"

    def test_text_literal(self):
        assert _text("s,e", "%.17g,%.17g", [(-0.0, 5e-324), (0.1, 1e16), (math.nan, -math.inf)]) \
            == "s,e\n-0,4.9406564584124654e-324\n0.10000000000000001,10000000000000000\nnan,-inf\n"

    def test_write_json_layout(self, tmp_path):
        path = tmp_path / "a.json"
        _write_json(path, {"z": [1j, {"w": (2 - 0.5j, 3)}], "p": Path("x/y"), "a": -0.0})
        assert path.read_text() == (
            '{\n "a": -0.0,\n "p": "x/y",\n "z": [\n  {\n   "im": 1.0,\n   "re": 0.0\n  },\n'
            '  {\n   "w": [\n    {\n     "im": -0.5,\n     "re": 2.0\n    },\n    3\n   ]\n'
            '  }\n ]\n}\n')

    @pytest.mark.parametrize("value", [np.int64(1), {1, 2}], ids=["int64", "set"])
    def test_write_json_refuses_other_types(self, tmp_path, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _write_json(tmp_path / "a.json", {"v": [value]})
        assert not (tmp_path / "a.json").exists()


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "10"],
        ["verify", "--lambda", "1"],
        ["verify", "--t", "1"],
        ["converge", "--n", "10"],
        ["simulate", "--threads", "2"],
        ["render", "--threads", "2"],
        ["converge", "--threads", "0"],
        ["verify", "--threads", "-1"],
        ["render", "--bogus", "1"],
    ])
    def test_removed_or_invalid_flag_exits_2(self, tmp_path, capsys, argv):
        # one line on stderr, no usage block
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("chl")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["render", "--samples", "1"],
        ["simulate", "--t", "0"],
        ["simulate", "--n", "-1"],
        ["simulate", "--n", "1e300"],
        ["converge", "--n-list", "4,1e300", "--replicas", "8"],
        ["render", "--samples", "1000000000000000", "--t", "0.05"],
        ["render", "--config", '{"samples": 1000000000000000, "t": 0.05}'],
    ])
    def test_run_time_rejection_writes_no_config(self, tmp_path, capsys, argv):
        # a value checked when the command runs: exit 2, one line, and not even
        # config.json in --out; more than 1e7 render points is refused before any is built
        out = tmp_path / "o"
        if "--config" in argv:  # the value after it is the config file's text
            (tmp_path / "cfg.json").write_text(argv[-1])
            argv = [*argv[:-1], str(tmp_path / "cfg.json")]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not list(out.iterdir())

    def test_render_refuses_tiny_lambda_over_n(self, tmp_path, capsys):
        # where (events + 1) eps pi N exceeds 1e-10 lambda the trace could be off
        # by more than that: 32 events at N = 1e6 exit 2; at N = 1e3 they render
        for n, events, code in (("1e6", 32, 2), ("1e16", 32, 2), ("1e3", 32, 0)):
            out = tmp_path / n
            t = repr(events / (2.0 * math.pi * float(n)))
            assert main(["render", "--n", n, "--t", t, "--seed", "1", "--out", str(out)]) == code
            err = capsys.readouterr().err
            if code == 2:
                assert err.count("\n") == 1 and "lambda/N" in err and not list(out.iterdir())
            else:
                assert (out / "cluster.svg").is_file() and (out / "config.json").is_file()

    @pytest.mark.parametrize("command, argv, artifact", [
        ("simulate", ["--probe", "nan+1i", "--trajectory"], "trajectory.csv"),
        ("simulate", ["--probe", "0-1i", "--trajectory"], "trajectory.csv"),
        ("converge", ["--probe", "nan+1i", "--replicas", "8"], "coupling.csv"),
        ("converge", ["--window", "nan", "--replicas", "8"], "coupling.csv"),
        ("converge", ["--window", "inf", "--replicas", "8"], "coupling.csv"),
        ("converge", ["--config", '{"window": Infinity, "replicas": 8}'], "coupling.csv"),
        ("verify", ["--only", "quad_mean_shift", "--tol", "nan"], "report.json"),
        ("verify", ["--only", "quad_mean_shift", "--tol", "inf"], "report.json"),
        ("verify", ["--only", "shift_commutation", "--tol", "nan"], "report.json"),
    ], ids=["simulate-nan-probe", "simulate-lower-probe", "converge-nan-probe",
            "nan-window", "inf-window", "inf-window-config", "nan-tol", "inf-tol",
            "nan-tol-no-quadrature"])
    def test_nan_or_lower_half_plane_flag_exits_2(self, tmp_path, capsys, command, argv,
                                                  artifact):
        # never a silent nan: exit 2 with one message line and no artifact, whether
        # the value is rejected while the flags are parsed or when the command runs
        out = tmp_path / "o"
        if "--config" in argv:  # the value after it is the config file's text
            i = argv.index("--config") + 1
            (tmp_path / "cfg.json").write_text(argv[i])
            argv = [*argv[:i], str(tmp_path / "cfg.json"), *argv[i + 1:]]
        try:
            code = main([command, *argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"chl {command}: ")
        assert not (out / artifact).exists()
        assert not (out / "config.json").exists()


class TestBlasThreads:
    """``import chl`` defaults the OpenBLAS pool to one thread, in a fresh interpreter."""

    _PROBE = ("import os, sys, chl; print(os.environ['OPENBLAS_NUM_THREADS']); "
              "print(len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else -1)")

    def _import_chl(self, threads):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", self._PROBE], env=env,
                              capture_output=True, text=True, check=True)
        value, tasks = proc.stdout.split()
        return value, int(tasks)

    def test_unset_defaults_to_one_thread(self):
        value, tasks = self._import_chl(None)
        assert value == "1"
        if sys.platform != "linux":
            pytest.skip("counts threads through /proc/self/task")
        assert tasks == 1

    def test_user_value_is_kept(self):
        assert self._import_chl("3")[0] == "3"
