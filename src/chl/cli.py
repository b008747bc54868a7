"""Command-line driver: simulate, verify, converge, render.

Every command is a pure function of its configuration and input files:
identical inputs produce byte-identical artifacts (no timestamps), and the
resolved configuration is echoed to the output directory so any figure or
table can be reproduced from it alone.  Options may come from a JSON config
file (``--config``); explicit flags win.  The seed falls back to the
``CHL_SEED`` environment variable.

Exit codes: 0 success / all checks passed, 1 check failure, 2 usage,
input or file-system error.
"""

from __future__ import annotations

import argparse
import atexit
import cmath
import gc
import json
import math
import os
import sys
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple

from .conformal import CylinderParams
from .process import EventLog, backward_chl_trajectory, sample_events
from .render import _EPS, _MAX_ERROR, _text, export_csv, export_svg, trace_cluster
from .verify import (
    CHECK_NAMES,
    SLIT_RATE_GRID,
    CheckResult,
    _summarize,
    coupling_sup_distances,
    slit_convergence_rate,
    run_suite,
)

__all__ = ["main", "build_parser"]


_NUMBER = (int, float)
_RATE_CSV = ("scale,error", "%.17g,%.17g")  # the head and row of every rate_*.csv


def _checked(value, types: tuple):
    """``value`` if its JSON type is one of ``types``; a bool is not a number."""
    if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
        names = " or ".join(t.__name__ for t in types)
        raise argparse.ArgumentTypeError(f"expected {names}, got {value!r}")
    return value


def _positive(value) -> int:
    if int(value) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return int(value)


def _finite(value) -> float:
    if not math.isfinite(v := float(value)):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {value!r}")
    return v


def _complex(value) -> complex:
    """A finite point with Im >= 0 and eps |z| <= 1e-10: '0+1i', '3', a number or {re, im}."""
    try:
        if isinstance(value, dict) and set(value) <= {"re", "im"}:
            z = complex(*(_checked(value.get(k, 0.0), _NUMBER) for k in ("re", "im")))
        elif isinstance(value, str):
            z = complex(value.replace("i", "j").replace(" ", ""))
        else:
            z = complex(value)
        if cmath.isfinite(z) and z.imag >= 0.0:
            if (res := _EPS * abs(z)) <= _MAX_ERROR:
                return z
            raise argparse.ArgumentTypeError(
                f"cannot resolve probe {value!r}: eps |z| = {res:.3g} exceeds {_MAX_ERROR:g}")
    except (TypeError, ValueError):
        pass
    raise argparse.ArgumentTypeError(f"expected a finite point with Im >= 0, got {value!r}")


def _radii(value) -> list[float]:
    """Radii like '4,8,16,32', or a list of numbers."""
    if isinstance(value, str):
        return [float(v) for v in value.split(",") if v.strip()]
    return [float(_checked(v, _NUMBER)) for v in value]


class _Option(NamedTuple):
    flag: str
    parse: Callable  # flag text, or a config value of a type in ``accepts``, -> value
    accepts: tuple  # the JSON types of a config value (elements, for "append")
    help: str
    action: str = "store"  # "append": a repeatable flag, a JSON list in a config


_OPTIONS = {
    "n": _Option("--n", float, _NUMBER, "cylinder radius N"),
    "lam": _Option("--lambda", float, _NUMBER, "slit length"),
    "t": _Option("--t", float, _NUMBER, "time horizon"),
    "seed": _Option("--seed", int, (int,),
                    "base seed, else env CHL_SEED (verify's checks pin their own)"),
    "out": _Option("--out", Path, (str,), "output directory"),
    "threads": _Option("--threads", _positive, (int,), "has no effect; kept for old scripts"),
    "probe": _Option("--probe", _complex, (str, int, float, dict),
                     "complex probe point 'a+bi', default i (simulate: repeatable)", "append"),
    "trajectory": _Option("--trajectory", bool, (bool,), "write probe trajectories", "store_true"),
    "only": _Option("--only", str, (str,),
                    f"run only this check (repeatable); known: {', '.join(CHECK_NAMES)}",
                    "append"),
    "tol": _Option("--tol", float, _NUMBER, "quadrature tolerance"),
    "n_list": _Option("--n-list", _radii, (list,), "ascending radii, e.g. 4,8,16,32"),
    "replicas": _Option("--replicas", int, (int,), "Monte Carlo replicas"),
    "window": _Option("--window", _finite, _NUMBER, "SHL truncation half-width (default pi*N)"),
    "input": _Option("--input", Path, (str,), "existing events.jsonl"),
    "samples": _Option("--samples", int, (int,), "points per slit (default 16)"),
    "forward": _Option("--forward", bool, (bool,), "draw the forward cluster", "store_true"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, no usage block; subparsers inherit it
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chl",
        description="Cylinder growth-process laboratory: simulate, verify, converge, render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, defaults) in _COMMANDS.items():
        # no abbreviations: a removed flag must not resolve to a longer flag it prefixes
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", type=Path,
                       help="JSON config file whose keys are option names (flags win)")
        for key in defaults:
            opt = _OPTIONS[key]
            p.add_argument(opt.flag, dest=key, action=opt.action, default=None, help=opt.help,
                           **({} if opt.action == "store_true" else {"type": opt.parse}))
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults < config file (values type-checked, then parsed like flags) < flags."""
    defaults = _COMMANDS[args.command][2]
    cfg = dict(defaults)
    try:
        loaded = json.loads(args.config.read_text()) if args.config else {}
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}") from None
    if not isinstance(loaded, dict):
        raise ValueError(f"config {args.config} is not a JSON object")
    for key, value in loaded.items():
        if key not in defaults:
            raise ValueError(f"unknown config key {key!r}; options: {', '.join(defaults)}")
        opt = _OPTIONS[key]
        try:
            if value is None and defaults[key] is None:  # null: an unset option
                cfg[key] = None
            elif opt.action == "append":
                cfg[key] = [opt.parse(_checked(v, opt.accepts)) for v in _checked(value, (list,))]
            else:
                cfg[key] = opt.parse(_checked(value, opt.accepts))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    for key in defaults:
        value = getattr(args, key)
        if value is not None:  # identity: seed 0 is a real value
            cfg[key] = value
    if cfg["seed"] is None:
        cfg["seed"] = int(os.environ.get("CHL_SEED", "42"))
    return cfg


def _echo_config(cfg: dict) -> None:
    # neither out nor threads can change an artifact, and echoing them breaks byte-identity
    _write_json(cfg["out"] / "config.json",
                {k: v for k, v in cfg.items() if k not in ("out", "threads")})


def _write_json(path: Path, blob) -> None:
    """Every JSON artifact: keys sorted, indent 1, one final newline."""
    path.write_text(json.dumps(blob, sort_keys=True, indent=1, default=_json_value) + "\n")


def _json_value(value):
    """A complex number as {re, im}, a ``Path`` as text; ``TypeError`` for anything else."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, Path):
        return str(value)
    raise TypeError(f"{type(value).__name__} {value!r} is not JSON serializable")


def _cmd_simulate(cfg: dict, out_dir: Path) -> int:
    params = CylinderParams(cfg["n"], cfg["lam"])
    log = sample_events(params, cfg["t"], cfg["seed"])
    (out_dir / "events.jsonl").write_text(log.to_jsonl())
    if cfg["trajectory"]:
        rows = ((t_k, k, w.real, w.imag) for k, z in enumerate(cfg["probe"] or [1j])
                for t_k, w in backward_chl_trajectory(log, z))
        (out_dir / "trajectory.csv").write_text(
            _text("time,probe,re,im", "%.17g,%d,%.17g,%.17g", rows))
    print(f"simulate: {len(log)} events -> {out_dir / 'events.jsonl'}")
    return 0


def _result_blob(results: list[CheckResult]) -> dict:
    return {
        "checks": [
            {
                "check": r.check,
                "params": r.params,
                "values": r.values,
                "target": r.target,
                "tolerance": r.tolerance,
                "pass": r.passed,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }


def _cmd_verify(cfg: dict, out_dir: Path) -> int:
    results = run_suite(only=cfg["only"], tol=cfg["tol"])
    blob = _result_blob(results)
    _write_json(out_dir / "report.json", blob)
    for r in results:
        if r.grid:
            (out_dir / f"rate_{r.check}.csv").write_text(_text(*_RATE_CSV, r.grid))
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.check}")
    return 0 if blob["all_passed"] else 1


def _cmd_converge(cfg: dict, out_dir: Path) -> int:
    if len(cfg["n_list"]) < 2 or len(cfg["probe"]) > 1:
        raise ValueError("converge compares at least 2 radii at one probe point")
    z = (cfg["probe"] or [1j])[0]
    sups = coupling_sup_distances(cfg["lam"], z, cfg["t"], cfg["n_list"], cfg["replicas"],
                                  cfg["seed"], window=cfg["window"])
    summaries = _summarize(sups)
    means = [s.mean.real for s in summaries]
    cis = [s.ci99_halfwidth for s in summaries]
    rows = zip(cfg["n_list"], means, cis)
    (out_dir / "coupling.csv").write_text(
        _text("N,mean_square_distance,ci99_halfwidth", "%.17g,%.17g,%.17g", rows))

    paired = (sups[:, 1:] < sups[:, :-1]).mean(axis=0)
    rate = slit_convergence_rate(cfg["lam"], 2e5j, SLIT_RATE_GRID)
    (out_dir / "rate_slit_convergence.csv").write_text(_text(*_RATE_CSV, rate.grid))
    summary = {
        "coupling": {
            "n_list": cfg["n_list"],
            "means": means,
            "ci99": cis,
            "paired_decrease_fraction": [float(v) for v in paired],
        },
        "slit_rate": {"slope": rate.slope, "r_squared": rate.r_squared},
    }
    _write_json(out_dir / "converge.json", summary)
    print(f"converge: means {['%.3e' % v for v in means]} -> {out_dir / 'coupling.csv'}")
    return 0


def _cmd_render(cfg: dict, out_dir: Path) -> int:
    if cfg["input"] is not None:
        log = EventLog.from_jsonl(cfg["input"].read_text())
    else:
        log = sample_events(CylinderParams(cfg["n"], cfg["lam"]), cfg["t"], cfg["seed"])
    rows = trace_cluster(log, samples_per_slit=cfg["samples"], forward=cfg["forward"])
    (out_dir / "cluster.csv").write_bytes(export_csv(rows, log.times))
    if len(rows):
        (out_dir / "cluster.svg").write_bytes(export_svg(rows, log.params))
        print(f"render: {len(rows)} particles -> {out_dir / 'cluster.svg'}")
    else:
        print("render: empty log, wrote CSV only")
    return 0


# command: (run, help, {option: default} for each option the command reads)
_COMMANDS = {
    "simulate": (_cmd_simulate, "sample an event log and optional trajectories", {
        "n": 10.0, "lam": 1.0, "t": 1.0, "seed": None, "out": Path("out"),
        "probe": [], "trajectory": False,
    }),
    "verify": (_cmd_verify, "run the numerical verification suite", {
        "seed": None, "out": Path("out"), "threads": 1,
        "only": None, "tol": 1e-10,
    }),
    "converge": (_cmd_converge, "coupling decay and slit-map rate studies", {
        "lam": 1.0, "t": 0.5, "seed": None, "out": Path("out"), "threads": 1,
        "n_list": [4.0, 8.0, 16.0, 32.0], "replicas": 500, "probe": [], "window": None,
    }),
    "render": (_cmd_render, "trace the cluster and export SVG + CSV", {
        "n": 10.0, "lam": 1.0, "t": 3.0, "seed": None, "out": Path("out"),
        "input": None, "samples": 16, "forward": False,
    }),
}


@cache
def _freeze_at_exit() -> None:
    """Freeze the heap at exit, once per process: every artifact is closed by then, and the
    exit's full collections over the ~22 000 objects left tracked took 18-21 ms a command."""
    atexit.register(gc.freeze)


def main(argv: list[str] | None = None) -> int:
    _freeze_at_exit()
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        cfg["out"].mkdir(parents=True, exist_ok=True)
        code = _COMMANDS[args.command][0](cfg, cfg["out"])
        _echo_config(cfg)  # only a run that got through its checks is echoed
        return code
    except (ValueError, OSError) as exc:
        print(f"chl {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
