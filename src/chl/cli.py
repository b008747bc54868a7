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
import cmath
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .conformal import CylinderParams
from .process import EventLog, backward_chl_trajectory, sample_events
from .render import export_csv, export_svg, trace_cluster
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


def _complex(value) -> complex:
    """A finite point with Im >= 0: '0+1i', '3', a number or config.json's {re, im}."""
    try:
        if isinstance(value, dict) and set(value) <= {"re", "im"}:
            z = complex(*(_checked(value.get(k, 0.0), _NUMBER) for k in ("re", "im")))
        elif isinstance(value, str):
            z = complex(value.replace("i", "j").replace(" ", ""))
        else:
            z = complex(value)
        if cmath.isfinite(z) and z.imag >= 0.0:
            return z
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
    "threads": _Option("--threads", _positive, (int,),
                       "Monte Carlo workers, capped at the CPU count; no effect on results"),
    "probe": _Option("--probe", _complex, (str, int, float, dict),
                     "complex probe point 'a+bi', default i (simulate: repeatable)", "append"),
    "trajectory": _Option("--trajectory", bool, (bool,), "write probe trajectories", "store_true"),
    "only": _Option("--only", str, (str,),
                    f"run only this check (repeatable); known: {', '.join(CHECK_NAMES)}",
                    "append"),
    "tol": _Option("--tol", float, _NUMBER, "quadrature tolerance"),
    "n_list": _Option("--n-list", _radii, (list,), "ascending radii, e.g. 4,8,16,32"),
    "replicas": _Option("--replicas", int, (int,), "Monte Carlo replicas"),
    "window": _Option("--window", float, _NUMBER, "SHL truncation half-width (default pi*N)"),
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
    blob = {k: _jsonable(v) for k, v in cfg.items() if k not in ("out", "threads")}
    (cfg["out"] / "config.json").write_text(json.dumps(blob, sort_keys=True, indent=1) + "\n")


def _jsonable(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _cmd_simulate(cfg: dict, out_dir: Path) -> int:
    params = CylinderParams(cfg["n"], cfg["lam"])
    log = sample_events(params, cfg["t"], cfg["seed"])
    (out_dir / "events.jsonl").write_text(log.to_jsonl())
    if cfg["trajectory"]:
        probes = cfg["probe"] or [1j]
        lines = ["time,probe,re,im"]
        for p_idx, z in enumerate(probes):
            for t_k, w in backward_chl_trajectory(log, z):
                lines.append(f"{t_k:.17g},{p_idx},{w.real:.17g},{w.imag:.17g}")
        (out_dir / "trajectory.csv").write_text("\n".join(lines) + "\n")
    print(f"simulate: {len(log)} events -> {out_dir / 'events.jsonl'}")
    return 0


def _result_blob(results: list[CheckResult]) -> dict:
    return {
        "checks": [
            {
                "check": r.check,
                "params": _jsonable(r.params),
                "values": _jsonable(r.values),
                "target": r.target,
                "tolerance": r.tolerance,
                "pass": r.passed,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }


def _cmd_verify(cfg: dict, out_dir: Path) -> int:
    results = run_suite(only=cfg["only"], tol=cfg["tol"], threads=cfg["threads"])
    blob = _result_blob(results)
    (out_dir / "report.json").write_text(json.dumps(blob, sort_keys=True, indent=1) + "\n")
    for r in results:
        if r.grid:
            lines = ["scale,error"] + [f"{s:.17g},{e:.17g}" for s, e in r.grid]
            (out_dir / f"rate_{r.check}.csv").write_text("\n".join(lines) + "\n")
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.check}")
    return 0 if blob["all_passed"] else 1


def _cmd_converge(cfg: dict, out_dir: Path) -> int:
    if len(cfg["n_list"]) < 2 or len(cfg["probe"]) > 1:
        raise ValueError("converge compares at least 2 radii at one probe point")
    z = (cfg["probe"] or [1j])[0]
    sups = coupling_sup_distances(
        cfg["lam"], z, cfg["t"], cfg["n_list"], cfg["replicas"], cfg["seed"],
        threads=cfg["threads"], window=cfg["window"],
    )
    summaries = _summarize(sups)
    means = [s.mean.real for s in summaries]
    cis = [s.ci99_halfwidth for s in summaries]
    lines = ["N,mean_square_distance,ci99_halfwidth"]
    for n, m, c in zip(cfg["n_list"], means, cis):
        lines.append(f"{n:.17g},{m:.17g},{c:.17g}")
    (out_dir / "coupling.csv").write_text("\n".join(lines) + "\n")

    paired = (sups[:, 1:] < sups[:, :-1]).mean(axis=0)
    rate = slit_convergence_rate(cfg["lam"], 2e5j, SLIT_RATE_GRID)
    lines = ["scale,error"] + [f"{s:.17g},{e:.17g}" for s, e in rate.grid]
    (out_dir / "rate_slit_convergence.csv").write_text("\n".join(lines) + "\n")
    summary = {
        "coupling": {
            "n_list": cfg["n_list"],
            "means": means,
            "ci99": cis,
            "paired_decrease_fraction": [float(v) for v in paired],
        },
        "slit_rate": {"slope": rate.slope, "r_squared": rate.r_squared},
    }
    (out_dir / "converge.json").write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")
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
        "seed": None, "out": Path("out"), "threads": os.cpu_count() or 1,
        "only": None, "tol": 1e-10,
    }),
    "converge": (_cmd_converge, "coupling decay and slit-map rate studies", {
        "lam": 1.0, "t": 0.5, "seed": None, "out": Path("out"), "threads": os.cpu_count() or 1,
        "n_list": [4.0, 8.0, 16.0, 32.0], "replicas": 500, "probe": [], "window": None,
    }),
    "render": (_cmd_render, "trace the cluster and export SVG + CSV", {
        "n": 10.0, "lam": 1.0, "t": 3.0, "seed": None, "out": Path("out"),
        "input": None, "samples": 16, "forward": False,
    }),
}


def main(argv: list[str] | None = None) -> int:
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
