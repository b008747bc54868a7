"""Command-line driver: simulate, verify, converge, render.

Every command is a pure function of its configuration and input files:
identical inputs produce byte-identical artifacts (no timestamps), and the
resolved configuration is echoed to the output directory so any figure or
table can be reproduced from it alone.  Options may come from a JSON config
file (``--config``); explicit flags win.  The seed falls back to the
``CHL_SEED`` environment variable.

Exit codes: 0 success / all checks passed, 1 check failure, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .conformal import CylinderParams
from .process import EventLog, backward_chl_trajectory, sample_events
from .render import RenderStyle, export_csv, export_svg, trace_cluster
from .verify import (
    CHECK_NAMES,
    CheckResult,
    coupling_sup_distances,
    slit_convergence_rate,
    run_suite,
)

__all__ = ["main", "build_parser"]


def _parse_complex(text: str) -> complex:
    """Parse a complex literal like '0+1i', '2.5-0.25i' or '3'."""
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid complex literal {text!r}") from exc


def _parse_n_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid N list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty N list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chl",
        description="Cylinder growth-process laboratory: simulate, verify, converge, render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None, help="JSON config file (flags win)")
        p.add_argument("--n", type=float, default=None, help="cylinder radius N")
        p.add_argument("--lambda", dest="lam", type=float, default=None, help="slit length")
        p.add_argument("--t", type=float, default=None, help="time horizon")
        p.add_argument("--seed", type=int, default=None, help="base seed (else env CHL_SEED)")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None, help="worker processes for MC")

    p_sim = sub.add_parser("simulate", help="sample an event log and optional trajectories")
    common(p_sim)
    p_sim.add_argument("--probe", action="append", type=_parse_complex, default=None,
                       help="complex probe point 'a+bi' (repeatable)")
    p_sim.add_argument("--trajectory", action="store_true",
                       help="write probe trajectories at every event time")

    p_ver = sub.add_parser("verify", help="run the numerical verification suite")
    common(p_ver)
    p_ver.add_argument("--only", action="append", default=None,
                       help=f"run only this check (repeatable); known: {', '.join(CHECK_NAMES)}")
    p_ver.add_argument("--tol", type=float, default=None, help="quadrature tolerance override")

    p_con = sub.add_parser("converge", help="coupling decay and slit-map rate studies")
    common(p_con)
    p_con.add_argument("--n-list", type=_parse_n_list, default=None, help="radii, e.g. 4,8,16,32")
    p_con.add_argument("--replicas", type=int, default=None)
    p_con.add_argument("--probe", action="append", type=_parse_complex, default=None,
                       help="evaluation point (default i)")
    p_con.add_argument("--window", type=float, default=None,
                       help="SHL truncation half-width (default: pi*N per radius)")

    p_ren = sub.add_parser("render", help="trace the cluster and export SVG + CSV")
    common(p_ren)
    p_ren.add_argument("--input", type=Path, default=None, help="existing events.jsonl")
    p_ren.add_argument("--samples", type=int, default=None, help="points per slit (default 16)")
    p_ren.add_argument("--forward", action="store_true",
                       help="draw the forward cluster (same law, different picture)")
    return parser


def _coerce_probe(value) -> complex:
    """Accept a probe from any config layer: complex, number, 'a+bi', {re, im}."""
    if isinstance(value, complex):
        return value
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, str):
        return _parse_complex(value)
    if isinstance(value, dict) and set(value) <= {"re", "im"}:
        return complex(value.get("re", 0.0), value.get("im", 0.0))
    raise ValueError(f"cannot interpret probe {value!r}")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults < config file < explicit flags into one plain dict."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        try:
            cfg.update(json.loads(Path(args.config).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}")  # -> exit 2
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None and value is not False:  # identity: seed 0 is a real value
            cfg[key] = value
    if cfg.get("seed") is None:
        cfg["seed"] = int(os.environ.get("CHL_SEED", "42"))
    if cfg.get("threads") is None:
        cfg["threads"] = os.cpu_count() or 1
    if cfg.get("probe"):
        cfg["probe"] = [_coerce_probe(v) for v in cfg["probe"]]
    return cfg


def _echo_config(cfg: dict, out_dir: Path) -> None:
    # the output path itself is excluded so reruns into different directories
    # stay byte-identical; everything needed to reproduce the artifacts remains
    out_dir.mkdir(parents=True, exist_ok=True)
    blob = {k: _jsonable(v) for k, v in sorted(cfg.items()) if k != "out"}
    (out_dir / "config.json").write_text(json.dumps(blob, sort_keys=True, indent=1) + "\n")


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


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "n": 10.0, "lam": 1.0, "t": 1.0, "seed": None, "out": Path("out"),
        "threads": None, "probe": [], "trajectory": False,
    })
    out_dir = Path(cfg["out"])
    _echo_config(cfg, out_dir)
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


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "out": Path("out"), "only": None, "tol": 1e-10, "threads": None, "seed": None,
        "n": None, "lam": None, "t": None,
    })
    out_dir = Path(cfg["out"])
    _echo_config(cfg, out_dir)
    try:
        results = run_suite(only=cfg["only"], tol=cfg["tol"], threads=cfg["threads"])
    except ValueError as exc:
        print(f"chl verify: {exc}", file=sys.stderr)
        return 2
    blob = _result_blob(results)
    (out_dir / "report.json").write_text(json.dumps(blob, sort_keys=True, indent=1) + "\n")
    for r in results:
        if r.grid:
            lines = ["scale,error"] + [f"{s:.17g},{e:.17g}" for s, e in r.grid]
            (out_dir / f"rate_{r.check}.csv").write_text("\n".join(lines) + "\n")
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.check}")
    return 0 if blob["all_passed"] else 1


def _cmd_converge(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "out": Path("out"), "lam": 1.0, "t": 0.5, "seed": None, "threads": None,
        "replicas": 500, "n_list": [4.0, 8.0, 16.0, 32.0], "probe": [], "n": None,
        "window": None,
    })
    out_dir = Path(cfg["out"])
    _echo_config(cfg, out_dir)
    z = (cfg["probe"] or [1j])[0]
    sups = coupling_sup_distances(
        cfg["lam"], z, cfg["t"], cfg["n_list"], cfg["replicas"], cfg["seed"],
        threads=cfg["threads"], window=cfg["window"],
    )
    means = sups.mean(axis=0)
    cis = 2.576 * sups.std(axis=0, ddof=1) / math.sqrt(cfg["replicas"])
    lines = ["N,mean_square_distance,ci99_halfwidth"]
    for n, m, c in zip(cfg["n_list"], means, cis):
        lines.append(f"{n:.17g},{m:.17g},{c:.17g}")
    (out_dir / "coupling.csv").write_text("\n".join(lines) + "\n")

    paired = (sups[:, 1:] < sups[:, :-1]).mean(axis=0)
    rate = slit_convergence_rate(cfg["lam"], 2e5j, [10.0, 20.0, 40.0, 80.0, 160.0])
    lines = ["scale,error"] + [f"{s:.17g},{e:.17g}" for s, e in rate.grid]
    (out_dir / "rate_slit_convergence.csv").write_text("\n".join(lines) + "\n")
    summary = {
        "coupling": {
            "n_list": cfg["n_list"],
            "means": [float(v) for v in means],
            "ci99": [float(v) for v in cis],
            "paired_decrease_fraction": [float(v) for v in paired],
        },
        "slit_rate": {"slope": rate.slope, "r_squared": rate.r_squared},
    }
    (out_dir / "converge.json").write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")
    print(f"converge: means {['%.3e' % v for v in means]} -> {out_dir / 'coupling.csv'}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "out": Path("out"), "n": 10.0, "lam": 1.0, "t": 3.0, "seed": None,
        "threads": None, "input": None, "samples": 16, "forward": False,
    })
    out_dir = Path(cfg["out"])
    _echo_config(cfg, out_dir)
    if cfg["input"] is not None:
        path = Path(cfg["input"])
        if not path.exists():
            print(f"chl render: input {path} not found", file=sys.stderr)
            return 2
        log = EventLog.from_jsonl(path.read_text())
    else:
        log = sample_events(CylinderParams(cfg["n"], cfg["lam"]), cfg["t"], cfg["seed"])
    traces = trace_cluster(log, samples_per_slit=cfg["samples"], forward=cfg["forward"])
    (out_dir / "cluster.csv").write_bytes(export_csv(traces))
    if traces:
        svg = export_svg(traces, log.params, RenderStyle())
        (out_dir / "cluster.svg").write_bytes(svg)
        print(f"render: {len(traces)} particles -> {out_dir / 'cluster.svg'}")
    else:
        print("render: empty log, wrote CSV only")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "converge": _cmd_converge,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"chl {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
