"""One workload repetition, or the layer probes, in a fresh interpreter.

Started by ``run.py`` as ``python3 child.py <spec.json> <spawn_time>``, where
``spawn_time`` is the parent's ``time.perf_counter()`` just before the spawn.
On Linux that clock is CLOCK_MONOTONIC, shared by all processes, so the
child can place its own marks on the parent's time line: set-up time is
spawn to the end of argument/config resolution, the last step before the
first call into a layer.  The marks go to ``timing.json`` beside the spec
and, for a traced run, the spans go to ``trace.json``.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    spec_path = Path(sys.argv[1])
    spec = json.loads(spec_path.read_text())
    marks = {"spawn": float(sys.argv[2]), "start": T_START}
    marks["import_start"] = time.perf_counter()
    import chl
    import chl.cli

    marks["import_end"] = time.perf_counter()
    if spec["kind"] == "probes":
        result = run_probes(spec)
        (spec_path.parent / "probes.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if spec["kind"] == "cli":
        rc = run_cli(spec, marks)
    else:
        rc = run_quad_sweep(spec, marks, chl)
    marks["end"] = time.perf_counter()
    (spec_path.parent / "timing.json").write_text(json.dumps(marks))
    if tracer is not None:
        snap = tracer.snapshot()
        if spec["kind"] == "cli":
            # cli self time: after set-up until main returns, minus the layers it called
            inner = sum(snap["self_s"].values())
            snap["self_s"]["cli"] = marks["main_end"] - marks["setup_end"] - inner
        (spec_path.parent / "trace.json").write_text(json.dumps(snap))
    return rc


def run_cli(spec: dict, marks: dict) -> int:
    import chl.cli as cli

    resolve = cli._resolve

    def resolve_and_mark(*args, **kwargs):
        cfg = resolve(*args, **kwargs)
        marks["setup_end"] = time.perf_counter()
        return cfg

    cli._resolve = resolve_and_mark
    rc = cli.main(spec["argv"])
    marks["main_end"] = time.perf_counter()
    return rc


def run_quad_sweep(spec: dict, marks: dict, chl) -> int:
    """Certify every integral of the generated grid and write the results."""
    grid = json.loads(Path(spec["grid"]).read_text())
    tol = grid["tol"]
    funcs = {name: getattr(chl, name) for name in
             ("quad_mean_shift", "quad_squared_shift", "quad_squared_deriv")}
    items = [(chl.CylinderParams(it["N"], it["lam"]), complex(*it["z"]), it["fns"])
             for it in grid["items"]]
    marks["setup_end"] = time.perf_counter()
    rows = []
    for params, z, names in items:
        for name in names:
            res = funcs[name](params, z, tol=tol)
            rows.append({
                "fn": name, "N": params.radius_n, "z": [z.real, z.imag],
                "value": [res.value.real, res.value.imag], "err": res.abs_error_estimate,
                "panels": res.subdivisions, "converged": res.converged,
            })
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "quad.json").write_text(json.dumps({"tol": tol, "results": rows}, indent=1) + "\n")
    return 0


# ---------------------------------------------------------------------------
# probes: each times one layer on fixed inputs, independent of the workload


def run_probes(spec: dict) -> dict:
    out = {}
    out.update(kernel_probe(spec["kernel_points"]))
    out.update(pool_probe(spec["pool_replicas"], spec["seed"]))
    out.update(render_probe(spec["render_seed"], spec["render_horizons"]))
    return out


def _kernel_points(count: int):
    """Four seeded point sets for N=10, lam=1, one per branch of cyl_slit at x=0; the params."""
    import cmath

    from chl import CylinderParams, SplitMix64

    params = CylinderParams(10.0, 1.0)
    n, d = params.radius_n, params.delta
    rng = SplitMix64(20260117)
    half = params.half_period

    def zeta_gap(z):
        return abs(cmath.exp(-1j * z / n) - 1.0)

    def draw(make, accept):
        pts = []
        while len(pts) < count:
            z = make()
            if accept(z):
                pts.append(z)
        return pts

    u = lambda: half * (2.0 * rng.next_float() - 1.0)  # noqa: E731
    return {
        "boundary": draw(lambda: complex(u(), 0.0), lambda z: True),
        "interior": draw(lambda: complex(u(), 1e-3 + 29.0 * n * rng.next_float()),
                         lambda z: zeta_gap(z) >= 0.5 * d),
        "tip": draw(lambda: complex(0.5 * d * n * (2.0 * rng.next_float() - 1.0),
                                    0.5 * d * n * rng.next_float()),
                    lambda z: z.imag > 1e-15 * n and zeta_gap(z) < 0.5 * d),
        "farfield": draw(lambda: complex(u(), n * (30.0 + 30.0 * rng.next_float())),
                         lambda z: True),
    }, params


def kernel_probe(count: int, repeats: int = 7) -> dict:
    """Nanoseconds per call of cyl_slit in each regime, and of halfplane_slit."""
    from chl import cyl_slit, halfplane_slit

    sets, params = _kernel_points(count)

    def ns_per_call(fn, first, pts):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for z in pts:
                fn(first, 0.0, z)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) / len(pts) * 1e9

    out = {f"conformal.cyl_slit_ns.{regime}": ns_per_call(cyl_slit, params, pts)
           for regime, pts in sets.items()}
    out["conformal.halfplane_slit_ns"] = ns_per_call(halfplane_slit, params.lam, sets["interior"])
    return out


def pool_probe(replicas: int, seed: int) -> dict:
    """The same mc_growth_check on one worker and on two; results must be identical."""
    from chl import CylinderParams, mc_growth_check, mix_seed, sample_events

    params = CylinderParams(16.0, 1.0)
    t0 = time.perf_counter()
    one = mc_growth_check(params, 1j, 1.0, replicas, seed, threads=1)
    t1 = time.perf_counter()
    two = mc_growth_check(params, 1j, 1.0, replicas, seed, threads=2)
    t2 = time.perf_counter()
    for r in range(replicas):
        sample_events(params, 1.0, mix_seed(seed, r))
    t3 = time.perf_counter()
    return {
        "verify.mc_pool_speedup": (t1 - t0) / (t2 - t1),
        "verify.mc_sampling_share": (t3 - t2) / (t1 - t0),
        "pool_identical": one == two,
    }


def render_probe(seed: int, horizons: list) -> dict:
    """trace_cluster on nested prefixes of one log; slope of log time against log events."""
    from chl import CylinderParams, EventLog, sample_events, trace_cluster

    params = CylinderParams(10.0, 1.0)
    full = sample_events(params, horizons[-1], seed)
    out = {}
    xs, ys = [], []
    for label, t in zip(("small", "mid", "large"), horizons):
        log = EventLog(params, t, full.seed, tuple(e for e in full.events if e.time <= t))
        t0 = time.perf_counter()
        trace_cluster(log)
        seconds = time.perf_counter() - t0
        out[f"render.trace_s.{label}"] = seconds
        xs.append(math.log(len(log)))
        ys.append(math.log(seconds))
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    out["render.trace_exponent"] = (
        sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    )
    return out


if __name__ == "__main__":
    sys.exit(main())
