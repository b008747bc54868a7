"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Each criterion pins its tolerance and runtime budget explicitly.  All
randomness is seeded, so a failure here reproduces exactly.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from chl.cli import main
from chl.conformal import CylinderParams, cylinder_dist
from chl.process import Event, EventLog, ProcessEvaluator, drift
from chl.rng import SplitMix64
from chl.verify import (
    coupling_sup_distances,
    farfield_expansion_check,
    mc_growth_check,
    quad_mean_shift,
    quad_squared_deriv,
    quad_squared_shift,
    shift_commutation_check,
    slit_convergence_rate,
)


def report(num: int, label: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {label} ({detail})")
    assert passed, f"criterion {num}: {label}: {detail}"


def test_criterion_01_drift_identity_exact():
    """Average slit-map shift equals -2i pi N^2 log(1-delta^2), rel 1e-8."""
    start = time.perf_counter()
    rng = SplitMix64(314159)
    worst = 0.0
    for _ in range(10):
        n = 1.0 + 63.0 * rng.next_float()
        lam = 0.1 + 1.9 * rng.next_float()
        params = CylinderParams(n, lam)
        z = complex(params.half_period * (2 * rng.next_float() - 1), 10.0 * rng.next_float())
        res = quad_mean_shift(params, z, tol=1e-10)
        target = drift(params, 1.0)
        worst = max(worst, abs(res.value - target) / abs(target))
        assert res.converged
    elapsed = time.perf_counter() - start
    report(
        1,
        "drift identity (quad_mean_shift vs closed form)",
        worst <= 1e-8 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.2f}s < 10s",
    )


def test_criterion_02_limit_drift():
    """-2i N^2 pi log(1-delta(N,1)^2) is within 1e-3 of i pi/2 at N=1000."""
    value = drift(CylinderParams(1000.0, 1.0), 1.0)
    gap = abs(value - 1j * math.pi / 2.0)
    report(2, "limit drift i pi lam^2 t/2", gap <= 1e-3, f"|gap| {gap:.2e} <= 1e-3")


def test_criterion_03_slit_convergence_rate():
    """Log-log slope in [-1.4, -0.6], r^2 >= 0.95, for 5 probe points.

    Probes sit in the drift-dominated far field, where the 1/N term of the
    expansion is nonzero; at moderate fixed z the map converges quadratically
    (faster than the stated bound) and a -1 slope would be unattainable.
    """
    start = time.perf_counter()
    grid = [10.0, 20.0, 40.0, 80.0, 160.0]
    probes = (1e6j, 3e4 + 1e6j, 2e5j, -1e4 + 5e5j, 8e5j)
    slopes, r2s = [], []
    for z in probes:
        fit = slit_convergence_rate(1.0, z, grid)
        slopes.append(fit.slope)
        r2s.append(fit.r_squared)
    elapsed = time.perf_counter() - start
    ok = all(-1.4 <= s <= -0.6 for s in slopes) and all(r >= 0.95 for r in r2s)
    report(
        3,
        "slit-map convergence rate vs sqrt(z^2-lam^2)",
        ok and elapsed < 5.0,
        f"slopes {['%.3f' % s for s in slopes]}, min r2 {min(r2s):.4f}, {elapsed:.2f}s < 5s",
    )


def _random_fixed_count_log(params: CylinderParams, count: int, seed: int) -> EventLog:
    rng = SplitMix64(seed)
    horizon = 1.0
    times = sorted(horizon * (1.0 - rng.next_float()) for _ in range(count))
    xs = [params.half_period * (2.0 * rng.next_float() - 1.0) for _ in range(count)]
    return EventLog(params, horizon, seed, tuple(Event(t, x) for t, x in zip(times, xs)))


def test_criterion_04_disk_conjugation_identity():
    """Disk-coordinate evaluation equals the backward cylinder process, 1e-9."""
    start = time.perf_counter()
    rng = SplitMix64(271828)
    worst = 0.0
    for k in range(20):
        n = 2.0 + 6.0 * rng.next_float()
        params = CylinderParams(n, 0.3 + 1.2 * rng.next_float())
        log = _random_fixed_count_log(params, 50, 100_000 + k)
        bwd = ProcessEvaluator(log, "backward-chl")
        dsk = ProcessEvaluator(log, "disk-hl")
        for _ in range(20):
            z = complex(
                0.7 * params.half_period * (2.0 * rng.next_float() - 1.0),
                0.05 + 3.0 * rng.next_float(),
            )
            a = bwd.at(z, 1.0)
            b = dsk.at(z, 1.0)
            worst = max(worst, cylinder_dist(params, a, b))
    elapsed = time.perf_counter() - start
    report(
        4,
        "disk-conjugation identity (20 logs x 50 events x 20 points)",
        worst <= 1e-9 and elapsed < 30.0,
        f"max distance {worst:.2e} <= 1e-9, {elapsed:.2f}s < 30s",
    )


def test_criterion_05_shift_equivariance():
    """Cylinder-shift conjugation identity to 1e-9 on 20 random configs."""
    rng = SplitMix64(161803)
    worst = 0.0
    for _ in range(20):
        params = CylinderParams(1.0 + 7.0 * rng.next_float(), 0.2 + 1.6 * rng.next_float())
        xs = [params.half_period * (2.0 * rng.next_float() - 1.0) for _ in range(10)]
        y = 2.0 * params.period * (rng.next_float() - 0.5)
        z_grid = [
            complex(
                params.half_period * (2.0 * rng.next_float() - 1.0),
                0.1 + 4.0 * rng.next_float(),
            )
            for _ in range(20)
        ]
        worst = max(worst, shift_commutation_check(params, xs, y, z_grid))
    report(5, "shift equivariance", worst <= 1e-9, f"max abs err {worst:.2e} <= 1e-9")


def test_criterion_06_martingale_zero_mean():
    """|mean of A_t(i) - i - drift| within the 99% CI, N=16, 2000 replicas."""
    start = time.perf_counter()
    params = CylinderParams(16.0, 1.0)
    z, t = 1j, 1.0
    summary = mc_growth_check(params, z, t, replicas=2000, seed=90210)
    offset = abs(summary.mean - z - drift(params, t))
    elapsed = time.perf_counter() - start
    report(
        6,
        "martingale zero mean",
        offset <= summary.ci99_halfwidth and elapsed < 60.0,
        f"offset {offset:.4f} <= CI {summary.ci99_halfwidth:.4f}, {elapsed:.1f}s < 60s",
    )


def test_criterion_07_coupling_decay():
    """Mean sup-distance^2 to truncated SHL non-increasing over N, 500 replicas."""
    start = time.perf_counter()
    n_list = [4.0, 8.0, 16.0, 32.0]
    sups = coupling_sup_distances(1.0, 1j, 0.5, n_list, replicas=500, seed=60622)
    means = sups.mean(axis=0)
    cis = 2.576 * sups.std(axis=0, ddof=1) / math.sqrt(sups.shape[0])
    increases = 0
    overlap_ok = True
    for k in range(len(n_list) - 1):
        if means[k + 1] > means[k]:
            increases += 1
            overlap_ok &= means[k + 1] - cis[k + 1] <= means[k] + cis[k]
    elapsed = time.perf_counter() - start
    report(
        7,
        "coupling decay toward truncated SHL",
        increases <= 1 and overlap_ok and elapsed < 120.0,
        f"means {['%.2e' % m for m in means]}, increases {increases}, {elapsed:.1f}s < 120s",
    )


def test_criterion_08_integral_boundedness_and_tail():
    """Shift/deriv integrals vary by <= 3x over N in {2..32}; tail ~ 1/xi."""
    start = time.perf_counter()
    ns = [2.0, 4.0, 8.0, 16.0, 32.0]
    shift_vals = [quad_squared_shift(CylinderParams(n, 1.0), 0j).value.real for n in ns]
    deriv_vals = [quad_squared_deriv(CylinderParams(n, 1.0), 1j).value.real for n in ns]
    shift_ratio = max(shift_vals) / min(shift_vals)
    deriv_ratio = max(deriv_vals) / min(deriv_vals)
    p32 = CylinderParams(32.0, 1.0)
    xis = (4.0, 8.0, 16.0)
    tails = [quad_squared_shift(p32, 0j, domain=(xi, p32.half_period)).value.real for xi in xis]
    exponent = float(np.polyfit(np.log(xis), np.log(tails), 1)[0])
    elapsed = time.perf_counter() - start
    ok = shift_ratio <= 3.0 and deriv_ratio <= 3.0 and -1.3 <= exponent <= -0.7
    report(
        8,
        "integral boundedness and 1/xi tail",
        ok and elapsed < 30.0,
        f"shift x{shift_ratio:.2f}, deriv x{deriv_ratio:.2f}, tail exp {exponent:.2f}, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_09_farfield_expansion():
    """Residual of the three-term expansion decays with slope <= -0.9/N."""
    start = time.perf_counter()
    slopes = {}
    ok = True
    for n in (1.0, 3.0):
        params = CylinderParams(n, 1.0)
        fit = farfield_expansion_check(params, [n * k for k in range(5, 13)])
        slopes[n] = fit.slope
        ok &= fit.slope <= -0.9 / n
    elapsed = time.perf_counter() - start
    report(
        9,
        "far-field expansion residual decay",
        ok and elapsed < 5.0,
        f"slopes {{1: {slopes[1.0]:.3f}, 3: {slopes[3.0]:.3f}}}, {elapsed:.2f}s < 5s",
    )


def test_criterion_10_determinism(tmp_path):
    """Repeated simulate/verify runs with fixed seeds are byte-identical."""
    sim_args = ["simulate", "--n", "10", "--lambda", "1", "--t", "3", "--seed", "7",
                "--probe", "0+1i", "--trajectory"]
    ver_args = ["verify", "--only", "quad_mean_shift", "--only", "martingale_zero_mean",
                "--only", "shift_commutation"]
    dirs = [tmp_path / f"d{i}" for i in range(4)]
    assert main(sim_args + ["--out", str(dirs[0])]) == 0
    assert main(sim_args + ["--out", str(dirs[1])]) == 0
    assert main(ver_args + ["--out", str(dirs[2])]) == 0
    assert main(ver_args + ["--out", str(dirs[3])]) == 0
    same_sim = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("events.jsonl", "trajectory.csv", "config.json")
    )
    same_ver = (dirs[2] / "report.json").read_bytes() == (dirs[3] / "report.json").read_bytes()
    passed_checks = json.loads((dirs[2] / "report.json").read_text())["all_passed"]
    report(
        10,
        "determinism of simulate/verify artifacts",
        same_sim and same_ver and passed_checks,
        f"simulate identical: {same_sim}, verify identical: {same_ver}",
    )
