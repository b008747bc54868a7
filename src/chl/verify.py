"""Numerical certification of the growth-process identities and limits.

Three kinds of evidence are produced, mirroring the strength of each claim:

* exact identities (the average slit-map shift, shift equivariance, the
  disk-coordinate conjugation) are checked by adaptive quadrature or direct
  composition against closed forms, with no statistical slack;
* asymptotic statements (convergence of the cylinder slit map to the
  half-plane slit map, the far-field expansion, integral boundedness and
  tail decay) are turned into rate fits over explicit grids, which are kept
  on the result objects so tests can assert slopes rather than booleans;
* stochastic claims (zero-mean martingale part, coupling decay toward the
  stationary half-plane process) are Monte Carlo two-sided tests at 99%
  confidence with seeded, replica-indexed streams, so failures reproduce.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conformal import (
    CylinderParams,
    _far_field,
    _PerPoint,
    cyl_slit,
    cyl_slit_deriv,
    cyl_slit_deriv2,
    cyl_slit_many,
    cylinder_dist,
    halfplane_slit,
    halfplane_slit_many,
)
from .process import (
    _horizon,
    _disk_step,
    _LockStep,
    _restrict_many,
    _restricted_params,
    drift,
    orbit_many,
    sample_events,
    sample_many,
)
from .quadrature import QuadratureResult, adaptive_quadrature
from .render import _EPS, _MAX_ERROR
from .rng import SplitMix64, mix_seed, poisson_many

__all__ = [
    "RateFit",
    "McSummary",
    "CheckResult",
    "quad_mean_shift",
    "quad_squared_shift",
    "quad_squared_deriv",
    "slit_convergence_rate",
    "farfield_expansion_check",
    "shift_commutation_check",
    "mc_growth_check",
    "coupling_sup_distances",
    "ks_two_sample",
    "run_suite",
    "CHECK_NAMES",
]

_RESIDUAL_FLOOR = 1e-14
_BOUNDARY_BAND = 1e-3  # Im z below which the slit-base corners are split at and graded


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (transformed) error data.

    ``grid`` holds the raw (scale, error) pairs; ``excluded`` lists scales
    dropped as floor-limited (error at most ``_RESIDUAL_FLOOR``) before
    fitting.  ``slope`` is d log(err) / d log(scale) for power-law fits and
    d log(err) / d scale for exponential ones (the caller knows which it
    asked for).  With fewer than two points above the floor the fit is
    degenerate: slope 0, r^2 0, every scale excluded.
    """

    grid: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    r_squared: float
    excluded: tuple[float, ...] = ()


@dataclass(frozen=True)
class McSummary:
    """Replica mean with componentwise spread and a 99% CI half-width."""

    replicas: int
    mean: complex
    std_re: float
    std_im: float
    ci99_halfwidth: float


def _summarize(samples: np.ndarray) -> list[McSummary]:
    """One summary per column of a (replicas, k) array; a 1-D array is one column."""
    values = np.asarray(samples)
    if values.ndim == 1:
        values = values[:, None]
    n = values.shape[0]
    if n < 2:
        raise ValueError("need at least two replicas to summarize")
    means = values.mean(axis=0).tolist()
    stds_re = values.real.std(axis=0, ddof=1).tolist()
    stds_im = values.imag.std(axis=0, ddof=1).tolist()
    return [McSummary(n, complex(m), s_re, s_im, 2.576 * max(s_re, s_im) / math.sqrt(n))
            for m, s_re, s_im in zip(means, stds_re, stds_im)]


def _rate_fit(scales: Sequence[float], errors: Sequence[float], log_x: bool) -> RateFit:
    """Least-squares line through the points above ``_RESIDUAL_FLOOR``."""
    grid = tuple((float(s), float(e)) for s, e in zip(scales, errors))
    kept = [(s, e) for s, e in grid if e > _RESIDUAL_FLOOR]
    excluded = tuple(s for s, e in grid if e <= _RESIDUAL_FLOOR)
    if len(kept) < 2:
        return RateFit(grid, 0.0, 0.0, 0.0, tuple(s for s, _ in grid))
    x = np.array([math.log(s) if log_x else s for s, _ in kept])
    y = np.array([math.log(e) for _, e in kept])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(grid, float(slope), float(intercept), r2, excluded)


# ---------------------------------------------------------------------------
# quadrature checks
# ---------------------------------------------------------------------------


def _feature_splits(params: CylinderParams, z: complex, a: float, b: float) -> list[float]:
    """Panel seeds around the integrand's singularities in x, at Re z and its images +-2piN.

    S_0's branch points sit at the slit-base corners +-2N asin(delta), so in x the
    integrand is singular at Re z +- 2N asin(delta) + i Im z.  For boundary z the
    corners are seeded: each square-root kink is a piece end that ``_quad_over_x``
    grades away.  Above that band the seeds are graded by powers of 2, Im z * 2^k to
    each side of the corners (of Re z above their half-width): a piece's halves then
    lie in a Bernstein ellipse of rho > 4, where K15 errs by about rho^-30 (Trefethen,
    ATAP, ch. 8), so nearly every piece is resolved by the first integrand call.
    """
    corner = 2.0 * params.radius_n * math.asin(params.delta)  # slit-base half-width
    splits = []
    for base in (z.real, z.real - params.period, z.real + params.period):
        splits.append(base)
        if z.imag < _BOUNDARY_BAND:
            splits += [base - corner, base + corner]
            continue
        for centre in (base - corner, base + corner) if z.imag < corner else (base,):
            step = z.imag
            while step < b - a:
                splits += [centre - step, centre + step]
                step *= 2.0
    return [s for s in splits if a < s < b]


def _quad_over_x(params, z, integrand, tol, domain=None) -> QuadratureResult:
    """Integral of ``integrand(x)`` over ``domain`` (default one period), split at z's features.

    ``integrand`` maps an array of abscissae x to a complex array, as ``adaptive_quadrature``'s.

    Boundary z (Im z < 1e-3) integrate in a graded variable s in [0, k] over the k
    pieces [e_i, e_{i+1}] between splits: x = e_i + h_i t^2 (3 - 2t), t = s - i, so a
    sqrt(x - e) kink at a piece end becomes linear in t (Davis & Rabinowitz, 2.12);
    each piece starts as four panels in s.  Other z integrate in x over the splits'
    graded mesh, about one integrand call each.
    """
    a, b = domain if domain is not None else (-params.half_period, params.half_period)
    if not (-params.half_period - 1e-12 <= a < b <= params.half_period + 1e-12):
        raise ValueError(f"domain [{a}, {b}] not inside [-pi N, pi N]")
    splits = _feature_splits(params, z, a, b)
    if z.imag >= _BOUNDARY_BAND:
        return adaptive_quadrature(integrand, a, b, tol=tol, presplit=splits)
    edges = np.array([a, *sorted(set(splits)), b])
    k = len(edges) - 1

    def graded(s):
        i = np.minimum(s.astype(np.intp), k - 1)
        t, h = s - i, edges[i + 1] - edges[i]
        return integrand(edges[i] + h * t * t * (3.0 - 2.0 * t)) * (6.0 * h * t * (1.0 - t))

    # four panels a piece: 2.4 integrand calls per boundary integral at tol 1e-12, 7.6 with one
    return adaptive_quadrature(graded, 0.0, float(k), tol=tol,
                               presplit=[i / 4 for i in range(1, 4 * k)])


def quad_mean_shift(params: CylinderParams, z: complex, tol: float = 1e-10) -> QuadratureResult:
    """Integral of S_x(z) - z over one period of attachment points x.

    Equals ``drift(params, 1.0)`` for every z on the cylinder; this
    z-independence is itself part of what the callers assert.
    """
    z = complex(z)
    return _quad_over_x(params, z, lambda x: cyl_slit_many(params, x, np.full(x.shape, z)) - z,
                        tol)


def quad_squared_shift(
    params: CylinderParams,
    z: complex,
    domain: tuple[float, float] | None = None,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Integral of |S_x(z) - z|^2 over attachment points x in ``domain``.

    The full-period value is bounded uniformly in N; the tail over
    [xi, pi*N] decays like 1/xi.
    """
    z = complex(z)
    return _quad_over_x(
        params, z, lambda x: np.abs(cyl_slit_many(params, x, np.full(x.shape, z)) - z) ** 2 + 0j,
        tol, domain)


def quad_squared_deriv(params: CylinderParams, z: complex, tol: float = 1e-10) -> QuadratureResult:
    """Integral of |dS_x/dz(z) - 1|^2 over one period; interior z only."""
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError("quad_squared_deriv requires Im z > 0")
    return _quad_over_x(params, z, lambda x: np.abs(cyl_slit_deriv(params, x, z) - 1.0) ** 2 + 0j,
                        tol)


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------


def slit_convergence_rate(lam: float, z: complex, n_grid: Sequence[float]) -> RateFit:
    """Decay of |S^N_0(z) - sqrt(z^2 - lam^2)| against the radius N.

    The half-plane value is this package's own branch-continuous slit map,
    an oracle independent of the cylinder evaluation path.  Note the decay
    at fixed moderate z is one order faster than the uniform C(z)/N bound
    (the tangent corrections are odd, so the 1/N terms cancel); the 1/N rate
    is realized where the constant drift term dominates, i.e. far above the
    boundary relative to the largest N in the grid.
    """
    n_grid = sorted(float(n) for n in n_grid)
    if len(n_grid) < 4:
        raise ValueError("n_grid needs at least 4 values")
    if n_grid[-1] < 10.0 * n_grid[0] * (1.0 - 1e-12):
        raise ValueError("n_grid should span at least a decade")
    z = complex(z)
    oracle = halfplane_slit(lam, 0.0, z)
    errors = [abs(cyl_slit(CylinderParams(n, lam), 0.0, z) - oracle) for n in n_grid]
    return _rate_fit(n_grid, errors, log_x=True)


def farfield_expansion_check(params: CylinderParams, y_grid: Sequence[float]) -> RateFit:
    """Residual decay of the three-term expansion at the cylinder's top.

    Subtracts ``z - iN log(1-delta^2) + 2iN delta^2 exp(iz/N)`` from S_0(iy)
    and fits log-residual against y (an exponential-decay fit: slope is per
    unit height).  Residuals at the double-precision floor are excluded and
    reported on the fit.
    """
    y_grid = [float(y) for y in y_grid]
    if any(b <= a for a, b in zip(y_grid, y_grid[1:])):
        raise ValueError("y_grid must be strictly ascending")
    if y_grid[0] < 3.0 * params.radius_n:
        raise ValueError("y_grid must start at 3N or above")
    residuals = [abs(cyl_slit(params, 0.0, 1j * y) - _far_field(params, 1j * y)) for y in y_grid]
    return _rate_fit(y_grid, residuals, log_x=False)


def shift_commutation_check(
    params: CylinderParams,
    xs: Sequence[float],
    y: float,
    z_grid: Sequence[complex],
) -> float:
    """Max error of conjugating the composed cluster map by the cylinder shift.

    The shift eta_y acts on lifted coordinates as z -> z - y; conjugating
    the composition S_{x_1} o ... o S_{x_n} by it must equal the composition
    with every attachment point moved by y.  This is an exact identity.
    """
    return float(np.abs(np.subtract(*_shift_sides([(params, xs, y, z_grid)]))).max(initial=0.0))


def _padded(rows: Sequence) -> np.ndarray:
    """The rows as one 2-D array, each padded with ``+inf`` (no map) to the longest."""
    return np.array(list(itertools.zip_longest(*rows, fillvalue=np.inf))).reshape(-1, len(rows)).T


def _shift_sides(configs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """``S(z - y) + y`` and ``S^y(z)`` at each z of every ``(params, xs, y, z_grid)``: S composes
    the maps over ``xs``, S^y those over ``xs`` moved by y, as ``shift_commutation_check``."""
    params, xs, ys, grids = zip(*configs)
    which = np.repeat(np.arange(len(configs)), [len(g) for g in grids])
    z, y = np.array([q for g in grids for q in g], dtype=complex), np.array(ys, dtype=float)[which]
    rows = [list(reversed(row)) for row in xs]
    rows += [[x + shift for x in row] for row, shift in zip(rows, ys)]
    both = np.concatenate([which, which + len(configs)])
    *_, w = orbit_many(cyl_slit_many, _PerPoint.stack(params * 2, both), _padded(rows)[both],
                       np.concatenate([z - y, z]))
    return w[:len(z)] + y, w[len(z):]


def _disk_sides(logs: Sequence, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray, _PerPoint]:
    """``eval_backward_chl`` and ``eval_disk_hl`` of each log at its horizon, at its row of
    ``probes`` (flat), by ``cyl_slit_many`` and ``_disk_slit_many``; and the points' params."""
    which, z = np.repeat(np.arange(len(logs)), probes.shape[1]), probes.ravel()
    p, xs = _PerPoint.stack([g.params for g in logs], which), _padded([g.xs for g in logs])[which]
    *_, chl = orbit_many(cyl_slit_many, p, xs, z)
    *_, zeta = orbit_many(_disk_step, p, xs, np.exp(-1j * z / p.radius_n))
    assert np.abs(zeta).max(initial=0.0) < 1e130  # the kernel's domain; no map lowers a point
    return chl, 1j * p.radius_n * np.log(zeta), p


def _quad_second_deriv(params: CylinderParams, z: complex, tol: float) -> QuadratureResult:
    """Integral of |S_x''(z)|^2 over attachment points x in [0, pi*N]."""
    return _quad_over_x(params, z, lambda x: np.abs(cyl_slit_deriv2(params, x, z)) ** 2 + 0j,
                        tol, domain=(0.0, params.half_period))


# ---------------------------------------------------------------------------
# Monte Carlo checks
# ---------------------------------------------------------------------------


# Lock-step width: replicas advanced together; it bounds a block's memory for any --replicas.
_BLOCK = 2048
# Rows per sample_many call or restriction while a block is filled: their temporaries grow with it.
_SAMPLE_ROWS = 256
# Most replicas one Monte Carlo accepts: its seed list and result rows are built up front.
_MAX_REPLICAS = 10**7


def _run_replicas(worker, seeds: list) -> np.ndarray:
    """``worker(block)`` over consecutive blocks of ``_BLOCK`` seeds, concatenated in seed order.

    A replica's stream depends on its seed alone, and the lock-step kernels act
    on each replica's own elements, so results do not depend on ``_BLOCK``.
    """
    return np.concatenate([worker(seeds[i:i + _BLOCK]) for i in range(0, len(seeds), _BLOCK)])


def _longest_first(part, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows by descending count (stable) and, in that order, ``part(rows)`` of each chunk of
    ``_SAMPLE_ROWS`` rows in one ``(len(counts), counts.max())`` +inf array."""
    order = np.argsort(-counts, kind="stable")
    out = np.full((len(counts), counts.max(initial=0)), np.inf)
    for lo in range(0, len(order), _SAMPLE_ROWS):
        rows = part(order[lo:lo + _SAMPLE_ROWS])
        out[lo:lo + len(rows), :rows.shape[1]] = rows
    return order, out


def _by_count(params: CylinderParams, t: float, block: list) -> tuple[np.ndarray, np.ndarray]:
    """``_longest_first`` of the block's ``sample_many`` abscissae, by their Poisson counts."""
    seeds = np.array(block, dtype=np.uint64)
    counts, _ = poisson_many(seeds, params.period * _horizon(t))
    return _longest_first(lambda rows: sample_many(params, t, seeds[rows])[2], counts)


def mc_growth_check(
    params: CylinderParams,
    z: complex,
    t: float,
    replicas: int,
    seed: int,
    threads: int = 1,
) -> McSummary:
    """Sample mean of the backward process at z over seeded replicas.

    The exact mean is ``z + drift(params, t)`` for every finite N (the
    martingale part has mean zero); callers compare against the 99% CI.
    Each replica's value is the representative within pi N of ``Re z``.
    ``threads`` has no effect: the replicas run in lock-step, in this process.
    """
    if not 100 <= replicas <= _MAX_REPLICAS:
        raise ValueError(f"mc_growth_check needs 100 to {_MAX_REPLICAS:g} replicas, got {replicas}")
    if t == 0.0:  # no arrivals: every replica is the identity at z
        return _summarize(np.full(replicas, complex(z)))[0]

    def grow(block: list) -> np.ndarray:
        order, xs = _by_count(params, t, block)
        steps = _LockStep(params, np.full(len(block), complex(z)))
        for col in np.transpose(xs):
            steps.step(col)  # its live rows, a prefix, move
        return steps.points(z)[np.argsort(order)]

    return _summarize(_run_replicas(grow, [mix_seed(seed, r) for r in range(replicas)]))[0]


def coupling_sup_distances(
    lam: float,
    z: complex,
    t: float,
    n_list: Sequence[float],
    replicas: int,
    seed: int,
    window: float | None = None,
) -> np.ndarray:
    """Per-replica sup_t |backward CHL - truncated SHL|^2 for each radius.

    One master log at the largest radius drives every process; smaller radii
    see its restriction, and the half-plane process is truncated to the
    window ``min(window, pi*N)`` (default: the full strip pi*N, so both
    processes consume literally the same events).  The sup runs over event
    times plus the horizon, which is exact because both processes are
    constant between events.  Returns a (replicas, len(n_list)) array in seed
    order; each radius runs its rows longest first, a column on its live rows.
    ``ValueError`` where an abscissa at the largest radius or the probe resolves
    to only eps max(pi N, |z|) > 1e-10 (render's bound for one event, at lam = 1).
    """
    if not 2 <= replicas <= _MAX_REPLICAS:  # a spread, and a seed list that fits in memory
        raise ValueError(f"need 2 to {_MAX_REPLICAS:g} replicas, got {replicas}")
    n_list = [float(n) for n in n_list]
    if not all(a < b for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending")
    if window is not None and not window >= lam:
        raise ValueError("truncation window must be >= slit length")
    if (res := _EPS * max(math.pi * n_list[-1], abs(z))) > _MAX_ERROR:
        raise ValueError(f"cannot resolve abscissae at N = {n_list[-1]:g} or probe {z}: "
                         f"eps max(pi N, |z|) = {res:.3g} exceeds {_MAX_ERROR:g}")
    master = CylinderParams(n_list[-1], lam)
    radii = [(_restricted_params(master, math.pi * n), math.pi * n,
              math.pi * n if window is None else min(window, math.pi * n)) for n in n_list]

    def sups(block: list) -> np.ndarray:
        order, sub = _by_count(master, t, block)
        out = np.zeros((len(block), len(radii)))
        for k in reversed(range(len(radii))):  # largest first: each restricts the last one's rows
            params, half_width, w_eff = radii[k]
            # restrict_log's events, compacted, rows by descending kept count; the SHL keeps
            # their columns, masked to its window.  Column j moves the rows [:live[j]]
            keep = (-half_width <= sub) & (sub <= half_width)
            count = np.count_nonzero(keep, axis=1)
            if params is not master:  # the master radius keeps every event, in count order
                by, sub = _longest_first(lambda rows: _restrict_many(sub[rows], keep[rows]), count)
                order, count = order[by], count[by]  # order: the block position of each row
            live = np.searchsorted(-count, -np.arange(sub.shape[1]))
            chl = _LockStep(params, np.full(len(block), complex(z)))
            c, sup = chl.points(), np.zeros(len(block))
            kept = sub if w_eff == half_width else np.where(abs(sub) <= w_eff, sub, np.inf)
            shl = orbit_many(halfplane_slit_many, lam, kept, np.full(len(kept), complex(z)))
            for m, col, h in zip(live, np.transpose(sub), itertools.islice(shl, 1, None)):
                chl.step(col)
                c[:m] = chl.points(c[:m])  # each map moves Re by less than pi N
                np.maximum(sup[:m], abs(c[:m] - h[:m]) ** 2, out=sup[:m])
            out[order, k] = sup
        return out

    return _run_replicas(sups, [mix_seed(seed, r) for r in range(replicas)])


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    xs = np.sort(np.asarray(a, dtype=float))
    ys = np.sort(np.asarray(b, dtype=float))
    m, n = xs.size, ys.size
    both = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, both, side="right") / m
    cdf_y = np.searchsorted(ys, both, side="right") / n
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    en = math.sqrt(m * n / (m + n))
    lam = (en + 0.12 + 0.11 / en) * d
    p = 2.0 * sum((-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam) for j in range(1, 101))
    return d, min(max(p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# named check suite (consumed by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------


def _certified(quad, cases: Sequence) -> tuple[list[float | None], bool]:
    """Real parts of ``quad(case)`` for each case, and whether every one converged.

    The first quadrature that does not converge fails its check, so the cases
    after it are not run: their values are None, null in the report.
    """
    values = [None] * len(cases)
    for k, case in enumerate(cases):
        res = quad(case)
        values[k] = res.value.real
        if not res.converged:
            return values, False
    return values, True


@dataclass(frozen=True)
class CheckResult:
    """One machine-readable verification outcome."""

    check: str
    params: dict
    values: dict
    target: str
    tolerance: float
    passed: bool
    grid: tuple[tuple[float, float], ...] = ()


def _check_mean_shift(tol: float) -> CheckResult:
    params = CylinderParams(2.0, 1.0)
    target = drift(params, 1.0)
    worst = 0.0
    converged = True
    for z in (1j, 5.0 + 0.1j, 0.25 + 0j):
        res = quad_mean_shift(params, z, tol=tol)
        converged &= res.converged
        worst = max(worst, abs(res.value - target) / abs(target))
        if not converged:
            break  # the check already failed; skip the remaining cap runs
    small = None  # skipped after a failed run: null in the report
    if converged:
        tiny = quad_mean_shift(CylinderParams(1.0, 1e-4), 1j, tol=tol)
        converged, small = tiny.converged, abs(tiny.value)
    passed = converged and worst <= 1e-8 and small <= 1e-7
    return CheckResult(
        "quad_mean_shift",
        {"N": 2.0, "lambda": 1.0},
        {"max_rel_error": worst, "small_lambda_abs": small, "converged": converged},
        "relative error vs -2i pi N^2 log(1-delta^2)",
        1e-8,
        passed,
    )


def _check_squared_shift(tol: float) -> CheckResult:
    ns = [2.0, 4.0, 8.0, 16.0, 32.0]
    p32 = CylinderParams(32.0, 1.0)
    xis = [4.0, 8.0, 16.0]
    cases = [(CylinderParams(n, 1.0), None) for n in ns] + [(p32, (xi, p32.half_period))
                                                           for xi in xis]
    values, converged = _certified(
        lambda case: quad_squared_shift(case[0], 0j, domain=case[1], tol=tol), cases)
    vals, tails = values[:len(ns)], values[len(ns):]
    stats = dict.fromkeys(("max_over_min", "tail_exponent", "tail_ratio_8_over_16"))
    grid = ()
    if converged:
        tail_fit = _rate_fit(xis, tails, log_x=True)
        stats = {"max_over_min": max(vals) / min(vals), "tail_exponent": tail_fit.slope,
                 "tail_ratio_8_over_16": tails[1] / tails[2]}
        grid = tail_fit.grid
    passed = (
        converged
        and stats["max_over_min"] <= 3.0
        and abs(stats["tail_exponent"] + 1.0) <= 0.3
        and 1.3 <= stats["tail_ratio_8_over_16"] <= 3.2
    )
    return CheckResult(
        "quad_squared_shift",
        {"lambda": 1.0, "N_grid": ns},
        {"full_domain_values": dict(zip(map(str, ns), vals)), **stats, "converged": converged},
        "uniform-in-N bound (ratio <= 3) and 1/xi tail",
        3.0,
        passed,
        grid,
    )


def _check_squared_deriv(tol: float) -> CheckResult:
    ns = [4.0, 8.0, 16.0, 32.0]
    p8 = CylinderParams(8.0, 1.0)
    cases = [(CylinderParams(n, 1.0), 1j) for n in ns] + [(p8, 0.5j), (p8, 10j)]
    values, converged = _certified(lambda case: quad_squared_deriv(*case, tol=tol), cases)
    vals, heights = values[:len(ns)], values[len(ns):]
    ratio = max(vals) / min(vals) if converged else None
    passed = converged and ratio <= 3.0 and heights[1] <= heights[0]
    return CheckResult(
        "quad_squared_deriv",
        {"lambda": 1.0, "N_grid": ns, "z": "i"},
        {
            "full_domain_values": dict(zip(map(str, ns), vals)),
            "max_over_min": ratio,
            "height_decay": heights,
            "converged": converged,
        },
        "uniform-in-N bound (ratio <= 3), decay with height",
        3.0,
        passed,
    )


# Far-field probes: high enough that the 1/N drift term dominates the fit for
# every N in the grid (at moderate fixed z the map converges one order faster
# and the slope would honestly sit near -2).
_RATE_PROBES = (1e6j, 3e4 + 1e6j, 2e5j, -1e4 + 5e5j, 8e5j)
# The radii of every slit-rate study: this check's and ``chl converge``'s.
SLIT_RATE_GRID = (10.0, 20.0, 40.0, 80.0, 160.0)


def _check_slit_rate(tol: float) -> CheckResult:
    slopes = {}
    passed = True
    for z in _RATE_PROBES:
        fit = slit_convergence_rate(1.0, z, SLIT_RATE_GRID)
        slopes[str(z)] = (fit.slope, fit.r_squared)
        passed &= -1.4 <= fit.slope <= -0.6 and fit.r_squared >= 0.95
    return CheckResult(
        "slit_convergence_rate",
        {"lambda": 1.0, "N_grid": list(SLIT_RATE_GRID)},
        {"slopes": {k: v[0] for k, v in slopes.items()},
         "r_squared": {k: v[1] for k, v in slopes.items()}},
        "log-log slope in [-1.4, -0.6], r^2 >= 0.95",
        0.4,
        passed,
    )


def _check_farfield(tol: float) -> CheckResult:
    results = {}
    passed = True
    grids = ()
    for n in (1.0, 3.0):
        params = CylinderParams(n, 1.0)
        ys = [n * y for y in (5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0)]
        fit = farfield_expansion_check(params, ys)
        results[str(n)] = fit.slope
        passed &= fit.slope <= -1.8 / n
        if n == 1.0:
            grids = fit.grid
        lead = cyl_slit(params, 0.0, 20j * n) - 20j * n
        passed &= abs(lead - (-1j * n * math.log1p(-params.delta**2))) <= 1e-8
    return CheckResult(
        "farfield_expansion",
        {"lambda": 1.0, "N": [1.0, 3.0], "y_over_N": [5, 12]},
        {"slopes": results},
        "log-residual slope <= -1.8/N; leading term at y=20N",
        0.0,
        passed,
        grids,
    )


def _check_shift_commutation(tol: float) -> CheckResult:
    rng = SplitMix64(20240917)
    configs = []
    for _ in range(20):
        params = CylinderParams(1.0 + 7.0 * rng.next_float(), 0.2 + 1.5 * rng.next_float())
        xs = [params.half_period * (2.0 * rng.next_float() - 1.0) for _ in range(10)]
        y = 3.0 * params.half_period * (2.0 * rng.next_float() - 1.0)
        configs.append((params, xs, y, [complex(params.half_period * (2.0 * rng.next_float() - 1.0),
                                                0.1 + 3.0 * rng.next_float()) for _ in range(20)]))
    worst = float(np.abs(np.subtract(*_shift_sides(configs))).max())
    return CheckResult("shift_commutation", {"configs": 20, "events": 10}, {"max_abs_error": worst},
                       "exact equivariance under the cylinder shift", 1e-9, worst <= 1e-9)


def _check_disk_conjugation(tol: float) -> CheckResult:
    rng = SplitMix64(77002)
    logs, probes = [], np.empty((20, 20), dtype=complex)
    for k in range(20):
        params = CylinderParams(2.0 + 6.0 * rng.next_float(), 0.3 + 1.2 * rng.next_float())
        logs.append(sample_events(params, 50.0 / params.period, 50_000 + k))
        probes[k] = [complex(0.6 * params.half_period * (2.0 * rng.next_float() - 1.0),
                             0.05 + 3.0 * rng.next_float()) for _ in range(20)]
    chl, disk, p = _disk_sides(logs, probes)
    worst = float(cylinder_dist(p, chl, disk).max())
    return CheckResult("disk_conjugation", {"logs": 20, "grid": 20},
                       {"max_cylinder_distance": worst},
                       "disk-coordinate composition equals backward CHL", 1e-9, worst <= 1e-9)


def _check_martingale_mean(tol: float) -> CheckResult:
    params = CylinderParams(16.0, 1.0)
    z, t = 1j, 1.0
    summary = mc_growth_check(params, z, t, replicas=2000, seed=90210)
    offset = abs(summary.mean - z - drift(params, t))
    passed = offset <= summary.ci99_halfwidth
    return CheckResult(
        "martingale_zero_mean",
        {"N": 16.0, "lambda": 1.0, "t": 1.0, "replicas": 2000, "seed": 90210},
        {"offset": offset, "ci99_halfwidth": summary.ci99_halfwidth},
        "|mean - z - drift| within 99% CI",
        0.0,
        passed,
    )


def _check_forward_backward_law(tol: float) -> CheckResult:
    params = CylinderParams(2.0, 1.0)
    t, z = 0.5, 1j
    # the half-plane processes at their horizon over the window pi*N, which
    # keeps every event: each row's maps, earliest outermost or newest outermost
    fwd_xs = sample_many(params, t, [mix_seed(4242, r) for r in range(1000)])[2][:, ::-1]
    bwd_xs = sample_many(params, t, [mix_seed(4242, 1_000_000 + r) for r in range(1000)])[2]
    *_, fwd = orbit_many(halfplane_slit_many, params.lam, fwd_xs, np.full(1000, z))
    *_, bwd = orbit_many(halfplane_slit_many, params.lam, bwd_xs, np.full(1000, z))
    d, p = ks_two_sample(fwd.imag, bwd.imag)
    passed = p > 0.01
    return CheckResult(
        "forward_backward_equidistribution",
        {"N": 2.0, "lambda": 1.0, "t": 0.5, "seeds": 1000},
        {"ks_statistic": d, "p_value": p},
        "two-sample KS on Im values, p > 0.01",
        0.01,
        passed,
    )


def _check_second_deriv(tol: float) -> CheckResult:
    # At fixed z the integral converges to the (nonzero) half-plane value, so
    # the honest assertion there is uniform boundedness; genuine decay shows
    # up at cylinder-scaled heights z = iN, where the local curvature scale
    # delta^2/N wins over the domain growth.
    ns = [8.0, 16.0, 32.0]
    cases = [(CylinderParams(n, 1.0), 1j) for n in ns] + [(CylinderParams(n, 1.0), complex(0.0, n))
                                                         for n in ns]
    values, converged = _certified(lambda case: _quad_second_deriv(*case, tol), cases)
    fixed_vals, scaled_vals = values[:len(ns)], values[len(ns):]
    stats = dict.fromkeys(("fixed_z_slope", "scaled_z_slope", "scaled_z_r_squared"))
    grid = ()
    passed = False
    if converged:
        fixed = _rate_fit(ns, fixed_vals, log_x=True)
        scaled_fit = _rate_fit(ns, scaled_vals, log_x=True)
        stats = {"fixed_z_slope": fixed.slope, "scaled_z_slope": scaled_fit.slope,
                 "scaled_z_r_squared": scaled_fit.r_squared}
        grid = scaled_fit.grid
        bounded = max(fixed_vals) / min(fixed_vals) <= 1.5
        decays = scaled_fit.slope < 0.0 and scaled_fit.r_squared >= 0.9
        passed = bounded and decays
    return CheckResult(
        "second_deriv_decay",
        {"lambda": 1.0, "N_grid": ns, "z_fixed": "i", "z_scaled": "iN"},
        {
            "fixed_z_values": fixed_vals,
            "scaled_z_values": scaled_vals,
            **stats,
            "converged": converged,
        },
        "bounded at fixed z; |S''|^2 integral decays at z = iN",
        0.0,
        passed,
        grid,
    )


def _check_coupling_decay(tol: float) -> CheckResult:
    n_list = [4.0, 8.0, 16.0, 32.0]
    sups = coupling_sup_distances(1.0, 1j, 0.5, n_list, replicas=500, seed=60622)
    summaries = _summarize(sups)
    means = [s.mean.real for s in summaries]
    cis = [s.ci99_halfwidth for s in summaries]
    violations = 0
    overlap_ok = True
    for k in range(len(means) - 1):
        if means[k + 1] > means[k]:
            violations += 1
            overlap_ok &= means[k + 1] - cis[k + 1] <= means[k] + cis[k]
    passed = violations <= 1 and overlap_ok
    return CheckResult(
        "coupling_decay",
        {"lambda": 1.0, "z": "i", "t": 0.5, "N_grid": n_list, "replicas": 500, "seed": 60622},
        {"means": means, "ci99": cis, "increases": violations},
        "mean sup-distance^2 non-increasing in N (one CI overlap allowed)",
        1.0,
        passed,
        tuple(zip(n_list, means)),
    )


CHECK_NAMES: dict[str, object] = {
    "quad_mean_shift": _check_mean_shift,
    "quad_squared_shift": _check_squared_shift,
    "quad_squared_deriv": _check_squared_deriv,
    "slit_convergence_rate": _check_slit_rate,
    "farfield_expansion": _check_farfield,
    "shift_commutation": _check_shift_commutation,
    "disk_conjugation": _check_disk_conjugation,
    "martingale_zero_mean": _check_martingale_mean,
    "forward_backward_equidistribution": _check_forward_backward_law,
    "second_deriv_decay": _check_second_deriv,
    "coupling_decay": _check_coupling_decay,
}

# coupling_decay runs only when named (--only); `chl converge` reports the same
# coupling means but never applies this check's non-increase criterion.
DEFAULT_SUITE = tuple(name for name in CHECK_NAMES if name != "coupling_decay")


def run_suite(only: Sequence[str] | None = None, tol: float = 1e-10) -> list[CheckResult]:
    """Run the named checks (default: the full deterministic suite)."""
    if not 0.0 < tol < math.inf:  # also for checks that integrate nothing
        raise ValueError(f"tol must be positive and finite, got {tol}")
    names = list(only) if only else list(DEFAULT_SUITE)
    unknown = [n for n in names if n not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; known: {sorted(CHECK_NAMES)}")
    return [CHECK_NAMES[name](tol) for name in names]
