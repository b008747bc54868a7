"""Poisson-driven growth processes built from shared event logs.

An :class:`EventLog` is the time-sorted record of one Poisson point process
on the cylinder boundary strip ``[-pi*N, pi*N) x (0, t]`` with unit space-time
intensity, regenerated bit-identically from ``(params, horizon_t, seed)``.
The same log drives every process variant, each a function of ``(log, z, s)``:

* ``eval_forward_chl`` - cylinder slit maps, earliest event outermost;
* ``eval_backward_chl`` - newest event outermost (one new map application
  per event, so full trajectories cost O(n));
* ``eval_forward_shl`` / ``eval_backward_shl`` - half-plane slit maps over
  the events in a truncation window ``|x| <= window``, approximating the
  stationary half-plane process driven by the same arrivals;
* ``eval_disk_hl`` - the backward cylinder composition through disk
  coordinates (one exponential chart in, one out), the classical
  disk-process conjugation.  Pointwise it is the same map as
  ``eval_backward_chl``, which makes it the sharpest available oracle.

Each variant is the last point of :func:`orbit` over a selection of the log's
abscissae in one of two orders.  Evaluation at time ``s`` is cadlag: an event at
exactly ``s`` is included.  Batched, many points go through one map per call, by one
column step ``_live`` in which a ``+inf`` abscissa applies no map (rows longest
first move a prefix, as a slice): over the padded rows of :func:`orbit_many`, with
any batched kernel, and in the lock-step engine ``_LockStep`` of Monte Carlo and the
cluster trace, which holds a cylinder point in disk coordinates ``exp(-iz/N)`` in a
band of heights, once a map moves it there.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .conformal import (
    _FAR_FIELD_RATIO,
    CylinderParams,
    _at,
    _disk_slit_many,
    _disk_slit_origin,
    cyl_slit,
    cyl_slit_many,
    halfplane_slit,
)
from .rng import _MASK, poisson_many, uniform_at

__all__ = [
    "Event",
    "EventLog",
    "sample_events",
    "sample_many",
    "restrict_log",
    "orbit",
    "orbit_many",
    "backward_chl_trajectory",
    "drift",
    "eval_forward_chl",
    "eval_backward_chl",
    "eval_forward_shl",
    "eval_backward_shl",
    "eval_disk_hl",
]

@dataclass(frozen=True)
class Event:
    """One Poisson arrival: time of attachment and boundary abscissa."""

    time: float
    x: float


@dataclass(frozen=True)
class EventLog:
    """Immutable, time-sorted arrival record driving all processes."""

    params: CylinderParams
    horizon_t: float
    seed: int
    events: tuple[Event, ...]

    def __len__(self) -> int:
        return len(self.events)

    @functools.cached_property
    def times(self) -> tuple[float, ...]:
        return tuple(e.time for e in self.events)

    @functools.cached_property
    def xs(self) -> tuple[float, ...]:
        return tuple(e.x for e in self.events)

    def to_jsonl(self) -> str:
        """Serialize as JSON Lines: one header line, then one event per line.

        Floats are written with 17 significant digits so that parsing back
        reproduces the exact binary values.
        """
        p = self.params
        lines = [
            '{"N": %s, "lambda": %s, "delta": %s, "horizon": %s, "seed": %d}'
            % (_g17(p.radius_n), _g17(p.lam), _g17(p.delta), _g17(self.horizon_t), self.seed)
        ]
        for e in self.events:
            lines.append('{"t": %s, "x": %s}' % (_g17(e.time), _g17(e.x)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "EventLog":
        """Parse the JSONL form, rejecting what ``sample_events`` cannot produce.

        Raises ``ValueError`` for a header with missing fields, a delta off
        ``tanh(lambda / 2N)`` by over 1e-12 relative or a seed outside
        ``[0, 2**64)``, for a ``true``/``false`` or a too large integer in any
        field, and for event times that are not finite, sorted and in
        ``(0, horizon]`` or abscissae outside ``[-pi*N, pi*N)``.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty event log stream")
        try:
            records = [json.loads(ln, object_pairs_hook=_no_bools) for ln in lines]
            head = records[0]
            params = CylinderParams(head["N"], head["lambda"])
            horizon, seed, delta = head["horizon"], head["seed"], head["delta"]
            events = tuple(Event(r["t"], r["x"]) for r in records[1:])
            if not (math.isfinite(horizon) and horizon > 0.0
                    and isinstance(seed, int) and 0 <= seed <= _MASK
                    and math.isclose(delta, params.delta, rel_tol=1e-12, abs_tol=0.0)):
                raise ValueError(f"bad horizon {horizon!r}, seed {seed!r} or delta {delta!r}")
            half, last = params.half_period, 0.0
            for k, e in enumerate(events, start=1):
                if not (last <= e.time <= horizon and e.time > 0.0 and -half <= e.x < half):
                    raise ValueError(f"event {k} {(e.time, e.x)} is unsorted or outside "
                                     f"(0, {horizon!r}] x [-pi N, pi N)")
                last = e.time
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed event log: {exc!r}") from exc
        return cls(params, horizon, seed, events)


def _no_bools(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: a bool is an int in Python, but never a number of a log."""
    for key, value in pairs:
        if isinstance(value, bool):
            raise ValueError(f"field {key!r} is {value!r}, not a number")
    return dict(pairs)


def _g17(x: float) -> str:
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text  # JSON reads -0 as the integer 0


def _horizon(horizon_t: float) -> float:
    """``horizon_t`` as a float; ``ValueError`` unless it is positive and finite."""
    if not (math.isfinite(horizon_t) and horizon_t > 0.0):
        raise ValueError(f"horizon_t must be positive, got {horizon_t}")
    return float(horizon_t)


def sample_many(
    params: CylinderParams, horizon_t: float, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poisson event logs on ``[-pi*N, pi*N) x (0, horizon_t]``, one row per seed.

    Stream ``SplitMix64(seed)`` gives the count, Poisson(2*pi*N*t) by
    inversion (one draw per chunk), then that many uniform times and then
    that many abscissae.  Each row is sorted by time; coincident float times
    are ordered by abscissa, then draw index.  One ``argsort`` by time sorts
    every row, and a row with an exact tie between finite times is sorted
    again by that full rule, so no row depends on how ``argsort`` orders
    ties.  Returns ``counts`` (int64, one per seed) and ``times`` and ``xs``
    of shape ``(seeds, max count)``, padded with ``+inf`` past each row's
    count.  A row depends on its seed alone, never on the other seeds of the
    call.
    """
    t = _horizon(horizon_t)
    period, half = params.period, params.half_period
    seeds = np.array([int(s) & _MASK for s in seeds], dtype=np.uint64)[:, None]
    counts, used = poisson_many(seeds[:, 0], period * t)
    idx = np.arange(counts.max(initial=0), dtype=np.uint64)
    ends = counts[:, None].astype(np.uint64)
    times = t * (1.0 - uniform_at(seeds, used + 1 + idx))  # (0, t]
    xs = -half + uniform_at(seeds, used + 1 + ends + idx) * period
    # the product can round up to the full period, which would land on the
    # excluded right endpoint; wrap that measure-zero case
    xs[xs >= half] = -half
    pad = idx >= ends
    times[pad] = xs[pad] = np.inf
    order = np.argsort(times, axis=-1)
    sorted_times = np.take_along_axis(times, order, -1)
    # distinct finite times fix the order (the +inf padding is the same in
    # both arrays); only a row with a tie needs the full rule, and lexsort is
    # stable, so ties in (time, abscissa) keep draw order
    later = sorted_times[:, 1:]
    tied = ((later == sorted_times[:, :-1]) & (later < np.inf)).any(-1)
    if tied.any():
        order[tied] = np.lexsort((xs[tied], times[tied]), axis=-1)
    return counts, sorted_times, np.take_along_axis(xs, order, -1)


def sample_events(params: CylinderParams, horizon_t: float, seed: int) -> EventLog:
    """One Poisson event log: the row of :func:`sample_many` for ``seed``."""
    seed = int(seed) & _MASK
    counts, times, xs = sample_many(params, horizon_t, [seed])
    n = int(counts[0])
    events = tuple(map(Event, times[0, :n].tolist(), xs[0, :n].tolist()))
    return EventLog(params, horizon_t, seed, events)


def _restricted_params(params: CylinderParams, half_width: float) -> CylinderParams:
    """Cylinder of the events with ``|x| <= half_width``: radius ``half_width / pi``."""
    if half_width <= 0.0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if half_width > params.half_period * (1.0 + 1e-12):
        raise ValueError(f"half_width {half_width} exceeds source domain {params.half_period}")
    if half_width == params.half_period:
        return params
    return CylinderParams(half_width / math.pi, params.lam)


def restrict_log(log: EventLog, half_width: float) -> EventLog:
    """Coupling restriction: keep events with ``|x| <= half_width``.

    The surviving events, with their original times, are exactly a unit
    intensity Poisson process on the narrower strip, so the result is tagged
    with the smaller radius ``half_width / pi``.  Times and order are
    preserved; the seed is kept for provenance (a restricted log is a
    derived view, not resampleable from its own header).
    """
    params = _restricted_params(log.params, half_width)
    if params is log.params:
        return log
    events = tuple(e for e in log.events if abs(e.x) <= half_width)
    return EventLog(params, log.horizon_t, log.seed, events)


def _restrict_many(xs: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Each row's entries where ``keep``, in order, by one scatter, then ``+inf`` to the longest
    kept row (width 0 if none): :func:`restrict_log` on rows of ``sample_many``'s abscissae
    where ``keep`` is ``|xs| <= half_width``."""
    count = np.count_nonzero(keep, axis=1)
    out = np.full((len(xs), count.max(initial=0)), np.inf)
    out[np.arange(out.shape[1]) < count[:, None]] = xs[keep]
    return out


def orbit(slit: Callable[..., complex], first, xs: Iterable[float], z: complex) -> list[complex]:
    """``z``, then its image after each ``slit(first, x, .)``, ``xs[0]`` innermost: the loop of
    every process variant, and the scalar reference of :func:`orbit_many` and ``_LockStep``."""
    out = [complex(z)]
    for x in xs:
        out.append(slit(first, x, out[-1]))
    return out


def orbit_many(slit: Callable, first, xs: np.ndarray, w: np.ndarray) -> Iterator[np.ndarray]:
    """Batched :func:`orbit`: point ``w[k]`` over row k of the 2-D ``xs``, one column a step.

    ``slit(first, x, pts)`` is a batched kernel, its ``first`` one for all
    points or ``_PerPoint``; a ``+inf`` entry applies no map.  Yields a copy
    of ``w``, then the points after each column.  A column holding ``+inf``
    updates the array yielded last in place (``_live``): copy one to keep it.
    With ``+inf`` padded rows longest first, a column moves only its live prefix.
    """
    w = np.array(w, dtype=complex)
    yield w
    for col in np.transpose(xs):
        w = _live(slit, first, col, w)
        yield w


# A point moves in disk coordinates zeta = exp(-iz/N) from the height _ZETA_LOW * N,
# where |zeta| - 1 = Im z / N still resolves its height to about N eps, up to 30 N,
# |zeta| = e^30: further up zeta would overflow.
_ZETA_LOW = 1e-9
_ZETA_HIGH = math.exp(_FAR_FIELD_RATIO)


def _from_zeta(n: float, zeta: np.ndarray) -> np.ndarray:
    """``i N Log(zeta)`` in real arithmetic: ``-N arg(zeta) + i N log|zeta|``."""
    out = np.empty_like(zeta)
    out.real = np.arctan2(zeta.imag, zeta.real) * -n
    out.imag = np.log(np.abs(zeta)) * n
    return out


def _live(slit: Callable, first, x, pts: np.ndarray) -> np.ndarray:
    """``slit(first, x, pts)`` on the points whose ``x`` (a float, or one per point) is finite.

    One call on ``pts`` where every ``x`` is; else on the slice ``pts[:m]`` where the first m
    are (no gather or scatter), or on ``pts[live]``, in place, ``first`` by ``_at``.
    """
    if not pts.size:
        return pts
    if np.ndim(x) == 0 or (m := np.count_nonzero(live := np.isfinite(x))) == pts.size:
        return slit(first, x, pts)
    live = slice(m) if live[:m].all() else live  # the live points are a prefix, or a mask
    pts[live] = slit(_at(first, live), x[live], pts[live])
    return pts


def _disk_step(q, x, w: np.ndarray) -> np.ndarray:
    """The cylinder slit map over ``x`` of the points ``w`` held in disk coordinates."""
    return _disk_slit_many(q, w, np.exp(x * (1j / q.radius_n)))


class _LockStep:
    """Points pushed through cylinder slit maps in lock-step: ``push``, then ``step`` by map.

    A point is pushed as a cylinder point.  At the first map that moves it at
    a height ``1e-9 N <= Im z < 30 N`` it enters ``zeta = exp(-iz/N)`` and
    moves by ``zeta -> D(rho zeta)/rho``, ``rho = exp(ix/N)``
    (``_disk_slit_many``): one square root per point-map, and no chart
    between maps.  It leaves for the cylinder once ``|zeta| >= e^30``.  Other
    cylinder points move by ``cyl_slit_many``: real points on the boundary by
    its real tan-chart step (a point that lands inside a slit base leaves the
    axis onto the slit), points lifted but still lower than ``1e-9 N``, and
    points above 30 N.  A zeta point keeps no winding: :meth:`points` takes
    its representative within pi N of ``near``.  Rows longest first move as a slice.
    """

    def __init__(self, params: CylinderParams, z=()) -> None:
        self.params, self.size = params, 0
        self.zeta = self.cyl = np.empty(0, dtype=complex)
        self.zeta_at = self.cyl_at = np.empty(0, dtype=np.intp)
        self.push(np.asarray(z, dtype=complex))

    def push(self, z: np.ndarray) -> None:
        """Add the cylinder points ``z`` after those already held."""
        at = np.arange(self.size, self.size + len(z))
        self.size += len(z)
        self.cyl, self.cyl_at = np.concatenate([self.cyl, z]), np.concatenate([self.cyl_at, at])

    def step(self, x) -> None:
        """Apply S_x to every point: ``x`` a float, or one abscissa per point (``+inf``: no map)."""
        p, n = self.params, self.params.radius_n
        if (cyl := self.cyl).size:  # band points this map moves enter zeta; a float x moves all
            enter = (cyl.imag >= _ZETA_LOW * n) & (cyl.imag < _FAR_FIELD_RATIO * n)
            enter &= np.isfinite(_at(x, self.cyl_at))
            self.zeta = np.concatenate([self.zeta, np.exp(cyl[enter] * (-1j / n))])
            self.zeta_at = np.concatenate([self.zeta_at, self.cyl_at[enter]])
            self.cyl, self.cyl_at = cyl[~enter], self.cyl_at[~enter]
        self.zeta = _live(_disk_step, p, _at(x, self.zeta_at), self.zeta)
        self.cyl = _live(cyl_slit_many, p, _at(x, self.cyl_at), self.cyl)
        if (up := np.abs(self.zeta) >= _ZETA_HIGH).any():
            self.cyl = np.concatenate([self.cyl, _from_zeta(n, self.zeta[up])])
            self.cyl_at = np.concatenate([self.cyl_at, self.zeta_at[up]])
            self.zeta, self.zeta_at = self.zeta[~up], self.zeta_at[~up]

    def points(self, near=None) -> np.ndarray:
        """Every point on the cylinder, in push order, or the first ``len(near)`` where ``near``
        is an array; within pi N of ``Re near`` unless None.

        A point no map has moved is returned as pushed: bit for bit where
        ``near`` is None or the point itself, else equal in value (-0.0 may read 0.0).
        """
        out = np.empty(self.size, dtype=complex)
        out[self.zeta_at] = _from_zeta(self.params.radius_n, self.zeta)
        out[self.cyl_at] = self.cyl
        out = out[:len(near) if np.ndim(near) else self.size]
        if near is not None:
            period = self.params.period
            out.real -= period * np.round((out.real - np.real(near)) / period)
        return out


def _xs_up_to(log: EventLog, s: float, window: float | None = None) -> list[float]:
    """Abscissae of events with time <= s (cadlag), inside the SHL window if any."""
    if window is not None and not window >= log.params.lam:
        raise ValueError("truncation window must be >= slit length")
    xs = log.xs[: bisect.bisect_right(log.times, s)]
    return [x for x in xs if window is None or abs(x) <= window]


def eval_forward_chl(log: EventLog, z: complex, s: float) -> complex:
    """Forward cylinder process: S_{x_1} o ... o S_{x_n}(z), earliest outermost."""
    return orbit(cyl_slit, log.params, _xs_up_to(log, s)[::-1], z)[-1]


def eval_backward_chl(log: EventLog, z: complex, s: float) -> complex:
    """Backward cylinder process: S_{x_n} o ... o S_{x_1}(z), newest outermost."""
    return orbit(cyl_slit, log.params, _xs_up_to(log, s), z)[-1]


def eval_backward_shl(log: EventLog, z: complex, s: float, window: float) -> complex:
    """Backward half-plane process over events with ``|x| <= window``, newest outermost."""
    return orbit(halfplane_slit, log.params.lam, _xs_up_to(log, s, window), z)[-1]


def eval_forward_shl(log: EventLog, z: complex, s: float, window: float) -> complex:
    """Forward half-plane process over events with ``|x| <= window``, earliest outermost."""
    return orbit(halfplane_slit, log.params.lam, _xs_up_to(log, s, window)[::-1], z)[-1]


def eval_disk_hl(log: EventLog, z: complex, s: float) -> complex:
    """Backward cluster map evaluated through disk coordinates.

    Each slit map is the conjugated disk slit ``r_x^-1 o D_0 o r_x``; the
    exponential charts between consecutive maps cancel exactly, so a single
    chart is applied before and after the disk composition.  As a cylinder
    point the result equals ``eval_backward_chl``; the representative may
    differ by a period when the orbit crosses the seam, since the final
    principal log cannot see the winding of the lifted composition.  Its loop
    stays separate from :func:`orbit`, so it remains an independent oracle.
    """
    p = log.params
    n = p.radius_n
    zeta = cmath.exp(-1j * complex(z) / n)
    for x in _xs_up_to(log, s):
        rot = cmath.exp(1j * x / n)
        zeta = _disk_slit_origin(p, rot * zeta) / rot
    return 1j * n * cmath.log(zeta)


# Nothing in chl reads this table, so it keeps no entries; it stays only because
# benchmarks/tracer.py binds it (and the functions above) to time them, until it reads counters.
_EVALUATORS = {}


def backward_chl_trajectory(log: EventLog, z: complex) -> list[tuple[float, complex]]:
    """Value of the backward cylinder process at 0 and at every event time.

    The backward process gains one outermost map per event, so the whole
    trajectory costs one map application per event.  Between events the
    process is constant, making this grid exact for running suprema.
    """
    return list(zip((0.0,) + log.times, orbit(cyl_slit, log.params, log.xs, z)))


def drift(params: CylinderParams, t: float) -> complex:
    """Deterministic part of the backward process at a point.

    The compensator integrand is point-independent (the average shift of the
    slit map over one period is a constant), so the predictable part is the
    purely imaginary ``-2i pi N^2 t log(1 - delta^2)``, which tends to
    ``i pi lam^2 t / 2`` as N grows.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    n = params.radius_n
    return complex(0.0, -2.0 * math.pi * n * n * t * math.log1p(-params.delta**2))
