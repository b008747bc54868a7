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

Each variant is :func:`compose` over a selection of the log's abscissae in
one of two orders.  Evaluation at time ``s`` is cadlag: an event at exactly
``s`` is included.
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
    CylinderParams,
    _disk_slit_origin,
    cyl_slit,
    halfplane_slit,
)
from .rng import _MASK, poisson_many, uniform_at

__all__ = [
    "Event",
    "EventLog",
    "sample_events",
    "sample_many",
    "restrict_log",
    "compose",
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


def sample_many(
    params: CylinderParams, horizon_t: float, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poisson event logs on ``[-pi*N, pi*N) x (0, horizon_t]``, one row per seed.

    Stream ``SplitMix64(seed)`` gives the count, Poisson(2*pi*N*t) by
    inversion (one draw per chunk), then that many uniform times and then
    that many abscissae.  Each row is sorted by time; coincident float times
    are ordered by abscissa, then draw index.  Returns ``counts`` (int64,
    one per seed) and ``times`` and ``xs`` of shape ``(seeds, max count)``,
    padded with ``+inf`` past each row's count.  A row depends on its seed
    alone, never on the other seeds of the call.
    """
    if not (math.isfinite(horizon_t) and horizon_t > 0.0):
        raise ValueError(f"horizon_t must be positive, got {horizon_t}")
    t = float(horizon_t)
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
    # lexsort is stable, so ties in (time, abscissa) keep draw order
    order = np.lexsort((xs, times), axis=-1)
    return counts, np.take_along_axis(times, order, -1), np.take_along_axis(xs, order, -1)


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


def _restrict_many(xs: np.ndarray, half_width: float) -> np.ndarray:
    """:func:`restrict_log` on each row of ``sample_many``'s abscissae, in time order.

    Kept events come first, then ``+inf`` up to the longest kept row (width 0 if none).
    """
    keep = np.abs(xs) <= half_width
    order = np.argsort(~keep, axis=1, kind="stable")[:, :keep.sum(axis=1).max(initial=0)]
    return np.take_along_axis(np.where(keep, xs, np.inf), order, axis=1)


def compose(slit: Callable[..., complex], first, xs: Iterable[float], z: complex) -> complex:
    """Apply ``slit(first, x, .)`` for each ``x`` of ``xs`` in order: ``xs[0]`` innermost.

    ``slit`` is ``cyl_slit`` with ``first`` the cylinder params, or
    ``halfplane_slit`` with ``first`` the slit length.  Every process variant runs
    this loop; Monte Carlo (:func:`orbit_many`) and ``trace_cluster`` batch it.
    """
    return orbit(slit, first, xs, z)[-1]


def orbit(slit: Callable[..., complex], first, xs: Iterable[float], z: complex) -> list[complex]:
    """Trajectory form of :func:`compose`: ``z``, then the image after each map."""
    out = [complex(z)]
    for x in xs:
        out.append(slit(first, x, out[-1]))
    return out


def orbit_many(slit_many: Callable, first, xs: np.ndarray, z: complex) -> Iterator[np.ndarray]:
    """Lock-step :func:`orbit` of each row of the 2-D ``xs``, by a kernel like ``cyl_slit_many``.

    Yields ``z``, then the images after each column, as one array updated in
    place.  A ``+inf`` entry (``sample_many``'s padding, or a masked event) applies no map.
    """
    w = np.full(len(xs), complex(z))
    yield w
    for col in np.transpose(xs):
        live = np.isfinite(col)
        w[live] = slit_many(first, col[live], w[live])
        yield w


def _xs_up_to(log: EventLog, s: float, window: float | None = None) -> list[float]:
    """Abscissae of events with time <= s (cadlag), inside the SHL window if any."""
    if window is not None and not window >= log.params.lam:
        raise ValueError("truncation window must be >= slit length")
    xs = log.xs[: bisect.bisect_right(log.times, s)]
    return [x for x in xs if window is None or abs(x) <= window]


def eval_forward_chl(log: EventLog, z: complex, s: float) -> complex:
    """Forward cylinder process: S_{x_1} o ... o S_{x_n}(z), earliest outermost."""
    return compose(cyl_slit, log.params, _xs_up_to(log, s)[::-1], z)


def eval_backward_chl(log: EventLog, z: complex, s: float) -> complex:
    """Backward cylinder process: S_{x_n} o ... o S_{x_1}(z), newest outermost."""
    return compose(cyl_slit, log.params, _xs_up_to(log, s), z)


def eval_backward_shl(log: EventLog, z: complex, s: float, window: float) -> complex:
    """Backward half-plane process over events with ``|x| <= window``, newest outermost."""
    return compose(halfplane_slit, log.params.lam, _xs_up_to(log, s, window), z)


def eval_forward_shl(log: EventLog, z: complex, s: float, window: float) -> complex:
    """Forward half-plane process over events with ``|x| <= window``, earliest outermost."""
    return compose(halfplane_slit, log.params.lam, _xs_up_to(log, s, window)[::-1], z)


def eval_disk_hl(log: EventLog, z: complex, s: float) -> complex:
    """Backward cluster map evaluated through disk coordinates.

    Each slit map is the conjugated disk slit ``r_x^-1 o D_0 o r_x``; the
    exponential charts between consecutive maps cancel exactly, so a single
    chart is applied before and after the disk composition.  As a cylinder
    point the result equals ``eval_backward_chl``; the representative may
    differ by a period when the orbit crosses the seam, since the final
    principal log cannot see the winding of the lifted composition.  Its loop
    stays separate from :func:`compose`, so it remains an independent oracle.
    """
    p = log.params
    n = p.radius_n
    zeta = cmath.exp(-1j * complex(z) / n)
    for x in _xs_up_to(log, s):
        rot = cmath.exp(1j * x / n)
        zeta = _disk_slit_origin(p, rot * zeta) / rot
    return 1j * n * cmath.log(zeta)


# Nothing in chl reads this table: it stays only because benchmarks/tracer.py
# binds it (and the functions above) to time them, until the tracer reads counters.
_EVALUATORS = {
    "forward-chl": eval_forward_chl,
    "backward-chl": eval_backward_chl,
    "forward-shl": eval_forward_shl,
    "backward-shl": eval_backward_shl,
    "disk-hl": eval_disk_hl,
}


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
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    n = params.radius_n
    return complex(0.0, -2.0 * math.pi * n * n * t * math.log1p(-params.delta**2))
