"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

Each panel carries a two-level evaluation: the 7-point Gauss / 15-point
Kronrod pair on the whole panel and on its two halves.  The panel value is
the sum over the halves; its error estimate is the larger of the
parent/children discrepancy and the summed |K15 - G7| of the halves.  The
second level matters: |K15 - G7| alone is blind to a feature sitting in the
node-free gap next to a panel edge, and the parent/children comparison
probes that gap with a different node set.  The worst panel is bisected
until the summed estimate drops below the absolute tolerance or a panel cap
is reached, or until the estimate stalls at rounding noise (see
``_STALL_FROM``).  Non-convergence is reported on the result, never silently.
A panel carries its two half values, which become its children's
whole-panel values when it is bisected: each K15 panel is evaluated once.

The node and weight constants are the 15-point Kronrod values written out in
full, so each double is the correctly rounded constant; the test suite
checks them against 30-digit values that integrate monomials exactly in
mpmath (the pair is exact up to degree 13 / 22).  The fifth node is the
solution of those moment equations; QUADPACK's printed value differs from
its 26th digit on.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = ["QuadratureResult", "adaptive_quadrature"]

# The stall rule: from this panel count on, an estimate that is rounding
# noise (at most _NOISE times the summed |panel values|) and that a doubling
# of the panels did not halve stops the run, unconverged.
_STALL_FROM = 256
_NOISE = 100.0 * sys.float_info.epsilon

# 15-point Kronrod abscissae on [-1, 1] (positive half; symmetric).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
# Kronrod weights matching _XGK.
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
# 7-point Gauss weights for the embedded rule (nodes _XGK[1], _XGK[3], _XGK[5], 0).
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with its error estimate and the panel count used."""

    value: complex
    abs_error_estimate: float
    subdivisions: int
    converged: bool


def _panel(f: Callable[[float], complex], a: float, b: float) -> tuple[complex, float]:
    """Kronrod value and |K15 - G7| error estimate on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(mid)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        x = half * _XGK[i]
        fs = f(mid - x) + f(mid + x)
        kron += _WGK[i] * fs
        if i % 2 == 1:
            gauss += _WG[i // 2] * fs
    return half * kron, abs(half * (kron - gauss))


def _verified(f: Callable[[float], complex], a: float, b: float, whole: complex) -> tuple:
    """(value, error estimate, half values) of [a, b], given its Kronrod value ``whole``.

    |K15 - G7| alone can be fooled: a kink sitting between the outermost
    node and the panel edge is invisible to both embedded rules, and
    bisection anchored at a seeded edge can keep it invisible.  Comparing
    the whole-panel Kronrod value against the sum over the two halves probes
    a different node set, so a feature hiding in the node-free edge gap
    shows up as a parent/children discrepancy and keeps the panel alive.
    A panel at float resolution has no halves and error 0.
    """
    mid = 0.5 * (a + b)
    if mid <= a or mid >= b:
        return whole, 0.0, None
    left, err_left = _panel(f, a, mid)
    right, err_right = _panel(f, mid, b)
    value = left + right
    return value, max(abs(whole - value), err_left + err_right), (left, right)


def adaptive_quadrature(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_panels: int = 10_000,
    presplit: Iterable[float] = (),
) -> QuadratureResult:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    ``presplit`` points strictly inside (a, b) seed the initial panel edges,
    which saves refinement when the integrand has a known sharp feature.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    edges = [a, *sorted(p for p in set(presplit) if a < p < b), b]
    # heap of (-error, tie-break counter, a, b, value, halves); total error kept incrementally
    heap = []
    count = 0
    total_err = 0.0
    for lo, hi in zip(edges, edges[1:]):
        val, err, halves = _verified(f, lo, hi, _panel(f, lo, hi)[0])
        heap.append((-err, count, lo, hi, val, halves))
        total_err += err
        count += 1
    heapq.heapify(heap)
    panels = len(heap)
    checkpoint, checkpoint_err = _STALL_FROM, math.inf
    # a worst panel without halves has error 0, and so has every panel: only rounding is left
    while total_err > tol and panels < max_panels and heap[0][5] is not None:
        neg_err, _, lo, hi, _, halves = heapq.heappop(heap)
        total_err += neg_err
        mid = 0.5 * (lo + hi)
        for sub_lo, sub_hi, whole in ((lo, mid, halves[0]), (mid, hi, halves[1])):
            sub_val, sub_err, sub_halves = _verified(f, sub_lo, sub_hi, whole)
            heapq.heappush(heap, (-sub_err, count, sub_lo, sub_hi, sub_val, sub_halves))
            total_err += sub_err
            count += 1
        panels += 1
        if panels >= checkpoint:
            if total_err > 0.5 * checkpoint_err and total_err <= _NOISE * sum(
                    abs(panel[4]) for panel in heap):
                break  # rounding noise that more panels do not reduce
            checkpoint, checkpoint_err = 2 * panels, total_err
    value = 0j
    err_sum = 0.0
    for neg_err, _, _, _, val, _ in heap:
        value += val
        err_sum += -neg_err
    return QuadratureResult(value, err_sum, panels, err_sum <= tol)
