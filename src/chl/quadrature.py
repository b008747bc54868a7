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

The integrand maps a float64 array of nodes to a complex array of the same
shape.  The initial pieces, each whole panel with its halves, take one call;
after that each bisection takes one, for the halves of the worst panel's two
children.  Each panel's Kronrod and Gauss sums run in one fixed order, centre
node first, so the panels, the values and the estimates are those of
evaluating one node at a time.

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

import numpy as np

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
# The nodes off the centre and their weights, as arrays.
_XGK_OFF, _WGK_OFF, _WG_OFF = np.array(_XGK[:7]), np.array(_WGK[:7]), np.array(_WG[:3])


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value, error estimate, panel count and integrand points evaluated (``evals``)."""

    value: complex
    abs_error_estimate: float
    subdivisions: int
    converged: bool
    evals: int  # 15 per K15 panel


def _kronrod(f: Callable[[np.ndarray], np.ndarray], lo: list, hi: list) -> tuple[list, list]:
    """Kronrod values and |K15 - G7| estimates of the panels [lo[j], hi[j]], one call of ``f``.

    A panel's sums run centre first, then the pairs ``f(mid - x_i) + f(mid + x_i)``
    for i = 0..6 (``np.add.accumulate`` adds in order), so its value does not
    depend on the panels evaluated with it.
    """
    lo, hi = np.array(lo), np.array(hi)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = _XGK_OFF[:, None] * half
    # row 0 the centres, rows 1..7 mid - x_i and rows 8..14 mid + x_i
    nodes = np.empty((15, len(mid)))
    nodes[0] = mid
    np.subtract(mid, x, out=nodes[1:8])
    np.add(mid, x, out=nodes[8:])
    fx = f(nodes.ravel()).reshape(nodes.shape)
    fs = fx[1:8] + fx[8:]
    # each rule's weighted terms, centre first, in one array that accumulate sums in order
    terms = np.empty((8, len(mid)), dtype=complex)
    np.multiply(_WGK[7], fx[0], out=terms[0])
    np.multiply(_WGK_OFF[:, None], fs, out=terms[1:])
    kron = np.add.accumulate(terms)[-1]
    np.multiply(_WG[3], fx[0], out=terms[0])
    np.multiply(_WG_OFF[:, None], fs[1::2], out=terms[1:4])
    gauss = np.add.accumulate(terms[:4])[-1]
    gap = half * (kron - gauss)
    # np.hypot is C's hypot, as Python's abs of a complex; np.abs may differ in the last bit
    return (half * kron).tolist(), np.hypot(gap.real, gap.imag).tolist()


def _verified(f: Callable[[np.ndarray], np.ndarray], pieces: list) -> list:
    """(value, error estimate, half values) of each piece (a, b, whole), one call of ``f``.

    ``whole`` is the piece's Kronrod value, or None to evaluate it in the same call.

    |K15 - G7| alone can be fooled: a kink sitting between the outermost
    node and the panel edge is invisible to both embedded rules, and
    bisection anchored at a seeded edge can keep it invisible.  Comparing
    the whole-panel Kronrod value against the sum over the two halves probes
    a different node set, so a feature hiding in the node-free edge gap
    shows up as a parent/children discrepancy and keeps the panel alive.
    A panel at float resolution has no halves and error 0.
    """
    lo, hi = [], []
    for a, b, whole in pieces:
        mid = 0.5 * (a + b)
        if whole is None:
            lo.append(a)
            hi.append(b)
        if a < mid < b:
            lo += (a, mid)
            hi += (mid, b)
    kron, err = _kronrod(f, lo, hi) if lo else ([], [])
    out = []
    j = 0
    for a, b, whole in pieces:
        if whole is None:
            whole = kron[j]
            j += 1
        if not a < 0.5 * (a + b) < b:
            out.append((whole, 0.0, None))
            continue
        left, right = kron[j], kron[j + 1]
        value = left + right
        out.append((value, max(abs(whole - value), err[j] + err[j + 1]), (left, right)))
        j += 2
    return out


def adaptive_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_panels: int = 10_000,
    presplit: Iterable[float] = (),
) -> QuadratureResult:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    ``f`` maps a float64 array of nodes to a complex array of the same shape.
    ``presplit`` points strictly inside (a, b) seed the initial panel edges,
    which saves refinement when the integrand has a known sharp feature.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    evals = 0

    def counted(x):
        nonlocal evals
        evals += x.size
        return f(x)

    edges = [a, *sorted(p for p in set(presplit) if a < p < b), b]
    pieces = [(lo, hi, None) for lo, hi in zip(edges, edges[1:])]
    # heap of (-error, tie-break counter, a, b, value, halves); total error kept incrementally
    heap = []
    total_err = 0.0
    for count, ((lo, hi, _), (val, err, halves)) in enumerate(
            zip(pieces, _verified(counted, pieces))):
        heap.append((-err, count, lo, hi, val, halves))
        total_err += err
    count = len(heap)
    heapq.heapify(heap)
    panels = len(heap)
    checkpoint, checkpoint_err = _STALL_FROM, math.inf
    # a worst panel without halves has error 0, and so has every panel: only rounding is left
    while total_err > tol and panels < max_panels and heap[0][5] is not None:
        neg_err, _, lo, hi, _, halves = heapq.heappop(heap)
        total_err += neg_err
        mid = 0.5 * (lo + hi)
        children = _verified(counted, [(lo, mid, halves[0]), (mid, hi, halves[1])])
        for sub_lo, sub_hi, (sub_val, sub_err, sub_halves) in zip((lo, mid), (mid, hi), children):
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
    return QuadratureResult(value, err_sum, panels, err_sum <= tol, evals)
