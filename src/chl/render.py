"""Trace attached particles through the evolving cluster map and export figures.

Particle k enters as the segment ``[x_k, x_k + i*lam]``.  In the backward
cluster (the default) it is then moved by the maps of events k+1..n, newest
outermost; in the forward cluster by the maps of events 1..k-1, earliest
outermost.  At fixed time the two clusters share one law but are different
pictures of it; pathwise the forward cluster is the backward cluster of the
reversed event order, and is traced as such, by the lock-step engine of
``process`` that Monte Carlo uses too.

A cluster is one ``(particles, samples)`` complex array, row k the sampled
polyline of particle k, from the trace to both exports: an SVG figure
(screen coordinates, seam-aware polylines) and a flat CSV of the points.
"""

from __future__ import annotations

import sys

import numpy as np

from .conformal import CylinderParams, _reduce_many
from .process import EventLog, _LockStep

__all__ = ["trace_cluster", "export_svg", "export_csv"]

_STROKE = "#1a3a6b"
_STROKE_WIDTH = 0.35
_BACKGROUND = "white"
_WIDTH_PX = 900
# Largest error from exact composition the trace may carry, in units of lam;
# against an mpmath composition the error stayed below a third of its bound
# (len(log) + 1) eps max(pi N, tallest height)
_MAX_ERROR = 1e-10
_EPS = sys.float_info.epsilon
_MAX_POINTS = 10**7  # sampled points a trace may hold: 160 MB in each complex copy


def trace_cluster(
    log: EventLog,
    samples_per_slit: int = 16,
    forward: bool = False,
) -> np.ndarray:
    """Final positions of every particle's sampled polyline.

    Returns a ``(len(log), samples_per_slit)`` complex array whose row k is
    particle k, abscissae reduced to the fundamental domain ``[-pi*N, pi*N)``.
    Backward (default): particle k's segment is composed with the maps of
    the later events, newest outermost.  Forward: with the maps of the
    earlier events, earliest outermost, which is the backward trace of the
    reversed abscissae with the particle order reversed.  Lock-step: at
    event k every particle already placed is pushed through map k in one
    pass, O(n^2 * samples) point-maps in total.

    Each sample moves by ``process._LockStep``, a cylinder point until a map
    moves it in disk coordinates ``zeta = exp(-iz/N)``: the base sample once it
    has landed on a slit, the others from their first map.  Raises ``ValueError`` for more than
    ``10**7`` points (``samples_per_slit * max(1, len(log))``), and where the
    trace could be off from exact composition by more than ``1e-10 lam``: a point
    resolves about ``eps max(pi N, Im z)``, its abscissa or its height, and
    each map can add that much; the bound takes the tallest point traced.
    """
    if samples_per_slit < 2:
        raise ValueError("samples_per_slit must be at least 2")
    if samples_per_slit * max(1, len(log)) > _MAX_POINTS:
        raise ValueError(f"cannot trace {samples_per_slit} samples for each of {len(log)} events: "
                         f"more than {_MAX_POINTS:g} points")
    params = log.params
    _check_resolution(log, params.half_period)  # the abscissae alone may decide, before the trace
    xs = log.xs[::-1] if forward else log.xs
    m = samples_per_slit
    segment = 1j * (params.lam * np.arange(m) / (m - 1))
    steps = _LockStep(params)
    for x in xs:
        steps.step(x)
        steps.push(x + segment)
    rows = steps.points().reshape(len(xs), m)
    _check_resolution(log, max(params.half_period, rows.imag.max(initial=0.0)))
    rows.real = _reduce_many(rows.real, params.period)
    return rows[::-1] if forward else rows


def _check_resolution(log: EventLog, top: float) -> None:
    """Raise ``ValueError`` where ``(len(log) + 1) eps top`` exceeds ``1e-10 lam``."""
    params = log.params
    if (len(log) + 1) * _EPS * top > _MAX_ERROR * params.lam:
        raise ValueError(f"cannot trace {len(log)} events within {_MAX_ERROR:g} lambda: lambda/N "
                         f"= {params.lam / params.radius_n:.3g}, max(pi N, height) = {top:.3g}")


def _seam_runs(params: CylinderParams, row: np.ndarray) -> list[np.ndarray]:
    """Split a reduced polyline into runs that do not jump across the seam."""
    jumps = np.flatnonzero(np.abs(np.diff(row.real)) > params.half_period)
    return np.split(row, jumps + 1)


def export_svg(rows: np.ndarray, params: CylinderParams) -> bytes:
    """Render the traced rows as an SVG 1.1 document (y axis flipped to screen)."""
    if len(rows) == 0:
        raise ValueError("export_svg requires at least one trace")
    half = params.half_period
    top = max(1.1 * float(rows.imag.max()), params.lam)
    width = 2.0 * half
    scale = _WIDTH_PX / width
    height_px = top * scale
    # viewBox spans the fundamental domain [-pi N, pi N]; the imaginary axis
    # is flipped into screen coordinates when points are emitted
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH_PX:.0f}" height="{height_px:.2f}" '
        f'viewBox="{-half:.6g} 0 {width:.6g} {top:.6g}">\n'
        f'<rect x="{-half:.6g}" y="0" width="{width:.6g}" height="{top:.6g}" '
        f'fill="{_BACKGROUND}"/>\n'
    ]
    for row in rows:
        for run in _seam_runs(params, row):
            coords = " ".join(f"{p.real:.6g},{top - p.imag:.6g}" for p in run.tolist())
            parts.append(
                f'<polyline fill="none" stroke="{_STROKE}" '
                f'stroke-width="{_STROKE_WIDTH:.6g}" points="{coords}"/>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts).encode("utf-8")


def export_csv(rows: np.ndarray, times: tuple[float, ...]) -> bytes:
    """Flat CSV of all sampled points, 17 significant digits per float.

    Row k is written as event ``k``, born at ``times[k]``.
    """
    points = ((k, t, j, p.real, p.imag) for k, (t, row) in enumerate(zip(times, rows.tolist()))
              for j, p in enumerate(row))
    return _text("event_index,birth_time,point_index,re,im", "%d,%.17g,%d,%.17g,%.17g",
                 points).encode("utf-8")


def _text(head: str, template: str, rows) -> str:
    """Every CSV artifact: ``head``, then ``template % row`` for each row, a newline after each."""
    return "\n".join([head, *(template % row for row in rows)]) + "\n"
