"""Trace attached particles through the evolving cluster map and export figures.

Particle k enters as the segment ``[x_k, x_k + i*lam]``.  In the backward
cluster (the default) it is then moved by the maps of events k+1..n, newest
outermost; in the forward cluster by the maps of events 1..k-1, earliest
outermost.  At fixed time the two clusters share one law but are different
pictures of it; pathwise the forward cluster is the backward cluster of the
reversed event order, and is traced as such.  The trace carries the samples
above the boundary in disk coordinates ``zeta = exp(-iz/N)``, where the
cylinder slit map is the disk slit map conjugated by a rotation, so that
consecutive maps compose with no chart between them.

A cluster is one ``(particles, samples)`` complex array, row k the sampled
polyline of particle k, from the trace to both exports: an SVG figure
(screen coordinates, seam-aware polylines) and a flat CSV of the points.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .conformal import (
    _FAR_FIELD_RATIO,
    CylinderParams,
    _disk_slit_many,
    _reduce_many,
    cyl_slit_many,
)
from .process import EventLog

__all__ = ["trace_cluster", "export_svg", "export_csv"]

_STROKE = "#1a3a6b"
_STROKE_WIDTH = 0.35
_BACKGROUND = "white"
_WIDTH_PX = 900

# |zeta| at height 30 N: a sample that gets there leaves disk coordinates
_FAR_ZETA = math.exp(_FAR_FIELD_RATIO)


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

    The samples above the boundary travel in disk coordinates
    ``zeta = exp(-iz/N)``, where map k is ``zeta -> D(rho zeta)/rho`` with
    ``D`` the slit map at the origin (``_disk_slit_many``) and
    ``rho = exp(i x_k/N)``: the charts between consecutive maps cancel, and
    one ``i N Log`` at the end brings them back.  Two kinds of sample stay on
    the cylinder and go through ``cyl_slit_many``: the base sample, which
    lies on the boundary, where the disk form's root sits on its branch cut;
    and any sample once it reaches height ``30 N`` (``_FAR_FIELD_RATIO``),
    where zeta would overflow further up.  Heights never fall, so such a
    sample stays far.
    """
    if samples_per_slit < 2:
        raise ValueError("samples_per_slit must be at least 2")
    params = log.params
    n = params.radius_n
    xs = log.xs[::-1] if forward else log.xs
    m = samples_per_slit
    lift = np.exp(params.lam * np.arange(1, m) / (m - 1) / n)  # |zeta| at birth
    base = np.empty(len(xs), dtype=complex)  # sample 0 of each particle, on the cylinder
    size = len(xs) * (m - 1)
    pts = np.empty(size, dtype=complex)  # the samples in disk coordinates, pts[:live] ...
    at = np.empty(size, dtype=np.intp)  # ... at these flat indices of the (particles, m-1) block
    live = 0
    far_at, far = np.empty(0, dtype=np.intp), np.empty(0, dtype=complex)  # left for the cylinder
    for k, x in enumerate(xs):
        rho = cmath.exp(1j * x / n)
        pts[:live] = _disk_slit_many(params, rho * pts[:live]) / rho
        base[:k] = cyl_slit_many(params, x, base[:k])
        if far.size:
            far = cyl_slit_many(params, x, far)
        base[k] = x
        pts[live : live + m - 1] = lift / rho
        at[live : live + m - 1] = range(k * (m - 1), (k + 1) * (m - 1))
        live += m - 1
        if (up := np.abs(pts[:live]) >= _FAR_ZETA).any():
            far_at = np.concatenate([far_at, at[:live][up]])
            far = np.concatenate([far, 1j * n * np.log(pts[:live][up])])
            kept = live - np.count_nonzero(up)
            pts[:kept], at[:kept] = pts[:live][~up], at[:live][~up]
            live = kept
    disk = np.empty(size, dtype=complex)
    disk[at[:live]] = 1j * n * np.log(pts[:live])
    disk[far_at] = far
    rows = np.concatenate([base[:, None], disk.reshape(len(xs), m - 1)], axis=1)
    rows.real = _reduce_many(rows.real, params.period)
    return rows[::-1] if forward else rows


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
    lines = ["event_index,birth_time,point_index,re,im"]
    for k, (t, row) in enumerate(zip(times, rows.tolist())):
        for j, p in enumerate(row):
            lines.append(f"{k},{t:.17g},{j},{p.real:.17g},{p.imag:.17g}")
    return ("\n".join(lines) + "\n").encode("utf-8")
