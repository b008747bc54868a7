"""Trace attached particles through the evolving cluster map and export figures.

Particle k enters as the segment ``[x_k, x_k + i*lam]``.  In the backward
cluster (the default) it is then moved by the maps of events k+1..n, newest
outermost; in the forward cluster by the maps of events 1..k-1, earliest
outermost.  At fixed time the two clusters share one law but are different
pictures of it; pathwise the backward cluster is the forward cluster of the
reversed event order.

Exports are an SVG figure (screen coordinates, seam-aware polylines) and a
flat CSV of the sampled points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conformal import CylinderParams, _reduce, cyl_slit
from .process import EventLog, compose

__all__ = ["ParticleTrace", "trace_cluster", "export_svg", "export_csv"]

_STROKE = "#1a3a6b"
_STROKE_WIDTH = 0.35
_BACKGROUND = "white"
_WIDTH_PX = 900


@dataclass(frozen=True)
class ParticleTrace:
    """Sampled polyline of one attached particle.

    Points are reported with abscissae reduced to the fundamental domain;
    ``crosses_seam`` flags polylines whose reduced representation jumps
    across ``Re = +-pi*N``.
    """

    event_index: int
    birth_time: float
    points: tuple[complex, ...]
    crosses_seam: bool


def _finalize(params: CylinderParams, index: int, birth: float, pts: list[complex]) -> ParticleTrace:
    reduced = tuple(complex(_reduce(p.real, params.period), p.imag) for p in pts)
    return ParticleTrace(index, birth, reduced, len(_seam_runs(params, reduced)) > 1)


def _slit_segment(params: CylinderParams, x: float, samples: int) -> list[complex]:
    steps = samples - 1
    return [complex(x, params.lam * k / steps) for k in range(samples)]


def trace_cluster(
    log: EventLog,
    samples_per_slit: int = 16,
    forward: bool = False,
) -> list[ParticleTrace]:
    """Final positions of every particle's sampled polyline.

    Backward (default): particle k's segment is composed with the maps of
    the later events, newest outermost.  Forward: with the maps of the
    earlier events, earliest outermost.  Either way O(n^2 * samples) map
    applications in total.
    """
    if samples_per_slit < 2:
        raise ValueError("samples_per_slit must be at least 2")
    params = log.params
    xs = log.xs
    traces = []
    for k, e in enumerate(log.events):
        maps = xs[:k][::-1] if forward else xs[k + 1:]
        pts = _slit_segment(params, e.x, samples_per_slit)
        pts = [compose(cyl_slit, params, maps, p) for p in pts]
        traces.append(_finalize(params, k, e.time, pts))
    return traces


def _seam_runs(params: CylinderParams, pts: tuple[complex, ...]) -> list[list[complex]]:
    """Split a reduced polyline into runs that do not jump across the seam."""
    half = params.half_period
    runs: list[list[complex]] = [[pts[0]]]
    for a, b in zip(pts, pts[1:]):
        if abs(b.real - a.real) > half:
            runs.append([b])
        else:
            runs[-1].append(b)
    return runs


def export_svg(traces: list[ParticleTrace], params: CylinderParams) -> bytes:
    """Render the traces as an SVG 1.1 document (y axis flipped to screen)."""
    if not traces:
        raise ValueError("export_svg requires at least one trace")
    half = params.half_period
    top = 1.1 * max(max(p.imag for p in t.points) for t in traces)
    top = max(top, params.lam)
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
    for trace in traces:
        for run in _seam_runs(params, trace.points):
            coords = " ".join(f"{p.real:.6g},{top - p.imag:.6g}" for p in run)
            parts.append(
                f'<polyline fill="none" stroke="{_STROKE}" '
                f'stroke-width="{_STROKE_WIDTH:.6g}" points="{coords}"/>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts).encode("utf-8")


def export_csv(traces: list[ParticleTrace]) -> bytes:
    """Flat CSV of all sampled points, 17 significant digits per float."""
    lines = ["event_index,birth_time,point_index,re,im"]
    for trace in traces:
        for j, p in enumerate(trace.points):
            lines.append(
                f"{trace.event_index},{trace.birth_time:.17g},{j},{p.real:.17g},{p.imag:.17g}"
            )
    return ("\n".join(lines) + "\n").encode("utf-8")
