"""Tests for cluster tracing and the SVG/CSV exports."""

from __future__ import annotations

import numpy as np
import pytest

from chl.conformal import (
    CylinderParams,
    cyl_slit,
    cyl_slit_many,
    cylinder_dist,
    reduce_to_fundamental,
)
from chl.process import Event, EventLog, sample_events
from chl.render import export_csv, export_svg, trace_cluster


def make_log(params, pairs, horizon=10.0):
    return EventLog(params, horizon, 0, tuple(Event(t, x) for t, x in pairs))


class TestTraceCluster:
    def test_empty_log(self):
        log = make_log(CylinderParams(2.0, 1.0), [])
        assert trace_cluster(log) == []

    def test_single_particle_is_vertical_segment(self):
        p = CylinderParams(2.0, 1.0)
        x0 = 1.25
        (trace,) = trace_cluster(make_log(p, [(0.5, x0)]), samples_per_slit=5)
        assert trace.event_index == 0
        assert trace.birth_time == 0.5
        assert not trace.crosses_seam
        for k, pt in enumerate(trace.points):
            want = complex(x0, p.lam * k / 4)
            assert abs(pt - want) <= 1e-9
        assert trace.points[-1].imag == pytest.approx(p.lam)  # tip included

    def test_stacked_particles_grow_taller(self):
        # two events at the same abscissa: the second particle sits on the
        # image of the first, so its top exceeds one slit length
        p = CylinderParams(2.0, 1.0)
        traces = trace_cluster(make_log(p, [(0.2, 0.0), (0.8, 0.0)]), samples_per_slit=9)
        first, second = traces
        # oracle: the first particle's segment pushed through the second map
        for k, pt in enumerate(first.points):
            seed_pt = complex(0.0, p.lam * k / 8)
            assert abs(pt - cyl_slit(p, 0.0, seed_pt)) <= 1e-9
        assert max(pt.imag for pt in first.points) > p.lam
        assert max(pt.imag for pt in second.points) == pytest.approx(p.lam)

    def test_backward_equals_forward_of_reversed_log(self):
        # pathwise identity: particle k of the incremental backward build is
        # the forward image of its slit under the reversed event order; the
        # forward trace is the backward loop over reversed abscissae, so the
        # two agree bit for bit
        p = CylinderParams(3.0, 0.8)
        log = sample_events(p, 18.0 / p.period, 4711)
        assert 5 <= len(log) <= 40
        back = trace_cluster(log, samples_per_slit=4)
        reversed_log = EventLog(
            p, log.horizon_t, log.seed,
            tuple(Event(i + 1.0, e.x) for i, e in enumerate(reversed(log.events))),
        )
        fwd = trace_cluster(reversed_log, samples_per_slit=4, forward=True)
        assert len(back) == len(fwd)
        assert [b.points for b in back] == [f.points for f in reversed(fwd)]

    def test_lock_step_equals_per_particle_composition(self):
        # the lock-step loop is a restructuring only: each particle's segment
        # pushed map by map through the same kernel gives the same bits
        p = CylinderParams(3.0, 0.8)
        log = sample_events(p, 18.0 / p.period, 4711)
        xs = log.xs
        heights = p.lam * np.arange(5) / 4
        for forward in (False, True):
            traces = trace_cluster(log, samples_per_slit=5, forward=forward)
            for k, trace in enumerate(traces):
                pts = xs[k] + 1j * heights
                for x in (xs[:k][::-1] if forward else xs[k + 1:]):
                    pts = cyl_slit_many(p, x, pts)
                want = tuple(complex(reduce_to_fundamental(p, q.real), q.imag) for q in pts)
                assert trace.points == want

    def test_both_modes_equal_inline_loops(self):
        p = CylinderParams(3.0, 0.8)
        log = sample_events(p, 18.0 / p.period, 4711)
        xs = log.xs

        def segment(x):
            return [complex(x, p.lam * k / 3) for k in range(4)]

        live = []  # backward: push every existing particle through each new map
        for x in xs:
            for pts in live:
                pts[:] = [cyl_slit(p, x, q) for q in pts]
            live.append(segment(x))
        fwd = []  # forward: earlier maps, earliest outermost
        for k, x in enumerate(xs):
            pts = segment(x)
            for j in range(k - 1, -1, -1):
                pts = [cyl_slit(p, xs[j], q) for q in pts]
            fwd.append(pts)

        def reduced(pts):
            return tuple(complex(reduce_to_fundamental(p, q.real), q.imag) for q in pts)

        # the batched kernel may differ from scalar cyl_slit in the last bits
        for traces, want in ((trace_cluster(log, 4), live),
                             (trace_cluster(log, 4, forward=True), fwd)):
            assert len(traces) == len(want)
            for t, pts in zip(traces, want):
                for a, b in zip(t.points, reduced(pts)):
                    assert cylinder_dist(p, a, b) <= 1e-11

    def test_no_negative_imaginary_parts(self):
        p = CylinderParams(10.0, 1.0)
        log = sample_events(p, 40.0 / p.period, 20_000)
        for trace in trace_cluster(log, samples_per_slit=6):
            for pt in trace.points:
                assert pt.imag >= -1e-12

    def test_points_reported_in_fundamental_domain(self):
        p = CylinderParams(1.0, 1.5)
        log = sample_events(p, 25.0 / p.period, 31)
        for trace in trace_cluster(log, samples_per_slit=4):
            for pt in trace.points:
                assert -p.half_period <= pt.real <= p.half_period

    def test_seam_crossing_flag_and_svg_split(self):
        # a particle near the seam pushed by a map attached just across it
        # wraps in the reduced representation: the trace must carry the flag
        # and the SVG polyline must split instead of spanning the domain
        p = CylinderParams(1.0, 1.0)
        hp = p.half_period
        log = make_log(p, [(0.1, hp - 0.1), (0.2, -hp + 0.1)])
        first, second = trace_cluster(log, samples_per_slit=8)
        assert first.crosses_seam
        assert not second.crosses_seam
        svg = export_svg([first, second], p).decode()
        assert svg.count("<polyline") == 3  # first splits into two runs

    def test_samples_validation(self):
        log = make_log(CylinderParams(2.0, 1.0), [(0.1, 0.0)])
        with pytest.raises(ValueError):
            trace_cluster(log, samples_per_slit=1)


class TestExports:
    def test_svg_single_polyline(self):
        p = CylinderParams(2.0, 1.0)
        traces = trace_cluster(make_log(p, [(0.5, 0.0)]), samples_per_slit=5)
        svg = export_svg(traces, p).decode()
        assert svg.count("<polyline") == 1
        assert 'version="1.1"' in svg
        assert svg.startswith('<?xml version="1.0"')

    def test_svg_requires_traces(self):
        with pytest.raises(ValueError):
            export_svg([], CylinderParams(2.0, 1.0))

    def test_svg_deterministic_bytes(self):
        p = CylinderParams(4.0, 1.0)
        log = sample_events(p, 20.0 / p.period, 777)
        a = export_svg(trace_cluster(log, 6), p)
        b = export_svg(trace_cluster(log, 6), p)
        assert a == b

    def test_csv_round_trip_17_digits(self):
        p = CylinderParams(2.0, 1.0)
        log = sample_events(p, 10.0 / p.period, 99)
        traces = trace_cluster(log, samples_per_slit=3)
        lines = export_csv(traces).decode().splitlines()
        assert lines[0] == "event_index,birth_time,point_index,re,im"
        row = 1
        for trace in traces:
            for j, pt in enumerate(trace.points):
                idx, birth, pidx, re, im = lines[row].split(",")
                assert int(idx) == trace.event_index
                assert float(birth) == trace.birth_time  # exact parse-back
                assert int(pidx) == j
                assert float(re) == pt.real and float(im) == pt.imag
                row += 1
        assert row == len(lines)
