"""Tests for cluster tracing and the SVG/CSV exports."""

from __future__ import annotations

import re
import sys

import numpy as np
import pytest

from chl.conformal import CylinderParams, _reduce, cyl_slit, cylinder_dist
from chl.process import Event, EventLog, _LockStep, sample_events
from chl.render import export_csv, export_svg, trace_cluster


def make_log(params, pairs, horizon=10.0):
    return EventLog(params, horizon, 0, tuple(Event(t, x) for t, x in pairs))


class TestTraceCluster:
    def test_empty_log(self):
        log = make_log(CylinderParams(2.0, 1.0), [])
        rows = trace_cluster(log)
        assert isinstance(rows, np.ndarray) and rows.shape == (0, 16)

    def test_single_particle_is_vertical_segment(self):
        p = CylinderParams(2.0, 1.0)
        x0 = 1.25
        rows = trace_cluster(make_log(p, [(0.5, x0)]), samples_per_slit=5)
        assert rows.shape == (1, 5) and rows.dtype == complex
        (row,) = rows
        for k, pt in enumerate(row):
            want = complex(x0, p.lam * k / 4)
            assert abs(pt - want) <= 1e-9
        assert row[-1].imag == pytest.approx(p.lam)  # tip included

    def test_guard_bounds_the_tallest_height(self):
        # a point carries about eps max(pi N, Im z) per map: 800 events at N = 0.1
        # stack to heights near 690, and (events + 1) eps height exceeds 1e-10 lam
        # while the abscissa bound (events + 1) eps pi N stays far below it
        p = CylinderParams(0.1, 1.0)
        xs = p.half_period * np.random.default_rng(7).uniform(-1.0, 1.0, 800)
        log = make_log(p, [((k + 1) / 800, x) for k, x in enumerate(xs.tolist())])
        assert 801 * sys.float_info.epsilon * p.half_period <= 1e-12 * p.lam
        with pytest.raises(ValueError, match=r"max\(pi N, height\) = 6"):
            trace_cluster(log, samples_per_slit=2)
        # its first 300 events stay below 270, and trace
        short = make_log(p, [((k + 1) / 800, x) for k, x in enumerate(xs[:300].tolist())])
        assert trace_cluster(short, samples_per_slit=2).imag.max() < 270.0

    def test_stacked_particles_grow_taller(self):
        # two events at the same abscissa: the second particle sits on the
        # image of the first, so its top exceeds one slit length
        p = CylinderParams(2.0, 1.0)
        first, second = trace_cluster(make_log(p, [(0.2, 0.0), (0.8, 0.0)]), samples_per_slit=9)
        # oracle: the first particle's segment pushed through the second map
        for k, pt in enumerate(first):
            seed_pt = complex(0.0, p.lam * k / 8)
            assert abs(pt - cyl_slit(p, 0.0, seed_pt)) <= 1e-9
        assert first.imag.max() > p.lam
        assert second.imag.max() == pytest.approx(p.lam)

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
        assert back.shape == fwd.shape
        assert np.array_equal(back, fwd[::-1])

    def test_lock_step_equals_per_particle_composition(self):
        # the lock-step loop is a restructuring only: each particle's segment
        # pushed map by map through a _LockStep of its own gives the same bits,
        # and stays within 1e-11 of scalar cyl_slit composition
        p = CylinderParams(3.0, 0.8)
        log = sample_events(p, 18.0 / p.period, 4711)
        xs = log.xs
        segment = 1j * (p.lam * np.arange(5) / 4)
        for forward in (False, True):
            rows = trace_cluster(log, samples_per_slit=5, forward=forward)
            assert rows.shape == (len(log), 5)
            for k, row in enumerate(rows):
                steps = _LockStep(p, xs[k] + segment)
                scalar = (xs[k] + segment).tolist()
                for x in (xs[:k][::-1] if forward else xs[k + 1:]):
                    steps.step(x)
                    scalar = [cyl_slit(p, x, q) for q in scalar]
                pts = steps.points()
                assert row.tolist() == [complex(_reduce(q.real, p.period), q.imag) for q in pts.tolist()]
                assert max(cylinder_dist(p, a, b) for a, b in zip(row.tolist(), scalar)) <= 1e-11

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
            return tuple(complex(_reduce(q.real, p.period), q.imag) for q in pts)

        # the batched kernel may differ from scalar cyl_slit in the last bits
        for rows, want in ((trace_cluster(log, 4), live),
                           (trace_cluster(log, 4, forward=True), fwd)):
            assert len(rows) == len(want)
            for row, pts in zip(rows, want):
                for a, b in zip(row, reduced(pts)):
                    assert cylinder_dist(p, a, b) <= 1e-11

    def test_tall_cluster_matches_scalar_composition(self):
        # at N = 0.1 the cluster grows to about 1100 N, beyond the 709 N where
        # zeta = exp(-iz/N) overflows: samples leave disk coordinates at 30 N
        p = CylinderParams(0.1, 1.0)
        log = sample_events(p, 200.0, 1)
        assert len(log) == 127
        rows = trace_cluster(log)
        assert np.all(np.isfinite(rows)) and rows.imag.max() > 1000 * p.radius_n
        heights = p.lam * np.arange(16) / 15
        for k, row in enumerate(rows):
            pts = [complex(log.xs[k], h) for h in heights]
            for x in log.xs[k + 1:]:
                pts = [cyl_slit(p, x, q) for q in pts]
            assert max(cylinder_dist(p, a, b) for a, b in zip(row.tolist(), pts)) <= 1e-10, k
        assert np.all(np.isfinite(trace_cluster(log, forward=True)))

    def test_no_negative_imaginary_parts(self):
        p = CylinderParams(10.0, 1.0)
        log = sample_events(p, 40.0 / p.period, 20_000)
        rows = trace_cluster(log, samples_per_slit=6)
        assert rows.size and rows.imag.min() >= -1e-12

    def test_points_reported_in_fundamental_domain(self):
        p = CylinderParams(1.0, 1.5)
        log = sample_events(p, 25.0 / p.period, 31)
        rows = trace_cluster(log, samples_per_slit=4)
        assert rows.size
        assert -p.half_period <= rows.real.min() and rows.real.max() <= p.half_period

    def test_seam_crossing_flag_and_svg_split(self):
        # a particle near the seam pushed by a map attached just across it
        # wraps in the reduced representation: the SVG polyline must split
        # instead of spanning the domain
        p = CylinderParams(1.0, 1.0)
        hp = p.half_period
        log = make_log(p, [(0.1, hp - 0.1), (0.2, -hp + 0.1)])
        svg = export_svg(trace_cluster(log, samples_per_slit=8), p).decode()
        assert svg.count("<polyline") == 3  # first splits into two runs

    def test_samples_validation(self):
        log = make_log(CylinderParams(2.0, 1.0), [(0.1, 0.0)])
        with pytest.raises(ValueError):
            trace_cluster(log, samples_per_slit=1)
        # at most 1e7 points, samples_per_slit * max(1, events), refused before any is
        # built: 1e15 samples would not fit in memory
        ten = make_log(log.params, [(0.1 * k, 0.0) for k in range(1, 11)])
        empty = make_log(log.params, [])
        for events, samples in ((log, 10**7 + 1), (ten, 10**6 + 1), (empty, 10**15)):
            with pytest.raises(ValueError, match=r"1e\+07 points"):
                trace_cluster(events, samples_per_slit=samples)


class TestExports:
    def test_svg_single_polyline(self):
        p = CylinderParams(2.0, 1.0)
        rows = trace_cluster(make_log(p, [(0.5, 0.0)]), samples_per_slit=5)
        svg = export_svg(rows, p).decode()
        assert svg.count("<polyline") == 1
        assert 'version="1.1"' in svg
        assert svg.startswith('<?xml version="1.0"')

    @staticmethod
    def _points_per_row(rows, params):
        """Every polyline's points as the per-row seam split wrote them: the reference."""
        top = max(1.1 * float(rows.imag.max()), params.lam)
        points = []
        for row in rows:
            jumps = np.flatnonzero(np.abs(np.diff(row.real)) > params.half_period)
            for run in np.split(row, jumps + 1):
                points.append(" ".join(f"{p.real:.6g},{top - p.imag:.6g}" for p in run.tolist()))
        return points

    @pytest.mark.parametrize("n,t,seed,crossings", [
        (4.0, 1.0, 0, 0), (4.0, 1.0, 1, 1), (1.0, 6.0, 0, 2), (0.5, 10.0, 0, 11)])
    def test_svg_seam_split_matches_per_row(self, n, t, seed, crossings):
        p = CylinderParams(n, 1.0)
        rows = trace_cluster(sample_events(p, t, seed))
        assert (np.abs(np.diff(rows.real, axis=1)) > p.half_period).sum() == crossings
        svg = export_svg(rows, p).decode()
        assert re.findall(r'points="([^"]*)"', svg) == self._points_per_row(rows, p)
        assert svg.count("<polyline") == len(rows) + crossings

    def test_svg_seam_split_many_jumps_per_row(self):
        # rows of uniform abscissae jump across the seam at about a quarter of their steps
        p = CylinderParams(1.0, 1.0)
        rng = np.random.default_rng(5)
        rows = p.half_period * rng.uniform(-1.0, 1.0, (40, 16)) + 1j * rng.uniform(0.0, 3.0, (40, 16))
        rows[::3] = rows[::3].real * 0.1 + 1j * rows[::3].imag  # every third row never jumps
        svg = export_svg(rows, p).decode()
        assert re.findall(r'points="([^"]*)"', svg) == self._points_per_row(rows, p)

    def test_svg_requires_traces(self):
        with pytest.raises(ValueError):
            export_svg(np.empty((0, 2), dtype=complex), CylinderParams(2.0, 1.0))

    def test_svg_deterministic_bytes(self):
        p = CylinderParams(4.0, 1.0)
        log = sample_events(p, 20.0 / p.period, 777)
        a = export_svg(trace_cluster(log, 6), p)
        b = export_svg(trace_cluster(log, 6), p)
        assert a == b

    def test_csv_round_trip_17_digits(self):
        p = CylinderParams(2.0, 1.0)
        log = sample_events(p, 10.0 / p.period, 99)
        rows = trace_cluster(log, samples_per_slit=3)
        lines = export_csv(rows, log.times).decode().splitlines()
        assert lines[0] == "event_index,birth_time,point_index,re,im"
        row = 1
        for k, points in enumerate(rows):
            for j, pt in enumerate(points):
                idx, birth, pidx, re, im = lines[row].split(",")
                assert int(idx) == k
                assert float(birth) == log.times[k]  # exact parse-back
                assert int(pidx) == j
                assert float(re) == pt.real and float(im) == pt.imag
                row += 1
        assert row == len(lines)
