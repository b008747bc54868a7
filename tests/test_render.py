"""Tests for cluster tracing and the SVG/CSV exports."""

from __future__ import annotations

import cmath

import numpy as np
import pytest

from chl.conformal import (
    _FAR_FIELD_RATIO,
    CylinderParams,
    _disk_slit_many,
    _reduce,
    cyl_slit,
    cyl_slit_many,
    cylinder_dist,
)
from chl.process import Event, EventLog, sample_events
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
        # pushed map by map through the same two charts gives the same bits --
        # the base sample through cyl_slit_many on the cylinder, the others
        # through _disk_slit_many in disk coordinates zeta = exp(-iz/N), where
        # map x is zeta -> D(rho zeta)/rho with rho = exp(ix/N)
        p = CylinderParams(3.0, 0.8)
        n = p.radius_n
        log = sample_events(p, 18.0 / p.period, 4711)
        xs = log.xs
        lift = np.exp(p.lam * np.arange(1, 5) / 4 / n)  # |zeta| of samples 1..4 at birth
        for forward in (False, True):
            rows = trace_cluster(log, samples_per_slit=5, forward=forward)
            assert rows.shape == (len(log), 5)
            assert rows.imag.max() < _FAR_FIELD_RATIO * n  # no sample leaves disk coordinates
            for k, row in enumerate(rows):
                base = np.array([complex(xs[k], 0.0)])
                zeta = lift / cmath.exp(1j * xs[k] / n)
                for x in (xs[:k][::-1] if forward else xs[k + 1:]):
                    rho = cmath.exp(1j * x / n)
                    base = cyl_slit_many(p, x, base)
                    zeta = _disk_slit_many(p, rho * zeta) / rho
                pts = np.concatenate([base, 1j * n * np.log(zeta)])
                want = [complex(_reduce(q.real, p.period), q.imag) for q in pts]
                assert row.tolist() == want

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


class TestExports:
    def test_svg_single_polyline(self):
        p = CylinderParams(2.0, 1.0)
        rows = trace_cluster(make_log(p, [(0.5, 0.0)]), samples_per_slit=5)
        svg = export_svg(rows, p).decode()
        assert svg.count("<polyline") == 1
        assert 'version="1.1"' in svg
        assert svg.startswith('<?xml version="1.0"')

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
