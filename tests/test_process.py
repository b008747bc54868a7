"""Tests for event sampling and the growth-process evaluators.

Composition oracles are written out as explicit loops in the tests, so the
evaluators are checked against hand-built compositions rather than against
themselves.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chl.process
from chl.conformal import (
    CylinderParams,
    _at,
    _disk_slit_many,
    _PerPoint,
    cyl_slit,
    cyl_slit_many,
    cylinder_dist,
    halfplane_slit,
    halfplane_slit_many,
)
from chl.process import (
    Event,
    EventLog,
    _from_zeta,
    _LockStep,
    backward_chl_trajectory,
    compose,
    drift,
    eval_backward_chl,
    eval_backward_shl,
    eval_disk_hl,
    eval_forward_chl,
    eval_forward_shl,
    orbit,
    orbit_many,
    restrict_log,
    sample_events,
    sample_many,
)
from chl.rng import SplitMix64, mix_seed, poisson_many, uniform_at


def make_log(params: CylinderParams, pairs, horizon=10.0, seed=0) -> EventLog:
    """Event log with prescribed (time, x) pairs, for composition oracles."""
    return EventLog(params, horizon, seed, tuple(Event(t, x) for t, x in pairs))


def _poisson_inversion(rng: SplitMix64, mu: float) -> int:
    """Poisson sample by CDF inversion, one draw; the scalar oracle of ``poisson_many``."""
    u = rng.next_float()
    p = math.exp(-mu)
    c = p
    k = 0
    while u > c:
        k += 1
        p *= mu / k
        c += p
        if p == 0.0:  # u beyond representable tail mass
            break
    return k


def _poisson(rng: SplitMix64, mu: float) -> int:
    """Poisson(mu) by inversion in chunks of 500, one draw per chunk."""
    total = 0
    while mu > 500.0:
        total += _poisson_inversion(rng, 500.0)
        mu -= 500.0
    return total + _poisson_inversion(rng, mu)


def _scalar_draws(params: CylinderParams, t: float, seed: int, quantize=lambda u: u):
    """Times and abscissae of one log in draw order, one float at a time.

    ``quantize`` maps each time and abscissa draw, as a test's stand-in for
    ``uniform_at`` does; the Poisson count is drawn unchanged.
    """
    rng = SplitMix64(seed)
    period, half = params.period, params.half_period
    count = _poisson(rng, period * t)
    times = [t * (1.0 - quantize(rng.next_float())) for _ in range(count)]
    xs = (-half + quantize(rng.next_float()) * period for _ in range(count))
    return times, [x if x < half else -half for x in xs]


def _scalar_sample(params: CylinderParams, t: float, seed: int) -> list[tuple[float, float]]:
    """(time, x) pairs of one log drawn one float at a time: the sampler's oracle."""
    times, xs = _scalar_draws(params, t, seed)
    return [(s, x) for s, x, _ in sorted(zip(times, xs, range(len(times))))]


class TestArraySampler:
    """``sample_many`` rows against the scalar SplitMix64 loop, with ==."""

    @pytest.mark.parametrize("n, t, replicas", [
        (16.0, 1.0, 300), (32.0, 0.5, 300), (2.0, 0.5, 1000), (10.0, 6.0, 100),
        (200.0, 2.0, 20),  # 2 pi N t > 500: the count is drawn in chunks
    ])
    def test_rows_equal_scalar_loop(self, n, t, replicas):
        params = CylinderParams(n, 1.0)
        seeds = [mix_seed(11, r) for r in range(replicas)]
        counts, times, xs = sample_many(params, t, seeds)
        assert times.shape == xs.shape == (replicas, counts.max())
        for seed, c, ts, row in zip(seeds, counts.tolist(), times.tolist(), xs.tolist()):
            assert list(zip(ts[:c], row[:c])) == _scalar_sample(params, t, seed)
            assert ts[c:] == row[c:] == [math.inf] * (len(ts) - c)

    def test_zero_count_rows(self):
        params = CylinderParams(2.0, 1.0)
        counts, times, xs = sample_many(params, 1e-9, [mix_seed(5, r) for r in range(500)])
        assert counts.tolist() == [0] * 500
        assert times.shape == xs.shape == (500, 0)

    def test_row_independent_of_other_seeds(self):
        params = CylinderParams(8.0, 1.0)
        seeds = [mix_seed(3, r) for r in range(40)]
        counts, times, xs = sample_many(params, 1.0, seeds)
        c, ts, row = sample_many(params, 1.0, seeds[17:18])
        assert c[0] == counts[17]
        assert np.array_equal(ts[0], times[17, :c[0]]) and np.array_equal(row[0], xs[17, :c[0]])

    def test_tied_rows_follow_the_full_rule(self, monkeypatch):
        # draws on a grid of eighths: exact time ties, equal (time, abscissa)
        # pairs and +inf padding; argsort by time alone misorders the ties
        monkeypatch.setattr(chl.process, "uniform_at",
                            lambda seeds, draws: np.floor(uniform_at(seeds, draws) * 8) / 8)
        params = CylinderParams(2.0, 1.0)
        seeds = [mix_seed(13, r) for r in range(200)]
        counts, times, xs = sample_many(params, 1.0, seeds)
        tied_rows = equal_pairs = 0
        for r, (seed, c) in enumerate(zip(seeds, counts.tolist())):
            draw_t, draw_x = _scalar_draws(params, 1.0, seed, lambda u: math.floor(u * 8) / 8)
            order = np.lexsort((draw_x, draw_t))
            assert times[r, :c].tolist() == np.take(draw_t, order).tolist()
            assert xs[r, :c].tolist() == np.take(draw_x, order).tolist()
            assert times[r, c:].tolist() == xs[r, c:].tolist() == [math.inf] * (times.shape[1] - c)
            one = sample_many(params, 1.0, [seed])
            assert one[1][0].tolist() == times[r, :c].tolist()
            assert one[2][0].tolist() == xs[r, :c].tolist()
            tied_rows += len(set(draw_t)) < c
            equal_pairs += len(set(zip(draw_t, draw_x))) < c
        assert tied_rows > 100 and equal_pairs > 100 and counts.min() < counts.max()

    def test_one_row_sample_events(self):
        for n, t, seed in ((16.0, 1.0, 1), (200.0, 2.0, 2), (2.0, 1e-9, 3), (3.0, 0.7, -5)):
            params = CylinderParams(n, 1.0)
            log = sample_events(params, t, seed)
            assert [(e.time, e.x) for e in log.events] == _scalar_sample(params, t, seed & (2**64 - 1))
            assert log.seed == seed & (2**64 - 1)

    def test_uniform_at_is_the_stream(self):
        seeds = [0, 1, 2**64 - 1, mix_seed(9, 4)]
        want = []
        for seed in seeds:
            rng = SplitMix64(seed)
            want.append([rng.next_float() for _ in range(50)])
        got = uniform_at(np.array(seeds, dtype=np.uint64)[:, None],
                         np.arange(1, 51, dtype=np.uint64))
        assert got.tolist() == want

    @pytest.mark.parametrize("mu", [1e-9, 0.5, 6.283185307179586, 100.0, 500.0, 2513.3])
    def test_poisson_many_is_the_inversion_loop(self, mu):
        seeds = [mix_seed(21, r) for r in range(2000)]
        counts, draws = poisson_many(np.array(seeds, dtype=np.uint64), mu)
        assert draws == math.ceil(mu / 500.0)
        assert counts.tolist() == [_poisson(SplitMix64(s), mu) for s in seeds]

    def test_poisson_mean_validated(self):
        # above 1e9 the 500-wide chunk list would exhaust memory, or never end
        # once mu - 500 == mu
        for mu in (-1.0, math.inf, math.nan, 1e300, math.nextafter(1e9, math.inf)):
            with pytest.raises(ValueError):
                poisson_many(np.zeros(1, dtype=np.uint64), mu)


class TestSampling:
    def test_mean_count_matches_intensity(self):
        # E[count] = 2 pi N t; check the empirical mean over 10^4 seeded logs
        params = CylinderParams(1.0, 1.0)
        counts, _, _ = sample_many(params, 1.0, [mix_seed(777, r) for r in range(10_000)])
        counts = counts.tolist()
        mean = statistics.fmean(counts)
        sigma = statistics.stdev(counts) / math.sqrt(len(counts))
        assert abs(mean - 2 * math.pi) <= 3 * sigma

    def test_vanishing_window_is_empty(self):
        params = CylinderParams(2.0, 1.0)
        total = sum(len(sample_events(params, 1e-9, mix_seed(5, r))) for r in range(1000))
        assert total == 0

    def test_determinism_bit_exact(self):
        params = CylinderParams(3.0, 0.7)
        a = sample_events(params, 2.0, 123456789)
        b = sample_events(params, 2.0, 123456789)
        assert a == b
        assert a.to_jsonl() == b.to_jsonl()

    def test_times_sorted_and_in_range(self):
        params = CylinderParams(4.0, 1.0)
        log = sample_events(params, 3.0, 42)
        times = log.times
        assert all(t1 < t2 or (t1 == t2) for t1, t2 in zip(times, times[1:]))
        assert all(0.0 < t <= 3.0 for t in times)
        assert all(-params.half_period <= x < params.half_period for x in log.xs)

    def test_large_rate_uses_chunked_inversion(self):
        # mean 2*pi*100 ~ 628 exceeds the single-chunk inversion limit
        params = CylinderParams(100.0, 1.0)
        logs = [sample_events(params, 1.0, mix_seed(31, r)) for r in range(50)]
        mean = statistics.fmean(len(log) for log in logs)
        sigma = statistics.stdev([len(log) for log in logs]) / math.sqrt(50)
        assert abs(mean - 200 * math.pi) <= 4 * sigma
        assert sample_events(params, 1.0, 7) == sample_events(params, 1.0, 7)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            sample_events(CylinderParams(1.0, 1.0), 0.0, 1)

    def test_sampled_logs_pinned(self):
        # SHA-256 of 1200 serialized logs, pinned so that a rewrite of the
        # sampler is bit-identical; (200, 2) draws its count in chunks,
        # since 2 pi N t > 500
        digest = hashlib.sha256()
        for n, t in ((16.0, 1.0), (32.0, 0.5), (200.0, 2.0), (10.0, 6.0)):
            params = CylinderParams(n, 1.0)
            for r in range(300):
                digest.update(sample_events(params, t, mix_seed(7, r)).to_jsonl().encode())
        assert digest.hexdigest() == (
            "22c814e8e6c1fc93d97b26e31857aa13fc025467cd30c474c0b393d11c307b8e"
        )

    def test_times_and_xs_built_once(self):
        log = sample_events(CylinderParams(4.0, 1.0), 1.0, 42)
        assert log.times is log.times and log.xs is log.xs
        assert log.xs == tuple(e.x for e in log.events)


class TestSerialization:
    def test_jsonl_round_trip_bit_exact(self):
        log = sample_events(CylinderParams(2.5, 0.9), 1.5, 987)
        text = log.to_jsonl()
        back = EventLog.from_jsonl(text)
        assert back == log
        assert back.to_jsonl() == text

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_jsonl_round_trip_arbitrary_logs(self, data):
        # any log from_jsonl accepts: sorted times in (0, horizon], x in [-pi N, pi N)
        n = data.draw(st.floats(0.1, 1e4))
        params = CylinderParams(n, data.draw(st.floats(1e-6, n)))
        horizon = data.draw(st.floats(1e-300, 1e300, exclude_min=True))
        times = sorted(data.draw(st.lists(st.floats(0.0, horizon, exclude_min=True), max_size=30)))
        half = params.half_period
        x = st.one_of(st.sampled_from([-half, -0.0, 0.0]), st.floats(-half, half, exclude_max=True))
        xs = data.draw(st.lists(x, min_size=len(times), max_size=len(times)))
        seed = data.draw(st.integers(0, 2**64 - 1))
        log = EventLog(params, horizon, seed, tuple(map(Event, times, xs)))
        back = EventLog.from_jsonl(log.to_jsonl())
        bits = [float(v).hex() for v in (*times, *xs)]
        assert [float(v).hex() for v in (*back.times, *back.xs)] == bits
        assert back == log

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_jsonl_rejects_every_breaking_mutation(self, data):
        # one field of a valid log set to a value that breaks finiteness, the
        # range (0, horizon] x [-pi N, pi N) or the time order: never accepted
        n = data.draw(st.floats(0.1, 1e4))
        params = CylinderParams(n, data.draw(st.floats(1e-6, n)))
        horizon = data.draw(st.floats(1e-300, 1e300, exclude_min=True))
        times = sorted(data.draw(st.lists(st.floats(0.0, horizon, exclude_min=True),
                                          min_size=1, max_size=8)))
        half = params.half_period
        xs = data.draw(st.lists(st.floats(-half, half, exclude_max=True),
                                min_size=len(times), max_size=len(times)))
        lines = EventLog(params, horizon, 0, tuple(map(Event, times, xs))).to_jsonl().splitlines()
        assert EventLog.from_jsonl("\n".join(lines)).times == tuple(times)
        bad = [math.nan, math.inf, -math.inf]
        mutations = [(0, key, v) for key in ("N", "lambda", "delta", "horizon") for v in bad]
        mutations.append((0, "horizon", math.nextafter(times[-1], 0.0)))  # below the last time
        mutations += [(0, "seed", v) for v in (-1, 2**64)]  # sample_events masks to [0, 2^64)
        for k, t in enumerate(times, start=1):
            ts = bad + [0.0, -0.0, -t, math.nextafter(horizon, math.inf)]
            if k > 1:
                ts.append(math.nextafter(times[k - 2], 0.0))  # before its predecessor
            if k < len(times):
                ts.append(math.nextafter(times[k], math.inf))  # after its successor
            mutations += [(k, "t", v) for v in ts]
            mutations += [(k, "x", v) for v in bad + [half, math.nextafter(-half, -math.inf), 1e300]]
        for k, key, value in mutations:
            record = json.loads(lines[k])
            record[key] = value
            text = "\n".join(lines[:k] + [json.dumps(record)] + lines[k + 1:])
            with pytest.raises(ValueError):
                EventLog.from_jsonl(text)

    def test_header_delta_tolerance(self):
        # the header's delta is redundant: it must match tanh(lam / 2N) to 1e-12 relative
        log = sample_events(CylinderParams(2.5, 0.9), 1.0, 5)
        head, *rest = log.to_jsonl().splitlines()
        record = json.loads(head)
        for factor, ok in [(1 + 5e-13, True), (1 - 5e-13, True),
                           (1 + 2e-12, False), (1 - 2e-12, False)]:
            record["delta"] = log.params.delta * factor
            text = "\n".join([json.dumps(record), *rest])
            if ok:
                assert EventLog.from_jsonl(text) == log
            else:
                with pytest.raises(ValueError):
                    EventLog.from_jsonl(text)

    def test_header_validation(self):
        bad = '{"N": 2.0, "lambda": 1.0, "delta": 0.5, "horizon": 1.0, "seed": 3}\n'
        with pytest.raises(ValueError):
            EventLog.from_jsonl(bad)
        # a JSON integer too large for a double, in any float field of the header
        good = json.loads(sample_events(CylinderParams(2.0, 1.0), 1.0, 3).to_jsonl().splitlines()[0])
        for key in ("N", "lambda", "delta", "horizon"):
            text = json.dumps({**good, key: 10**400})
            with pytest.raises(ValueError):
                EventLog.from_jsonl(text)
        with pytest.raises(ValueError):
            EventLog.from_jsonl("")


class TestRestrict:
    def test_own_width_is_identity(self):
        log = sample_events(CylinderParams(4.0, 1.0), 1.0, 10)
        assert restrict_log(log, log.params.half_period) == log

    def test_filter_oracle(self):
        log = sample_events(CylinderParams(4.0, 1.0), 2.0, 11)
        sub = restrict_log(log, 2 * math.pi)
        want = tuple(e for e in log.events if abs(e.x) <= 2 * math.pi)
        assert sub.events == want
        assert sub.params.radius_n == pytest.approx(2.0)
        assert sub.horizon_t == log.horizon_t and sub.seed == log.seed

    def test_narrow_width_keeps_only_central_events(self):
        # narrowest still-valid width: the retagged cylinder must support the
        # slit length, so "restrict to 0+" is realized as the filter limit
        log = sample_events(CylinderParams(4.0, 1.0), 1.0, 12)
        width = 0.3
        sub = restrict_log(log, width)
        assert sub.events == tuple(e for e in log.events if abs(e.x) <= width)
        assert len(sub) <= 1  # almost-empty window for this seed

    def test_too_wide_rejected(self):
        log = sample_events(CylinderParams(4.0, 1.0), 1.0, 13)
        with pytest.raises(ValueError):
            restrict_log(log, 5 * math.pi)

    @pytest.mark.parametrize("width", [0.0, -1.0])
    def test_empty_width_rejected(self, width):
        log = sample_events(CylinderParams(4.0, 1.0), 1.0, 13)
        with pytest.raises(ValueError, match="half_width must be positive"):
            restrict_log(log, width)


class TestCompose:
    """The composition primitive against inline scalar loops, compared with ==."""

    def test_compose_applies_first_abscissa_innermost(self):
        p = CylinderParams(2.0, 1.0)
        xs = [-1.2, 0.4, 2.8]
        z = 0.5 + 1.5j
        assert compose(cyl_slit, p, xs, z) == cyl_slit(
            p, xs[2], cyl_slit(p, xs[1], cyl_slit(p, xs[0], z))
        )
        assert compose(halfplane_slit, 1.0, xs, z) == halfplane_slit(
            1.0, xs[2], halfplane_slit(1.0, xs[1], halfplane_slit(1.0, xs[0], z))
        )
        assert compose(cyl_slit, p, [], 2) == 2 + 0j

    def test_orbit_lists_every_partial_composition(self):
        p = CylinderParams(3.0, 0.8)
        xs = [7.5, 1.0, -4.0, 0.25]
        z = -2 + 0.7j
        want = [z]
        for x in xs:
            want.append(cyl_slit(p, x, want[-1]))
        assert orbit(cyl_slit, p, xs, z) == want
        assert orbit(cyl_slit, p, [], z) == [z]

    def test_trajectory_equals_inline_loop(self):
        log = sample_events(CylinderParams(2.0, 1.0), 1.0, 31337)
        w, want = 1j, [(0.0, 1j)]
        for e in log.events:
            w = cyl_slit(log.params, e.x, w)
            want.append((e.time, w))
        assert backward_chl_trajectory(log, 1j) == want


class TestLockStep:
    """The lock-step engine of render and Monte Carlo against scalar cyl_slit composition."""

    @pytest.mark.parametrize("per_point", [False, True])
    def test_boundary_points_and_slit_bases(self, per_point):
        # a boundary probe 0.5 + 0j and six more boundary points; every 3rd map
        # is attached exactly over one of them, which goes to that slit's tip.
        # per_point: one abscissa per point, and +inf (no map) for about a third
        p = CylinderParams(4.0, 1.0)
        rng = np.random.default_rng(24)
        z = np.array([0.5, -2.0, 3.0, -4.5, 5.5, -9.7, 11.0, 1j, 0.3 + 1e-12j])
        steps = _LockStep(p, z)
        want, tips = z.tolist(), 0
        for k in range(60):
            x = rng.uniform(-p.half_period, p.half_period)
            real = [q.real for q in want if q.imag == 0.0]
            if k % 3 == 0 and real:
                x = real[k % len(real)]  # exactly on a boundary point's slit base
            xs = np.where(rng.uniform(size=z.size) < 0.3, np.inf, x) if per_point else np.full(z.size, x)
            steps.step(xs if per_point else x)
            tips += sum(a == q.real and q.imag == 0.0 for a, q in zip(xs.tolist(), want))
            want = [cyl_slit(p, a, q) if math.isfinite(a) else q for a, q in zip(xs.tolist(), want)]
            got = steps.points(z)
            assert all(cylinder_dist(p, a, b) <= 1e-11 for a, b in zip(got.tolist(), want)), k
        assert tips >= 3

    def test_points_outside_every_base_stay_real(self):
        # boundary points never inside a slit base move along the axis: Im S is
        # exactly 0.0 after every map, as for scalar cyl_slit
        p = CylinderParams(4.0, 1.0)
        base = 2.0 * p.radius_n * math.asin(p.delta)
        rng = np.random.default_rng(25)
        z = np.array([-9.0, -3.0, 2.0, 8.5]) + 0j
        steps = _LockStep(p, z)
        want, maps = z.tolist(), 0
        for _ in range(200):
            x = rng.uniform(-p.half_period, p.half_period)
            if min(abs(math.remainder(q.real - x, p.period)) for q in want) < 1.5 * base:
                continue
            steps.step(x)
            want = [cyl_slit(p, x, q) for q in want]
            got = steps.points()
            assert np.all(got.imag == 0.0) and all(q.imag == 0.0 for q in want)
            assert np.all(np.abs(got - np.array(want)) <= 1e-12 * p.period)
            maps += 1
        assert maps >= 30

    def test_points_keep_the_lift_across_the_seam(self):
        # a zeta point keeps no winding: points(near) takes it within pi N of
        # near, which follows the lifted orbit while each map moves it less than
        # pi N.  Slits just across the seam draw these points over it
        p = CylinderParams(2.0, 1.0)
        half = p.half_period
        z = np.array([half - 0.05 + 0.5j, half - 0.2 + 0.05j])
        rng = np.random.default_rng(26)
        steps = _LockStep(p, z)
        want, c = z.tolist(), z
        for _ in range(12):
            x = -half + rng.uniform(0.3, 1.0)
            steps.step(x)
            want = [cyl_slit(p, x, q) for q in want]
            c = steps.points(c)
            assert np.all(np.abs(c - np.array(want)) <= 1e-11)
        assert max(q.real for q in want) > half  # crossed the seam

    def test_reads_are_pure(self):
        # reading points(near) after every map, as the coupling does, and reading
        # once at the end, as the growth check does, give the same bits.  The batch
        # holds boundary points, interior points, points below 1e-9 N and above 30 N,
        # a second push, float maps and per-point maps with +inf (no map)
        p = CylinderParams(4.0, 1.0)
        n = p.radius_n
        z = np.array([0.5, -2.0, 3.0, 1j, 1.5 + 0.5j, 0.3 + 1e-12j, -1.0 + 1e-10j,
                      2.0 + 200j, -3.0 + 119.5j])
        more = np.array([0.25, 1.0 + 1e-11j, 1.0 + 50j, 2.0 + 130j])
        rng = np.random.default_rng(27)
        read, unread = _LockStep(p, z), _LockStep(p, z)
        near, heights = z, set()
        for k in range(40):
            if k == 20:
                for engine in (read, unread):
                    engine.push(more)
                near = np.concatenate([near, more])
            x = rng.uniform(-p.half_period, p.half_period)
            if k % 4 == 0 and (real := near.real[near.imag == 0.0]).size:
                x = real[k % real.size]  # exactly on a boundary point's slit base
            x = np.where(rng.uniform(size=read.size) < 0.3, np.inf, x) if k % 2 else x
            for engine in (read, unread):
                engine.step(x)
            near = read.points(near)
            heights |= set(np.digitize(near.imag, [0.0, 1e-9 * n, 30.0 * n], right=True).tolist())
        assert heights == {0, 1, 2, 3}  # boundary, below 1e-9 N, disk chart, above 30 N
        for c in (None, z[0], near):
            assert unread.points(c).tolist() == read.points(c).tolist()

    def test_unmapped_points_keep_their_bits(self):
        # a point that no map has moved is returned exactly as pushed
        p = CylinderParams(4.0, 1.0)
        z = np.array([1j, 0.5 + 0j, 2.0 + 200j, 0.25 + 1e-12j])
        steps = _LockStep(p, z)
        steps.step(np.array([np.inf, np.inf, np.inf, np.inf]))
        assert steps.points(z).tolist() == z.tolist()
        steps.step(np.array([0.3, np.inf, 0.3, np.inf]))
        got = steps.points(z)
        assert got[[1, 3]].tolist() == z[[1, 3]].tolist() and got[0] != z[0]

    def test_points_lifted_by_the_final_map_read_as_mapped(self):
        # boundary points inside the slit base of the last map leave the axis
        # onto the slit, as cylinder points: they read back as cyl_slit_many
        # returned them, with no round trip through disk coordinates
        p = CylinderParams(4.0, 1.0)
        base = 2.0 * p.radius_n * math.asin(p.delta)
        z = 0.7 + base * np.linspace(-0.95, 0.95, 21) + 0j
        steps = _LockStep(p, z)
        steps.step(0.7)
        want = cyl_slit_many(p, 0.7, z)
        assert np.all(want.imag >= 1e-9 * p.radius_n)  # every point is in the zeta band
        assert steps.points().tolist() == want.tolist()
        assert steps.points(z).tolist() == want.tolist()

    @pytest.mark.parametrize("per_point", [False, True])
    def test_first_map_of_a_band_point_is_the_disk_form(self, per_point):
        # a pushed point of height 1e-9 N <= Im z < 30 N enters disk coordinates
        # at its first map and moves by the disk form, bit for bit
        p = CylinderParams(4.0, 1.0)
        n = p.radius_n
        z = np.array([1j, -3.0 + 0.5j, 2.0 + 1e-8j, 5.0 + 100j])
        x = 1.3
        steps = _LockStep(p, z)
        steps.step(np.full(z.size, x) if per_point else x)
        zeta = _disk_slit_many(p, np.exp(z * (-1j / n)), np.exp(x * (1j / n)))
        assert steps.points().tolist() == _from_zeta(n, zeta).tolist()


def _disk_step(q, x, w):
    """The cylinder slit map over ``x`` in disk coordinates, as ``disk_conjugation`` takes it."""
    return _disk_slit_many(q, w, np.exp(1j * x / q.radius_n))


class TestOrbitMany:
    """orbit_many over +inf padded rows, with per-point parameters, against the scalar loop."""

    CONFIGS = [CylinderParams(1.5, 0.4), CylinderParams(4.0, 1.0), CylinderParams(9.0, 2.0)]
    # kernel: (slit, first of the rows' params, start from a cylinder point, back to one)
    KERNELS = {
        "cyl": (cyl_slit_many, lambda p: p, lambda p, z: z, lambda p, w: w),
        "disk": (_disk_step, lambda p: p, lambda p, z: np.exp(-1j * z / p.radius_n),
                 lambda p, w: 1j * p.radius_n * np.log(w)),
        "halfplane": (halfplane_slit_many, lambda p: 0.7, lambda p, z: z, lambda p, w: w),
    }

    def _case(self, seed, lengths):
        """Rows of these lengths, their params cycling through CONFIGS, start points, +inf padded."""
        rng = np.random.default_rng(seed)
        which = np.arange(len(lengths)) % len(self.CONFIGS)
        p = _PerPoint.stack(self.CONFIGS, which)
        rows = [rng.uniform(-h, h, size=m).tolist() for h, m in zip(p.half_period, lengths)]
        z = rng.uniform(-p.half_period, p.half_period) + 1j * rng.uniform(0.05, 3.0, len(lengths))
        xs = np.full((len(rows), max(lengths)), np.inf)
        for r, row in enumerate(rows):
            xs[r, :len(row)] = row
        return p, which, rows, xs, z

    @pytest.mark.parametrize("kernel", ["cyl", "disk"])
    def test_rows_match_compose(self, kernel):
        # the bound of test_lockstep_growth_matches_compose: 16 (maps + 1) eps max(N, |w|)
        slit, first, into, back = self.KERNELS[kernel]
        p, which, rows, xs, z = self._case(40, [0, 3, 7, 12, 1, 9, 5, 12, 2])
        *_, w = orbit_many(slit, first(p), xs, into(p, z))
        got = back(p, w)
        for r, row in enumerate(rows):
            q = self.CONFIGS[which[r]]
            want = orbit(cyl_slit, q, row, z[r])
            budget = 16.0 * (len(row) + 1) * sys.float_info.epsilon * max(q.radius_n, *map(abs, want))
            assert cylinder_dist(q, got[r], want[-1]) <= budget, r

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_rows_beside_masked_rows_keep_their_bits(self, kernel):
        # rows that are +inf in every column mask every column, so the others move
        # by pts[live] alone; composed alone, an all-finite column is one call on
        # the whole array.  The kernels map each point alike either way
        slit, first, into, _ = self.KERNELS[kernel]
        p, _, _, xs, z = self._case(41, [6, 3, 6, 4, 6, 0, 0])
        keep = slice(0, 5)
        assert np.isfinite(xs[keep, :3]).all() and not np.isfinite(xs[5:]).any()
        start = into(p, z)
        alone = [w.tobytes() for w in orbit_many(slit, _at(first(p), keep), xs[keep], start[keep])]
        beside = [w[keep].tobytes() for w in orbit_many(slit, first(p), xs, start)]
        assert alone == beside

    def test_callers_points_are_not_written(self):
        p, _, _, xs, z = self._case(42, [4, 1, 0, 4])
        start = z.copy()
        steps = list(orbit_many(cyl_slit_many, p, xs, start))
        assert start.tobytes() == z.tobytes() and all(w is not start for w in steps)

    def test_no_columns_yields_only_the_start(self):
        z = np.array([1j, 0.5 + 2j])
        steps = list(orbit_many(cyl_slit_many, CylinderParams(2.0, 1.0), np.empty((2, 0)), z))
        assert len(steps) == 1 and steps[0].tolist() == z.tolist()


class TestEvaluatorValidation:
    def test_window_rules(self):
        log = sample_events(CylinderParams(2.0, 1.0), 0.5, 3)
        for shl in (eval_forward_shl, eval_backward_shl):
            with pytest.raises(ValueError):
                shl(log, 1j, 0.5, 0.5)  # below slit length
            with pytest.raises(ValueError):
                shl(log, 1j, 0.5, math.nan)  # keeps no event: a frozen orbit
            shl(log, 1j, 0.5, log.params.half_period)

    def test_each_variant_matches_its_loop(self):
        log = sample_events(CylinderParams(2.0, 1.0), 0.5, 3)
        p, z, s = log.params, 0.4 + 0.9j, 0.5
        assert len(log) >= 2
        w = z
        for x in reversed(log.xs):  # earliest outermost
            w = cyl_slit(p, x, w)
        assert eval_forward_chl(log, z, s) == w
        w = z
        for x in log.xs:  # every event is inside the full-strip window
            w = halfplane_slit(p.lam, x, w)
        assert eval_backward_shl(log, z, s, p.half_period) == w
        bwd = eval_backward_chl(log, z, s)
        assert cylinder_dist(p, eval_disk_hl(log, z, s), bwd) <= 1e-12


class TestForwardChl:
    def test_empty_log_identity(self):
        log = make_log(CylinderParams(2.0, 1.0), [])
        assert eval_forward_chl(log, 2 + 3j, 5.0) == 2 + 3j

    def test_single_event_tip(self):
        p = CylinderParams(2.0, 1.0)
        log = make_log(p, [(1.0, 2.0)])
        assert eval_forward_chl(log, 2.0 + 0j, 1.0) == pytest.approx(2.0 + 1j)

    def test_two_event_composition_oracle(self):
        p = CylinderParams(2.0, 1.0)
        x1, x2 = -1.2, 2.8
        log = make_log(p, [(0.3, x1), (0.7, x2)])
        z = 0.5 + 1.5j
        want = cyl_slit(p, x1, cyl_slit(p, x2, z))  # earliest outermost
        assert eval_forward_chl(log, z, 1.0) == pytest.approx(want)

    def test_cadlag_at_event_times(self):
        p = CylinderParams(2.0, 1.0)
        log = make_log(p, [(0.5, 0.0)])
        z = 0.01 + 0.01j  # near the new slit, so the jump is visible
        at = eval_forward_chl(log, z, 0.5)
        just_after = eval_forward_chl(log, z, 0.5 + 1e-12)
        just_before = eval_forward_chl(log, z, 0.5 - 1e-12)
        assert at == just_after
        assert abs(at - just_before) > 0.1


class TestBackwardChl:
    def test_empty_log_identity(self):
        log = make_log(CylinderParams(2.0, 1.0), [])
        assert eval_backward_chl(log, 0.3 + 2j, 4.0) == 0.3 + 2j

    def test_single_event_matches_forward(self):
        p = CylinderParams(2.0, 1.0)
        log = make_log(p, [(0.4, 1.0)])
        z = 1 + 1j
        assert eval_forward_chl(log, z, 1.0) == eval_backward_chl(log, z, 1.0)

    def test_reverse_composition_oracle(self):
        p = CylinderParams(3.0, 0.8)
        rng = SplitMix64(21)
        pairs = sorted((rng.next_float(), p.half_period * (2 * rng.next_float() - 1)) for _ in range(7))
        log = make_log(p, pairs)
        z = -2 + 0.7j
        w = z
        for _, x in pairs:  # oldest first, newest ends up outermost
            w = cyl_slit(p, x, w)
        assert eval_backward_chl(log, z, 1.0) == pytest.approx(w)

    def test_trajectory_matches_pointwise_eval(self):
        p = CylinderParams(2.0, 1.0)
        log = sample_events(p, 1.0, 31337)
        traj = backward_chl_trajectory(log, 1j)
        assert len(traj) == len(log) + 1
        assert traj[0] == (0.0, 1j)
        for (t_k, w_k) in traj[1:]:
            assert eval_backward_chl(log, 1j, t_k) == pytest.approx(w_k)


class TestShl:
    def test_window_excludes_everything(self):
        p = CylinderParams(2.0, 1.0)
        log = make_log(p, [(0.2, 3.0), (0.5, -4.0)])
        assert eval_backward_shl(log, 1j, 1.0, 1.0) == 1j  # both events outside |x| <= 1

    def test_single_in_window_event(self):
        p = CylinderParams(2.0, 1.0)
        log = make_log(p, [(0.2, 1.5)])
        z = 0.3 + 0.4j
        assert eval_backward_shl(log, z, 1.0, 2.0) == halfplane_slit(1.0, 1.5, z)

    def test_window_beyond_domain_changes_nothing(self):
        p = CylinderParams(2.0, 1.0)
        log = sample_events(p, 0.7, 555)
        narrow = eval_backward_shl(log, 1 + 1j, 0.7, p.half_period)
        assert narrow == eval_backward_shl(log, 1 + 1j, 0.7, p.period)

    def test_forward_empty_identity(self):
        p = CylinderParams(2.0, 1.0)
        assert eval_forward_shl(make_log(p, []), 2 - 0.5j + 1j, 1.0, p.half_period) == 2 + 0.5j

    def test_forward_two_event_oracle(self):
        p = CylinderParams(2.0, 1.0)
        x1, x2 = 0.5, -1.0
        log = make_log(p, [(0.1, x1), (0.9, x2)])
        z = 1j
        want = halfplane_slit(1.0, x1, halfplane_slit(1.0, x2, z))
        assert eval_forward_shl(log, z, 1.0, p.half_period) == pytest.approx(want)


class TestDiskConjugation:
    def test_empty_and_single(self):
        p = CylinderParams(2.0, 1.0)
        empty = make_log(p, [])
        z = 0.4 + 1.1j
        assert cylinder_dist(p, eval_disk_hl(empty, z, 1.0), z) <= 1e-12
        one = make_log(p, [(0.3, 1.7)])
        assert cylinder_dist(p, eval_disk_hl(one, z, 1.0), cyl_slit(p, 1.7, z)) <= 1e-11

    def test_far_field_agreement(self):
        # exercises the tail expansions of both coordinate systems at heights
        # where neither the quadratic disk form nor the Cayley chain is usable
        p = CylinderParams(2.0, 1.0)
        log = make_log(p, [(0.2, 1.0), (0.5, -2.0), (0.8, 0.3)])
        for y in (70.0, 650.0):  # y/N = 35 and 325, beyond both switch points
            z = complex(0.5, y)
            b, d = eval_backward_chl(log, z, 1.0), eval_disk_hl(log, z, 1.0)
            assert cylinder_dist(p, b, d) <= 1e-9

    def test_equals_backward_chl_on_random_logs(self):
        # the module's strongest oracle: same composition, different coordinates
        rng = SplitMix64(22)
        for k in range(10):
            n = 2.0 + 6.0 * rng.next_float()
            p = CylinderParams(n, 0.4 + 1.2 * rng.next_float())
            log = sample_events(p, 50.0 / p.period, 9000 + k)
            for _ in range(20):
                z = complex(
                    0.6 * p.half_period * (2 * rng.next_float() - 1),
                    0.05 + 3.0 * rng.next_float(),
                )
                a = eval_backward_chl(log, z, log.horizon_t)
                c = eval_disk_hl(log, z, log.horizon_t)
                assert cylinder_dist(p, a, c) <= 1e-9


class TestDrift:
    def test_closed_form_n2(self):
        p = CylinderParams(2.0, 1.0)
        want = -8.0 * math.pi * math.log1p(-math.tanh(0.25) ** 2)
        got = drift(p, 1.0)
        assert got.real == 0.0
        assert got.imag == pytest.approx(want, rel=1e-14)

    def test_zero_time(self):
        assert drift(CylinderParams(2.0, 1.0), 0.0) == 0.0

    def test_large_n_limit(self):
        # -> i pi lam^2 t / 2
        got = drift(CylinderParams(1000.0, 1.0), 1.0)
        assert abs(got - 1j * math.pi / 2) <= 1e-5

    def test_negative_time_rejected(self):
        for t in (-1.0, math.nan, math.inf):  # nan and inf gave nanj and infj
            with pytest.raises(ValueError):
                drift(CylinderParams(2.0, 1.0), t)


class TestMartingaleInvariant:
    def test_zero_mean_within_four_sigma(self):
        # backward process at z minus z minus drift has zero mean exactly;
        # sample mean over 2000 seeded replicas must sit within 4 sigma / sqrt(R)
        p = CylinderParams(4.0, 1.0)
        z, t = 1j, 0.5
        values = []
        for r in range(2000):
            log = sample_events(p, t, mix_seed(2024, r))
            w = z
            for e in log.events:
                w = cyl_slit(p, e.x, w)
            values.append(w - z - drift(p, t))
        mean_re = statistics.fmean(v.real for v in values)
        mean_im = statistics.fmean(v.imag for v in values)
        lim_re = 4 * statistics.stdev([v.real for v in values]) / math.sqrt(len(values))
        lim_im = 4 * statistics.stdev([v.imag for v in values]) / math.sqrt(len(values))
        assert abs(mean_re) <= lim_re
        assert abs(mean_im) <= lim_im


class TestClusterMapGeometry:
    def test_images_stay_in_upper_half_plane_and_injective(self):
        p = CylinderParams(3.0, 1.0)
        log = sample_events(p, 1.0, 777)
        grid = [
            complex(-8 + 16 * i / 19, 0.05 + 3 * j / 9)
            for i in range(20)
            for j in range(10)
        ]
        images = [eval_backward_chl(log, z, 1.0) for z in grid]
        assert all(w.imag >= 0.0 for w in images)
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                if abs(grid[i] - grid[j]) > 1e-6:
                    assert abs(images[i] - images[j]) > 1e-8
