"""Tests for the verification layer: quadrature oracles, rate fits, MC checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chl.conformal import (
    CylinderParams,
    cyl_slit,
    cyl_slit_many,
    halfplane_slit,
    halfplane_slit_many,
)
from chl.process import (
    compose,
    drift,
    orbit,
    orbit_many,
    restrict_log,
    sample_events,
    sample_many,
)
from chl import verify
from chl.rng import SplitMix64, mix_seed
from chl.verify import (
    coupling_sup_distances,
    farfield_expansion_check,
    ks_two_sample,
    mc_growth_check,
    quad_mean_shift,
    quad_squared_deriv,
    quad_squared_shift,
    run_suite,
    shift_commutation_check,
    slit_convergence_rate,
)


_EPS = float(np.finfo(float).eps)


def _cap_panels(monkeypatch, max_panels):
    """Run every quadrature of ``verify`` with at most ``max_panels`` panels."""
    quadrature = verify.adaptive_quadrature

    def capped(f, a, b, **kwargs):
        return quadrature(f, a, b, **{**kwargs, "max_panels": max_panels})

    monkeypatch.setattr(verify, "adaptive_quadrature", capped)


class TestMeanShift:
    def test_matches_closed_form(self):
        p = CylinderParams(2.0, 1.0)
        want = drift(p, 1.0)
        assert want == pytest.approx(-8j * math.pi * math.log1p(-math.tanh(0.25) ** 2))
        res = quad_mean_shift(p, 1j)
        assert res.converged
        assert abs(res.value - want) / abs(want) <= 1e-8

    def test_z_independence(self):
        p = CylinderParams(2.0, 1.0)
        want = drift(p, 1.0)
        for z in (5 + 0.1j, -3 + 2j, 0.25 + 0j, 1e6j):
            res = quad_mean_shift(p, z)
            assert abs(res.value - want) / abs(want) <= 1e-8, f"z={z}"

    def test_vanishing_slit_vanishing_drift(self):
        res = quad_mean_shift(CylinderParams(1.0, 1e-4), 1j)
        assert abs(res.value) <= 1e-7

    def test_drift_cross_check(self):
        # the process-module drift at t=1 is the same constant the quadrature sees
        p = CylinderParams(2.0, 1.0)
        res = quad_mean_shift(p, 1j)
        assert abs(res.value - drift(p, 1.0)) <= 1e-8

    def test_unreachable_tolerance_reported(self, monkeypatch):
        _cap_panels(monkeypatch, 256)
        res = quad_mean_shift(CylinderParams(2.0, 1.0), 0.1 + 0j, tol=1e-30)
        assert not res.converged
        assert res.subdivisions == 256


class TestSquaredShift:
    def test_uniform_in_n_boundedness(self):
        vals = [
            quad_squared_shift(CylinderParams(n, 1.0), 0j).value.real
            for n in (2.0, 4.0, 8.0, 16.0, 32.0)
        ]
        assert all(v > 0 for v in vals)
        assert max(vals) / min(vals) <= 3.0

    def test_tail_inverse_xi_decay(self):
        p = CylinderParams(32.0, 1.0)
        tails = [
            quad_squared_shift(p, 0j, domain=(xi, p.half_period)).value.real
            for xi in (4.0, 8.0, 16.0)
        ]
        ratio = tails[1] / tails[2]
        assert 1.3 <= ratio <= 3.2
        slope = np.polyfit(np.log([4.0, 8.0, 16.0]), np.log(tails), 1)[0]
        assert -1.3 <= slope <= -0.7

    def test_small_slit_quadratic_smallness(self):
        res = quad_squared_shift(CylinderParams(1.0, 1e-4), 0j)
        assert res.value.real <= 1e-6

    def test_translation_invariance_on_boundary(self):
        # the full-period integral cannot depend on Re z; this once exposed a
        # slit-base corner kink hiding beside a seeded panel edge
        p = CylinderParams(4.0, 1.0)
        hp = p.half_period
        vals = [
            quad_squared_shift(p, complex(re, 0.0)).value.real
            for re in (0.0, 0.25, 3.0, -0.95 * hp, 0.6 * hp)
        ]
        assert max(vals) - min(vals) <= 1e-8

    def test_domain_validation(self):
        p = CylinderParams(2.0, 1.0)
        with pytest.raises(ValueError):
            quad_squared_shift(p, 0j, domain=(0.0, 10 * math.pi))


class TestSquaredDeriv:
    def test_uniform_in_n_boundedness(self):
        vals = [
            quad_squared_deriv(CylinderParams(n, 1.0), 1j).value.real
            for n in (4.0, 8.0, 16.0, 32.0)
        ]
        assert max(vals) / min(vals) <= 3.0

    def test_decay_with_height(self):
        p = CylinderParams(8.0, 1.0)
        low = quad_squared_deriv(p, 0.5j).value.real
        high = quad_squared_deriv(p, 10j).value.real
        assert high <= low

    def test_small_slit(self):
        assert quad_squared_deriv(CylinderParams(1.0, 1e-4), 1j).value.real <= 1e-6

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            quad_squared_deriv(CylinderParams(2.0, 1.0), 1.0 + 0j)


class TestSlitConvergenceRate:
    GRID = [10.0, 20.0, 40.0, 80.0, 160.0]

    def test_farfield_slope_is_minus_one(self):
        # drift-dominated regime: error ~ lam^2 / 4N
        fit = slit_convergence_rate(1.0, 1e6j, self.GRID)
        assert -1.4 <= fit.slope <= -0.6
        assert fit.r_squared >= 0.95
        assert fit.slope == pytest.approx(-1.0, abs=0.02)

    def test_fixed_z_decays_quadratically(self):
        # at moderate fixed z the odd tangent corrections cancel the 1/N term,
        # so the honest slope is -2 (faster than the C(z)/N upper bound)
        fit = slit_convergence_rate(1.0, 2 + 3j, self.GRID)
        assert fit.slope == pytest.approx(-2.0, abs=0.1)
        assert fit.r_squared >= 0.99
        for n, err in fit.grid:  # ...and the C/N bound itself holds
            assert err <= 1.0 / n

    def test_boundary_point(self):
        fit = slit_convergence_rate(1.0, 3.0 + 0j, self.GRID)
        assert fit.slope <= -0.6
        assert fit.r_squared >= 0.95

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            slit_convergence_rate(1.0, 1j, [10.0, 20.0, 40.0])
        with pytest.raises(ValueError):
            slit_convergence_rate(1.0, 1j, [10.0, 20.0, 40.0, 80.0])


class TestFarfieldExpansion:
    def test_residual_decay_slope(self):
        # full invariant range Im z in [5N, 20N]
        for n, bound in ((1.0, -1.8), (3.0, -0.6)):
            p = CylinderParams(n, 1.0)
            ys = [n * k for k in range(5, 21)]
            fit = farfield_expansion_check(p, ys)
            assert fit.slope <= bound, f"N={n}: slope {fit.slope}"
            kept = [e for s, e in fit.grid if s not in fit.excluded]
            assert all(b < a for a, b in zip(kept, kept[1:]))  # monotone decay

    def test_grid_validation(self):
        p = CylinderParams(2.0, 1.0)
        with pytest.raises(ValueError):
            farfield_expansion_check(p, [1.0, 2.0])  # starts below 3N
        with pytest.raises(ValueError):
            farfield_expansion_check(p, [10.0, 9.0])


class TestShiftCommutation:
    def test_random_configurations(self):
        rng = SplitMix64(923)
        for _ in range(20):
            p = CylinderParams(1.0 + 5 * rng.next_float(), 0.3 + rng.next_float())
            xs = [p.half_period * (2 * rng.next_float() - 1) for _ in range(3)]
            z_grid = [
                complex(p.half_period * (2 * rng.next_float() - 1), 0.2 + 2 * rng.next_float())
                for _ in range(20)
            ]
            assert shift_commutation_check(p, xs, 1.7, z_grid) <= 1e-9

    def test_full_period_shift(self):
        p = CylinderParams(2.0, 1.0)
        xs = [0.5, -1.0, 2.0]
        z_grid = [1j, 1 + 2j, -2 + 0.5j]
        assert shift_commutation_check(p, xs, p.period, z_grid) <= 1e-10

    def test_no_events(self):
        p = CylinderParams(2.0, 1.0)
        assert shift_commutation_check(p, [], 1.3, [1j, 2 + 2j]) == 0.0


class TestMcGrowth:
    def test_mean_matches_drift_within_ci(self):
        p = CylinderParams(16.0, 1.0)
        s = mc_growth_check(p, 1j, 1.0, replicas=500, seed=777)
        assert abs(s.mean - 1j - drift(p, 1.0)) <= s.ci99_halfwidth
        assert s.ci99_halfwidth == pytest.approx(
            2.576 * max(s.std_re, s.std_im) / math.sqrt(500)
        )

    def test_tiny_slit_offset(self):
        p = CylinderParams(4.0, 1e-3)
        s = mc_growth_check(p, 1j, 1.0, replicas=200, seed=778)
        assert abs(s.mean - 1j) <= 1e-5 + s.ci99_halfwidth

    def test_zero_horizon_mean_is_exactly_z(self):
        s = mc_growth_check(CylinderParams(4.0, 1.0), 1j, 0.0, replicas=200, seed=779)
        assert s.mean == 1j
        assert s.ci99_halfwidth == 0.0

    def test_large_n_limit_form(self):
        # at N = 64 the mean is also compared against the limiting growth
        # i pi lam^2 t / 2, with the finite-N drift gap as extra slack
        p = CylinderParams(64.0, 1.0)
        z, t = 1j, 1.0
        s = mc_growth_check(p, z, t, replicas=400, seed=20250)
        limit = 1j * math.pi / 2.0
        slack = abs(drift(p, t) - limit)
        assert abs(s.mean - z - limit) <= s.ci99_halfwidth + slack

    def test_replica_floor(self):
        with pytest.raises(ValueError):
            mc_growth_check(CylinderParams(2.0, 1.0), 1j, 1.0, replicas=10, seed=1)


class TestCoupling:
    def test_means_decrease_and_most_seeds_improve(self):
        n_list = [4.0, 8.0, 16.0]
        sups = coupling_sup_distances(1.0, 1j, 0.5, n_list, replicas=300, seed=515)
        means = sups.mean(axis=0)
        assert means[0] > means[1] > means[2]
        frac = float((sups[:, 1] < sups[:, 0]).mean())
        assert frac >= 0.6  # paired-seed comparison

    def test_tiny_horizon_near_zero(self):
        sups = coupling_sup_distances(1.0, 1j, 1e-6, [4.0, 8.0, 16.0], 200, 99)
        for summary in verify._summarize(sups):
            assert summary.mean.real <= 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            coupling_sup_distances(1.0, 1j, 0.5, [8.0, 4.0], 200, 1)
        with pytest.raises(ValueError):
            coupling_sup_distances(1.0, 1j, 0.5, [4.0, 8.0, 16.0], 200, 1, window=0.5)
        for replicas in (0, 1):  # no spread to report below two replicas
            with pytest.raises(ValueError):
                coupling_sup_distances(1.0, 1j, 0.5, [4.0, 8.0], replicas, 1)
        with pytest.raises(ValueError):  # a nan window keeps no event
            coupling_sup_distances(1.0, 1j, 0.5, [4.0, 8.0], 8, 1, window=math.nan)

    def test_window_knob(self):
        # a window at least pi*N_max changes nothing; a narrow window hurts
        n_list = [4.0, 8.0]
        base = coupling_sup_distances(1.0, 1j, 0.5, n_list, 200, 18)
        wide = coupling_sup_distances(1.0, 1j, 0.5, n_list, 200, 18, window=100.0)
        narrow = coupling_sup_distances(1.0, 1j, 0.5, n_list, 200, 18, window=2.0)
        assert np.array_equal(base, wide)
        assert narrow.mean(axis=0)[1] > base.mean(axis=0)[1]


class TestReplicaBlocks:
    """MC results do not depend on how the replicas are cut into blocks."""

    @pytest.mark.parametrize("replicas", [130, 257])
    def test_growth_independent_of_threads(self, replicas):
        # mc_growth_check keeps a threads keyword that has no effect
        p, z, t = CylinderParams(4.0, 1.0), 1j, 0.5
        one = mc_growth_check(p, z, t, replicas, 8, threads=1)
        assert one == mc_growth_check(p, z, t, replicas, 8, threads=2)
        assert one == verify._summarize(_lockstep_growth(p, t, z, 8, replicas))[0]

    def test_independent_of_block_size(self, monkeypatch):
        p, z, t = CylinderParams(4.0, 1.0), 1j, 0.5
        growth = mc_growth_check(p, z, t, 257, 8)
        coupling = coupling_sup_distances(1.0, 1j, 0.5, [2.0, 4.0], 257, 9, window=2.0)
        for block in (7, 128, 256, 512, 2000):
            monkeypatch.setattr(verify, "_BLOCK", block)
            assert mc_growth_check(p, z, t, 257, 8) == growth
            again = coupling_sup_distances(1.0, 1j, 0.5, [2.0, 4.0], 257, 9, window=2.0)
            assert (again == coupling).all()

    def test_results_flattened_in_seed_order(self):
        seeds = list(range(-1100, 0))  # three blocks, the last one short
        assert verify._run_replicas(_abs_block, seeds).tolist() == [abs(s) for s in seeds]


def _lockstep_growth(params, t, z, seed, replicas):
    """The replicas of ``mc_growth_check`` at z, advanced in lock-step in one array."""
    xs = sample_many(params, t, [mix_seed(seed, r) for r in range(replicas)])[2]
    *_, w = orbit_many(cyl_slit_many, params, xs, z)
    return w


def _lockstep_budget(maps: int, n: float, modulus: float) -> float:
    """Allowed |lock-step - scalar| after ``maps`` slit maps at radius ``n``.

    A batched kernel may round each map differently from the scalar one (numpy's
    ufuncs against ``cmath``), by the kernels' budget of order eps max(N, |w|),
    where |w| bounds the orbit's modulus; the differences add up along the orbit.
    """
    return 16.0 * (maps + 1) * _EPS * max(n, modulus)


class TestInlineCompositionOracles:
    """Checks built on the composition primitive against inline scalar loops, with ==."""

    def test_shift_commutation(self):
        p = CylinderParams(2.5, 0.9)
        xs, y = [0.5, -2.0, 3.1, 1.0], 1.7
        z_grid = [1j, 1 + 2j, -2 + 0.5j]
        worst = 0.0
        for z in z_grid:
            a = z - y
            for x in reversed(xs):
                a = cyl_slit(p, x, a)
            b = z
            for x in reversed(xs):
                b = cyl_slit(p, x + y, b)
            worst = max(worst, abs(a + y - b))
        assert shift_commutation_check(p, xs, y, z_grid) == worst

    def test_mc_growth_replicas(self):
        # t = 0.01 gives ragged tails: most of its replicas have no event at all
        p, z = CylinderParams(4.0, 1.0), 1j
        for t, replicas in ((0.5, 100), (0.01, 500)):
            got = _lockstep_growth(p, t, z, 5, replicas)
            counts = []
            for r in range(replicas):
                w, big = z, abs(z)
                events = sample_events(p, t, mix_seed(5, r)).events
                for e in events:
                    w = cyl_slit(p, e.x, w)
                    big = max(big, abs(w))
                counts.append(len(events))
                assert abs(got[r] - w) <= _lockstep_budget(len(events), p.radius_n, big), r
            empty = [g for g, n in zip(got.tolist(), counts) if n == 0]
            assert empty == [z] * len(empty)
            assert mc_growth_check(p, z, t, replicas, seed=5) == verify._summarize(got)[0]
        assert len(empty) > 250  # 399 of the 500

    @pytest.mark.parametrize("window", [None, 2.0])
    def test_coupling_sup_distances(self, window):
        n_list, lam, t, seed = [2.0, 4.0], 1.0, 0.5, 31
        for z in (1j, 0.5 + 0j):  # an interior and a boundary probe
            got = coupling_sup_distances(lam, z, t, n_list, 20, seed, window=window)
            for r in range(20):
                master = sample_events(CylinderParams(n_list[-1], lam), t, mix_seed(seed, r))
                for k, n in enumerate(n_list):
                    sub = restrict_log(master, math.pi * n)
                    w_eff = math.pi * n if window is None else min(window, math.pi * n)
                    a = b = z
                    sup, big, shl_maps = 0.0, abs(z), 0
                    for e in sub.events:
                        a = cyl_slit(sub.params, e.x, a)
                        if abs(e.x) <= w_eff:
                            b = halfplane_slit(lam, e.x, b)
                            shl_maps += 1
                        sup = max(sup, abs(a - b) ** 2)
                        big = max(big, abs(a), abs(b))
                    # |a - b| moves by at most the two orbits' budgets together
                    err = _lockstep_budget(len(sub), n, big) + _lockstep_budget(shl_maps, n, big)
                    assert abs(got[r, k] - sup) <= (2.0 * math.sqrt(sup) + err) * err, (z, r, n)


@st.composite
def _padded_logs(draw):
    """(N, lam, z, rows): ragged abscissa rows in [-pi N, pi N), empty rows included.

    Im z >= lam/10, and the maps never lower Im, so no point of an orbit comes
    within lam/10 of a slit-base corner, where the maps are square-root
    singular and input rounding alone exceeds any budget.
    """
    n = draw(st.floats(0.5, 64.0))
    lam = draw(st.floats(0.05, 3.0))
    half = math.pi * n
    z = complex(draw(st.floats(-half, half)), draw(st.floats(0.1 * lam, 10.0 * n)))
    rows = draw(st.lists(st.lists(st.floats(-half, half, exclude_max=True), max_size=25),
                         min_size=1, max_size=8))
    return n, lam, z, rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_padded_logs())
def test_lockstep_growth_matches_compose(case):
    # orbit_many over the +inf padded array, row by row against the scalar loop
    n, lam, z, rows = case
    p = CylinderParams(n, lam)
    xs = np.full((len(rows), max(map(len, rows))), np.inf)
    for r, row in enumerate(rows):
        xs[r, :len(row)] = row
    for slit, slit_many, first in ((cyl_slit, cyl_slit_many, p),
                                   (halfplane_slit, halfplane_slit_many, lam)):
        *_, got = orbit_many(slit_many, first, xs, z)
        for r, row in enumerate(rows):
            big = max(abs(w) for w in orbit(slit, first, row, z))
            want = compose(slit, first, row, z)
            assert abs(got[r] - want) <= _lockstep_budget(len(row), n, big), (slit, r)
            assert row or got[r] == z


def _abs_block(block):
    """A block worker for the replica runner: one result per seed of the block."""
    return [abs(seed) for seed in block]


def _second_deriv_fit(lam, z, n_list, tol=1e-8):
    """The check's S'' study at one height: quadratures, certification, rate fit."""
    values, _ = verify._certified(
        lambda n: verify._quad_second_deriv(CylinderParams(n, lam), z, tol), n_list)
    return verify._rate_fit(n_list, values, log_x=True)


class TestSecondDerivative:
    def test_fixed_z_bounded_not_decaying(self):
        # the integral converges (upward) to the half-plane limit
        # int_0^inf lam^4 / |(z-x)^2 - lam^2|^3 dx, so assert boundedness
        fit = _second_deriv_fit(1.0, 1j, [8.0, 16.0, 32.0])
        vals = [v for _, v in fit.grid]
        assert max(vals) / min(vals) <= 1.01
        limit = 0.1638  # numeric half-plane value, for scale
        assert vals[-1] == pytest.approx(limit, abs=2e-3)

    def test_small_slit(self):
        fit = _second_deriv_fit(1e-4, 1j, [1.0, 2.0, 4.0], tol=1e-14)
        assert all(v <= 1e-8 for _, v in fit.grid)

    def test_small_slit_scales_like_lambda_to_the_fourth(self):
        # S'' carries a factor delta^2 ~ (lam/2N)^2, so the integrals scale by 1e4
        big = _second_deriv_fit(1e-4, 1j, [1.0, 2.0, 4.0], tol=1e-14)
        small = _second_deriv_fit(1e-5, 1j, [1.0, 2.0, 4.0], tol=1e-14)
        for (_, b), (_, s) in zip(big.grid, small.grid):
            assert b / s == pytest.approx(1e4, rel=1e-6)

    def test_noise_floor_gives_degenerate_fit(self):
        # every value (about 5.9e-21) is below the residual floor: no line to fit
        fit = _second_deriv_fit(1e-5, 1j, [1.0, 2.0, 4.0], tol=1e-14)
        assert (fit.slope, fit.r_squared) == (0.0, 0.0)
        assert fit.excluded == (1.0, 2.0, 4.0)

    def test_interior_required(self):
        with pytest.raises(ValueError):
            _second_deriv_fit(1.0, 1.0 + 0j, [8.0, 16.0, 32.0])


class TestKsTwoSample:
    def test_same_distribution_large_p(self):
        rng = SplitMix64(5150)
        a = [rng.next_float() for _ in range(800)]
        b = [rng.next_float() for _ in range(800)]
        d, p = ks_two_sample(a, b)
        assert p > 0.01

    def test_shifted_distribution_small_p(self):
        rng = SplitMix64(5151)
        a = [rng.next_float() for _ in range(800)]
        b = [rng.next_float() + 0.2 for _ in range(800)]
        d, p = ks_two_sample(a, b)
        assert p < 1e-6
        assert d >= 0.15


class TestSuite:
    def test_default_suite_all_pass(self):
        results = run_suite()
        assert all(r.passed for r in results), [
            r.check for r in results if not r.passed
        ]

    def test_only_selection(self):
        results = run_suite(only=["quad_mean_shift"])
        assert len(results) == 1 and results[0].check == "quad_mean_shift"

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_suite(only=["nope"])

    def test_second_deriv_requires_converged_quadratures(self, monkeypatch):
        (result,) = run_suite(only=["second_deriv_decay"])
        assert result.passed and result.values["converged"] is True
        quadrature = verify.adaptive_quadrature

        def capped(f, a, b, **kwargs):
            return quadrature(f, a, b, **{**kwargs, "tol": 1e-30, "max_panels": 1})

        monkeypatch.setattr(verify, "adaptive_quadrature", capped)
        (result,) = run_suite(only=["second_deriv_decay"])
        assert not result.passed and result.values["converged"] is False

    def test_second_deriv_runs_at_suite_tol(self, monkeypatch):
        # with 16 panels every S'' integral converges at the default tol; at
        # tol=1e-30 none can, and the check must say so
        _cap_panels(monkeypatch, 16)
        (result,) = run_suite(only=["second_deriv_decay"])
        assert result.passed and result.values["converged"] is True
        (result,) = run_suite(only=["second_deriv_decay"], tol=1e-30)
        assert not result.passed and result.values["converged"] is False

    @pytest.mark.parametrize("check, computed, skipped", [
        ("quad_squared_shift", "full_domain_values", ["max_over_min", "tail_exponent"]),
        ("quad_squared_deriv", "full_domain_values", ["max_over_min"]),
        ("second_deriv_decay", "fixed_z_values", ["scaled_z_slope", "scaled_z_r_squared"]),
    ])
    def test_failed_quadrature_ends_its_check(self, monkeypatch, check, computed, skipped):
        calls = []
        quadrature = verify.adaptive_quadrature

        def counted(f, a, b, **kwargs):
            calls.append(kwargs["tol"])
            return quadrature(f, a, b, **kwargs)

        monkeypatch.setattr(verify, "adaptive_quadrature", counted)
        (result,) = run_suite(only=[check], tol=1e-30)
        assert not result.passed and result.values["converged"] is False
        assert calls == [1e-30]  # the first failure decides; no further quadrature runs
        values = result.values[computed]
        values = list(values.values()) if isinstance(values, dict) else values
        assert values[0] is not None and values[1:] == [None] * (len(values) - 1)
        assert all(result.values[key] is None for key in skipped)
        assert result.grid == ()

    def test_unreachable_tolerance_fails_suite(self):
        results = run_suite(only=["quad_mean_shift"], tol=1e-20)
        assert not results[0].passed
        # the small-lambda integral is skipped after the first failure: null, not a
        # value borrowed from another integral
        assert results[0].values["small_lambda_abs"] is None
