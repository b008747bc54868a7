"""Tests for the verification layer: quadrature oracles, rate fits, MC checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from chl.conformal import CylinderParams, cyl_slit, halfplane_slit
from chl.process import drift, restrict_log, sample_events
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

    def test_thread_pool_matches_sequential(self):
        seq = coupling_sup_distances(1.0, 1j, 0.4, [4.0, 8.0], 128, 77, threads=1)
        par = coupling_sup_distances(1.0, 1j, 0.4, [4.0, 8.0], 128, 77, threads=2)
        assert np.array_equal(seq, par)

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # a fork pool starts all of its workers at once; a fake pool records the size
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(verify, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
        jobs = list(range(64))
        assert verify._run_replicas(abs, jobs, threads=5000) == jobs
        assert sizes == [3]

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError):
            verify._run_replicas(abs, list(range(64)), threads)


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
        p, z, t = CylinderParams(4.0, 1.0), 1j, 0.5
        values = []
        for r in range(100):
            w = z
            for e in sample_events(p, t, mix_seed(5, r)).events:
                w = cyl_slit(p, e.x, w)
            values.append(w)
        arr = np.array(values)
        s = mc_growth_check(p, z, t, replicas=100, seed=5)
        assert s.mean == complex(np.mean(arr))
        assert (s.std_re, s.std_im) == (np.std(arr.real, ddof=1), np.std(arr.imag, ddof=1))

    @pytest.mark.parametrize("window", [None, 2.0])
    def test_coupling_sup_distances(self, window):
        n_list, lam, z, t, seed = [2.0, 4.0], 1.0, 1j, 0.5, 31
        want = []
        for r in range(20):
            master = sample_events(CylinderParams(n_list[-1], lam), t, mix_seed(seed, r))
            row = []
            for n in n_list:
                sub = restrict_log(master, math.pi * n)
                w_eff = math.pi * n if window is None else min(window, math.pi * n)
                a = b = z
                sup = 0.0
                for e in sub.events:
                    a = cyl_slit(sub.params, e.x, a)
                    if abs(e.x) <= w_eff:
                        b = halfplane_slit(lam, e.x, b)
                    sup = max(sup, abs(a - b) ** 2)
                row.append(sup)
            want.append(row)
        got = coupling_sup_distances(lam, z, t, n_list, 20, seed, window=window)
        assert np.array_equal(got, np.array(want))


def _second_deriv_fit(lam, z, n_list, tol=1e-8):
    """The check's S'' study at one height: quadratures, certification, rate fit."""
    values, _ = verify._certified(verify._quad_second_deriv(CylinderParams(n, lam), z, tol)
                                  for n in n_list)
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

    def test_unreachable_tolerance_fails_suite(self):
        results = run_suite(only=["quad_mean_shift"], tol=1e-20)
        assert not results[0].passed
        # the small-lambda integral is skipped after the first failure: null, not a
        # value borrowed from another integral
        assert results[0].values["small_lambda_abs"] is None
