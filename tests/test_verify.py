"""Tests for the verification layer: quadrature oracles, rate fits, MC checks."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chl.conformal import (
    CylinderParams,
    cyl_slit,
    cylinder_dist,
    halfplane_slit,
    halfplane_slit_many,
)
from chl.process import (
    _LockStep,
    _restrict_many,
    _restricted_params,
    compose,
    drift,
    eval_backward_chl,
    eval_disk_hl,
    orbit,
    orbit_many,
    restrict_log,
    sample_events,
    sample_many,
)
from chl import verify
from chl.rng import SplitMix64, mix_seed, poisson_many
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


def _boundary_grid():
    """(N, z) at the base, on a slit-base corner, on both seams and just above the axis."""
    for n in (2.0, 8.0, 32.0):
        p = CylinderParams(n, 1.0)
        corner = 2.0 * n * math.asin(p.delta)
        for z in (0j, complex(corner, 0.0), complex(p.half_period, 0.0),
                  complex(-p.half_period, 0.0), 0.3 + 1e-5j, 0.3 + 1e-9j):
            yield n, z


def _mp_squared_shift(p, z, a, b):
    """tanh-sinh over the corner-split pieces of [a, b], with the float integrand.

    The cuts are written out here, apart from the mesh under test: Re z, the
    slit-base corners Re z +- 2N asin(delta), and the same points at the images
    +-2 pi N, inside [a, b].  Above the axis a corner is a smoothed kink of width
    about Im z rather than an endpoint singularity, so each piece is also cut at
    1e-2 .. 1e-8 of its length from both ends, where tanh-sinh would otherwise
    misjudge it.
    """
    corner = 2.0 * p.radius_n * math.asin(p.delta)
    features = {z.real + image + side for image in (-p.period, 0.0, p.period)
                for side in (-corner, 0.0, corner)}
    edges = [a, *sorted(x for x in features if a < x < b), b]
    cuts = set(edges)
    for lo, hi in zip(edges, edges[1:]) if z.imag else ():
        for k in (2, 4, 6, 8):
            cuts |= {lo + (hi - lo) * 10.0**-k, hi - (hi - lo) * 10.0**-k}
    return complex(mpmath.quad(lambda x: abs(cyl_slit(p, float(x), z) - z) ** 2, sorted(cuts)))


class TestGradedBoundary:
    """Boundary z integrate in the graded variable that flattens the corner kinks."""

    @pytest.mark.parametrize("n,z", list(_boundary_grid()))
    def test_mean_shift_is_drift(self, n, z):
        p = CylinderParams(n, 1.0)
        want = drift(p, 1.0)
        res = quad_mean_shift(p, z, tol=1e-12)
        assert res.converged
        assert abs(res.value - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("z", [0.3 + 1e-5j, 0.3 + 1e-9j])
    def test_mean_shift_within_tol_just_above_axis(self, z):
        # at N = 32 the integrand's rounding summed over the 2 pi N period once
        # exceeded tol by itself, so this asks for the tol, not a relative bound
        p = CylinderParams(32.0, 1.0)
        res = quad_mean_shift(p, z, tol=1e-12)
        assert res.converged
        assert abs(res.value - drift(p, 1.0)) <= 1e-12

    @pytest.mark.parametrize("n,z", list(_boundary_grid()))
    def test_squared_shift_matches_tanh_sinh(self, n, z):
        p = CylinderParams(n, 1.0)
        hp = p.half_period
        domains = [(-hp, hp)] + [(xi, hp) for xi in (4.0, 8.0, 16.0) if xi < hp]
        for a, b in domains:  # on a tail domain a corner may fall outside it
            res = quad_squared_shift(p, z, domain=(a, b), tol=1e-12)
            gap = abs(res.value - _mp_squared_shift(p, z, a, b))
            assert res.converged
            assert gap <= 1e-11, f"[{a}, {b}]"
            assert res.abs_error_estimate >= gap - 1e-13, f"[{a}, {b}]"

    def test_panel_budget(self):
        # square-root kinks graded to linear: a few panels per piece, where
        # bisection in x needed about a hundred
        rng = random.Random("graded-boundary")
        for n in (2.0, 4.0, 8.0, 16.0, 32.0):
            p = CylinderParams(n, 1.0)
            for _ in range(18):
                z = complex(p.half_period * (2.0 * rng.random() - 1.0), 0.0)
                for quad in (quad_mean_shift, quad_squared_shift):
                    res = quad(p, z, tol=1e-12)
                    assert res.converged and res.subdivisions <= 20, (n, z, quad.__name__)

    def test_interior_path_ungraded(self, monkeypatch):
        # above the boundary band the integrand goes to the quadrature in x itself
        seen = []
        quadrature = verify.adaptive_quadrature

        def spy(f, a, b, **kwargs):
            seen.append((a, b))
            return quadrature(f, a, b, **kwargs)

        monkeypatch.setattr(verify, "adaptive_quadrature", spy)
        p = CylinderParams(4.0, 1.0)
        quad_mean_shift(p, 0.3 + 1e-3j)
        quad_mean_shift(p, 0.3 + 0j)
        assert seen == [(-p.half_period, p.half_period),
                        (0.0, 4.0)]  # four pieces, cut at the base and its two corners


def _graded_mesh(p, z, a, b, centres):
    """Im z * 2^k (k = 0, 1, ... while below b - a) to each side of every centre, and each
    image of Re z, strictly inside (a, b), sorted."""
    steps = [z.imag * 2.0**k for k in range(64) if z.imag * 2.0**k < b - a]
    bases = (z.real, z.real - p.period, z.real + p.period)
    points = [*bases, *(c + sign * h for c in centres for h in steps for sign in (-1, 1))]
    return sorted(x for x in points if a < x < b)


class TestGradedMesh:
    """Above the boundary band the first mesh is graded by powers of 2 toward the singularities
    at Re z +- 2N asin(delta) + i Im z (and at their periodic images)."""

    @pytest.mark.parametrize("n,y", [(2.0, 1e-3), (8.0, 0.01), (32.0, 0.5)])
    def test_around_the_corners_below_their_half_width(self, n, y):
        p = CylinderParams(n, 1.0)
        corner, hp = 2.0 * n * math.asin(p.delta), p.half_period
        assert y < corner
        z = complex(0.3, y)
        centres = [b + s * corner for b in (0.3, 0.3 - p.period, 0.3 + p.period) for s in (-1, 1)]
        for a, b in ((-hp, hp), (0.0, hp)):
            got = sorted(verify._feature_splits(p, z, a, b))
            np.testing.assert_allclose(got, _graded_mesh(p, z, a, b, centres), rtol=0, atol=1e-12)
            assert a < got[0] and got[-1] < b
        # the pieces next to a corner are Im z long
        assert 0.3 + corner - y in got and 0.3 + corner + y in got

    @pytest.mark.parametrize("n,y", [(2.0, 1.5), (8.0, 4.0), (32.0, 100.0)])
    def test_around_re_z_above_their_half_width(self, n, y):
        p = CylinderParams(n, 1.0)
        assert y >= 2.0 * n * math.asin(p.delta)
        z, hp = complex(-0.7, y), p.half_period
        centres = [-0.7, -0.7 - p.period, -0.7 + p.period]
        got = sorted(verify._feature_splits(p, z, -hp, hp))
        np.testing.assert_allclose(got, _graded_mesh(p, z, -hp, hp, centres), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("y", [0.01, 2.0])
    def test_periodic_images(self, y):
        # Re z near the seam: the image beyond it grades the other end of the period
        p = CylinderParams(4.0, 1.0)
        corner, hp = 2.0 * 4.0 * math.asin(p.delta), p.half_period
        re = 0.9 * hp
        z, image = complex(re, y), re - p.period
        got = verify._feature_splits(p, z, -hp, hp)
        centre = image + corner if y < corner else image
        near = [centre + y * 2.0**k for k in range(12) if -hp < centre + y * 2.0**k < hp]
        assert near and all(any(abs(g - x) <= 1e-12 for g in got) for x in near)

    @pytest.mark.parametrize("y", [0.0, 1e-9, 9.9e-4])
    def test_boundary_band_unchanged(self, y):
        p = CylinderParams(8.0, 1.0)
        corner, hp = 2.0 * 8.0 * math.asin(p.delta), p.half_period
        z = complex(0.3, y)
        want = [x for base in (0.3, 0.3 - p.period, 0.3 + p.period)
                for x in (base, base - corner, base + corner) if -hp < x < hp]
        assert verify._feature_splits(p, z, -hp, hp) == want

    @pytest.mark.parametrize("band, quads, bound", [
        ("interior-high", (quad_mean_shift, quad_squared_shift, quad_squared_deriv), 1.5),
        ("boundary", (quad_mean_shift, quad_squared_shift), 3.0),
    ], ids=["interior-high", "boundary"])
    def test_one_call_per_integral(self, monkeypatch, band, quads, bound):
        # quad-sweep's bands.  Interior and high: from cuts at Re z alone, worst-first
        # bisection walked down to the peaks a level at a time, 3.3 calls per integral.
        # Boundary: graded pieces of one panel each took 7.6 calls, of four panels 2.4
        calls, results = [], []
        quadrature = verify.adaptive_quadrature

        def counted(f, a, b, **kwargs):
            def g(x):
                calls.append(x.size)
                return f(x)

            results.append(quadrature(g, a, b, **kwargs))
            return results[-1]

        monkeypatch.setattr(verify, "adaptive_quadrature", counted)
        rng = random.Random("graded-mesh")
        for n in (2.0, 4.0, 8.0, 16.0, 32.0):
            p = CylinderParams(n, 1.0)
            for _ in range(6):
                x = p.half_period * (2.0 * rng.random() - 1.0)
                ys = (0.0,) if band == "boundary" else (
                    0.05 + (n - 0.05) * rng.random(), n * (1.0 + 3.0 * rng.random()))
                for y in ys:
                    for quad in quads:
                        quad(p, complex(x, y), tol=1e-12)
        assert len(results) == 30 * len(ys) * len(quads) and all(r.converged for r in results)
        assert len(calls) <= bound * len(results)

    def test_mean_shift_is_drift_at_every_height(self):
        # Im z log-uniform from the band's edge to 4N, where the corner points serve below
        # about 1 and the points around Re z above it, and Im z = 0 in the graded variable
        rng = random.Random("graded-mesh-drift")
        for n in (2.0, 4.0, 8.0, 16.0, 32.0):
            p = CylinderParams(n, 1.0)
            want = drift(p, 1.0)
            for k in range(80):
                y = 1e-3 * (4000.0 * n) ** rng.random() if k < 64 else 0.0
                z = complex(p.half_period * (2.0 * rng.random() - 1.0), y)
                res = quad_mean_shift(p, z, tol=1e-12)
                assert res.converged and abs(res.value - want) <= 2e-12, (n, z)

    @pytest.mark.parametrize("n", [2.0, 32.0])
    @pytest.mark.parametrize("y", [1e-3, 1e-2, 0.3])
    def test_squared_shift_matches_tanh_sinh(self, n, y):
        # the oracle cuts at Re z and the corners: with cuts at Re z alone, tanh-sinh
        # itself misjudges N = 2, Im z = 1e-3 by 2.6e-4
        p = CylinderParams(n, 1.0)
        hp = p.half_period
        z = complex(0.3, y)
        res = quad_squared_shift(p, z, tol=1e-12)
        gap = abs(res.value - _mp_squared_shift(p, z, -hp, hp))
        assert res.converged and gap <= 1e-12
        assert res.abs_error_estimate >= gap - 1e-13


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
        for n_list in ([4.0, 4.0], [4.0, 8.0, 8.0]):  # a radius compared with itself
            with pytest.raises(ValueError, match="strictly ascending"):
                coupling_sup_distances(1.0, 1j, 0.5, n_list, 200, 1)
        with pytest.raises(ValueError):
            coupling_sup_distances(1.0, 1j, 0.5, [4.0, 8.0, 16.0], 200, 1, window=0.5)
        for replicas in (0, 1):  # no spread to report below two replicas
            with pytest.raises(ValueError):
                coupling_sup_distances(1.0, 1j, 0.5, [4.0, 8.0], replicas, 1)
        with pytest.raises(ValueError):  # a nan window keeps no event
            coupling_sup_distances(1.0, 1j, 0.5, [4.0, 8.0], 8, 1, window=math.nan)

    def test_unresolved_radius_rejected_before_sampling(self, monkeypatch):
        # eps pi N above 1e-10 at the largest radius: about N = 1.43e5 and up
        monkeypatch.setattr(verify, "mix_seed", _no_seed)
        for n_max in (1.5e5, 1e17, 1e300):
            with pytest.raises(ValueError, match="cannot resolve abscissae"):
                coupling_sup_distances(1.0, 1j, 1e-6, [4.0, n_max], 2, 1)
        monkeypatch.undo()
        sups = coupling_sup_distances(1.0, 1j, 1e-6, [4.0, 1.4e5], 2, 1)
        assert np.isfinite(sups).all()

    def test_unresolved_probe_rejected_before_sampling(self, monkeypatch):
        # eps |z| above 1e-10: |z| from about 4.5e5 up, where a slit map moves z
        # by less than z resolves; 0+1e15i read means of exactly 0.0
        monkeypatch.setattr(verify, "mix_seed", _no_seed)
        for z in (1e15j, 4.6e5j, -3e5 + 4e5j, 1e200 + 1e200j):
            with pytest.raises(ValueError, match="cannot resolve"):
                coupling_sup_distances(1.0, z, 0.5, [4.0, 8.0], 2, 1)
        monkeypatch.undo()
        assert np.isfinite(coupling_sup_distances(1.0, 4.5e5j, 0.5, [4.0, 8.0], 2, 1)).all()

    def test_window_knob(self):
        # a window at least pi*N_max changes nothing; a narrow window hurts
        n_list = [4.0, 8.0]
        base = coupling_sup_distances(1.0, 1j, 0.5, n_list, 200, 18)
        wide = coupling_sup_distances(1.0, 1j, 0.5, n_list, 200, 18, window=100.0)
        narrow = coupling_sup_distances(1.0, 1j, 0.5, n_list, 200, 18, window=2.0)
        assert np.array_equal(base, wide)
        assert narrow.mean(axis=0)[1] > base.mean(axis=0)[1]


class TestRestrictMany:
    """The compacted rows are restrict_log's abscissae, row by row, +inf padded."""

    @staticmethod
    def _check(master, t, seeds, half_width):
        xs = sample_many(master, t, seeds)[2]
        got = _restrict_many(xs, np.abs(xs) <= half_width)
        rows = [sample_events(master, t, s) for s in seeds]
        if half_width <= master.half_period:
            rows = [restrict_log(log, half_width) for log in rows]
        assert got.shape == (len(seeds), max(len(log) for log in rows))
        for row, log in zip(got, rows):
            assert row[: len(log)].tolist() == list(log.xs)
            assert np.isposinf(row[len(log):]).all()
        return got, rows

    def test_rows_with_and_without_events(self):
        master, seeds = CylinderParams(8.0, 1.0), [mix_seed(3, r) for r in range(200)]
        got, rows = self._check(master, 0.5, seeds, math.pi / 2)
        assert 0 < 4 * got.shape[1] < sample_many(master, 0.5, seeds)[2].shape[1]
        assert sum(len(log) == 0 for log in rows) > 20  # rows that keep no event

    def test_no_row_keeps_an_event(self):
        master = CylinderParams(8.0, 1e-3)
        got, _ = self._check(master, 0.05, [mix_seed(4, r) for r in range(20)], 1e-3)
        assert got.shape == (20, 0)

    @pytest.mark.parametrize("scale", [1.0, 1.5])
    def test_full_strip_keeps_every_event(self, scale):
        master = CylinderParams(4.0, 1.0)
        seeds = [mix_seed(5, r) for r in range(50)]
        got, _ = self._check(master, 0.5, seeds, scale * master.half_period)
        assert np.array_equal(got, sample_many(master, 0.5, seeds)[2])


def _full_width_coupling(lam, z, t, n_list, replicas, seed, window=None):
    """coupling_sup_distances without compaction: each radius over all master columns.

    The events that a radius or the window leaves out are masked with +inf in place.
    """
    master = CylinderParams(n_list[-1], lam)
    xs = sample_many(master, t, [mix_seed(seed, r) for r in range(replicas)])[2]
    out = np.zeros((replicas, len(n_list)))
    for k, n in enumerate(n_list):
        params = _restricted_params(master, math.pi * n)
        w_eff = math.pi * n if window is None else min(window, math.pi * n)
        chl = _LockStep(params, np.full(replicas, complex(z)))
        c = chl.points()
        shl = orbit_many(halfplane_slit_many, lam, np.where(abs(xs) <= w_eff, xs, np.inf),
                         np.full(replicas, complex(z)))
        next(shl)
        for col, h in zip(np.transpose(np.where(abs(xs) <= math.pi * n, xs, np.inf)), shl):
            chl.step(col)
            c = chl.points(c)
            np.maximum(out[:, k], abs(c - h) ** 2, out=out[:, k])
    return out


@pytest.mark.parametrize("n_list", [[4.0, 8.0, 16.0, 32.0], [1.0, 2.0], [0.5, 64.0]])
@pytest.mark.parametrize("window", [None, 2.0, 2.0 * math.pi])
def test_compacted_coupling_is_full_width_pass(n_list, window):
    # compaction drops only entries that apply no map, so the bits stay
    lam, t, seed, replicas = 1.0, 0.5, 7, 100
    for z in (1j, 0.5 + 0j, 3 + 0.2j):  # interior, boundary and low probes
        want = _full_width_coupling(lam, z, t, n_list, replicas, seed, window)
        got = coupling_sup_distances(lam, z, t, n_list, replicas, seed, window=window)
        assert np.array_equal(got, want), z
    if n_list[0] == 0.5:  # N = 0.5 keeps no event of a fifth of the rows
        assert (want[:, 0] == 0.0).sum() > 10


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
        # the lock-step width and the sampling chunk cut the same rows differently;
        # the references run all rows in one pass from one sample_many call
        growth = verify._summarize(_lockstep_growth(CylinderParams(4.0, 1.0), 0.5, 1j, 8, 257))[0]
        coupling = _full_width_coupling(1.0, 1j, 0.5, [2.0, 4.0, 8.0], 257, 9, window=2.0)
        for block, rows in itertools.product([7, 512, 2048], [7, 256, 2000]):
            monkeypatch.setattr(verify, "_BLOCK", block)
            monkeypatch.setattr(verify, "_SAMPLE_ROWS", rows)
            assert mc_growth_check(CylinderParams(4.0, 1.0), 1j, 0.5, 257, 8) == growth
            again = coupling_sup_distances(1.0, 1j, 0.5, [2.0, 4.0, 8.0], 257, 9, window=2.0)
            assert (again == coupling).all(), (block, rows)

    def test_results_flattened_in_seed_order(self, monkeypatch):
        monkeypatch.setattr(verify, "_BLOCK", 500)
        seeds = list(range(-1100, 0))  # three blocks, the last one short
        assert verify._run_replicas(_abs_block, seeds).tolist() == [abs(s) for s in seeds]

    def test_rows_sampled_in_chunks(self, monkeypatch):
        # rows filled a chunk at a time, longest first, padded to the block's longest log
        monkeypatch.setattr(verify, "_SAMPLE_ROWS", 5)
        p, seeds = CylinderParams(8.0, 1.0), [mix_seed(6, r) for r in range(23)]
        for t in (0.5, 1e-3):  # at 1e-3 most rows and some chunks have no event
            order, got = verify._by_count(p, t, seeds)
            counts, _, xs = sample_many(p, t, seeds)
            assert np.array_equal(order, np.argsort(-counts, kind="stable"))
            assert np.array_equal(got, xs[order])

    def test_memory_bounded(self):
        # the lock-step state of a block is small; the sampler's and the restriction's
        # temporaries are bounded by the chunk (one 2000-row sample_many call at N = 32,
        # t = 0.5 alone peaks at 10.7 MiB)
        cases = [lambda: coupling_sup_distances(1.0, 1j, 0.5, [4, 8, 16, 32], 2000, 1),
                 lambda: mc_growth_check(CylinderParams(16, 1), 1j, 1.0, 2000, 90210)]
        for run in cases:
            run()  # caches and first calls outside the measurement
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * 2**20

    def test_replica_cap(self, monkeypatch):
        # rejected before the seed list or any result row is built; should the cap
        # fail, building either raises here at once instead of exhausting memory
        p, huge = CylinderParams(4.0, 1.0), 10**30
        with monkeypatch.context() as m:
            m.setattr(verify, "mix_seed", _no_seed)
            for t in (0.5, 0.0):  # t = 0 would return a full array of z at once
                with pytest.raises(ValueError, match=rf"100 to 1e\+07 replicas, got {huge}"):
                    mc_growth_check(p, 1j, t, huge, 1)
            with pytest.raises(ValueError, match=rf"2 to 1e\+07 replicas, got {huge}"):
                coupling_sup_distances(1.0, 1j, 0.5, [2.0, 4.0], huge, 1)
        monkeypatch.setattr(verify, "_MAX_REPLICAS", 130)
        assert mc_growth_check(p, 1j, 0.5, 130, 1).replicas == 130
        assert coupling_sup_distances(1.0, 1j, 0.5, [2.0, 4.0], 130, 1).shape == (130, 2)
        with pytest.raises(ValueError, match="to 130 replicas, got 131"):
            mc_growth_check(p, 1j, 0.5, 131, 1)
        with pytest.raises(ValueError, match="to 130 replicas, got 131"):
            coupling_sup_distances(1.0, 1j, 0.5, [2.0, 4.0], 131, 1)


class TestEventCountOrder:
    """A block runs its rows longest first, and each radius its restricted rows; no
    replica's result depends on that order or on where its seed sits in the block."""

    @staticmethod
    def _rows(monkeypatch, run, perm):
        """``run()``'s replica rows with each block's seeds permuted by ``perm``."""
        real, rows = verify._run_replicas, []

        def permuted(worker, seeds):
            got = np.asarray(real(worker, [seeds[i] for i in perm]))
            rows.append(np.empty_like(got))
            rows[-1][perm] = got
            return rows[-1]

        with monkeypatch.context() as m:
            m.setattr(verify, "_run_replicas", permuted)
            run()
        return rows[0].tobytes()

    @pytest.mark.parametrize("z, window", [(1j, None), (0.5 + 0j, None), (1j, 2.0)])
    def test_rows_independent_of_seed_order(self, monkeypatch, z, window):
        # ties in event count, in the block and in every restricted radius, are many
        # here; a boundary probe and the window also take the masked column step
        p, replicas = CylinderParams(4.0, 1.0), 300
        counts, _ = poisson_many(np.array([mix_seed(8, r) for r in range(replicas)],
                                          dtype=np.uint64), p.period * 0.5)
        assert len(set(counts.tolist())) < replicas // 10
        runs = [lambda: mc_growth_check(p, z, 0.5, replicas, 8),
                lambda: coupling_sup_distances(1.0, z, 0.5, [1.0, 2.0, 4.0], replicas, 8,
                                               window=window)]
        rng = np.random.default_rng(3)
        for run in runs:
            rows = {self._rows(monkeypatch, run, perm) for perm in (
                np.arange(replicas), np.arange(replicas)[::-1], rng.permutation(replicas))}
            assert len(rows) == 1

    def test_restriction_across_chunk_boundaries(self, monkeypatch):
        # each radius compacts its rows a chunk at a time, by one scatter per chunk;
        # 23 rows in chunks of 5 give the bits of one restriction of all rows
        monkeypatch.setattr(verify, "_SAMPLE_ROWS", 5)
        master, seeds = CylinderParams(8.0, 1.0), [mix_seed(13, r) for r in range(23)]
        xs = sample_many(master, 0.5, seeds)[2]
        for half_width in (math.pi, 2.0, 0.1):
            keep = np.abs(xs) <= half_width
            order, chunked = verify._longest_first(
                lambda rows: _restrict_many(xs[rows], keep[rows]), keep.sum(axis=1))
            assert chunked.tobytes() == _restrict_many(xs, keep)[order].tobytes()
        got = coupling_sup_distances(1.0, 1j, 0.5, [1.0, 2.0, 8.0], 23, 13)
        assert np.array_equal(got, _full_width_coupling(1.0, 1j, 0.5, [1.0, 2.0, 8.0], 23, 13))


def _no_seed(seed, replica):
    """A stand-in for ``mix_seed`` where no replica seed may be drawn."""
    raise AssertionError(f"replica seed {replica} drawn")


def _lockstep_growth(params, t, z, seed, replicas):
    """The replicas of ``mc_growth_check`` at z, advanced in lock-step by one ``_LockStep``."""
    xs = sample_many(params, t, [mix_seed(seed, r) for r in range(replicas)])[2]
    steps = _LockStep(params, np.full(replicas, complex(z)))
    for col in np.transpose(xs):
        steps.step(col)
    return steps.points(z)


def _lockstep_budget(maps: int, n: float, modulus: float) -> float:
    """Allowed |lock-step - scalar| after ``maps`` slit maps at radius ``n``.

    A batched kernel may round each map differently from the scalar one (numpy's
    ufuncs against ``cmath``), by the kernels' budget of order eps max(N, |w|),
    where |w| bounds the orbit's modulus; the differences add up along the orbit.
    """
    return 16.0 * (maps + 1) * _EPS * max(n, modulus)


class TestInlineCompositionOracles:
    """Checks built on the batched kernels against inline scalar loops."""

    def test_shift_commutation(self):
        p = CylinderParams(2.5, 0.9)
        xs, y = [0.5, -2.0, 3.1, 1.0], 1.7
        z_grid = [1j, 1 + 2j, -2 + 0.5j]
        worst, big = 0.0, 0.0
        for z in z_grid:
            a = z - y
            for x in reversed(xs):
                a = cyl_slit(p, x, a)
                big = max(big, abs(a))
            b = z
            for x in reversed(xs):
                b = cyl_slit(p, x + y, b)
                big = max(big, abs(b))
            worst = max(worst, abs(a + y - b))
        # the check composes with the batched kernel: each side within its budget
        budget = 2.0 * _lockstep_budget(len(xs), p.radius_n, big + abs(y))
        assert abs(shift_commutation_check(p, xs, y, z_grid) - worst) <= budget

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


def _shift_commutation_cases() -> list:
    """The shift_commutation check's ``(params, xs, y, z_grid)`` configurations, drawn alike."""
    rng, configs = SplitMix64(20240917), []
    for _ in range(20):
        p = CylinderParams(1.0 + 7.0 * rng.next_float(), 0.2 + 1.5 * rng.next_float())
        xs = [p.half_period * (2.0 * rng.next_float() - 1.0) for _ in range(10)]
        y = 3.0 * p.half_period * (2.0 * rng.next_float() - 1.0)
        configs.append((p, xs, y, [complex(p.half_period * (2.0 * rng.next_float() - 1.0),
                                           0.1 + 3.0 * rng.next_float()) for _ in range(20)]))
    return configs


def _disk_conjugation_cases() -> tuple[list, np.ndarray]:
    """The event logs and the (log, probe) array of the disk_conjugation check, drawn alike."""
    rng, logs, probes = SplitMix64(77002), [], []
    for k in range(20):
        p = CylinderParams(2.0 + 6.0 * rng.next_float(), 0.3 + 1.2 * rng.next_float())
        logs.append(sample_events(p, 50.0 / p.period, 50_000 + k))
        probes.append([complex(0.6 * p.half_period * (2.0 * rng.next_float() - 1.0),
                               0.05 + 3.0 * rng.next_float()) for _ in range(20)])
    return logs, np.array(probes)


class TestCompositionChecks:
    """The composition checks' one pass over all configurations, against scalar oracles."""

    def test_shift_commutation_sides(self):
        configs = _shift_commutation_cases()
        conjugated, shifted = verify._shift_sides(configs)
        k = 0
        for p, xs, y, z_grid in configs:
            inner_first = xs[::-1]
            for z in z_grid:
                sides = (orbit(cyl_slit, p, inner_first, z - y),
                         orbit(cyl_slit, p, [x + y for x in inner_first], z))
                big = max(abs(w) for w in sides[0] + sides[1]) + abs(y)
                budget = _lockstep_budget(len(xs), p.radius_n, big)
                assert abs(conjugated[k] - (sides[0][-1] + y)) <= budget, k
                assert abs(shifted[k] - sides[1][-1]) <= budget, k
                k += 1
        assert k == conjugated.size == shifted.size == 400
        (result,) = run_suite(only=["shift_commutation"])
        assert result.passed
        assert result.values["max_abs_error"] == float(np.abs(conjugated - shifted).max())

    def test_disk_conjugation_sides(self):
        logs, probes = _disk_conjugation_cases()
        chl, disk, params = verify._disk_sides(logs, probes)
        assert params.radius_n.tolist() == [log.params.radius_n for log in logs for _ in range(20)]
        rows = [log for log in logs for _ in range(20)]
        for k, (log, z) in enumerate(zip(rows, probes.ravel().tolist())):
            p, t = log.params, log.horizon_t
            big = max(abs(w) for w in orbit(cyl_slit, p, log.xs, z))
            budget = _lockstep_budget(len(log), p.radius_n, big)
            assert abs(chl[k] - eval_backward_chl(log, z, t)) <= budget, k
            assert cylinder_dist(p, disk[k], eval_disk_hl(log, z, t)) <= budget, k
        (result,) = run_suite(only=["disk_conjugation"])
        assert result.passed
        assert result.values["max_cylinder_distance"] == float(
            cylinder_dist(params, chl, disk).max())

    def test_one_configuration_is_its_slice(self):
        # a configuration alone, or among the 20, gives the same bits
        configs = _shift_commutation_cases()
        both = verify._shift_sides(configs)
        logs, probes = _disk_conjugation_cases()
        chl, disk, _ = verify._disk_sides(logs, probes)
        for k in (0, 7, 19):
            alone = verify._shift_sides(configs[k:k + 1])
            for side, part in zip(both, alone):
                assert side[20 * k:20 * k + 20].tolist() == part.tolist()
            p, xs, y, z_grid = configs[k]
            assert shift_commutation_check(p, xs, y, z_grid) == float(
                np.abs(alone[0] - alone[1]).max())
            one_chl, one_disk, _ = verify._disk_sides(logs[k:k + 1], probes[k:k + 1])
            assert chl[20 * k:20 * k + 20].tolist() == one_chl.tolist()
            assert disk[20 * k:20 * k + 20].tolist() == one_disk.tolist()

    def test_ragged_and_empty_event_lists(self):
        # +inf pads the shorter lists; no events at all leaves both sides at z
        p, q = CylinderParams(2.0, 1.0), CylinderParams(5.0, 0.4)
        configs = [(p, [0.5, -1.0, 2.0], 1.3, [1j, 2 + 2j]), (q, [], 0.7, [0.5j]),
                   (q, [3.0], -2.2, [1 + 1j, -4 + 0.2j])]
        conjugated, shifted = verify._shift_sides(configs)
        k = 0
        for params, xs, y, z_grid in configs:
            for z in z_grid:
                a = compose(cyl_slit, params, xs[::-1], z - y) + y
                b = compose(cyl_slit, params, [x + y for x in xs[::-1]], z)
                budget = _lockstep_budget(len(xs), params.radius_n, max(abs(a), abs(b)) + abs(y))
                assert abs(conjugated[k] - a) <= budget and abs(shifted[k] - b) <= budget, k
                k += 1
        assert shifted[2] == 0.5j and conjugated[2] == 0.5j - 0.7 + 0.7
        assert shift_commutation_check(q, [], 0.7, [0.5j]) == abs(0.5j - 0.7 + 0.7 - 0.5j)
        assert shift_commutation_check(p, [0.5], 1.0, []) == 0.0


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
    # the lock-step engine (cylinder maps, as cylinder points) and orbit_many
    # (half-plane maps) over the +inf padded array, row by row against the scalar loop
    n, lam, z, rows = case
    p = CylinderParams(n, lam)
    xs = np.full((len(rows), max(map(len, rows))), np.inf)
    for r, row in enumerate(rows):
        xs[r, :len(row)] = row
    steps = _LockStep(p, np.full(len(rows), z))
    for col in np.transpose(xs):
        steps.step(col)
    *_, shl = orbit_many(halfplane_slit_many, lam, xs, np.full(len(rows), z))
    cases = ((cyl_slit, p, steps.points(z), lambda a, b: cylinder_dist(p, a, b)),
             (halfplane_slit, lam, shl, lambda a, b: abs(a - b)))
    for slit, first, got, dist in cases:
        for r, row in enumerate(rows):
            big = max(abs(w) for w in orbit(slit, first, row, z))
            want = compose(slit, first, row, z)
            assert dist(got[r], want) <= _lockstep_budget(len(row), n, big), (slit, r)
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

    def test_coupling_decay_check(self):
        # run only when named: the coupling means of the pinned replicas fall with N
        assert "coupling_decay" not in verify.DEFAULT_SUITE
        (result,) = run_suite(only=["coupling_decay"])
        assert result.passed and result.values["increases"] == 0
        n_list, means = result.params["N_grid"], result.values["means"]
        summaries = verify._summarize(coupling_sup_distances(1.0, 1j, 0.5, n_list, 500, 60622))
        assert means == [s.mean.real for s in summaries]
        assert result.values["ci99"] == [s.ci99_halfwidth for s in summaries]
        assert means == sorted(means, reverse=True)
        assert result.grid == tuple(zip(n_list, means))

    @pytest.mark.parametrize("samples", [np.zeros(0), np.ones(1), np.ones((1, 3))])
    def test_summary_needs_two_replicas(self, samples):
        with pytest.raises(ValueError, match="at least two replicas"):
            verify._summarize(samples)

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
