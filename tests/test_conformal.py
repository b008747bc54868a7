"""Tests for the elementary maps and the cylinder slit map.

Derived expectations are computed by independent oracles inside the tests
(series evaluation, finite differences, the half-plane closed form, and the
mpmath evaluation of the literal five-map chain), never by the code path
under test.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from chl.conformal import (
    _FAR_FIELD_RATIO,
    _TIP_RADIUS,
    CylinderParams,
    _disk_slit_many,
    _disk_slit_origin,
    _PerPoint,
    _reduce,
    _reduce_many,
    _slit_sqrt,
    _tan_chart,
    _tan_chart_many,
    cyl_slit,
    cyl_slit_deriv,
    cyl_slit_deriv2,
    cyl_slit_many,
    cylinder_dist,
    halfplane_slit,
    halfplane_slit_many,
)
from chl.rng import SplitMix64


def tanh_by_series(x: float) -> float:
    """Independent tanh: (E - 1)/(E + 1) with E = exp(2x) summed as a Taylor series."""
    total, term = 1.0, 1.0
    for k in range(1, 60):
        term *= 2.0 * x / k
        total += term
    return (total - 1.0) / (total + 1.0)


def _phi_delta(d: float, z: complex) -> complex:
    """phi^delta(z) = sqrt(z^2 (1 - d^2) - d^2), the half-plane slit fixing i."""
    return _slit_sqrt(1.0 - d * d, d * d, complex(z))


# ---------------------------------------------------------------------------
# The mpmath oracle: the literal chain
#
#     S_x = f_inv o r_x^-1 o g_inv o phi^delta o g o r_x o f
#
# in arbitrary precision, sharing no code with the kernels: no closed form, no
# factored root, no regime switch.  Its only decisions are the lift (Re(z - x)
# reduced to [-pi N, pi N), the multiple of 2 pi N restored after), the
# real-axis split of the slit root for exact boundary inputs, and the
# principal log of f_inv.  It uses the kernels' double delta, so both sides
# evaluate the same map.

_DIGITS = 40  # decimal digits the oracle keeps after its cancellations


def _f(n, z):
    """f(z) = exp(-iz/N): the cylinder onto |w| >= 1."""
    return mp.exp(-1j * z / n)


def _f_inv(n, w):
    """i N Log(w) with the principal log: Re in [-pi N, pi N)."""
    return 1j * n * mp.log(w)


def _g(w):
    """i (w - 1)/(w + 1): |w| >= 1 onto the closed upper half-plane."""
    return 1j * (w - 1) / (w + 1)


def _g_inv(q):
    """(i + q)/(i - q); its pole q = i is the cylinder's point at infinity."""
    return (1j + q) / (1j - q)


def _upper_root(a, b, q, on_axis: bool):
    """sqrt(a q^2 - b) for a, b > 0: the root in the closed upper half-plane.

    Off the real axis the radicand is never a positive real, so exactly one
    root has Im > 0.  ``on_axis`` takes q as real: outside the slit base the
    root is real with the sign of q, inside it the root lies on the slit.
    """
    if on_axis:
        q = mp.re(q)
        r = a * q * q - b
        return mpc(mp.sign(q) * mp.sqrt(r)) if r >= 0 else mpc(0, mp.sqrt(-r))
    r = mp.sqrt(a * q * q - b)
    return -r if mp.im(r) < 0 else r


def _chain_digits(t: complex) -> int:
    """Working digits at t = (z - x)/N: ``_DIGITS`` plus the digits lost to
    w - 1 near the tip preimage t = 0 and to g_inv near its pole, where
    |zeta| = exp(Im t)."""
    lost = t.imag / math.log(10.0) + (max(0.0, -math.log10(abs(t))) if t else 0.0)
    return _DIGITS + math.ceil(lost)


def oracle_cyl_slit(params: CylinderParams, x: float, z: complex, scale: int = 1):
    """S_x(z) by the literal chain, at ``scale`` times its working digits."""
    n, d2 = mpf(params.radius_n), mpf(params.delta) ** 2
    t = complex(math.remainder(z.real - x, params.period), z.imag) / params.radius_n
    with mp.workdps(scale * _chain_digits(t)):
        period = 2 * mp.pi * n
        u = mpf(z.real) - mpf(x)
        k = mp.floor(u / period + mpf(0.5))  # the lift: u - k period in [-pi N, pi N)
        w = _f(n, mpc(u - k * period, z.imag))  # r_x o f = f(. - x)
        q = _upper_root(1 - d2, d2, _g(w), on_axis=z.imag == 0.0)
        return mpf(x) + k * period + _f_inv(n, _g_inv(q))  # f_inv o r_x^-1 = x + f_inv


def oracle_halfplane_slit(lam: float, x: float, z: complex, scale: int = 1):
    """x + sqrt((z - x)^2 - lam^2) with the root in the closed upper half-plane."""
    with mp.workdps(scale * _DIGITS):
        return mpf(x) + _upper_root(1, mpf(lam) ** 2, mpc(z) - mpf(x), on_axis=z.imag == 0.0)


def oracle_disk_slit(params: CylinderParams, zeta: complex, scale: int = 1):
    """i N Log(g_inv(phi^delta(g(zeta)))) for |zeta| > 1: the disk kernel on the cylinder."""
    n, d2 = mpf(params.radius_n), mpf(params.delta) ** 2
    with mp.workdps(scale * (_DIGITS + math.ceil(math.log10(abs(zeta))))):
        return _f_inv(n, _g_inv(_upper_root(1 - d2, d2, _g(mpc(zeta)), on_axis=False)))


def _disk_to_cylinder(params: CylinderParams, value: complex):
    """A disk kernel's value taken to the cylinder by i N Log in mpmath, adding no rounding."""
    with mp.workdps(_DIGITS):
        return _f_inv(mpf(params.radius_n), mpc(value))


# One error budget for every regime switch and every kernel: C eps (N + |S|).
_BUDGET_C = 16.0


def _excess(n: float, periodic: bool, got, want) -> float:
    """|got - want| in units of the budget at radius n (Re mod 2 pi N when periodic)."""
    with mp.workdps(_DIGITS):
        diff = mpc(got) - want
        if periodic:
            period = 2 * mp.pi * n
            diff -= period * mp.nint(mp.re(diff) / period)
        return float(abs(diff) / (_BUDGET_C * _EPS * (n + abs(want))))


class TestDeltaOf:
    def test_closed_form_n1_lam1(self):
        d = CylinderParams(1.0, 1.0).delta
        assert d == pytest.approx(0.46211715726000974, abs=1e-15)
        # cross-check against an independent series evaluation of tanh(1/2)
        assert d == pytest.approx(tanh_by_series(0.5), abs=1e-15)
        # and against the logistic form 1 - 2/(1 + e^(lam/N))
        assert d == pytest.approx(1.0 - 2.0 / (1.0 + math.exp(1.0)), rel=1e-15)

    def test_large_n_linearization(self):
        # delta(N, lam) ~ lam / 2N for N >> lam
        d = CylinderParams(1e6, 1.0).delta
        assert abs(d - 5.0e-7) / 5.0e-7 <= 1e-12

    def test_small_lam_linearization(self):
        d = CylinderParams(1.0, 1e-8).delta
        assert abs(d - 5.0e-9) / 5.0e-9 <= 1e-12

    @pytest.mark.parametrize("n,lam", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -3.0)])
    def test_domain_errors(self, n, lam):
        with pytest.raises(ValueError):
            CylinderParams(n, lam)

    def test_saturation_guard(self):
        with pytest.raises(ValueError):
            CylinderParams(1.0, 100.0)


class TestCylinderParams:
    def test_derived_delta_matches_both_closed_forms(self):
        rng = SplitMix64(11)
        for _ in range(20):
            n = 0.5 + 63.0 * rng.next_float()
            lam = 0.05 + 2.0 * rng.next_float()
            p = CylinderParams(n, lam)
            assert 0.0 < p.delta < 1.0
            assert p.delta == pytest.approx(math.tanh(lam / (2 * n)), rel=1e-15)
            assert p.delta == pytest.approx(1 - 2 / (1 + math.exp(lam / n)), rel=4e-15)


class TestElementaryMaps:
    """The oracle's charts at closed-form values: the conventions its chain relies on."""

    def test_map_f_values(self):
        assert complex(_f(1, 1j)) == pytest.approx(math.e)
        assert complex(_f(1, 0j)) == pytest.approx(1.0)
        w = complex(_f(2, complex(math.pi, 0.0)))
        assert w == pytest.approx(-1j, abs=1e-15)  # e^{-i pi/2}, unit modulus boundary
        assert abs(w) == pytest.approx(1.0, abs=1e-15)

    def test_map_f_modulus_at_least_one_on_closed_half_plane(self):
        rng = SplitMix64(12)
        for _ in range(200):
            z = complex(40 * (2 * rng.next_float() - 1), 20 * rng.next_float())
            assert abs(_f(3, z)) >= 1.0 - 1e-12

    def test_map_f_inv_values(self):
        assert complex(_f_inv(1, mpc(math.e))) == pytest.approx(1j)
        assert complex(_f_inv(1, mpc(1))) == pytest.approx(0.0)
        # principal branch: the negative real axis maps to the left endpoint
        assert complex(_f_inv(3, mpc(-1))) == pytest.approx(-3.0 * math.pi)

    def test_f_round_trip(self):
        rng = SplitMix64(13)
        for _ in range(100):
            n = 0.5 + 9.5 * rng.next_float()
            w = cmath.rect(1.0 + 5.0 * rng.next_float(), math.pi * (2 * rng.next_float() - 1))
            assert abs(_f(n, _f_inv(n, w)) - w) <= 1e-12 * abs(w)

    def test_map_g_values(self):
        assert complex(_g(mpc(1))) == pytest.approx(0.0)
        # g(e) = i (e-1)/(e+1) = i tanh(1/2)
        assert complex(_g(mpc(math.e))) == pytest.approx(1j * tanh_by_series(0.5), abs=1e-15)

    def test_g_round_trip(self):
        rng = SplitMix64(14)
        for _ in range(100):
            w = cmath.rect(1.0 + 4.0 * rng.next_float(), math.pi * (2 * rng.next_float() - 0.999))
            assert abs(_g_inv(_g(mpc(w))) - w) <= 1e-12 * abs(w)
            z = complex(10 * (2 * rng.next_float() - 1), 0.01 + 8 * rng.next_float())
            assert abs(_g(_g_inv(mpc(z))) - z) <= 1e-12 * (1 + abs(z))


class TestHalfplaneSlit:
    def test_imaginary_axis(self):
        # phi(iy) = i sqrt(y^2 + lam^2): pure imaginary case
        assert halfplane_slit(1.0, 0.0, 1j) == pytest.approx(1j * math.sqrt(2.0))

    def test_tip(self):
        assert halfplane_slit(1.0, 0.0, 0j) == 1j

    def test_shift_conjugation(self):
        # oracle: x + phi(z - x) with the imaginary-axis closed form
        got = halfplane_slit(2.0, 3.0, 3 + 4j)
        assert got == pytest.approx(3 + 1j * math.sqrt(16.0 + 4.0))
        assert got == pytest.approx(3 + 4.47213595499958j)

    def test_identity_at_infinity(self):
        for z in (1e7 + 5j, -1e7 + 5j, 1e9j):
            assert abs(halfplane_slit(1.0, 0.0, z) - z) <= 1e-6

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_slit_length_must_be_positive(self, lam):
        with pytest.raises(ValueError, match="lam must be positive"):
            halfplane_slit(lam, 0.0, 1j)

    def test_boundary_outside_base_stays_real_with_sign(self):
        for x in (1.5, 3.0, -2.0, -300.0):
            w = halfplane_slit(1.0, 0.0, complex(x, 0.0))
            assert w.imag == 0.0
            assert math.copysign(1.0, w.real) == math.copysign(1.0, x)

    def test_boundary_inside_base_lands_on_slit(self):
        for x in (0.5, -0.25, 0.999):
            w = halfplane_slit(1.0, 0.0, complex(x, 0.0))
            assert w.real == 0.0
            assert 0.0 < w.imag <= 1.0


class TestCylPhiDelta:
    """phi^delta, the chain's slit map, as ``_slit_sqrt(1 - delta^2, delta^2, .)``."""

    def test_fixed_point_i(self):
        for d in (0.01, 0.3, 0.9):
            assert abs(_phi_delta(d, 1j) - 1j) <= 1e-14

    def test_zero_to_tip(self):
        assert _phi_delta(0.3, 0j) == pytest.approx(0.3j)

    def test_positive_real_branch(self):
        # sqrt(4 * 0.75 - 0.25) on the positive real axis...
        want = math.sqrt(2.75)
        assert _phi_delta(0.5, 2.0 + 0j) == pytest.approx(want)
        # ...and continuous from just above the boundary
        assert _phi_delta(0.5, 2.0 + 1e-9j) == pytest.approx(want, abs=1e-8)


class TestCylSlit:
    def test_tip_identity_any_params(self):
        rng = SplitMix64(15)
        for _ in range(20):
            n = 0.5 + 40 * rng.next_float()
            lam = 0.1 + 2 * rng.next_float()
            p = CylinderParams(n, lam)
            x = p.half_period * (2 * rng.next_float() - 1)
            got = cyl_slit(p, x, complex(x, 0.0))
            assert abs(got - complex(x, lam)) <= 1e-12

    def test_periodicity_lift(self):
        p = CylinderParams(2.0, 1.0)
        z = 0.7 + 1.3j
        lhs = cyl_slit(p, 0.5, z + p.period) - p.period
        assert abs(lhs - cyl_slit(p, 0.5, z)) <= 1e-10
        # the same point of the cylinder: z = 2 pi N over the slit at 0
        w = cyl_slit(p, 0.0, complex(p.period, 0.0))
        assert cylinder_dist(p, w, 1j) <= 1e-12

    def test_convergence_to_halfplane_slit(self):
        # C(z)/N upper bound: estimate the constant at a coarser radius, then
        # the bound must hold with slack at N = 50 (the pointwise decay is in
        # fact quadratic, so this has a ~4x margin).
        z = 2 + 3j
        oracle = halfplane_slit(1.0, 0.0, z)
        c_est = 25.0 * abs(cyl_slit(CylinderParams(25.0, 1.0), 0.0, z) - oracle)
        err = abs(cyl_slit(CylinderParams(50.0, 1.0), 0.0, z) - oracle)
        assert err <= 2.0 * c_est / 50.0

    def test_chain_composition_equality(self):
        # the kernels' closed forms vs the literal five-map chain in mpmath:
        # boundary points, heights 1e-12 N .. 30 N, and the far field to ~1000 N
        p = CylinderParams(3.0, 0.8)
        n = p.radius_n
        rng = SplitMix64(16)
        for k in range(60):
            r = rng.next_float()
            y = (0.0, n * 10.0 ** (-12.0 + 13.5 * r), _FAR_FIELD_RATIO * n * 10.0 ** (1.5 * r))[k % 3]
            z = complex(p.half_period * (2 * rng.next_float() - 1), y)
            x = p.half_period * (2 * rng.next_float() - 1)
            assert _excess(n, True, cyl_slit(p, x, z), oracle_cyl_slit(p, x, z)) <= 1.0, z

    @pytest.mark.parametrize("n", [0.3, 1.0, 16.0, 1e6])
    def test_axis_path_matches_tan_chart(self, n):
        # on Im z = 0 cyl_slit is the tan chart 2N atan(phi^delta(tan(u/2N))), bit
        # for bit, across the corners, the tip and the seam; outside the slit
        # base Im S is exactly 0.0
        p = CylinderParams(n, 1.0)
        base, half = _base(p), p.half_period
        rng = np.random.default_rng([int(n * 10), 23])
        u = np.concatenate([
            rng.uniform(-half, half, 500), rng.uniform(-base, base, 200),
            base * (1.0 + np.exp(rng.uniform(-30.0, 0.0, 100)) * rng.choice([-1.0, 1.0], 100)),
            -base * (1.0 + np.exp(rng.uniform(-30.0, 0.0, 100)) * rng.choice([-1.0, 1.0], 100)),
            [0.0, -0.0, 1e-300, -half, half * (1.0 - 1e-16), base, -base]])
        for q in _reduce_many(u, p.period).tolist():  # x = 0 and Re z in [-pi N, pi N): no lift
            got = cyl_slit(p, 0.0, complex(q, 0.0))
            _, v, r = _tan_chart(p, complex(q, 0.0))
            want = 1j * p.lam if abs(v) <= _TIP_RADIUS else 2.0 * n * cmath.atan(r)
            assert got == want, q
            assert got.imag > 0.0 if r.imag > 0.0 or abs(v) <= _TIP_RADIUS else got.imag == 0.0, q

    def test_reflection_symmetry(self):
        p = CylinderParams(4.0, 1.3)
        rng = SplitMix64(17)
        for _ in range(100):
            z = complex(p.half_period * (2 * rng.next_float() - 1), 5 * rng.next_float())
            lhs = cyl_slit(p, 0.0, -z.conjugate())
            rhs = -cyl_slit(p, 0.0, z).conjugate()
            assert cylinder_dist(p, lhs, rhs) <= 1e-10

    def test_branch_correctness_grid(self):
        # Im >= 0 on a dense grid of the closed half-plane (spec: >= 1e3 points)
        p = CylinderParams(2.0, 1.0)
        count = 0
        for i in range(40):
            for j in range(30):
                z = complex(-p.half_period + i * p.period / 39, j * 12.0 / 29)
                assert cyl_slit(p, 1.0, z).imag >= 0.0
                assert halfplane_slit(1.0, 0.5, z).imag >= 0.0
                count += 1
        assert count >= 1000

    def test_far_field_drift(self):
        # leading far-field behavior: S(iy) - iy -> -iN log(1 - delta^2)
        for n in (1.0, 3.0):
            p = CylinderParams(n, 1.0)
            lead = cyl_slit(p, 0.0, 20j * n) - 20j * n
            want = -1j * n * math.log1p(-p.delta**2)
            assert abs(lead - want) <= 1e-8

    def test_far_field_switch_is_seamless(self):
        p = CylinderParams(1.5, 0.9)
        below = cyl_slit(p, 0.0, complex(1.0, 30.0 * 1.5 - 1e-7))
        above = cyl_slit(p, 0.0, complex(1.0, 30.0 * 1.5 + 1e-7))
        assert abs(above - below) <= 1e-6  # ~|dz|, no jump at the threshold

    def test_seam_continuity(self):
        p = CylinderParams(2.0, 1.0)
        left = cyl_slit(p, 0.3, complex(p.half_period - 1e-9, 0.8))
        right = cyl_slit(p, 0.3, complex(p.half_period + 1e-9, 0.8))
        assert abs(left - right) <= 1e-7
        # on the seam itself, where the disk form's log has its cut, both kernels
        # keep the lift: the seam maps into itself, Re S = Re z (x = 0 keeps u exact)
        rng = np.random.default_rng(8)
        for n in rng.uniform(0.5, 50.0, 40):
            q = CylinderParams(n, 1.0)
            z = q.half_period + 1j * n * np.exp(rng.uniform(math.log(1e-12), math.log(29.0), 8))
            assert all(abs(cyl_slit(q, 0.0, w).real - w.real) <= 1e-9 * n for w in z.tolist())
            assert np.all(np.abs(cyl_slit_many(q, 0.0, z).real - z.real) <= 1e-9 * n)


# Per-regime samples for the batched kernel; each regime gets this many points.
_MANY = 2000
_EPS = float(np.finfo(float).eps)


def _scalar_oracle(p: CylinderParams, x: float, z: np.ndarray) -> np.ndarray:
    return np.array([cyl_slit(p, x, complex(q)) for q in z])


def _base(p: CylinderParams) -> float:
    """Half-width 2N asin(delta) of the slit base: boundary offsets |u| < base map onto the slit."""
    return 2.0 * p.radius_n * math.asin(p.delta)


def _regime_points(p: CylinderParams, regime: str, seed: int) -> tuple[float, np.ndarray]:
    """(x, z): _MANY seeded points of one regime of the slit map at x."""
    rng = np.random.default_rng(seed)
    n, half, d = p.radius_n, p.half_period, p.delta
    x = rng.uniform(-half, half)
    base = _base(p)
    if regime == "boundary-outside":
        u = rng.uniform(base, half, _MANY) * rng.choice([-1.0, 1.0], _MANY)
        return x, x + u + 0j
    if regime == "boundary-inside":
        return x, x + rng.uniform(-base, base, _MANY) + 0j
    if regime == "interior":  # the tan chart, 1e-12 N <= Im z < N
        u = rng.uniform(-half, half, _MANY)
        return x, (x + u) + 1j * n * np.exp(rng.uniform(math.log(1e-12), 0.0, _MANY))
    if regime == "disk-form":
        return x, (x + rng.uniform(-half, half, _MANY)) + 1j * n * rng.uniform(1.0, 29.9, _MANY)
    if regime == "near-tip":
        # the tan chart next to the tip preimage, |z - x| < 0.45 N delta
        r = 0.45 * n * d * np.sqrt(rng.uniform(1e-6, 1.0, _MANY))
        return x, x + r * np.exp(1j * rng.uniform(1e-6, math.pi - 1e-6, _MANY))
    if regime == "far":
        u = rng.uniform(-half, half, _MANY)
        return x, (x + u) + 1j * n * rng.uniform(30.0, 1000.0, _MANY)
    if regime == "reduction-edges":
        k = rng.integers(-1000, 1000, _MANY).astype(float)
        u = np.concatenate([
            np.full(_MANY // 4, half), np.full(_MANY // 4, -half),  # the seam, both sides
            k[: _MANY // 4] * p.period,  # multiples of the period
            rng.uniform(1e6, 1e7, _MANY // 4) * p.period * rng.choice([-1.0, 1.0], _MANY // 4),
        ])
        y = np.where(rng.uniform(0.0, 1.0, u.size) < 0.5, 0.0, n * rng.uniform(0.0, 29.9, u.size))
        return 0.0, u + 1j * y  # x = 0, so u = Re z exactly
    raise AssertionError(regime)


@pytest.mark.filterwarnings("error")
class TestCylSlitMany:
    """The batched kernel against the scalar map, regime by regime."""

    @pytest.mark.parametrize("n", [1.0, 10.0, 32.0])
    @pytest.mark.parametrize("regime", ["boundary-outside", "boundary-inside", "interior",
                                        "disk-form", "near-tip", "reduction-edges"])
    def test_matches_scalar_within_rounding(self, n, regime):
        p = CylinderParams(n, 1.0)
        x, z = _regime_points(p, regime, seed=int(n) * 7 + len(regime))
        assert z.size == _MANY
        got = cyl_slit_many(p, x, z)
        want = _scalar_oracle(p, x, z)
        assert got.shape == z.shape
        kept = _off_corners(_reduce_many(z.real - x, p.period) + 1j * z.imag, _base(p))
        assert np.all((np.abs(got - want) <= 32.0 * _EPS * np.maximum(n, np.abs(want)))[kept])
        # the map lifts points, also within rounding of the boundary
        assert np.all(got.imag >= z.imag)
        assert np.all(want.imag >= z.imag)

    @pytest.mark.parametrize("n", [1.0, 10.0, 32.0])
    def test_regime_samples_hit_their_branch(self, n):
        # the samples above exercise the regime they are named for: the tan
        # chart below Im z = N, the disk form up to 30 N, the far field above
        p = CylinderParams(n, 1.0)
        heights = {"interior": (0.0, n), "near-tip": (0.0, n), "disk-form": (n, _FAR_FIELD_RATIO * n),
                   "far": (_FAR_FIELD_RATIO * n, math.inf)}
        for regime, (low, high) in heights.items():
            x, z = _regime_points(p, regime, seed=1)
            assert np.all((low <= z.imag) & (z.imag < high) & (z.imag > 0.0)), regime
        # near the tip preimage, but outside the tip override |tan((z - x)/2N)| <= _TIP_RADIUS
        x, z = _regime_points(p, "near-tip", seed=1)
        assert np.all(np.abs(z - x) < 0.5 * n * p.delta)
        assert np.all(np.abs(np.tan(0.5 * (z - x) / n)) > _TIP_RADIUS)
        for regime in ("boundary-outside", "boundary-inside"):
            x, z = _regime_points(p, regime, seed=3)
            on_slit = cyl_slit_many(p, x, z).imag > 0.0
            assert np.all(on_slit) if regime == "boundary-inside" else not np.any(on_slit)

    @pytest.mark.parametrize("n", [1.0, 10.0, 32.0])
    def test_far_field_bit_equal(self, n):
        p = CylinderParams(n, 1.0)
        x, z = _regime_points(p, "far", seed=5)
        assert np.all(cyl_slit_many(p, x, z) == _scalar_oracle(p, x, z))

    @pytest.mark.parametrize("n", [1.0, 10.0, 32.0])
    def test_tip_identity_exact(self, n):
        p = CylinderParams(n, 1.0)
        xs = np.random.default_rng(6).uniform(-p.half_period, p.half_period, _MANY)
        for x in xs[:200]:
            assert cyl_slit_many(p, x, np.array([complex(x, 0.0)]))[0] == complex(x, p.lam)
        # u == 0 inside a mixed batch
        z = np.concatenate([[complex(xs[0], 0.0)], xs[1:] + 0.5j])
        assert cyl_slit_many(p, xs[0], z)[0] == complex(xs[0], p.lam)

    def test_empty_and_shape(self):
        p = CylinderParams(2.0, 1.0)
        assert cyl_slit_many(p, 0.3, np.empty(0, dtype=complex)).shape == (0,)
        z = np.array([[0.1 + 0.2j, 0.0], [2.0 + 100.0j, -1.0 + 1e-20j]])
        got = cyl_slit_many(p, 0.3, z)
        assert got.shape == (2, 2)
        bound = 32.0 * _EPS * max(2.0, float(np.max(np.abs(got))))
        assert np.all(np.abs(got - _scalar_oracle(p, 0.3, z.ravel()).reshape(2, 2)) <= bound)

    @pytest.mark.parametrize("n", [1.0, 10.0, 32.0])
    def test_array_x_matches_scalar(self, n):
        # one abscissa per point: every regime's offsets z - x, each at its own x
        p = CylinderParams(n, 1.0)
        regimes = ("boundary-outside", "boundary-inside", "interior", "disk-form", "near-tip", "far")
        u = np.concatenate([z - x for x, z in (_regime_points(p, r, seed=k + 20)
                                               for k, r in enumerate(regimes))])
        x = np.random.default_rng(int(n)).uniform(-p.half_period, p.half_period, u.size)
        u[:8] = 0.0  # z = x exactly: the tip
        z = x + u
        got = cyl_slit_many(p, x, z)
        want = np.array([cyl_slit(p, a, q) for a, q in zip(x.tolist(), z.tolist())])
        kept = _off_corners(_reduce_many(z.real - x, p.period) + 1j * z.imag, _base(p))
        assert np.all((np.abs(got - want) <= 32.0 * _EPS * np.maximum(n, np.abs(want)))[kept])
        assert np.all(got[:8] == x[:8] + 1j * p.lam)


@pytest.mark.filterwarnings("error")
class TestDiskSlitMany:
    """The batched disk kernel against ``_disk_slit_origin``, rule by rule."""

    @pytest.mark.parametrize("n", [1.0, 16.0, 64.0])
    def test_matches_scalar(self, n):
        # seeded points on both sides of the near-tip switch |zeta - 1| = delta/2
        # (Re(zeta - 1) > 0 keeps |zeta| > 1)
        p = CylinderParams(n, 1.0)
        rng = np.random.default_rng([int(n), 21])
        sides = rng.choice(_SIDES, _MANY)
        angle = np.exp(1j * rng.uniform(-1.5, 1.5, _MANY))
        tip = 0.5 * p.delta * np.concatenate([
            sides[: _MANY // 2], np.exp(rng.uniform(math.log(1e-6), math.log(1e6), _MANY // 2))])
        zeta = 1.0 + tip * angle
        assert 0.1 * _MANY < np.count_nonzero(np.abs(zeta - 1.0) < 0.5 * p.delta) < 0.9 * _MANY
        assert np.all(np.abs(zeta) > 1.0)
        got = _disk_slit_many(p, zeta)
        want = np.array([_disk_slit_origin(p, q) for q in zeta.tolist()])
        assert got.shape == zeta.shape
        assert np.all(np.abs(got - want) <= 4.0 * _EPS * np.abs(want))

    @pytest.mark.parametrize("n", [1.0, 16.0, 64.0])
    def test_real_radicand_and_rotation(self, n):
        # real zeta, on both sides of the unit disk and of the near-tip switch, makes
        # the factored radicand 1 + 4 d^2 zeta/(zeta - 1)^2 real, with Im +0.0 or -0.0
        p = CylinderParams(n, 1.0)
        re = np.concatenate([1.0 + 0.5 * p.delta * np.array(_SIDES), [1.5, 3.0, 1e3, 1e140],
                             -np.array([1.0, 1.5, 3.0, 1e3, 1e140])])
        zeta = np.concatenate([re, re]) + 0j
        zeta.imag[re.size:] = -0.0
        assert {math.copysign(1.0, q.imag) for q in zeta.tolist()} == {1.0, -1.0}
        want = np.array([_disk_slit_origin(p, q) for q in zeta.tolist()])
        got = _disk_slit_many(p, zeta)
        assert np.all(np.abs(got - want) <= 4.0 * _EPS * np.abs(want))
        # with a rotation: D(rho zeta)/rho, rho a scalar or one per point; the
        # products rho zeta and ./rho round once more on each side
        rng = np.random.default_rng([int(n), 22])
        zeta = np.exp(rng.uniform(1e-6, 3.0, _MANY) + 1j * rng.uniform(-math.pi, math.pi, _MANY))
        for rho in (np.exp(1j * rng.uniform(-math.pi, math.pi, _MANY)), cmath.exp(0.7j)):
            rhos = np.broadcast_to(rho, zeta.shape).tolist()
            want = np.array([_disk_slit_origin(p, r * q) / r for q, r in zip(zeta.tolist(), rhos)])
            kept = np.abs(zeta * rho - 1.0) > 0.1 * p.delta  # off the slit-base corners
            err = np.abs(_disk_slit_many(p, zeta, rho) - want) / (_EPS * np.abs(want))
            assert np.all(err[kept] <= 8.0)

    def test_empty_and_shape(self):
        p = CylinderParams(2.0, 1.0)
        assert _disk_slit_many(p, np.empty(0, dtype=complex)).shape == (0,)
        zeta = np.array([[1.0 + 0.01j, 3.0 - 4.0j], [1e6j, -2.0]])
        want = np.array([_disk_slit_origin(p, q) for q in zeta.ravel().tolist()]).reshape(2, 2)
        assert np.all(np.abs(_disk_slit_many(p, zeta) - want) <= 4.0 * _EPS * np.abs(want))


# Radii and slit lengths stacked point by point: small and large N, slits short and long.
_STACKED = ((0.5, 0.3), (2.0, 1.0), (10.0, 1.0), (32.0, 3.0), (7.3, 0.05))


def _shuffled(which: np.ndarray, *arrays: np.ndarray) -> tuple:
    """``which`` and ``arrays`` in one seeded order: every regime mask mixes configurations."""
    order = np.random.default_rng(len(which)).permutation(len(which))
    return tuple(a[order] for a in (which, *arrays))


@pytest.mark.filterwarnings("error")
class TestPerPointParams:
    """``_PerPoint`` parameters, one configuration per point, against a call per configuration.

    The batched kernels do not depend on the length of their arrays (their
    complex products are out of place), so the stacked call must equal the
    per-configuration calls bit for bit, on every regime.
    """

    def test_stack_and_select(self):
        configs = [CylinderParams(n, lam) for n, lam in _STACKED]
        which = np.array([3, 0, 0, 4, 1])
        p = _PerPoint.stack(configs, which)
        for name in ("radius_n", "lam", "delta", "period", "half_period"):
            assert getattr(p, name).tolist() == [getattr(configs[k], name) for k in which], name
        mask = np.array([True, False, True, False, True])
        assert p[mask].delta.tolist() == [configs[k].delta for k in which[mask]]

    def test_cyl_slit_many_every_regime(self):
        configs = [CylinderParams(n, lam) for n, lam in _STACKED]
        regimes = ("boundary-outside", "boundary-inside", "interior", "disk-form", "near-tip",
                   "far", "reduction-edges")  # the last: the seam and exact period multiples
        which, xs, zs = [], [], []
        for k, p in enumerate(configs):
            for j, regime in enumerate(regimes):
                x, z = _regime_points(p, regime, seed=10 * k + j)
                which.append(np.full(100, k))
                xs.append(np.full(100, x))
                zs.append(z[:100])
            tips = np.random.default_rng(k).uniform(-p.half_period, p.half_period, 4)
            which.append(np.full(4, k))
            xs.append(tips)
            zs.append(tips + 0j)  # z = x exactly: the tip
        which, x, z = _shuffled(*map(np.concatenate, (which, xs, zs)))
        stacked = _PerPoint.stack(configs, which)
        y = z.imag / stacked.radius_n  # the axis, tan chart, disk form and far field
        assert all(m.any() for m in (y == 0.0, (0.0 < y) & (y < 1.0), (1.0 <= y) & (y < 30.0),
                                     y >= _FAR_FIELD_RATIO))
        got = cyl_slit_many(stacked, x, z)
        for k, p in enumerate(configs):
            at = which == k
            assert np.array_equal(got[at], cyl_slit_many(p, x[at], z[at])), p
        # every axis point alone takes the kernel's all-axis path
        axis = z.imag == 0.0
        got = cyl_slit_many(_PerPoint.stack(configs, which[axis]), x[axis], z[axis])
        for k, p in enumerate(configs):
            at = which[axis] == k
            assert np.array_equal(got[at], cyl_slit_many(p, x[axis][at], z[axis][at])), p

    def test_disk_slit_many_both_roots(self):
        # on both sides of the near-tip switch |xi - 1| = delta/2, one rotation per point
        configs = [CylinderParams(n, lam) for n, lam in _STACKED]
        which, xis, rhos = [], [], []
        for k, p in enumerate(configs):
            rng = np.random.default_rng([k, 23])
            r = 0.5 * p.delta * np.concatenate([rng.choice(_SIDES, 200),
                                                np.exp(rng.uniform(-14.0, 14.0, 200))])
            which.append(np.full(400, k))
            xis.append(1.0 + r * np.exp(1j * rng.uniform(-1.5, 1.5, 400)))
            rhos.append(np.exp(1j * rng.uniform(-math.pi, math.pi, 400)))
        which, xi, rho = _shuffled(*map(np.concatenate, (which, xis, rhos)))
        p = _PerPoint.stack(configs, which)
        near = np.abs(xi - 1.0) < 0.5 * p.delta
        assert 0.1 * xi.size < np.count_nonzero(near) < 0.9 * xi.size
        got = _disk_slit_many(p, xi / rho, rho)
        for k, q in enumerate(configs):
            at = which == k
            assert np.array_equal(got[at], _disk_slit_many(q, (xi / rho)[at], rho[at])), q


def _half_regime_points(lam: float, regime: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, z): _MANY seeded points of one regime of ``halfplane_slit(lam, x, .)``, one x each.

    The tip and underflow regimes sit at x = 0, where z - x is exact; the
    tip radius is approached from both sides, 1 -+ 1e-9 of it.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-50.0, 50.0, _MANY)
    sign = rng.choice([-1.0, 1.0], _MANY)
    if regime == "boundary-outside":
        return x, x + sign * lam * (1.0 + np.exp(rng.uniform(math.log(1e-6), math.log(1e3), _MANY)))
    if regime == "boundary-inside":
        return x, x + lam * rng.uniform(-1.0, 1.0, _MANY) + 0j
    if regime == "interior":
        u = lam * rng.uniform(-5.0, 5.0, _MANY)
        return x, x + u + 1j * lam * np.exp(rng.uniform(math.log(1e-12), math.log(10.0), _MANY))
    if regime == "far":  # beyond _FAR_RADIUS; z * z overflows from about 1.3e154
        u = 10.0 ** rng.uniform(150.0, 300.0, _MANY) * np.exp(1j * rng.uniform(0.0, math.pi, _MANY))
        u[:16] = sign[:16] * np.abs(u[:16])  # on the real axis
        return x, x + u
    x = np.zeros(_MANY)
    if regime == "tip-radius":
        r = _TIP_RADIUS * max(1.0, lam * lam) * rng.choice(_SIDES, _MANY)
        return x, r * np.exp(1j * rng.uniform(0.0, math.pi, _MANY))
    assert regime == "underflow"  # Im z^2 = 2 Re z Im z rounds to 0
    re = lam * sign * 10.0 ** rng.uniform(-140.0, -20.0, _MANY)
    return x, re + 1j * (2.0**-1074 / np.abs(re) * 0.25)


@pytest.mark.filterwarnings("error")
class TestHalfplaneSlitMany:
    """The batched half-plane kernel against the scalar map, regime by regime."""

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 40.0])
    @pytest.mark.parametrize("regime", ["boundary-outside", "boundary-inside", "interior",
                                        "tip-radius", "underflow", "far"])
    def test_matches_scalar(self, regime, lam):
        x, z = _half_regime_points(lam, regime, seed=len(regime) + int(lam))
        got = halfplane_slit_many(lam, x, z)
        want = np.array([halfplane_slit(lam, a, q) for a, q in zip(x.tolist(), z.tolist())])
        assert got.shape == z.shape
        if regime.startswith("boundary"):
            # the real-axis split is the scalar arithmetic, operation for operation
            assert np.all(got == want)
            assert np.all(got.imag > 0.0) == (regime == "boundary-inside")
            assert np.any(got.imag > 0.0) == (regime == "boundary-inside")
        else:
            assert np.all(np.abs(got - want) <= 16.0 * _EPS * (np.abs(x) + np.abs(want)))
        if regime == "tip-radius":
            inside = np.abs(z) <= _TIP_RADIUS * max(1.0, lam * lam)
            assert 0 < np.count_nonzero(inside) < _MANY
            assert np.all(got[inside] == complex(0.0, math.sqrt(lam * lam)))
        if regime == "underflow":
            assert all((1.0 - lam * lam / (q * q)).imag == 0.0 for q in z.tolist())
            # the root keeps Re z's side of the cut: next to the tip, not below it
            assert np.all(np.abs(got - 1j * lam) <= 4.0 * _EPS * lam)
        if regime == "far":  # finite, and the identity up to rounding
            assert np.all(np.abs(want - z) <= 4.0 * _EPS * np.abs(z))
            assert np.all(got[:16] == want[:16])

    def test_empty_and_scalar_x(self):
        assert halfplane_slit_many(1.0, 0.3, np.empty(0, dtype=complex)).shape == (0,)
        z = np.array([0.3 + 0j, 2.0 + 1e-3j, -4.0 + 0j])
        got = halfplane_slit_many(1.0, 0.3, z)
        assert got.tolist() == [halfplane_slit(1.0, 0.3, q) for q in z.tolist()]


@st.composite
def _kernel_inputs(draw):
    """(N, lam, x, z): arbitrary slit maps and points of the closed upper half-plane.

    Each point has its own abscissa; a third of the points lie on the boundary.
    """
    n = draw(st.floats(0.5, 100.0))
    lam = draw(st.floats(0.01, 5.0))
    half = math.pi * n
    k = draw(st.integers(1, 12))
    xs = draw(st.lists(st.floats(-half, half), min_size=k, max_size=k))
    res = draw(st.lists(st.floats(-3.0 * half, 3.0 * half), min_size=k, max_size=k))
    ims = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 40.0 * n)), min_size=k, max_size=k))
    return n, lam, np.array(xs), np.array(res) + 1j * np.array(ims)


def _off_corners(u: np.ndarray, base: float) -> np.ndarray:
    """Points farther than base/10 from the slit-base corners +-base (offsets u = z - x).

    The corners are square-root singular: next to them rounding the input
    alone exceeds the budget, so the budget tests keep this distance.
    """
    return np.minimum(np.abs(u - base), np.abs(u + base)) > 0.1 * base


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_inputs())
def test_many_kernels_within_budget_of_scalar(case):
    # both batched kernels with an array x, against their scalar maps, within
    # the oracle budget 16 eps (N + |S|) (|x| <= pi N bounds the half-plane's
    # cancellation in x + sqrt(.))
    n, lam, x, z = case
    p = CylinderParams(n, lam)
    pairs = list(zip(x.tolist(), z.tolist()))
    u = _reduce_many(z.real - x, p.period) + 1j * z.imag
    for got, want, kept in (
        (cyl_slit_many(p, x, z), [cyl_slit(p, a, q) for a, q in pairs], _off_corners(u, _base(p))),
        (halfplane_slit_many(lam, x, z), [halfplane_slit(lam, a, q) for a, q in pairs],
         _off_corners(z - x, lam)),
    ):
        want = np.array(want)
        assert np.all((np.abs(got - want) <= _BUDGET_C * _EPS * (n + np.abs(want)))[kept])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_inputs())
def test_kernels_lift_every_point(case):
    # Im S_x(z) >= Im z on the closed half-plane, with no allowance for rounding.
    # Below 2N times the least normal double the chart's Im(z)/2N is subnormal,
    # so the input itself is rounded there: those points keep Im S >= 0
    n, lam, x, z = case
    p = CylinderParams(n, lam)
    held = (z.imag == 0.0) | (z.imag >= 2.0 * n * sys.float_info.min)
    for got in (cyl_slit_many(p, x, z),
                np.array([cyl_slit(p, a, q) for a, q in zip(x.tolist(), z.tolist())])):
        assert np.all(got.imag[held] >= z.imag[held])
        assert np.all(got.imag >= 0.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_inputs(), st.integers(-2**30, 2**30))
def test_shift_equivariance(case, k):
    # S_{x+a}(z+a) = S_x(z) + a.  On the grid 2^-20, |.| < 2^11, the shifts and
    # z - x are exact, so both sides evaluate the same S_0 and differ only by
    # the rounding of the final sums
    n, lam, x, z = case
    p = CylinderParams(n, lam)
    grid = 2.0**-20
    x, re, a = np.round(x / grid) * grid, np.round(z.real / grid) * grid, k * grid
    z = re + 1j * z.imag
    for got, want in ((cyl_slit_many(p, x + a, z + a), cyl_slit_many(p, x, z) + a),
                      (np.array([cyl_slit(p, b + a, q + a) for b, q in zip(x.tolist(), z.tolist())]),
                       np.array([cyl_slit(p, b, q) for b, q in zip(x.tolist(), z.tolist())]) + a)):
        assert np.all(np.abs(got - want) <= 4.0 * _EPS * (np.abs(x) + abs(a) + np.abs(z) + np.abs(want)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kernel_inputs())
def test_boundary_to_boundary_or_slit(case):
    # a boundary point maps onto the boundary (Im S = 0 exactly) or onto the
    # slit over x (Re S = x mod 2 pi N up to the rounding of Re z - x and the
    # final sum, 0 < Im S <= lam up to the rounding of S_0)
    n, lam, x, z = case
    p = CylinderParams(n, lam)
    z = z.real + 0j
    for got in (cyl_slit_many(p, x, z),
                np.array([cyl_slit(p, a, q) for a, q in zip(x.tolist(), z.tolist())])):
        on_slit = got.imag > 0.0
        assert np.all((got.imag == 0.0) | on_slit)
        off_x = np.abs(_reduce_many(got.real - x, p.period))
        assert np.all((off_x <= 4.0 * _EPS * (np.abs(x) + np.abs(z)))[on_slit])
        assert np.all(got.imag[on_slit] <= lam * (1.0 + 8.0 * _EPS))


def _on_corner(p: CylinderParams, corner: float) -> list[float]:
    """Re z within 64 ulps of the slit-base corner whose chart has r == 0 at Im z = 5e-324."""
    u = np.array([corner])
    for _ in range(64):
        u = np.concatenate(([np.nextafter(u[0], -np.inf)], u, [np.nextafter(u[-1], np.inf)]))
    w = u + 5e-324j
    w.real = _reduce_many(w.real, p.period)
    return u[_tan_chart_many(p, w)[2] == 0].tolist()


class TestCylSlitDeriv:
    def test_far_field_near_one(self):
        p = CylinderParams(5.0, 1.0)
        assert abs(cyl_slit_deriv(p, 0.0, 10j) - 1.0) <= 1e-2

    def test_against_central_differences(self):
        p = CylinderParams(5.0, 1.0)
        h = 1e-6
        for z in (0.5 + 0.5j, -2 + 0.3j, 3 + 2j, 0.05 + 0.02j):
            fd = (cyl_slit(p, 0.0, z + h) - cyl_slit(p, 0.0, z - h)) / (2 * h)
            an = cyl_slit_deriv(p, 0.0, z)
            assert abs(an - fd) / abs(an) <= 1e-5

    def test_shift_conjugation(self):
        p = CylinderParams(3.0, 0.7)
        assert cyl_slit_deriv(p, 1.9, 1.9 + 0.4 + 0.6j) == pytest.approx(
            cyl_slit_deriv(p, 0.0, 0.4 + 0.6j)
        )

    def test_quadratic_approach_to_halfplane_derivative(self):
        # at fixed z the derivative tends to z/sqrt(z^2 - lam^2) (here 0.995...)
        # with an O(1/N^2) error: each doubling of N divides the gap by ~4
        z = 10j
        limit = z / cmath.sqrt(z * z - 1.0)
        gaps = [abs(cyl_slit_deriv(CylinderParams(n, 1.0), 0.0, z) - limit) for n in (10, 20, 40)]
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.15)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.15)
        assert abs(limit - 1.0) <= 1e-2  # the far-field limit itself is ~1

    def test_boundary_and_tip_rejected(self):
        p = CylinderParams(2.0, 1.0)
        with pytest.raises(ValueError):
            cyl_slit_deriv(p, 0.0, 0j)
        with pytest.raises(ValueError):
            cyl_slit_deriv(p, 0.0, complex(1.0, 0.0))
        with pytest.raises(ValueError):
            cyl_slit_deriv(p, 0.0, complex(1.0, -0.5))


    def test_values_pinned(self):
        # S' is shared with S'' through one chart; its values must not move
        cases = {
            (1.0, 1.0, 0.0, 0.3 + 0.2j): 0.2437208962208038 - 0.31628507035966075j,
            (8.0, 0.5, 1.25, -7.5 + 3j): 1.0013256467054672 + 0.0008921020813126632j,
            (32.0, 2.0, -40.0, 100 + 0.01j): 1.000734022354072 + 1.627981491856736e-07j,
            (5.0, 1.0, 0.0, 10j): 0.9964229756285948 + 0j,
        }
        for (n, lam, x, z), want in cases.items():
            assert cyl_slit_deriv(CylinderParams(n, lam), x, z) == want


class TestCylSlitDeriv2:
    def test_against_differences_of_the_derivative(self):
        # five-point differences of S', step 1% of min(Im z, N); the bound is
        # 1e-6 relative plus the stencil's rounding error, about eps |S'| / h
        # with |S'| ~ 1, which dominates high up where S'' ~ exp(-Im z / N)
        rng = SplitMix64(31337)
        for n in (1.0, 8.0, 32.0):
            p = CylinderParams(n, 1.0)
            pts = [complex(p.half_period * (2.0 * rng.next_float() - 1.0),
                           n * 10.0 ** (-2.0 + 3.3 * rng.next_float()))  # 0.01 N .. 20 N
                   for _ in range(40)]
            pts += [cmath.rect(0.02 * n, math.pi * k / 8) for k in range(1, 8)]  # near the tip
            for z in pts:
                h = 0.01 * min(z.imag, n)
                f = [cyl_slit_deriv(p, 0.0, z + k * h) for k in (-2, -1, 1, 2)]
                fd = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
                exact = cyl_slit_deriv2(p, 0.0, z)
                assert abs(fd - exact) <= 1e-6 * abs(exact) + 1e-14 / h, (n, z)

    def test_periodic_and_shift_equivariant(self):
        p = CylinderParams(3.0, 0.7)
        for x, z in ((1.9, 2.3 + 0.6j), (-4.0, 8.5 + 0.05j), (0.0, -9.0 + 3.0j)):
            want = cyl_slit_deriv2(p, x, z)
            assert cyl_slit_deriv2(p, 0.0, z - x) == want
            assert cyl_slit_deriv2(p, x, z + p.period) == pytest.approx(want, rel=1e-12)
            assert cyl_slit_deriv2(p, x, z - 2.0 * p.period) == pytest.approx(want, rel=1e-12)

    def test_boundary_and_slit_base_rejected(self):
        p = CylinderParams(2.0, 1.0)
        corner = 2.0 * p.radius_n * math.asin(p.delta)
        for z in (0j, complex(corner, 0.0), complex(1.0, -0.5)):
            with pytest.raises(ValueError, match="Im z > 0"):
                cyl_slit_deriv2(p, 0.0, z)
        # Im z = 5e-324 halves to 0 in the chart, and some Re z within a few ulps
        # of the corner round onto it there
        on_corner = _on_corner(p, corner)
        assert on_corner
        for u in on_corner:
            with pytest.raises(ValueError, match="slit base"):
                cyl_slit_deriv2(p, 0.0, complex(u, 5e-324))


class TestDerivArrays:
    """The derivatives take arrays: each element is its own scalar call, bit for bit."""

    @pytest.mark.parametrize("deriv", [cyl_slit_deriv, cyl_slit_deriv2])
    @pytest.mark.parametrize("size", [1, 2, 3, 8, 15, 60, 257])
    def test_elementwise_bits(self, deriv, size):
        rng = np.random.default_rng(size)
        for n in (0.5, 4.0, 32.0):
            p = CylinderParams(n, 1.0)
            z = (p.half_period * rng.uniform(-1.5, 1.5, size)
                 + 1j * n * 10.0 ** rng.uniform(-3.0, 1.6, size))
            xs = p.half_period * rng.uniform(-1.0, 1.0, size)
            for x in (0.7, xs):
                got = deriv(p, x, z)
                one = [deriv(p, a, q) for a, q in zip(np.broadcast_to(x, z.shape).tolist(),
                                                       z.tolist())]
                assert got.shape == z.shape
                assert got.tobytes() == np.array(one).tobytes(), (n, size)
            # one z over many x, as a quadrature calls it
            got = deriv(p, xs, complex(z[0]))
            assert got.tobytes() == np.array([deriv(p, a, complex(z[0]))
                                              for a in xs.tolist()]).tobytes()

    @pytest.mark.parametrize("deriv", [cyl_slit_deriv, cyl_slit_deriv2])
    def test_any_bad_point_raises(self, deriv):
        p = CylinderParams(2.0, 1.0)
        good = np.array([0.5 + 1j, -3.0 + 0.2j, 1.0 + 5.0j])
        corner = 2.0 * p.radius_n * math.asin(p.delta)
        for bad, match in ((0.3 + 0j, "Im z > 0"), (1.0 - 0.5j, "Im z > 0"),
                           (complex(0.0, math.nan), "Im z > 0"),
                           (complex(_on_corner(p, corner)[0], 5e-324), "slit base")):
            for k in range(len(good) + 1):
                with pytest.raises(ValueError, match=match):
                    deriv(p, 0.0, np.insert(good, k, bad))
        assert np.all(np.isfinite(deriv(p, 0.0, good)))


def _tip_points(seed: int, interior: bool) -> tuple[list[float], list[complex]]:
    """(x, z) pairs with |z - x| from 1e-320 to 1e-140, so z - x is exact.

    Boundary points are x = 0, z = +-r.  Interior points are x = 0,
    z = +-r + i r' (Re offset of either sign), and a seeded x with z = x + i r
    (Re(z - x) exactly 0).
    """
    rng = np.random.default_rng(seed)

    def radii(k):
        return (10.0 ** rng.uniform(-320.0, -140.0, k)).tolist()

    signs = rng.choice([-1.0, 1.0], 40).tolist()
    if not interior:
        return [0.0] * 40, [complex(s * r, 0.0) for s, r in zip(signs, radii(40))]
    xs = [0.0] * 40 + rng.uniform(-5.0, 5.0, 20).tolist()
    zs = [complex(s * r, q) for s, r, q in zip(signs, radii(40), radii(40))]
    zs += [complex(x, r) for x, r in zip(xs[40:], radii(20))]
    return xs, zs


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [1e-6, 1.0, 5.0])
class TestTipPreimage:
    """Within 1e-140 of the tip preimage every map returns its tip, to rounding.

    z^2 and tan(.)^2 underflow there; the dropped terms are O(|z - x|^2),
    below 1e-280 relative.  The tips are i*lam for the slit maps and i*delta
    for phi^delta; the derivatives tend to their first-order limits
    S' ~ -i (z - x) / (2N delta) and S'' ~ -i / (2N delta).
    """

    N = 2.0

    def test_cyl_slit(self, lam):
        p = CylinderParams(self.N, lam)
        for interior in (False, True):
            for x, z in zip(*_tip_points(41, interior)):
                got = cyl_slit(p, x, z)
                assert abs(got - complex(x, lam)) <= 8.0 * _EPS * lam, (x, z, got)

    def test_cyl_slit_many(self, lam):
        p = CylinderParams(self.N, lam)
        for interior in (False, True):
            xs, zs = _tip_points(42, interior)
            for x in sorted(set(xs)):
                z = np.array([q for xq, q in zip(xs, zs) if xq == x])
                got = cyl_slit_many(p, x, z)
                assert np.all(np.abs(got - complex(x, lam)) <= 8.0 * _EPS * lam), (x, z, got)

    def test_halfplane_slit(self, lam):
        for interior in (False, True):
            for x, z in zip(*_tip_points(43, interior)):
                got = halfplane_slit(lam, x, z)
                assert abs(got - complex(x, lam)) <= 4.0 * _EPS * lam, (x, z, got)

    def test_cyl_phi_delta(self, lam):
        d = CylinderParams(self.N, lam).delta
        for interior in (False, True):
            for x, z in zip(*_tip_points(44, interior)):
                got = _phi_delta(d, z - x)
                assert abs(got - 1j * d) <= 4.0 * _EPS * d, (x, z, got)

    def test_cyl_slit_deriv(self, lam):
        p = CylinderParams(self.N, lam)
        tiny = 2.0**-1074  # t = (z - x)/2N rounds to this grid when subnormal
        for x, z in zip(*_tip_points(45, interior=True)):
            got = cyl_slit_deriv(p, x, z)
            want = -1j * (z - x) / (2.0 * self.N * p.delta)
            assert abs(got - want) <= 8.0 * _EPS * abs(want) + 4.0 * tiny / p.delta, (x, z, got)

    def test_cyl_slit_deriv2(self, lam):
        p = CylinderParams(self.N, lam)
        want = -1j / (2.0 * self.N * p.delta)
        for x, z in zip(*_tip_points(46, interior=True)):
            got = cyl_slit_deriv2(p, x, z)
            assert abs(got - want) <= 8.0 * _EPS * abs(want), (x, z, got)

    def test_near_real_interior_keeps_branch(self, lam):
        # Im(z^2) underflows to 0 here, and the root must stay on Re z's side
        p = CylinderParams(self.N, lam)
        d = p.delta
        for re in (1e-100, 1e-30, -1e-100, -1e-30):
            z = complex(re * lam, 1e-300)
            assert abs(halfplane_slit(lam, 0.0, z) - 1j * lam) <= 4.0 * _EPS * lam, z
            assert abs(_phi_delta(d, z) - 1j * d) <= 4.0 * _EPS * d, z
            want = -1j * z / (2.0 * self.N * d)
            assert abs(cyl_slit_deriv(p, 0.0, z) - want) <= 8.0 * _EPS * abs(want), z
            want = -1j / (2.0 * self.N * d)
            assert abs(cyl_slit_deriv2(p, 0.0, z) - want) <= 8.0 * _EPS * abs(want), z


class TestReduceToFundamental:
    def test_examples(self):
        period = CylinderParams(1.0, 1.0).period
        # 3 pi mod 2 pi with range [-pi, pi): wraps to -pi
        assert _reduce(3 * math.pi, period) == pytest.approx(-math.pi)
        assert _reduce(0.0, CylinderParams(2.0, 1.0).period) == 0.0
        # left endpoint belongs to the interval
        assert _reduce(-math.pi, period) == pytest.approx(-math.pi)

    def test_range_and_congruence(self):
        p = CylinderParams(3.0, 1.0)
        rng = SplitMix64(18)
        for _ in range(300):
            x = 1e4 * (2 * rng.next_float() - 1)
            r = _reduce(x, p.period)
            assert -p.half_period <= r < p.half_period
            k = (x - r) / p.period
            assert abs(k - round(k)) <= 1e-6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1.0, 10.0, 32.0])
    def test_batched_reduction_bit_equal(self, n):
        # fmod plus one fold is exact, so it picks _reduce's representative,
        # including +pi*N -> -pi*N
        period = CylinderParams(n, 1.0).period
        rng = np.random.default_rng(19)
        u = np.concatenate([
            rng.uniform(-1e3, 1e3, _MANY) * period,
            rng.uniform(-1e12, 1e12, _MANY),
            rng.integers(-10**6, 10**6, _MANY) * period,
            (rng.integers(-10**6, 10**6, _MANY) + 0.5) * period,
            [0.0, -0.0, 0.5 * period, -0.5 * period, period, -period, 1e-300, -1e-300],
        ])
        got = _reduce_many(u, period)
        assert got.tolist() == [_reduce(v, period) for v in u]
        assert np.all((-0.5 * period <= got) & (got < 0.5 * period))


# Every regime switch of the kernels, with the kernels that reach it.
_SWITCHES = ("tan_disk", "far_field", "disk_tail", "tip_zone", "tip_radius_boundary",
             "base_corner", "tip_radius_sqrt", "underflow")
_SIDES = (1.0 - 1e-9, 1.0 + 1e-9)  # relative offsets below and above a switch
_SWITCH_POINTS = 16  # seeded points per switch, side, radius and kernel


def _switch_cases(switch: str, n: float, side: float) -> list:
    """[(kernel, first, x, points)] at relative offset ``side`` of one switch.

    ``first`` is the kernel's first argument: the params, or ``lam = N`` for
    ``halfplane_slit``, which is ``lam * halfplane_slit(1, ./lam)`` and so
    scales with the same budget.  The points are z, or zeta for the disk
    kernels (``_disk_slit_origin`` and ``_disk_slit_many``).  Each case
    asserts, with the kernel's own float test, that its points fall on the
    side of the switch they are meant for.
    """
    p = CylinderParams(n, 1.0)
    rng = np.random.default_rng([_SWITCHES.index(switch), int(n), int(side > 1.0)])
    below, m = side < 1.0, _SWITCH_POINTS
    half, d = p.half_period, p.delta
    x = rng.uniform(-half, half)
    if switch == "tan_disk":
        # the tan chart below Im z = N, the disk form from there
        z = (x + rng.uniform(-half, half, m)) + 1j * (n * side)
        assert np.all((z.imag < n) == below)
        return [("cyl", p, x, z), ("many", p, x, z)]
    if switch == "far_field":
        z = (x + rng.uniform(-half, half, m)) + 1j * (_FAR_FIELD_RATIO * n * side)
        assert np.all((z.imag >= _FAR_FIELD_RATIO * n) != below)
        zeta = np.exp(-1j * (z - x) / n)
        return [("cyl", p, x, z), ("many", p, x, z), ("disk", p, None, zeta),
                ("disk-many", p, None, zeta)]
    if switch == "disk_tail":
        # only the scalar disk kernel has a tail: the others stay below |zeta| = e^30
        zeta = 1e130 * side * np.exp(1j * rng.uniform(-math.pi, math.pi, m))
        assert np.all((np.abs(zeta) >= 1e130) != below)
        return [("disk", p, None, zeta)]
    if switch == "tip_zone":
        # |zeta - 1| = delta/2 picks the disk kernels' root form; Re(zeta - 1) > 0
        # keeps |zeta| > 1.  The slit kernels evaluate these points (Im z < N) in
        # the tan chart, so here they check it next to the tip.
        zeta = 1.0 + 0.5 * d * side * np.exp(1j * rng.uniform(-1.5, 1.5, m))
        z = x + 1j * n * np.log(zeta)
        assert np.all((np.abs(zeta - 1.0) >= 0.5 * d) != below)
        assert np.all((0.0 < z.imag) & (z.imag < n))
        return [("disk", p, None, zeta), ("disk-many", p, None, zeta), ("cyl", p, x, z),
                ("many", p, x, z)]
    if switch == "base_corner":
        # real points on both sides of the slit-base corners u = +-2N asin(delta),
        # inside the base onto the slit, outside it along the axis.  The corner is
        # square-root singular, where rounding the input to tan(u/2N) costs
        # eps/2(1 - side) relative in S: the sides are 1 -+ 1e-3 of the corner
        side = 1.0 + (side - 1.0) * 1e6
        z = _base(p) * side * rng.choice([-1.0, 1.0], m) + 0j
        assert all((abs(cyl_slit(p, 0.0, q).imag) > 0.0) == below for q in z.tolist())
        return [("cyl", p, 0.0, z), ("many", p, 0.0, z)]
    if switch == "tip_radius_boundary":
        # |tan(u/2N)| <= 1e-150 returns the tip; u = Re z - x is exact only at x = 0
        z = 2.0 * n * _TIP_RADIUS * side * np.array([1.0, -1.0]) + 0j
        assert all((abs(math.tan(0.5 * q.real / n)) <= _TIP_RADIUS) == below for q in z)
        return [("cyl", p, 0.0, z), ("many", p, 0.0, z)]
    lam = n
    b = lam * lam
    if switch == "tip_radius_sqrt":
        r = _TIP_RADIUS * max(1.0, b) * side
        a = rng.uniform(0.0, math.pi, m)
        z = np.concatenate([[r, -r], r * np.exp(1j * a[2:])])
        assert np.all((np.abs(z) <= _TIP_RADIUS * max(1.0, b)) == below)
        return [("half", lam, 0.0, z), ("half-many", lam, 0.0, z)]
    assert switch == "underflow"
    # Im z^2 = 2 Re z Im z rounds to 0 below |Re z Im z| = 2^-1075, and the
    # radicand 1 - lam^2/z^2 of _slit_sqrt comes out real: Re z picks the side
    re = lam * rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-140.0, -20.0, m)
    z = re + 1j * (2.0**-1074 / np.abs(re) * (0.5 * side))  # 2^-1075 / |Re z|
    assert all(((1.0 - b / (q * q)).imag == 0.0) == below for q in z.tolist())
    return [("half", lam, 0.0, z), ("half-many", lam, 0.0, z)]


def _kernel_and_oracle(kernel: str, first, x, pts: np.ndarray, scale: int = 1) -> tuple:
    """A kernel's values at ``pts`` and the oracle's, as two lists."""
    zs = pts.tolist()
    if kernel.startswith("half"):
        got = halfplane_slit_many(first, x, pts).tolist() if kernel == "half-many" else [
            halfplane_slit(first, x, q) for q in zs]
        return got, [oracle_halfplane_slit(first, x, q, scale) for q in zs]
    if kernel.startswith("disk"):
        got = _disk_slit_many(first, pts).tolist() if kernel == "disk-many" else [
            _disk_slit_origin(first, q) for q in zs]
        return [_disk_to_cylinder(first, v) for v in got], [oracle_disk_slit(first, q, scale)
                                                           for q in zs]
    got = cyl_slit_many(first, x, pts).tolist() if kernel == "many" else [
        cyl_slit(first, x, q) for q in zs]
    return got, [oracle_cyl_slit(first, x, q, scale) for q in zs]


class TestOracleSwitches:
    """Every kernel against the mpmath chain on both sides of every regime switch."""

    @pytest.mark.parametrize("n", [1.0, 16.0, 64.0])
    @pytest.mark.parametrize("switch", _SWITCHES)
    def test_within_budget(self, switch, n):
        for side in _SIDES:
            for kernel, first, x, pts in _switch_cases(switch, n, side):
                got, want = _kernel_and_oracle(kernel, first, x, pts)
                for q, a, b in zip(pts.tolist(), got, want):
                    assert _excess(n, not kernel.startswith("half"), a, b) <= 1.0, (kernel, side, q)

    @pytest.mark.parametrize("n", [1.0, 16.0, 64.0])
    @pytest.mark.parametrize("height", [1e-15, 1.0])
    def test_continuous_across(self, height, n):
        # across the switch at Im z = N and the height 1e-15 N where the
        # boundary path once began, x = 0 so S = S_0: the two sides 1 -+ 1e-9 of
        # the height differ by |S'| times the step plus 4 eps (1 + |S|)
        p = CylinderParams(n, 1.0)
        rng = np.random.default_rng([int(n), int(height >= 1.0)])
        base = _base(p)  # a tenth of the base half-width off its singular corners
        u = np.concatenate([base * rng.uniform(-0.9, 0.9, _SWITCH_POINTS // 2),
                            rng.choice([-1.0, 1.0], _SWITCH_POINTS // 2)
                            * rng.uniform(1.1 * base, p.half_period, _SWITCH_POINTS // 2)])
        low, high = (u + 1j * height * n * side for side in _SIDES)
        slope = np.array([abs(cyl_slit_deriv(p, 0.0, complex(a, height * n))) for a in u.tolist()])
        for lo, hi in ((cyl_slit_many(p, 0.0, low), cyl_slit_many(p, 0.0, high)),
                       (np.array([cyl_slit(p, 0.0, q) for q in low.tolist()]),
                        np.array([cyl_slit(p, 0.0, q) for q in high.tolist()]))):
            jump = np.abs(hi - lo) - slope * np.abs(high - low)
            assert np.all(jump <= 4.0 * _EPS * (1.0 + np.abs(hi)))

    @pytest.mark.parametrize("switch", _SWITCHES)
    def test_oracle_digits_suffice(self, switch):
        # at twice its working digits the oracle moves far less than the budget
        for n in (1.0, 64.0):
            for side in _SIDES:
                for kernel, first, x, pts in _switch_cases(switch, n, side):
                    _, once = _kernel_and_oracle(kernel, first, x, pts[:4])
                    _, twice = _kernel_and_oracle(kernel, first, x, pts[:4], scale=2)
                    for a, b in zip(once, twice):
                        assert _excess(n, not kernel.startswith("half"), a, b) <= 1e-10, (kernel, side)
