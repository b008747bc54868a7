"""Tests for the adaptive Gauss-Kronrod integrator.

The node/weight transcription is validated by exactness on monomials: the
embedded 7-point Gauss rule is exact through degree 13 and the 15-point
Kronrod rule through degree 22.  In mpmath, 30-digit constants must meet
these moment equations to 1e-28, and the doubles must be those constants
rounded; in double precision, a typo shows up as a gross error on
low-degree polynomials.
"""

from __future__ import annotations

import cmath
import math

import pytest
from mpmath import mp, mpf

from chl.quadrature import _WG, _WGK, _XGK, adaptive_quadrature

# The G7/K15 constants to 30 significant digits, solved from the moment
# equations below; the positive nodes, then 0.
_XGK_30 = (
    "0.991455371120812639206854697526", "0.949107912342758524526189684048",
    "0.864864423359769072789712788641", "0.741531185599394439863864773281",
    "0.586087235467691130294144838259", "0.405845151377397166906606412077",
    "0.207784955007898467600689403773", "0",
)
_WGK_30 = (
    "0.0229353220105292249637320080590", "0.0630920926299785532907006631892",
    "0.104790010322250183839876322542", "0.140653259715525918745189590510",
    "0.169004726639267902826583426599", "0.190350578064785409913256402421",
    "0.204432940075298892414161999235", "0.209482141084727828012999174892",
)
_WG_30 = (
    "0.129484966168869693270611432679", "0.279705391489276667901467771424",
    "0.381830050505118944950369775489", "0.417959183673469387755102040816",
)


class TestKronrodConstants:
    def test_doubles_are_the_rounded_constants(self):
        for doubles, digits in ((_XGK, _XGK_30), (_WGK, _WGK_30), (_WG, _WG_30)):
            assert doubles == tuple(float(v) for v in digits)

    def test_thirty_digit_rules_are_exact(self):
        # G7 integrates x^k over [-1, 1] exactly for k <= 13 and K15 for
        # k <= 22, to the 30 digits given; both degrees are sharp
        with mp.workdps(40):
            x = [mpf(v) for v in _XGK_30]
            wk = [mpf(v) for v in _WGK_30]
            wg = [mpf(v) for v in _WG_30]
            for k in range(0, 25, 2):  # odd moments vanish by symmetry
                exact = mpf(2) / (k + 1)
                kron = 2 * sum(wk[i] * x[i] ** k for i in range(7)) + (wk[7] if k == 0 else 0)
                gauss = 2 * sum(wg[j] * x[2 * j + 1] ** k for j in range(3)) + (wg[3] if k == 0 else 0)
                assert (abs(kron - exact) <= 1e-28) == (k <= 22), k
                assert (abs(gauss - exact) <= 1e-28) == (k <= 13), k


class TestRuleExactness:
    @pytest.mark.parametrize("degree", range(0, 14))
    def test_monomials_single_panel(self, degree):
        res = adaptive_quadrature(lambda x: complex(x**degree), 0.0, 1.0, tol=1e-13)
        assert res.value.real == pytest.approx(1.0 / (degree + 1), abs=5e-15)
        assert abs(res.value.imag) <= 1e-15

    def test_degree_12_needs_no_subdivision(self):
        # both embedded rules are exact, so the panel error estimate is ~eps
        res = adaptive_quadrature(lambda x: complex(x**12), -1.0, 1.0, tol=1e-12)
        assert res.subdivisions == 1
        assert res.value.real == pytest.approx(2.0 / 13.0, rel=1e-14)

    def test_degree_22_value(self):
        # Kronrod is exact through degree 22; the Gauss/Kronrod gap only
        # drives refinement, the converged value is the exact integral
        res = adaptive_quadrature(lambda x: complex(x**22), -1.0, 1.0, tol=1e-12)
        assert res.converged
        assert res.value.real == pytest.approx(2.0 / 23.0, rel=1e-13)


class TestAdaptivity:
    def test_integrable_sqrt_kink(self):
        res = adaptive_quadrature(lambda x: complex(math.sqrt(abs(x))), -1.0, 2.0, tol=1e-10)
        want = (2.0 / 3.0) * (1.0 + 2.0 * math.sqrt(2.0))
        assert res.converged
        assert res.value.real == pytest.approx(want, abs=1e-9)

    def test_presplit_near_sharp_feature(self):
        # Lorentzian spike of width 1e-3 at x = 0.3; analytic antiderivative
        a, c = 1e-3, 0.3
        f = lambda x: complex(1.0 / (a * a + (x - c) ** 2))
        want = (math.atan((1.0 - c) / a) - math.atan(-c / a)) / a
        plain = adaptive_quadrature(f, 0.0, 1.0, tol=1e-9)
        seeded = adaptive_quadrature(f, 0.0, 1.0, tol=1e-9, presplit=[c - a, c, c + a])
        assert seeded.converged and plain.converged
        assert seeded.value.real == pytest.approx(want, abs=1e-8)
        assert plain.value.real == pytest.approx(want, abs=1e-8)

    def test_complex_oscillatory(self):
        # int_0^pi e^{i k x} dx = (e^{i k pi} - 1) / (i k)
        k = 7.0
        res = adaptive_quadrature(lambda x: cmath.exp(1j * k * x), 0.0, math.pi, tol=1e-12)
        want = (cmath.exp(1j * k * math.pi) - 1.0) / (1j * k)
        assert res.converged
        assert abs(res.value - want) <= 1e-11

    def test_error_estimate_bounds_true_error(self):
        res = adaptive_quadrature(lambda x: complex(math.exp(-x * x)), 0.0, 5.0, tol=1e-12)
        want = 0.5 * math.sqrt(math.pi) * math.erf(5.0)
        assert abs(res.value.real - want) <= max(10 * res.abs_error_estimate, 1e-13)

    def test_kink_hiding_in_edge_gap(self):
        # sqrt kink at c, with a panel edge seeded just beside it: the kink
        # then sits in the node-free gap next to the edge, where |K15 - G7|
        # alone is blind; the two-level panel estimate must still catch it
        c = -0.7474
        f = lambda x: complex(math.sqrt(abs(x - c)))
        want = (2.0 / 3.0) * ((c + 12.0) ** 1.5 + (12.0 - c) ** 1.5)
        for seed_offset in (0.0026, -0.0026, 0.01):
            res = adaptive_quadrature(f, -12.0, 12.0, tol=1e-10,
                                      presplit=[c - seed_offset])
            assert res.converged
            assert abs(res.value.real - want) <= 1e-8, seed_offset


class TestNonConvergence:
    def test_unreachable_tolerance_is_reported(self):
        res = adaptive_quadrature(
            lambda x: complex(math.sqrt(abs(x - 0.5))), 0.0, 1.0, tol=1e-30, max_panels=64
        )
        assert not res.converged
        assert res.subdivisions == 64
        # the value is still usable
        want = (2.0 / 3.0) * 2.0 * 0.5**1.5
        assert res.value.real == pytest.approx(want, abs=1e-6)

    def test_rounding_noise_stops_before_the_cap(self):
        # past a few panels only rounding noise is left; it does not halve from
        # 256 to 512 panels, so the run stops there instead of at 10 000
        res = adaptive_quadrature(lambda x: complex(math.exp(x)), 0.0, 1.0, tol=1e-30)
        assert not res.converged
        assert res.subdivisions == 512
        assert res.value.real == pytest.approx(math.e - 1.0, abs=1e-14)

    def test_unresolved_oscillation_is_not_noise(self):
        # 5000 periods: the estimate stays flat until the panels resolve them,
        # but it is far above rounding noise, so the stall rule must not fire
        k = 10_000.0
        res = adaptive_quadrature(lambda x: cmath.exp(1j * k * x), 0.0, math.pi, tol=1e-6)
        assert res.converged and res.subdivisions > 1024
        assert abs(res.value - (cmath.exp(1j * k * math.pi) - 1.0) / (1j * k)) <= 1e-6

    def test_invalid_interval_and_tol(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda x: 0j, 1.0, 0.0)
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda x: 0j, 0.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):  # no estimate is <= nan: it could never converge
            adaptive_quadrature(lambda x: 0j, 0.0, 1.0, tol=math.nan)
        with pytest.raises(ValueError):  # every estimate is <= inf: it would always converge
            adaptive_quadrature(lambda x: 0j, 0.0, 1.0, tol=math.inf)


_SQRT = lambda x: complex(math.sqrt(abs(x + 0.3)))
_LORENTZ = lambda x: complex(1.0 / (1e-6 + (x - 0.3) ** 2))


class TestPanelReuse:
    """A bisected panel's halves are its children's whole panels: no K15 panel twice."""

    @pytest.mark.parametrize("f, a, b, tol, presplit", [
        (_SQRT, -1.0, 2.0, 1e-10, [0.5]),
        (_LORENTZ, 0.0, 1.0, 1e-9, [0.299, 0.3, 0.301]),
    ], ids=["sqrt", "lorentzian"])
    def test_integrand_evaluations_per_panel(self, f, a, b, tol, presplit):
        # each of the k initial panels costs three K15 panels (the whole and its
        # halves); a bisection evaluates only the halves of its two children, not
        # their whole panels again (that would be 6 per bisection: 1980, not 1350,
        # evaluations for sqrt)
        calls = []

        def g(x):
            calls.append(x)
            return f(x)

        res = adaptive_quadrature(g, a, b, tol=tol, presplit=presplit)
        k = len(presplit) + 1
        assert res.converged and res.subdivisions > k
        assert len(calls) == 15 * (3 * k + 4 * (res.subdivisions - k))

    @pytest.mark.parametrize("f, a, b, tol, presplit, value, error, panels", [
        (_SQRT, -1.0, 2.0, 1e-10, [0.5],
         "0x1.5ba12f693359dp+1", "0x1.4716b5b825e20p-34", 23),
        (_LORENTZ, 0.0, 1.0, 1e-9, [0.299, 0.3, 0.301],
         "0x1.881a959a7e9b5p+11", "0x1.ce9f91ba5e358p-33", 21),
    ], ids=["sqrt", "lorentzian"])
    def test_bit_pins(self, f, a, b, tol, presplit, value, error, panels):
        # reusing the halves must change no bit of any result.  Only arithmetic and
        # math.sqrt, correctly rounded on every IEEE platform, enter the integrands.
        res = adaptive_quadrature(f, a, b, tol=tol, presplit=presplit)
        assert res.value == complex(float.fromhex(value), 0.0)
        assert res.abs_error_estimate == float.fromhex(error)
        assert res.subdivisions == panels and res.converged
