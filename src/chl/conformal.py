"""Conformal slit maps on the upper half-plane and on a finite cylinder.

The cylinder of radius ``N`` is the upper half-plane with ``Re z`` identified
modulo ``2*pi*N``; its fundamental domain here is ``[-pi*N, pi*N) x (0, inf)``.
The building blocks are

    f(z)     = exp(-i z / N)          cylinder -> exterior of unit disk
    f_inv(w) = i N Log(w)             principal log, Re in [-pi*N, pi*N)
    g(w)     = i (w - 1) / (w + 1)    disk exterior -> half-plane
    g_inv(z) = (i + z) / (i - z)
    phi^lam(z)   = sqrt(z^2 - lam^2)              half-plane slit of length lam
    phi^delta(z) = sqrt(z^2 (1-d^2) - d^2)        slit variant fixing i

and the cylinder slit map attaching a vertical slit of length ``lam`` over
the boundary point ``x`` is the conjugation

    S_x = f_inv o r_x^-1 o g_inv o phi^delta o g o r_x o f,   r_x(w) = exp(ix/N) w,

where ``delta = tanh(lam / 2N)`` is the unique slit parameter making the
attached slit have cylinder length exactly ``lam``.  No chart is evaluated
on its own here: the kernels below use closed forms of the whole chain, and
the literal chain is their reference, evaluated in mpmath by the oracle in
``tests/test_conformal.py`` on both sides of every regime switch.

Branch conventions
------------------
Square roots are evaluated in factored form ``z * sqrt(a - b/z**2)`` with the
principal square root.  For ``Im z > 0`` the radicand avoids the negative real
axis, so this is the analytic branch mapping the half-plane into itself; on
the real boundary the two regimes (outside / inside the slit base) are split
explicitly, which keeps boundary evaluation exact instead of relying on the
sign of a rounded-to-zero imaginary part.

The composed cylinder map has three regimes, by height ``y = Im z``.  Below
``y = N`` it is evaluated in the tan chart

    S_0(z) = 2 N arctan(phi^delta(tan(z / 2N))),

where ``tan(./2N)`` takes the cylinder onto the upper half-plane with the
slit's base point at 0: the boundary (where the square root's real-axis split
applies), the slit's tip and the low interior share this one formula, and
``Im S`` carries no absolute error of order ``N eps``.  For ``N <= y < 30 N``
it is the disk-coordinate closed form

    S_0(z) = i N Log( (zeta + 1 + s)^2 / (4 zeta (1 - delta^2)) ),
    zeta = exp(-i z / N),  s = sqrt((zeta - 1)^2 + 4 delta^2 zeta),

algebraically identical to the five-map chain but free of the catastrophic
cancellation of ``g_inv`` near its pole at i (the cylinder's point at
infinity).  Far above the boundary (``Im z >= 30 N``, where the intermediate
would sit within ~1e-12 of the pole) the evaluation switches to the
exact-to-double-precision tail expansion
``z - i N log(1-delta^2) + 2 i N delta^2 exp(i z / N)``.

All functions are pure; no shared mutable state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "CylinderParams",
    "halfplane_slit",
    "halfplane_slit_many",
    "cyl_slit",
    "cyl_slit_many",
    "cyl_slit_deriv",
    "cyl_slit_deriv2",
    "cylinder_dist",
]

# Above this height (in units of N) the g_inv intermediate is within ~1e-12 of
# its pole; the tail expansion is then exact to double precision.
_FAR_FIELD_RATIO = 30.0

# A slit square root returns its tip within this distance (times max(1, b)) of
# 0: outside it z^2 stays normal and b/z^2 below 1e300; inside it the dropped
# term a|z|^2/2b is below 1e-280 relative for b in [1e-20, 1e20].
_TIP_RADIUS = 1e-150

# Beyond this |z| a slit square root returns z*sqrt(a): z*z overflows from about
# 1.3e154, and the dropped b/2a|z|^2 is below 1e-280 relative for b/a up to 1e20.
_FAR_RADIUS = 1e150


@dataclass(frozen=True)
class CylinderParams:
    """Cylinder radius N, target slit length lam and derived slit parameter.

    ``delta = tanh(lam / 2N) = 1 - 2/(1 + exp(lam/N))`` is the half-plane slit
    size whose conjugated cylinder slit has length exactly ``lam`` (follow the
    base point 0 through the map chain).  Raises ``ValueError`` unless N and
    lam are positive and finite and lam/N is small enough that tanh stays
    below 1; otherwise the slit would span the cylinder.
    """

    radius_n: float
    lam: float
    delta: float = field(init=False)

    def __post_init__(self) -> None:
        n, lam = self.radius_n, self.lam
        if not (math.isfinite(n) and n > 0.0):
            raise ValueError(f"radius_n must be positive and finite, got {n}")
        if not (math.isfinite(lam) and lam > 0.0):
            raise ValueError(f"lam must be positive and finite, got {lam}")
        d = math.tanh(0.5 * lam / n)
        if d >= 1.0:
            raise ValueError(f"slit length {lam} too large for cylinder radius {n}")
        object.__setattr__(self, "delta", d)

    @property
    def period(self) -> float:
        """Circumference 2*pi*N of the cylinder."""
        return 2.0 * math.pi * self.radius_n

    @property
    def half_period(self) -> float:
        """Half circumference pi*N; the fundamental domain is [-pi*N, pi*N)."""
        return math.pi * self.radius_n


class _PerPoint(CylinderParams):
    """Arrays of N, lam and delta, an element per point, for a batched kernel: ``period``
    and ``half_period`` follow as arrays, and ``params[mask]`` keeps the points ``mask`` selects."""

    def __init__(self, radius_n: np.ndarray, lam: np.ndarray, delta: np.ndarray) -> None:
        vars(self).update(radius_n=radius_n, lam=lam, delta=delta)

    @classmethod
    def stack(cls, params: Sequence[CylinderParams], which) -> "_PerPoint":
        """``params[which[k]]`` at point k; each was validated, and is not again."""
        return cls(*np.array([(p.radius_n, p.lam, p.delta) for p in params])[which].T.copy())

    def __getitem__(self, mask) -> "_PerPoint":
        return _PerPoint(self.radius_n[mask], self.lam[mask], self.delta[mask])


def _at(v, mask):
    """A per-point parameter (array or ``_PerPoint``) at ``mask``; one for all points as it is."""
    return v[mask] if isinstance(v, (np.ndarray, _PerPoint)) else v


def _slit_sqrt(a: float, b: float, z: complex) -> complex:
    """Branch-correct z * sqrt(a - b / z^2) on the closed upper half-plane.

    a, b > 0.  Continuous on Im z > 0, fixes the sign at the two real ends,
    and sends 0 to i*sqrt(b) (the slit tip), as it does every z within
    ``_TIP_RADIUS * max(1, b)`` of 0; every z beyond ``_FAR_RADIUS`` goes to
    z*sqrt(a).  Real z inside the slit base (a z^2 < b) lands on the slit
    i*(0, sqrt(b)].
    """
    r = abs(z)
    if r <= (_TIP_RADIUS * b if b > 1.0 else _TIP_RADIUS):
        return complex(0.0, math.sqrt(b))
    if r > _FAR_RADIUS:
        return z * math.sqrt(a)
    if z.imag == 0.0:
        x = z.real
        rad = a - b / (x * x)
        if rad >= 0.0:
            return x * math.sqrt(rad) + 0j
        return 1j * math.sqrt(b - a * x * x)
    w = a - b / (z * z)
    if w.imag == 0.0:
        # Im(z^2) underflowed: the radicand's side of the cut is Re z's
        w = complex(w.real, math.copysign(0.0, z.real))
    return z * cmath.sqrt(w)


def halfplane_slit(lam: float, x: float, z: complex) -> complex:
    """Half-plane slit map x + sqrt((z-x)^2 - lam^2), branch-continuous on Im z >= 0.

    Attaches a vertical slit of length ``lam`` at the real point ``x``; the
    boundary point z = x maps to the tip x + i*lam, and the map tends to the
    identity at both real infinities.
    """
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    return x + _slit_sqrt(1.0, lam * lam, complex(z) - x)


def _slit_sqrt_many(a, b, u: np.ndarray) -> np.ndarray:
    """``_slit_sqrt(a, b, .)`` of every point of the complex array ``u``, its rules as masks;
    ``a`` and ``b`` are floats, or arrays like ``u`` with one pair per point.  Where every
    point is interior (off the tip, the far field and the real axis) there is no mask."""
    each = isinstance(b, np.ndarray)
    r = np.abs(u)
    off = r > _TIP_RADIUS * (np.maximum(1.0, b) if each else max(1.0, b))
    far = r > _FAR_RADIUS
    if off.all() and u.imag.all() and not far.any():
        return _interior_root(a, b, u)
    out = 1j * np.sqrt(b) if each else np.full(u.shape, complex(0.0, math.sqrt(b)))  # the tip
    if far.any():
        out[far] = u[far] * np.sqrt(_at(a, far))
        off &= ~far
    if (real := off & (u.imag == 0.0)).any():
        v, a_r, b_r = u.real[real], _at(a, real), _at(b, real)
        rad = a_r - b_r / (v * v)
        base = rad < 0.0
        root = np.sqrt(np.where(base, b_r - a_r * v * v, rad))
        out[real] = np.where(base, 1j * root, v * root)
        off &= ~real
    if off.any():
        out[off] = _interior_root(_at(a, off), _at(b, off), u[off])
    return out


def _interior_root(a, b, q: np.ndarray) -> np.ndarray:
    """``q * sqrt(a - b/q^2)``, principal root, at points ``q`` off the real axis."""
    w = a - b / (q * q)
    flat = w.imag == 0.0  # Im(z^2) underflowed: the radicand's side of the cut is Re z's
    w.imag[flat] = np.copysign(0.0, q.real[flat])
    return q * np.sqrt(w)


def halfplane_slit_many(lam: float, x, z: np.ndarray) -> np.ndarray:
    """``halfplane_slit(lam, x, .)`` of every point of the array ``z``, one numpy pass.

    ``x`` is a float or an array like ``z``.  Tip and real axis are bit for bit the
    scalar map's; elsewhere numpy's complex ``*`` and ``/`` may differ in the last bits.
    """
    return x + _slit_sqrt_many(1.0, lam * lam, np.asarray(z, dtype=complex) - x)


def _reduce(x: float, period: float) -> float:
    """Reduce x modulo period into [-period/2, period/2)."""
    r = math.remainder(x, period)
    half = 0.5 * period
    if r >= half:  # remainder may return +period/2 exactly
        return -half
    return r


def _reduce_many(u: np.ndarray, period: float) -> np.ndarray:
    """``_reduce`` of every element; bit-identical to it.

    ``fmod`` is exact, and so is the one fold by +-period after it (Sterbenz:
    both operands lie within a factor 2), so the result is the unique exact
    representative in [-period/2, period/2), the same one ``_reduce`` picks.
    """
    half = 0.5 * period
    r = np.fmod(u, period)
    return np.where(r >= half, r - period, np.where(r < -half, r + period, r))


def cylinder_dist(params: CylinderParams, a, b):
    """Distance between a and b as points of the cylinder (Re taken mod 2*pi*N); arrays too."""
    d = np.subtract(a, b, dtype=complex)
    return np.hypot(_reduce_many(d.real, params.period), d.imag)[()]


def _disk_slit_origin(params: CylinderParams, zeta: complex) -> complex:
    """Slit map at the origin written in disk coordinates, |zeta| >= 1.

    Equals g_inv(phi^delta(g(zeta))) in the closed form
    (zeta + 1 + s)^2 / (4 zeta (1 - delta^2)), s = sqrt((zeta-1)^2 + 4 delta^2 zeta),
    which stays accurate arbitrarily close to the pole of g_inv.
    """
    d = params.delta
    d2 = d * d
    if abs(zeta) >= 1e130:
        # Tail expansion (zeta + 2 d^2 + d^2 (2 - d^2)/zeta) / (1 - d^2); the
        # dropped term is O(1/zeta^2), far below double precision here, and
        # the quadratic numerator below would overflow.
        return (zeta + 2.0 * d2 + d2 * (2.0 - d2) / zeta) / (1.0 - d2)
    dz1 = zeta - 1.0
    if abs(dz1) >= 0.5 * d:
        # Factored root: the radicand 1 + 4 d^2 zeta/(zeta-1)^2 only meets the
        # negative real axis on |zeta| = 1, so the principal branch is the
        # analytic continuation of s ~ zeta at infinity.
        s = dz1 * cmath.sqrt(1.0 + 4.0 * d2 * zeta / (dz1 * dz1))
    else:
        # Near the tip preimage zeta = 1 the radicand clusters around 4 d^2,
        # where the principal root is already the correct branch (s(1) = 2d).
        s = cmath.sqrt(dz1 * dz1 + 4.0 * d2 * zeta)
    top = zeta + 1.0 + s
    return top * top / (4.0 * zeta * (1.0 - d2))


def _principal_sqrt(w: np.ndarray) -> np.ndarray:
    """Principal square root of every point of the complex array ``w``, in real arithmetic.

    With ``t = sqrt((|w| + |Re w|)/2)`` and ``k = Im w / 2t`` the root is
    ``t + ik`` where ``Re w >= 0`` and ``|k| + it`` with the sign of ``Im w``
    (a signed zero too) elsewhere: the principal branch, in the form of Kahan,
    *Branch cuts for complex elementary functions* (1987).  ``w = 0`` gives 0.
    """
    re, im = w.real, w.imag
    t = np.abs(w)
    t += np.abs(re)
    t *= 0.5
    np.sqrt(t, out=t)
    np.maximum(t, 1e-300, out=t)  # only w = 0 has t = 0; every other t is above 1e-162
    k = 0.5 * im
    k /= t
    out = np.empty_like(w)
    out.real, out.imag = t, k
    if re.min(initial=0.0) < 0.0:
        neg = np.flatnonzero(re < 0.0)
        out.real[neg] = np.abs(k[neg])
        out.imag[neg] = np.copysign(t[neg], im[neg])
    return out


def _disk_slit_many(params: CylinderParams, zeta: np.ndarray, rho=1.0) -> np.ndarray:
    """``_disk_slit_origin(params, rho * zeta) / rho`` of every point of the array ``zeta``.

    ``rho`` is a unit complex number, or an array of them like ``zeta``: with
    ``rho = exp(ix/N)`` the map is the slit map over ``x`` in disk coordinates.
    With ``xi = rho zeta`` the rotation back folds into one product,
    ``D(xi)/rho = (xi + 1 + s)^2 / (4 (1 - delta^2) rho^2 zeta)``.  The
    near-tip root of the scalar map is a mask, at ``|xi - 1| < delta/2``;
    every other point takes the factored root in one pass over the whole
    array, its square root in real arithmetic.  The domain is ``|xi| < 1e130``:
    the scalar map's tail expansion beyond it has no mask here, and the
    squares overflow from about ``|xi| = 1e154``.  The callers stay far below:
    ``cyl_slit_many`` and ``verify._shift_many`` pass ``|zeta| < e^30`` (heights
    under 30 N), and ``_LockStep`` moves a point to the cylinder once ``|zeta| >= e^30``.
    ``params`` may be ``_PerPoint``, an element per point: delta is read at the near-tip mask.
    """
    d = params.delta
    d2 = d * d
    xi = zeta * rho
    dz1 = xi - 1.0
    if (tip := np.flatnonzero(np.abs(dz1) < 0.5 * d)).size:
        near, d_near = xi[tip], dz1[tip]
        dz1[tip] = 1.0  # a stand-in, overwritten below
    s = xi * (4.0 * d2)
    s /= dz1 * dz1
    s += 1.0
    # complex products out of place: numpy's in-place complex multiply rounds
    # differently on short arrays, and results must not depend on the length
    s = _principal_sqrt(s) * dz1
    s += xi + 1.0
    if tip.size:
        # near the tip preimage xi = 1 the radicand clusters around 4 d^2, where
        # the principal root is already the correct branch
        s[tip] = near + 1.0 + np.sqrt(d_near * d_near + 4.0 * _at(d2, tip) * near)
    s = s * s
    s /= zeta * (rho * rho * (4.0 * (1.0 - d2)))
    return s


def _far_field(params: CylinderParams, w: complex) -> complex:
    """S_0(w) at the cylinder's top: w - iN log(1-delta^2) + 2iN delta^2 exp(iw/N)."""
    n, d2 = params.radius_n, params.delta * params.delta
    return w - 1j * n * math.log1p(-d2) + 2j * n * d2 * cmath.exp(1j * w / n)


def _tan_chart(params: CylinderParams, w: complex) -> tuple[complex, complex, complex]:
    """``t = w/2N``, ``v = tan(t)`` and ``r = phi^delta(v)`` at w = u + iy, u in [-pi N, pi N), y >= 0.

    S_0 = 2N arctan(r), and its derivatives are rational in v and r.  The
    slit-base corners, where r = 0, are square-root singular.
    """
    d = params.delta
    t = 0.5 * w / params.radius_n
    v = cmath.tan(t)
    return t, v, _slit_sqrt(1.0 - d * d, d * d, v)


def _axis_slit_many(params: CylinderParams, u: np.ndarray) -> np.ndarray:
    """S_0(u) at every u in [-pi N, pi N) of the real array ``u``: the tan chart in real arithmetic.

    Outside the slit base the value is real, its imaginary part exactly 0.0;
    inside, ``2N arctan(i rho) = 2iN atanh(rho)`` lies on the slit.
    """
    n, d2 = params.radius_n, params.delta * params.delta
    a = 1.0 - d2
    v = np.tan(0.5 * u / n)
    vv = v * v
    np.maximum(vv, 1e-300, out=vv)  # below it lies the tip, |v| <= _TIP_RADIUS, set below
    rad = a - d2 / vv
    inside = rad < 0.0
    np.maximum(rad, 0.0, out=rad)
    out = np.zeros(u.shape, dtype=complex)
    out.real = 2.0 * n * np.arctan(v * np.sqrt(rad))
    if inside.any():
        p, v = _at(params, inside), v[inside]
        d2 = p.delta * p.delta
        h = 2.0 * p.radius_n * np.arctanh(np.sqrt(d2 - (1.0 - d2) * v * v))
        tip = np.abs(v) <= _TIP_RADIUS
        h[tip] = _at(p.lam, tip)
        out.imag[inside] = h
    return out


def cyl_slit(params: CylinderParams, x: float, z: complex) -> complex:
    """Cylinder slit map S_x(z): attach a slit of length lam over x.

    Evaluated as the continuous lift: ``Re(z - x)`` is reduced to the
    fundamental domain, the origin map S_0 is applied there, and the removed
    multiple of 2*pi*N is restored, so that

        S_x(z + 2*pi*N) = S_x(z) + 2*pi*N,   S_x(x) = x + i*lam,

    and S_x is near the identity far from the slit.
    """
    z = complex(z)
    n, y = params.radius_n, z.imag
    u = z.real - x
    u_red = _reduce(u, params.period)
    w = complex(u_red, y)
    if y >= _FAR_FIELD_RATIO * n:
        s = _far_field(params, w)
    elif y < n:
        _, v, r = _tan_chart(params, w)
        s = complex(0.0, params.lam) if abs(v) <= _TIP_RADIUS else 2.0 * n * cmath.atan(r)
    else:
        s = 1j * n * cmath.log(_disk_slit_origin(params, cmath.exp(-1j * w / n)))
    if abs(s.real - u_red) >= math.pi * n:
        # both charts cut along the seam, where rounding picks the side: S_0 moves u by under pi N
        s -= math.copysign(2.0 * math.pi * n, s.real - u_red)
    return (x + (u - u_red)) + s


def cyl_slit_many(params: CylinderParams, x, z: np.ndarray) -> np.ndarray:
    """``cyl_slit(params, x, .)`` of every point of the array ``z``, one numpy pass.

    ``x`` is a float or an array shaped like ``z`` (one abscissa per point).
    Each regime of the scalar path is a mask: the real axis (``_axis_slit_many``),
    the tan chart ``Im z < N`` (with the tip ``|tan(u/2N)| <= _TIP_RADIUS``),
    the disk form and the far field ``Im z >= 30 N``.  ``params`` is one
    ``CylinderParams`` for every point, or ``_PerPoint`` with an element per
    point of ``z``: each regime reads the parameters at its own mask.  The
    reduction is exact, so the restored multiple of the period is the scalar
    one; the transcendental functions are numpy's, so results may differ
    from ``cyl_slit`` in the last bits.  The disk form is
    ``_disk_slit_many`` at ``e <= |zeta| < e^30``, inside its domain and, as
    ``|zeta - 1| > 0.5 delta`` there, off its near-tip root.  The quadratures
    of the shift S_x(z) - z call this map only in the boundary band above the
    axis (0 < Im z < 1e-3) and at the far field: elsewhere they take one chart
    per integral (``verify._shift_many``).
    """
    z = np.asarray(z, dtype=complex)
    n = params.radius_n
    d2 = params.delta * params.delta
    u = z.real - x
    u_red = _reduce_many(u, params.period)
    y = z.imag
    if (axis := y == 0.0).all():
        return (x + (u - u_red)) + _axis_slit_many(params, u_red)
    w = np.empty_like(z)
    w.real, w.imag = u_red, y
    out = np.empty_like(z)
    if axis.any():
        out[axis] = _axis_slit_many(_at(params, axis), u_red[axis])
    if (low := (y < n) & ~axis).any():
        p = _at(params, low)
        _, v, r = _tan_chart_many(p, w[low])
        r = 2.0 * p.radius_n * np.arctan(r)
        tip = np.abs(v) <= _TIP_RADIUS
        r[tip] = 1j * _at(p.lam, tip)  # the tip, exactly
        out[low] = r
    if (far := y >= _FAR_FIELD_RATIO * n).any():
        wf, n_f, d2_f = w[far], _at(n, far), _at(d2, far)
        log1p = np.log1p if isinstance(d2_f, np.ndarray) else math.log1p
        out[far] = wf - 1j * n_f * log1p(-d2_f) + 2j * n_f * d2_f * np.exp(1j * wf / n_f)
    if (disk := ~(axis | low | far)).any():
        p = _at(params, disk)
        zeta = np.exp(-1j * w[disk] / p.radius_n)
        out[disk] = 1j * p.radius_n * np.log(_disk_slit_many(p, zeta))
    out.real -= params.period * np.round((out.real - u_red) / params.period)  # the seam lift
    return (x + (u - u_red)) + out


def _tan_chart_many(params: CylinderParams, w: np.ndarray) -> tuple:
    """``_tan_chart`` of every point of the complex array ``w``, numpy's ``tan`` and root."""
    d2 = params.delta * params.delta
    t = 0.5 * w / params.radius_n
    v = np.tan(t)
    return t, v, _slit_sqrt_many(1.0 - d2, d2, v)


def _deriv_chart(params: CylinderParams, x, z) -> tuple:
    """``_tan_chart_many`` at z - x (Re reduced) over the broadcast points, flat, and their shape.

    Raises ``ValueError`` unless Im z > 0 at every point, off the slit-base
    corners.  A single point is a one-element array too: numpy's scalar
    complex arithmetic rounds differently from its array loops.
    """
    z, x = np.broadcast_arrays(np.asarray(z, dtype=complex), x)
    if not (z.imag > 0.0).all():
        raise ValueError("slit-map derivatives require Im z > 0")
    w = np.empty(z.size, dtype=complex)
    w.real, w.imag = _reduce_many(z.real.ravel() - x.ravel(), params.period), z.imag.ravel()
    t, v, r = _tan_chart_many(params, w)
    if (r == 0).any():
        raise ValueError("slit-map derivatives are singular at the slit base")
    return t, v, r, z.shape


def cyl_slit_deriv(params: CylinderParams, x, z):
    """dS_x/dz = v/r in the terms of ``_tan_chart``; 2*pi*N periodic, tends to 1 far up.

    ``x`` and ``z`` are scalars or arrays that broadcast; arrays give an array,
    each element the element-wise call's, bit for bit.
    """
    _, v, r, shape = _deriv_chart(params, x, z)
    return (v / r).reshape(shape)[()]


def cyl_slit_deriv2(params: CylinderParams, x, z):
    """d^2 S_x/dz^2 = -delta^2 (1 + v^2) / (2N r^3), as r^2 = (1-delta^2) v^2 - delta^2.

    ``1 + v^2`` is taken as ``1/cos(t)^2``: far above the boundary v tends
    to i, and the sum would cancel.  Scalars or arrays, as ``cyl_slit_deriv``.
    """
    t, _, r, shape = _deriv_chart(params, x, z)
    c = np.cos(t)
    d = params.delta
    return (-(d * d) / (2.0 * params.radius_n * c * c * r * r * r)).reshape(shape)[()]
