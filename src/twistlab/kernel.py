"""Ring coupling kernel, its Fourier coefficients, and the coefficient algebra.

Everything here is a pure closed-form function of the coupling parameters
``p = (r, lam, mu)``: the cosine-series coefficients of the indicator kernel
on the ring, the linearization eigenvalue sequence ``c1`` around a twisted
state, the higher derivative coefficients ``c2..c6``, and the structural
functions (``lambda0``, ``big_H``, ``iota``, ``cap_X``) used to place and
reshape the bifurcation. Each closed form is one numpy expression that
broadcasts over arrays of modes or radii. All functions are thread-safe.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateKernelError, SingularPointError

TWO_PI = 2.0 * math.pi

#: Any denominator smaller than this in magnitude is treated as zero and the
#: corresponding quantity reported as degenerate instead of returning a huge value.
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class Params:
    """Coupling parameters: range ``r`` and higher-order strengths ``lam``, ``mu``."""

    r: float
    lam: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.r <= 0.5:
            raise ValueError(f"coupling range must satisfy 0 < r <= 1/2, got r={self.r}")


def w_hat(r, k):
    """Cosine-series coefficient of the indicator kernel at integer mode ``k``.

    ``4r`` at ``k = 0`` and ``2 sin(2 pi k r) / (pi k)`` otherwise; even in
    ``k``. ``r`` and ``k`` are scalars or arrays and broadcast against each
    other, so one call sweeps a mode list at one radius or one mode over
    many radii.
    """
    k = np.asarray(k)
    with np.errstate(invalid="ignore"):  # 0 / 0 at k = 0, replaced by 4r
        out = np.where(k == 0, 4.0 * r, 2.0 * np.sin(TWO_PI * k * r) / (math.pi * k))
    return float(out) if out.ndim == 0 else out


def w_hat_r_deriv(r, k):
    """Derivative of ``w_hat`` with respect to ``r``: ``4 cos(2 pi k r)`` for every mode."""
    out = 4.0 * np.cos(TWO_PI * np.asarray(k) * r)
    return float(out) if out.ndim == 0 else out


def c1(q, k, p):
    """Linearization eigenvalue at mode ``k`` around a ``q``-twisted state.

    Each value is an eigenvalue of multiplicity two of the phase-difference
    linearization. Vectorized over ``k``.
    """
    k = np.asarray(k)
    W = lambda j: w_hat(p.r, j)
    n = abs(q) + int(np.abs(k).max(initial=0)) + 1
    if k.dtype.kind == "i" and n <= 2 * k.size + 1:
        # w_hat is even, so for a dense mode list one table of w_hat(r, 0..n-1)
        # serves both q - k and q + k: one sine pass instead of two
        table = w_hat(p.r, np.arange(n))
        W = lambda j: table[np.abs(j)]
    out = _twisted_c1(W, q, k, p.lam, p.mu)
    return float(out) if np.asarray(out).ndim == 0 else out


def _twisted_c1(W, q, k, lam, mu):
    """Twisted-state eigenvalues for kernel coefficients ``W(j)``: continuum or lattice.

    ``0.25 * (W(q - k) + W(q + k)) - 0.25 * (2 + 4 lam + 2 mu) * W(q)``,
    broadcast over whatever ``W`` returns: one value per mode of ``k``, or
    one per radius when ``W`` sweeps radii at a scalar ``k``.
    """
    shift = 0.25 * (2.0 + 4.0 * lam + 2.0 * mu) * W(q)
    return 0.25 * (W(q - k) + W(q + k)) - shift


def c1_param_gradient(q, k, p):
    """Gradient of ``c1(q, k, .)`` with respect to ``(r, lam, mu)``."""
    dW = lambda j: w_hat_r_deriv(p.r, j)
    d_r = 0.25 * (dW(q - k) + dW(q + k) - (2.0 + 4.0 * p.lam + 2.0 * p.mu) * dW(q))
    wq = w_hat(p.r, q)
    return np.array([d_r, -wq, -0.5 * wq])


def c2(q, k, p):
    """Quadratic self-interaction coefficient; independent of ``mu``."""
    W = lambda j: w_hat(p.r, j)
    return 0.125 * (
        -W(q - 2 * k) + 2.0 * W(q - k) - 2.0 * W(q + k) + W(q + 2 * k)
        - 2.0 * p.lam * W(q - k) + 2.0 * p.lam * W(q + k)
    )


def c3(q, m, k, p):
    """Mixed quadratic coefficient on the difference mode; antisymmetric in (m, k)."""
    W = lambda j: w_hat(p.r, j)
    return 0.125 * (
        -W(q - m) + W(q - m + k) + W(q - k) - W(q + k) - W(q + m - k) + W(q + m)
    )


def c4(q, m, k, p):
    """Mixed quadratic coefficient on the sum mode; independent of ``lam`` and ``mu``."""
    W = lambda j: w_hat(p.r, j)
    return 0.125 * (
        -W(q - m - k) + W(q - m) + W(q - k) - W(q + k) - W(q + m) + W(q + m + k)
    )


def c5(q, k, p):
    """Cubic self-interaction coefficient on the base mode."""
    W = lambda j: w_hat(p.r, j)
    return (
        W(q - 2 * k) - 4.0 * W(q - k) + 6.0 * W(q) - 4.0 * W(q + k) + W(q + 2 * k)
        + 4.0 * p.lam * W(q - k) + 32.0 * p.lam * W(q) + 4.0 * p.lam * W(q + k)
        + 2.0 * p.mu * W(q - k) + 14.0 * p.mu * W(q) + 2.0 * p.mu * W(q + k)
    ) / 16.0


def c6(q, k, p):
    """Cubic coefficient on the tripled mode."""
    W = lambda j: w_hat(p.r, j)
    return (
        W(q - 3 * k) - 3.0 * W(q - 2 * k) + 3.0 * W(q - k) - 2.0 * W(q)
        + 3.0 * W(q + k) - 3.0 * W(q + 2 * k) + W(q + 3 * k)
        - 12.0 * p.lam * W(q - k) - 16.0 * p.lam * W(q) - 12.0 * p.lam * W(q + k)
        - 2.0 * p.mu * W(q)
    ) / 16.0


def tail_limit(q, p):
    """Limit of ``c1(q, k, p)`` as ``k`` grows; the only non-eigenvalue spectral point."""
    return 0.25 * w_hat(p.r, q) * (-2.0 - (4.0 * p.lam + 2.0 * p.mu))


def lambda0(q, r0):
    """Triplet strength at which the leading eigenvalue crosses zero.

    Valid as the stability boundary once the leading mode is the twist mode
    itself (``r0`` past the mode-locking radius); the caller is responsible
    for that interpretation. Degenerate where :func:`big_H` is.
    """
    val = big_H(q, r0) / 4.0  # the critical 4 lam + 2 mu at mu = 0
    # w_hat(2q) + w_hat(0) > 0 keeps the tail limit away from zero here
    assert abs(val + 0.5) > DEGENERACY_TOL
    return val


def big_H(q, r):
    """Critical combined higher-order strength ``4 lam + 2 mu`` at fixed ``(q, r)``.

    Satisfies the rescaling identity ``big_H(q, r) = big_H(1, q r)`` on the
    product ``q * r``.
    """
    wq = w_hat(r, q)
    if abs(wq) < DEGENERACY_TOL:
        raise DegenerateKernelError(
            f"w_hat(r={r}, q={q}) = {wq:.3e}: critical strength undefined"
        )
    return (w_hat(r, 0) + w_hat(r, 2 * q) - 2.0 * wq) / wq


def iota(upsilon):
    """Scaling function controlling how the strength trade-off moves the cubic coefficient.

    Closed form on ``upsilon >= 0``; raises SingularPointError where the
    denominator vanishes (small ``upsilon`` only). Scalar or array.
    """
    u = np.asarray(upsilon, dtype=float)
    if np.any(u < 0):
        raise ValueError("iota is defined for upsilon >= 0")
    s2 = np.sin(TWO_PI * u)
    s4 = np.sin(2.0 * TWO_PI * u)
    s6 = np.sin(3.0 * TWO_PI * u)
    num = -s2 + 4.0 * math.pi * u - s4 + s6 / 3.0
    den = 8.0 * (-s2 + s6 / 3.0 - (TWO_PI * u + 0.5 * s4 - 2.0 * s2))
    # den = 16*pi*g(upsilon) for the quarter-sum form of the denominator
    g = den / (16.0 * math.pi)
    bad = np.abs(g) < DEGENERACY_TOL
    if np.any(bad):
        pt = float(np.asarray(u)[bad].flat[0]) if u.ndim else float(u)
        raise SingularPointError(f"iota denominator vanishes at upsilon={pt}", point=pt)
    out = -s2 / TWO_PI + (num / den) * (-4.0 * u + s4 / math.pi)
    return float(out) if out.ndim == 0 else out


def cap_X(q, r):
    """Per-unit-strength slope of the cubic coefficient along the trade-off family."""
    return iota(q * r) / q


@lru_cache(maxsize=1)
def upsilon0():
    """Root of ``2 = 2 pi u - sin(2 pi u)``; threshold product ``q r`` for positivity of iota."""
    f = lambda u: 2.0 - TWO_PI * u + math.sin(TWO_PI * u)
    root = _brentq(f, 0.25, 0.7, xtol=1e-15, rtol=8.9e-16)
    assert abs(f(root)) < 1e-12
    return root


_BRENT_MAXITER = 100


def _brentq(f, a, b, xtol=2e-12, rtol=4.0 * np.finfo(float).eps):
    """Root of ``f`` in the bracket ``[a, b]`` by Brent's method (Brent 1973, ch. 4).

    Takes the same steps as the C ``brentq`` of ``scipy.optimize`` and so
    returns the same bits: ``f(a)`` and ``f(b)`` must differ in sign (sign
    bit), the root is resolved to ``(xtol + rtol |x|) / 2`` on each side,
    and each step is an inverse quadratic (or secant) one when it is short
    enough, else a bisection. Raises ValueError for ends of one sign or a
    NaN value, RuntimeError after ``_BRENT_MAXITER`` iterations.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x:.6g} is NaN; solver cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best iterate in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # an infinite step fails the test below: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic through the three points
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {_BRENT_MAXITER} iterations, value is {xcur!r}")
