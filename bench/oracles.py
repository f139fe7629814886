"""Reference computations for the benchmark's output checks.

Nothing here imports twistlab: every value the checks compare against is
computed from the model's definitions, written out below, or from the
paper's closed forms.

The model. M oscillators sit at ``x_i = i / M`` on a ring of unit
circumference; ``b_d`` is the coupling weight at circular offset ``d``
(1 up to distance ``floor(r M)``, the fractional remainder ``r M -
floor(r M)`` one site further). The phase velocity of oscillator i is

    (1/M)    sum_j     b[j-i]       sin(th_j - th_i)
  + (lam/M^2) sum_{j,k}   b[j+k-2i]    sin(th_j + th_k - 2 th_i)
  + (mu/M^3)  sum_{j,k,l} b[j+k-l-i]   sin(th_j + th_k - th_l - th_i)

(indices mod M), times -1 for the repulsive model. States are pinned phase
differences ``th_i - th_0``.

The continuum limit at a q-twisted state has, at mode k, the eigenvalue

    c1(q, k) = (w(q-k) + w(q+k)) / 4 - (1/2 + lam + mu/2) w(q),
    w(r, 0) = 4 r,   w(r, k) = 2 sin(2 pi k r) / (pi k),

each of multiplicity two. On the finite ring the same formula holds exactly
with ``w`` replaced by the lattice coefficients ``B_j = (2/M) Re FFT(b)_j``,
because the Jacobian at a twisted state is circulant; the pinned Jacobian has
the modes ``k = 1..M-1``.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# continuum closed form


def w_hat(r, k):
    """Cosine coefficient of the indicator kernel of range ``r`` at mode ``k``."""
    k = np.asarray(k, dtype=float)
    safe = np.where(k == 0, 1.0, k)
    return np.where(k == 0, 4.0 * r, 2.0 * np.sin(TWO_PI * k * r) / (math.pi * safe))


def c1(q, k, r, lam=0.0, mu=0.0):
    """Continuum eigenvalue at mode ``k`` around the q-twisted state."""
    k = np.asarray(k)
    return 0.25 * (w_hat(r, q - k) + w_hat(r, q + k)) - (0.5 + lam + 0.5 * mu) * w_hat(r, q)


def c1_tail(q, r, lam=0.0, mu=0.0):
    """Limit of ``c1(q, k)`` as ``k`` grows."""
    return float(-(0.5 + lam + 0.5 * mu) * w_hat(r, q))


def tail_bound(q, K):
    """Bound on ``|c1(q, k) - tail|`` for every ``k > K``: ``|w(j)| <= 2 / (pi |j|)``."""
    return (1.0 / (2.0 * math.pi)) * (1.0 / (K + 1 - q) + 1.0 / (K + 1 + q))


def sup_interval(q, r, lam=0.0, mu=0.0, K=100_000, exclude=None):
    """Interval certain to hold ``sup_k c1(q, k)`` over all modes ``k >= 1``.

    Modes up to ``K`` are listed; the rest lie within ``tail_bound`` of the
    tail and approach it, so their supremum sits in ``[tail, tail + bound]``.
    ``exclude`` drops one listed mode from the supremum.
    """
    ks = np.arange(1, K + 1)
    values = c1(q, ks, r, lam, mu)
    if exclude is not None:
        values[exclude - 1] = -np.inf
    listed = float(values.max())
    tail = c1_tail(q, r, lam, mu)
    return max(listed, tail), max(listed, tail + tail_bound(q, K))


def inf_interval(q, r, K=100_000):
    """Interval certain to hold ``inf_k c1(q, k)`` over all modes (pairwise only)."""
    listed = float(c1(q, np.arange(1, K + 1), r).min())
    tail = c1_tail(q, r)
    return min(listed, tail - tail_bound(q, K)), min(listed, tail)


def lambda0(q, r):
    """Triplet strength at which the twist-mode eigenvalue ``c1(q, q)`` is zero."""
    return float((w_hat(r, 0) + w_hat(r, 2 * q) - 2.0 * w_hat(r, q)) / (4.0 * w_hat(r, q)))


def bisect(f, lo, hi, xtol=1e-13):
    """Root of ``f`` on ``[lo, hi]`` by bisection; ``f(lo)`` and ``f(hi)`` differ in sign."""
    f_lo = f(lo)
    if (f_lo > 0) == (f(hi) > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def upsilon0():
    """Root of ``2 = 2 pi u - sin(2 pi u)``."""
    return bisect(lambda u: TWO_PI * u - math.sin(TWO_PI * u) - 2.0, 0.25, 0.7, xtol=1e-15)


def pairwise_eigenvalue_quadrature(q, k, r, n_panels=64, n_gauss=16):
    """Eigenvalue of the linearized pairwise operator by Gauss-Legendre quadrature.

    At a q-twisted state the pairwise operator maps ``exp(2 pi i k x)`` to
    itself times ``int_{-r}^{r} cos(2 pi q s) (cos(2 pi k s) - 1) ds``; the
    integral is taken over ``n_panels`` equal panels of ``n_gauss`` nodes.
    """
    t, w = leggauss(n_gauss)
    edges = np.linspace(-r, r, n_panels + 1)
    half = 0.5 * np.diff(edges)
    s = (edges[:-1] + half)[:, None] + half[:, None] * t[None, :]
    integrand = np.cos(TWO_PI * q * s) * (np.cos(TWO_PI * k * s) - 1.0)
    return float(np.sum(half[:, None] * w[None, :] * integrand))


def closed_form_self_check():
    """Failures of the closed form against quadrature at a few points (empty when it holds)."""
    bad = []
    for q, k, r in ((1, 1, 0.2), (5, 11, 0.1165), (8, 3, 0.3), (50, 1, 0.0123)):
        quad = pairwise_eigenvalue_quadrature(q, k, r)
        closed = float(c1(q, k, r))
        if abs(quad - closed) > 1e-12:
            bad.append(f"closed form c1({q},{k},{r}) = {closed!r} but quadrature gives {quad!r}")
    return bad


# ---------------------------------------------------------------------------
# finite ring


def ring_weights(M, r):
    """Coupling weights by circular offset, with the fractional edge pair."""
    d = np.arange(M)
    dist = np.minimum(d, M - d)
    k0 = int(math.floor(r * M))
    b = np.zeros(M)
    b[dist <= k0] = 1.0
    b[dist == k0 + 1] = r * M - k0
    return b


def twisted(M, q):
    """Pinned q-twisted state."""
    return TWO_PI * q * np.arange(M) / M


def lattice_spectrum(M, q, r, lam=0.0, mu=0.0, sign=1.0):
    """Eigenvalues of the pinned Jacobian at the q-twisted state, modes ``k = 1..M-1``."""
    B = (2.0 / M) * np.fft.fft(ring_weights(M, r)).real
    k = np.arange(1, M)
    nu = 0.25 * (B[(q - k) % M] + B[(q + k) % M]) - (0.5 + lam + 0.5 * mu) * B[q % M]
    return sign * nu


def lattice_leading(M, q, r, sign=1.0):
    """Largest pairwise lattice eigenvalue at the q-twisted state."""
    return float(lattice_spectrum(M, q, r, sign=sign).max())


def lattice_threshold(M, q, sign, r_lo, r_hi, step=1e-3):
    """First radius above ``r_lo`` where the leading lattice eigenvalue changes sign."""
    f = lambda r: lattice_leading(M, q, r, sign)
    grid = np.arange(r_lo, r_hi + step / 2, step)
    for a, b in zip(grid[:-1], grid[1:]):
        if (f(a) > 0) != (f(b) > 0):
            return bisect(f, float(a), float(b))
    raise ValueError(f"no lattice threshold on [{r_lo}, {r_hi}] for M={M}, q={q}")


def pairwise_field(theta, r, sign=1.0, block=256):
    """Pinned pairwise velocity field by direct O(M^2) summation, in row blocks."""
    theta = np.asarray(theta, dtype=float)
    M = len(theta)
    b = ring_weights(M, r)
    j = np.arange(M)
    G = np.empty(M)
    for start in range(0, M, block):
        i = np.arange(start, min(start + block, M))[:, None]
        G[i[:, 0]] = np.sum(b[(j[None, :] - i) % M] * np.sin(theta[None, :] - theta[i]), axis=1) / M
    out = sign * (G - G[0])
    out[0] = 0.0
    return out


def full_field(theta, r, lam, mu):
    """Pinned field with all three interaction orders by direct summation (small M only)."""
    theta = np.asarray(theta, dtype=float)
    M = len(theta)
    b = ring_weights(M, r)
    n = np.arange(M)
    G = np.empty(M)
    for i in range(M):
        pair = np.sum(b[(n - i) % M] * np.sin(theta - theta[i]))
        jj, kk = np.meshgrid(n, n, indexing="ij")
        trip = np.sum(b[(jj + kk - 2 * i) % M]
                      * np.sin(theta[jj] + theta[kk] - 2.0 * theta[i]))
        s = theta[:, None, None] + theta[None, :, None] - theta[None, None, :] - theta[i]
        idx = (n[:, None, None] + n[None, :, None] - n[None, None, :] - i) % M
        quad = np.sum(b[idx] * np.sin(s))
        G[i] = pair / M + lam * trip / M**2 + mu * quad / M**3
    out = G - G[0]
    out[0] = 0.0
    return out


def mode_amplitudes(theta, q):
    """Fourier amplitudes of the wrapped deviation from the q-twisted state."""
    M = len(theta)
    diff = (np.asarray(theta) - twisted(M, q) + math.pi) % TWO_PI - math.pi
    amps = np.abs(np.fft.rfft(diff)) * 2.0 / M
    amps[0] /= 2.0
    return diff, amps
