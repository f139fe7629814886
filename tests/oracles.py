"""Independent numerical oracles used by the tests.

These deliberately avoid the package's closed-form coefficient algebra:
integrals are evaluated by Gauss-Legendre panels across the kernel window
plus periodic trapezoid sums over the circle, and higher derivatives come
from finite differences of the discretized right-hand side.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

TWO_PI = 2.0 * np.pi


def _window_nodes(r, n_gauss):
    """Gauss-Legendre nodes/weights for an integral over [-r, r]."""
    t, w = leggauss(n_gauss)
    return r * t, r * w


def linearized_eigenvalue_quadrature(q, k, p, n_gauss=64, n_circle=512, n_x=512):
    """Eigenvalue of the linearized phase-difference operator on mode k.

    Evaluates the operator applied to sin(2 pi k x) by blind numerical
    integration (window substitution for the kernel, trapezoid over circle
    variables) and projects the result back onto the same mode.
    """
    r, lam, mu = p.r, p.lam, p.mu
    u = lambda x: np.sin(TWO_PI * k * x)
    x = np.arange(n_x) / n_x

    s, w = _window_nodes(r, n_gauss)
    cqs = np.cos(TWO_PI * q * s)

    # pairwise: int_{x-r}^{x+r} cos(2 pi q (y-x)) (u(y)-u(x)) dy, minus the x=0 term
    pair = np.zeros(n_x)
    for sj, wj, cj in zip(s, w, cqs):
        pair += wj * cj * (u(x + sj) - u(x))
    pair_ref = np.sum(w * cqs * u(s))
    L = pair - pair_ref

    z = np.arange(n_circle) / n_circle
    if lam != 0.0:
        trip = np.zeros(n_x)
        trip_ref = 0.0
        for sj, wj, cj in zip(s, w, cqs):
            # z integral of u(z) + u(sj + 2x - z) - 2 u(x) over the circle
            mean_u = np.mean(u(z))
            mean_shift = np.mean(u(sj + 2.0 * x[:, None] - z[None, :]), axis=1)
            trip += wj * cj * (mean_u + mean_shift - 2.0 * u(x))
            trip_ref += wj * cj * (mean_u + np.mean(u(sj - z)))
        L = L + lam * (trip - trip_ref)
    if mu != 0.0:
        quad = np.zeros(n_x)
        quad_ref = 0.0
        y = np.arange(n_circle) / n_circle
        # the (y, v) double mean of sin(phi + 2 pi k (y - v)) factorizes
        # exactly into single-circle complex means: sum g(y) h(v) = sum g * sum h
        ey = np.mean(np.exp(1j * TWO_PI * k * y))
        pair_mean = lambda phi: (np.exp(1j * TWO_PI * k * phi) * ey * np.conj(ey)).imag
        mean_u_y = np.mean(u(y))
        for sj, wj, cj in zip(s, w, cqs):
            mean_shift = pair_mean(sj + x)
            quad += wj * cj * (mean_shift - mean_u_y + mean_u_y - u(x))
            quad_ref += wj * cj * pair_mean(sj)
        L = L + mu * (quad - quad_ref)

    return 2.0 * np.mean(L * u(x))


def _lattice_field(q, p, M):
    from twistlab import ring

    base = ring.twisted_state(M, q)
    weights = ring.build_weights(M, p.r)
    spec = ring.SystemSpec(p, include_orders=("pairwise", "triplet", "quadruplet"))
    return base, lambda v: ring.rhs(base + v, spec, weights)


def _mode(M, k):
    # u_{-n} = -u_n convention carried by sin itself
    return np.sin(TWO_PI * k * np.arange(M) / M)


def _project(M, field, k):
    return 2.0 * np.mean(field * _mode(M, k))


def third_derivative_mode_projection(q, k, p, M=2048, eps=3e-3, out_mode=None):
    """Mode projection of the third directional derivative of the lattice field.

    Central finite difference along the mode-k direction of the discretized
    phase-difference right-hand side at the twisted state, projected onto
    ``out_mode`` (default ``k``). The base-mode projection equals three times
    the cubic self-interaction coefficient and the tripled-mode projection
    equals the tripled-mode cubic coefficient, up to O(1/M) discretization
    error.
    """
    _, F = _lattice_field(q, p, M)
    d = _mode(M, k)
    stencil = (F(2 * eps * d) - 2.0 * F(eps * d) + 2.0 * F(-eps * d) - F(-2 * eps * d)) \
        / (2.0 * eps**3)
    return _project(M, stencil, k if out_mode is None else out_mode)


def second_derivative_mode_projection(q, k, p, out_mode, M=2048, eps=1e-3):
    """Mode projection of the second directional derivative along mode k.

    At the twisted state the field vanishes, so the centered second
    difference reduces to (F(eps) + F(-eps)) / eps^2. The doubled-mode
    projection equals the quadratic self-interaction coefficient.
    """
    _, F = _lattice_field(q, p, M)
    d = _mode(M, k)
    stencil = (F(eps * d) + F(-eps * d)) / eps**2
    return _project(M, stencil, out_mode)


def mixed_second_derivative_projection(q, m, k, p, out_mode, M=2048, eps=1e-3):
    """Mode projection of the mixed second derivative along modes m and k.

    Four-point cross stencil; the difference-mode projection recovers the
    antisymmetric mixed coefficient and the sum-mode projection the symmetric
    one.
    """
    _, F = _lattice_field(q, p, M)
    dm, dk = _mode(M, m), _mode(M, k)
    stencil = (F(eps * dm + eps * dk) - F(eps * dm - eps * dk)
               - F(-eps * dm + eps * dk) + F(-eps * dm - eps * dk)) / (4.0 * eps**2)
    return _project(M, stencil, out_mode)


def product4_field(b, theta):
    """Pinned product-kernel triplet field on the lattice with weights ``b``.

    ``G_k = sum_{i,j} b_{i-k} b_{j-k} sin(theta_i + theta_j - 2 theta_k) / M^2``
    equals ``Im(conj(u_k)^2 conv(b, u)_k^2) / M^2`` with ``u = exp(i theta)``,
    evaluated here by an O(M^2) direct convolution.
    """
    M = len(b)
    idx = np.arange(M)
    u = np.exp(1j * theta)
    conv = b[(idx[None, :] - idx[:, None]) % M] @ u
    g = (np.conj(u) ** 2 * conv**2).imag / M**2
    return g - g[0]


def product4_field_double_sum(b, theta):
    """:func:`product4_field` as the O(M^3) double sum over phase pairs, its cross-check."""
    M = len(b)
    idx = np.arange(M)
    g = np.zeros(M)
    for kk in range(M):
        s = np.sin(theta[:, None] + theta[None, :] - 2.0 * theta[kk])
        g[kk] = (b[(idx - kk) % M][:, None] * b[(idx - kk) % M][None, :] * s).sum() / M**2
    return g - g[0]


def alt_coupling_eigenvalue_fd(family, q, r, k, M=512, eps=1e-5, m_weights=None):
    """Directional-derivative eigenvalue oracle for the alternative couplings.

    Builds the lattice analog of the requested coupling, applies the
    linearization at the twisted state to the mode-k eigenvector by central
    differences, and projects back. Returns the eigenvalue estimate.
    """
    from twistlab import ring

    b = ring.build_weights(M, r).b
    idx = np.arange(M)

    if family == "general_d":
        m1, m2, m3 = m_weights

        def field(theta):
            u = np.exp(1j * theta)
            B = np.fft.fft(b)

            def pw(mm):
                # fft of u(m*theta) style factor: use powers of u for integer weights
                v = u ** mm if mm >= 0 else np.conj(u) ** (-mm)
                return v
            # G_k = (1/M^2) sum_{j,l} b_{m1 j + m2 l + m3 k} sin(m1 th_j + m2 th_l + m3 th_k)
            # reduce via the convolution of index-scaled factors
            f1 = np.zeros(M, complex)
            np.add.at(f1, (m1 * idx) % M, pw(m1))
            f2 = np.zeros(M, complex)
            np.add.at(f2, (m2 * idx) % M, pw(m2))
            conv = np.fft.ifft(B * np.fft.fft(f1) * np.fft.fft(f2))
            g = (pw(m3)[idx] * conv[(-m3 * idx) % M]).imag / M**2
            return g - g[0]
    elif family == "product4":
        field = lambda theta: product4_field(b, theta)
    elif family == "triangle":
        bjk = b[(idx[:, None] - idx[None, :]) % M]

        def field(theta):
            g = np.zeros(M)
            for kk in range(M):
                w2 = bjk[:, kk][:, None] * bjk[:, kk][None, :] * bjk
                g[kk] = (w2 * np.sin(theta[:, None] + theta[None, :] - 2.0 * theta[kk])).sum() / M**2
            return g - g[0]
    else:
        raise ValueError(family)

    base = TWO_PI * q * idx / M
    vec = np.sin(TWO_PI * k * idx / M)
    fp = field(base + eps * vec)
    fm = field(base - eps * vec)
    jv = (fp - fm) / (2.0 * eps)
    return 2.0 * np.mean(jv * vec)
