import math

import numpy as np
import pytest

from twistlab import kernel
from twistlab.errors import DegenerateKernelError, SingularPointError
from twistlab.kernel import Params, big_H, c1, cap_X, iota, lambda0, tail_limit, upsilon0, w_hat

from oracles import (
    linearized_eigenvalue_quadrature,
    mixed_second_derivative_projection,
    second_derivative_mode_projection,
    third_derivative_mode_projection,
)

TWO_PI = 2.0 * math.pi


def test_params_range_validation():
    Params(0.5)
    Params(1e-6)
    with pytest.raises(ValueError):
        Params(0.0)
    with pytest.raises(ValueError):
        Params(0.7)
    with pytest.raises(ValueError):
        Params(-0.1)


def test_w_hat_examples():
    assert w_hat(0.25, 0) == pytest.approx(1.0)
    assert w_hat(0.25, 1) == pytest.approx(2.0 / math.pi)
    assert w_hat(0.5, 3) == pytest.approx(0.0, abs=1e-15)


def test_w_hat_symmetry_and_bounds():
    rng = np.random.default_rng(42)
    for r in rng.uniform(0.01, 0.5, 25):
        ks = np.arange(-40, 41)
        vals = w_hat(r, ks)
        assert np.allclose(vals, vals[::-1])  # even in k
        nz = ks != 0
        assert np.all(np.abs(vals[nz]) <= 2.0 / (math.pi * np.abs(ks[nz])) + 1e-15)
        assert np.all(np.abs(vals) <= 4.0 * r + 1e-15)


def test_w_hat_scaling_identity():
    # w_hat(r, k) = f(k r) / k with f(x) = (2/pi) sin(2 pi x)
    f = lambda x: (2.0 / math.pi) * np.sin(TWO_PI * x)
    rng = np.random.default_rng(1)
    for r in rng.uniform(0.01, 0.5, 20):
        for k in range(1, 30):
            assert w_hat(r, k) == pytest.approx(f(k * r) / k, abs=1e-15)


def _assert_broadcasts_r_against_k_bitwise(fn):
    # scalar or array r against scalar or array k, k = 0 and negative k
    # included: every entry carries the bits of the scalar call, which is a
    # Python float for Python and NumPy scalar types alike and equals the
    # 0-d array call
    rng = np.random.default_rng(5)
    radii = rng.uniform(1e-4, 0.5, 6)
    ks = np.array([-7, -1, 0, 1, 3, 40])
    scalar = np.array([[fn(float(r), int(k)) for k in ks] for r in radii])
    cases = [
        (radii[:, None], ks, scalar),
        (radii, 0, scalar[:, 2]),
        (radii, -7, scalar[:, 0]),
        (float(radii[1]), ks, scalar[1]),
    ]
    for r, k, expected in cases:
        got = fn(r, k)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    for r_type in (float, np.float64, np.float32):
        for k_type in (int, np.int64, np.int32):
            rs = radii.astype(r_type)
            grid = fn(rs[:, None], ks.astype(k_type))
            for i, r in enumerate(rs.tolist() if r_type is float else rs):
                for j, k in enumerate(ks.tolist() if k_type is int else ks.astype(k_type)):
                    got = fn(r, k)
                    assert type(got) is float, (r_type, k_type)
                    zero_d = fn(np.asarray(r), np.asarray(k))
                    bits = np.array([got, zero_d, grid[i, j]]).view(np.int64)
                    assert bits[0] == bits[1] == bits[2], (r_type, k_type, r, k)


def test_w_hat_broadcasts_r_against_k_bitwise():
    _assert_broadcasts_r_against_k_bitwise(w_hat)
    assert isinstance(w_hat(0.3, 0), float) and w_hat(0.3, 0) == 4.0 * 0.3


def test_w_hat_r_deriv_broadcasts_r_against_k_bitwise():
    _assert_broadcasts_r_against_k_bitwise(kernel.w_hat_r_deriv)
    assert kernel.w_hat_r_deriv(0.3, 0) == 4.0


def test_mode1_coefficient_dominates():
    # w_hat(r, 1) >= w_hat(r, k) on a dense (r, k) grid
    rs = np.linspace(0.0, 0.5, 200)
    ks = np.arange(2, 52)
    for r in rs:
        assert np.all(w_hat(max(r, 1e-12), 1) >= w_hat(max(r, 1e-12), ks) - 1e-14)


def test_c1_trivial_values():
    # at r = 1/2 only the zero mode survives
    p = Params(0.5, 0.3, -0.7)
    assert c1(3, 3, p) == pytest.approx(0.5, abs=1e-15)
    # threshold radius for q=5: mode-1 eigenvalue vanishes
    assert abs(c1(5, 1, Params(0.06632))) < 5e-5


def test_c1_vectorized_matches_scalar():
    # bit for bit: a dense list (read from c1's |j| table) and a sparse one
    # against scalar calls and 0-d calls, k = 0 and q + |k| <= 2 included
    for q in (-3, 1, 2, 5):
        for p in (Params(0.13, 0.2, 0.1), Params(0.37, -0.3, 0.25)):
            for ks in (np.arange(-3, 20), np.array([0, 1, -1, 2, 997])):
                vec = c1(q, ks, p)
                for k, v in zip(ks, vec):
                    scalars = [c1(q, k, p), c1(q, int(k), p)]
                    assert all(type(s) is float for s in scalars)
                    bits = np.array([v, *scalars, c1(q, np.asarray(k), p)])
                    assert len(set(bits.view(np.int64).tolist())) == 1, (q, p, int(k))


def test_twisted_c1_over_an_array_of_radii_equals_scalar_c1_bitwise():
    # the attractive threshold scan sweeps its whole radius grid in one call;
    # the scalar c1 calls it replaced are the reference, bit for bit
    grid = np.arange(1e-3, 0.5 + 5e-4, 1e-3)
    for q, k, lam, mu in ((1, 1, 0.0, 0.0), (2, 1, 0.0, 0.0), (5, 1, 0.0, 0.0),
                          (50, 1, 0.0, 0.0), (3, 4, 0.3, -0.2)):
        swept = kernel._twisted_c1(lambda j: w_hat(grid, j), q, k, lam, mu)
        loop = np.array([c1(q, k, Params(float(r), lam, mu)) for r in grid])
        assert np.array_equal(swept.view(np.int64), loop.view(np.int64)), q


def test_w_hat_and_c1_long_and_irregular_mode_lists_match_closed_form():
    # dense lists take c1's |j| table, sparse ones do not
    rng = np.random.default_rng(3)
    dense = np.arange(-20_000, 20_001)
    mode_lists = [
        np.arange(1, 30_001),
        dense,
        rng.permutation(dense)[:25_000].reshape(100, 250),
        rng.integers(-10**7, 10**7, 3_000),
        np.arange(1, 31, dtype=np.int32),
    ]
    for q, p in [(5, Params(0.118, 0.0, 0.0)), (2, Params(0.37, 0.4, -0.3))]:
        for ks in mode_lists:
            safe = np.where(ks == 0, 1, ks)
            w_direct = np.where(
                ks == 0, 4.0 * p.r, 2.0 * np.sin(2.0 * math.pi * ks * p.r) / (math.pi * safe)
            )
            np.testing.assert_array_equal(w_hat(p.r, ks), w_direct)
            direct = (
                0.25 * (w_hat(p.r, q - ks) + w_hat(p.r, q + ks))
                - 0.25 * (2.0 + 4.0 * p.lam + 2.0 * p.mu) * w_hat(p.r, q)
            )
            got = c1(q, ks, p)
            assert got.shape == ks.shape
            np.testing.assert_allclose(got, direct, rtol=0, atol=1e-15)


def test_c1_matches_quadrature_oracle():
    rng = np.random.default_rng(7)
    cases = [
        (5, 3, Params(0.1, 0.0, 0.0)),
        (3, 1, Params(0.21, 0.4, 0.0)),
        (2, 4, Params(0.33, -0.3, 0.6)),
        (7, 2, Params(float(rng.uniform(0.05, 0.45)), 0.15, -0.25)),
    ]
    for q, k, p in cases:
        num = linearized_eigenvalue_quadrature(q, k, p)
        assert num == pytest.approx(c1(q, k, p), abs=1e-8)


def test_c1_lambda_derivative_is_minus_w_hat():
    # d c1 / d lam = -w_hat(r, q), constant in lam and independent of k
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = int(rng.integers(1, 12))
        k = int(rng.integers(1, 25))
        r = float(rng.uniform(0.02, 0.5))
        lam = float(rng.uniform(-2, 2))
        h = 1e-5
        fd = (c1(q, k, Params(r, lam + h)) - c1(q, k, Params(r, lam - h))) / (2 * h)
        assert fd == pytest.approx(-w_hat(r, q), rel=1e-8, abs=1e-12)


def test_c1_param_gradient_matches_fd():
    rng = np.random.default_rng(11)
    for _ in range(8):
        q = int(rng.integers(1, 9))
        k = int(rng.integers(1, 16))
        p = Params(float(rng.uniform(0.05, 0.45)), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        grad = kernel.c1_param_gradient(q, k, p)
        h = 1e-6
        fd = [
            (c1(q, k, Params(p.r + h, p.lam, p.mu)) - c1(q, k, Params(p.r - h, p.lam, p.mu))) / (2 * h),
            (c1(q, k, Params(p.r, p.lam + h, p.mu)) - c1(q, k, Params(p.r, p.lam - h, p.mu))) / (2 * h),
            (c1(q, k, Params(p.r, p.lam, p.mu + h)) - c1(q, k, Params(p.r, p.lam, p.mu - h))) / (2 * h),
        ]
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-9)


def test_c3_antisymmetry_and_diagonal():
    rng = np.random.default_rng(5)
    for _ in range(12):
        q = int(rng.integers(1, 10))
        m = int(rng.integers(1, 12))
        k = int(rng.integers(1, 12))
        p = Params(float(rng.uniform(0.02, 0.5)), float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        assert kernel.c3(q, m, k, p) == pytest.approx(-kernel.c3(q, k, m, p), abs=1e-14)
        assert kernel.c3(q, k, k, p) == pytest.approx(0.0, abs=1e-15)
    assert kernel.c3(2, 3, 1, Params(0.3, 0.7, -0.2)) == pytest.approx(
        -kernel.c3(2, 1, 3, Params(0.3, 0.7, -0.2)))


def test_coefficient_parameter_independence():
    base = Params(0.27, 0.6, -0.4)
    alt_mu = Params(0.27, 0.6, 1.9)
    alt_both = Params(0.27, -1.1, 0.8)
    # c2 independent of mu
    assert kernel.c2(4, 3, base) == kernel.c2(4, 3, alt_mu)
    # c3, c4 independent of lam and mu
    assert kernel.c3(4, 5, 3, base) == kernel.c3(4, 5, 3, alt_both)
    assert kernel.c4(4, 5, 3, base) == kernel.c4(4, 5, 3, alt_both)


def test_c2_trivial_value_at_half():
    assert kernel.c2(2, 1, Params(0.5, 0.0, 0.0)) == pytest.approx(-0.25, abs=1e-15)


def test_c5_matches_third_difference_oracle():
    p = Params(0.07, 0.1, 0.2)
    proj = third_derivative_mode_projection(5, 1, p, M=2048)
    assert proj / 3.0 == pytest.approx(kernel.c5(5, 1, p), rel=1e-2)
    p2 = Params(0.23, -0.4, 0.15)
    proj2 = third_derivative_mode_projection(3, 2, p2, M=2048)
    assert proj2 / 3.0 == pytest.approx(kernel.c5(3, 2, p2), rel=1e-2)


def test_c6_matches_third_difference_tripled_mode():
    for q, k, p in ((5, 1, Params(0.07, 0.1, 0.2)), (3, 2, Params(0.23, -0.4, 0.15))):
        proj = third_derivative_mode_projection(q, k, p, M=2048, out_mode=3 * k)
        assert proj == pytest.approx(kernel.c6(q, k, p), rel=1e-2, abs=1e-5)


def test_c2_matches_second_difference_doubled_mode():
    for q, k, p in ((5, 1, Params(0.09, 0.3, 0.7)), (2, 3, Params(0.31, -0.6, 0.2))):
        proj = second_derivative_mode_projection(q, k, p, out_mode=2 * k, M=2048)
        assert proj == pytest.approx(kernel.c2(q, k, p), rel=1e-2, abs=1e-5)


def test_c3_c4_match_mixed_difference_projections():
    for q, m, k, p in ((4, 3, 1, Params(0.13, 0.4, -0.2)), (2, 5, 2, Params(0.27, -0.3, 0.5))):
        proj_diff = mixed_second_derivative_projection(q, m, k, p, out_mode=m - k, M=2048)
        proj_sum = mixed_second_derivative_projection(q, m, k, p, out_mode=m + k, M=2048)
        assert proj_diff == pytest.approx(kernel.c3(q, m, k, p), rel=1e-2, abs=1e-5)
        assert proj_sum == pytest.approx(kernel.c4(q, m, k, p), rel=1e-2, abs=1e-5)


def test_tail_limit():
    p = Params(0.11, 0.0, 0.0)
    assert tail_limit(4, p) == pytest.approx(-0.5 * w_hat(0.11, 4))
    assert tail_limit(5, Params(0.05, 0.25, 0.0)) == pytest.approx(-0.75 * 2.0 / (5 * math.pi), rel=1e-12)
    # prefactor vanishes when 4 lam + 2 mu = -2
    assert tail_limit(3, Params(0.2, -1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)
    assert tail_limit(3, Params(0.2, 0.5, -2.0)) == pytest.approx(0.0, abs=1e-15)
    # limit of c1 as k grows
    p3 = Params(0.17, 0.3, -0.6)
    assert c1(4, 10**6, p3) == pytest.approx(tail_limit(4, p3), abs=1e-6)


def test_lambda0_degenerate_and_bisection_oracle():
    with pytest.raises(DegenerateKernelError):
        lambda0(5, 0.2)  # sin(2 pi) = 0
    # bisection oracle: the certified supremum flips sign exactly there
    from scipy.optimize import brentq
    from twistlab import spectrum

    val = lambda0(8, 0.3)
    f = lambda lam: spectrum.spectrum_report(8, Params(0.3, lam, 0.0), tol=1e-6).sup_value
    root = brentq(f, 0.0, 8.0, xtol=1e-10)
    assert val == pytest.approx(root, abs=1e-9)
    assert abs(val + 0.5) > 0.1
    # the critical strength never sits at the tail-degenerate value -1/2
    for q in (1, 2, 5, 9):
        for r in np.linspace(0.03, 0.49, 40):
            try:
                assert abs(lambda0(q, float(r)) + 0.5) > 1e-9
            except DegenerateKernelError:
                pass


def test_big_H_scaling_and_degeneracy():
    with pytest.raises(DegenerateKernelError):
        big_H(5, 0.5)
    assert big_H(2, 0.1) == pytest.approx(big_H(1, 0.2), rel=1e-12)
    # direct evaluation against the rescaled composition
    f = lambda x: (2.0 / math.pi) * math.sin(TWO_PI * x)
    u_comp = lambda v: (4.0 * v + 0.5 * f(2 * v) - 2.0 * f(v)) / f(v)
    for q, r in ((1, 0.1), (3, 0.07), (5, 0.09)):
        assert big_H(q, r) == pytest.approx(u_comp(q * r), rel=1e-12)


def test_iota_positive_and_asymptotic():
    u0 = upsilon0()
    grid = np.linspace(u0, 50.0, 5001)
    vals = iota(grid)
    assert np.all(vals > 0)
    grid2 = np.linspace(5.0, 50.0, 2001)
    assert np.max(np.abs(iota(grid2) - grid2)) < 1.0


def test_iota_singular_point():
    with pytest.raises(SingularPointError):
        iota(0.0)
    with pytest.raises(ValueError):
        iota(-1.0)


def test_cap_X_against_coefficient_composition():
    # X(q, r) from its defining combination of c3, c1 and w_hat at the
    # critical combined strength, versus the closed-form rescaling. The raw
    # ratio is used instead of big_H: the q r = 1/2 sample is a removable
    # singularity that the guarded accessor rejects.
    def x_composition(q, r):
        wq = w_hat(r, q)
        lam_c = (w_hat(r, 0) + w_hat(r, 2 * q) - 2.0 * wq) / (4.0 * wq)
        p0 = Params(r, lam_c, 0.0)
        return (-0.25 * wq
                + kernel.c3(q, 2 * q, q, p0) / (4.0 * kernel.c1(q, 2 * q, p0))
                * (-w_hat(r, 0) + w_hat(r, 2 * q)))

    for q, r in ((5, 0.1), (2, 0.3), (3, 0.13), (1, 0.45)):
        assert cap_X(q, r) == pytest.approx(x_composition(q, r), rel=1e-10)
    assert cap_X(5, 0.1) == pytest.approx(iota(0.5) / 5.0, rel=1e-12)


def test_upsilon0():
    u0 = upsilon0()
    assert u0 == pytest.approx(0.4065, abs=1e-3)
    assert abs(2.0 - TWO_PI * u0 + math.sin(TWO_PI * u0)) < 1e-12
    # bracket sign check
    g = lambda u: 2.0 - TWO_PI * u + math.sin(TWO_PI * u)
    assert g(0.25) > 0 > g(0.5)
    assert 0.25 < u0 < 0.5


def test_iota_matches_helper_composition():
    # the production path is the single closed-form expression; rebuild it
    # here from the rescaled helper functions as an oracle
    f = lambda v: (2.0 / math.pi) * np.sin(TWO_PI * v)
    u = lambda v: (4.0 * v + 0.5 * f(2 * v) - 2.0 * f(v)) / f(v)
    g = lambda v: 0.25 * (f(v) + f(3 * v) / 3.0 - 2.0 * f(v) - u(v) * f(v))
    h = lambda v: 0.125 * (-f(v) + 8.0 * v - f(2 * v) + f(3 * v) / 3.0)
    comp = lambda v: -0.25 * f(v) + h(v) / (4.0 * g(v)) * (-4.0 * v + 0.5 * f(2 * v))
    # stay away from half-integer v, where the helper u alone diverges
    # (removable in the product; the closed form is finite there)
    points = [0.5 * k + off for k in range(24) for off in (0.11, 0.26, 0.39)]
    for v in points:
        assert iota(v) == pytest.approx(comp(v), rel=1e-10, abs=1e-12)


_BRENT_FUNCTIONS = (
    lambda x: x**3 - 2.0 * x - 5.0,
    lambda x: math.cos(x) - x,
    lambda x: math.exp(x) - 2.0,
    lambda x: math.tanh(10.0 * (x - 0.3)),
    lambda x: (x - 0.7) ** 5,                       # flat at its root: many bisections
    lambda x: math.floor(8.0 * x) - 3.5 + 1e-3 * x,  # no zero: the sign flips at a jump
    lambda x: 2.0 - TWO_PI * x + math.sin(TWO_PI * x),
)


def _outcome(solver, *args, **kwargs):
    """The root's hex digits, or the type of the exception the solver raised."""
    try:
        return solver(*args, **kwargs).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def test_brentq_port_is_bitwise_equal_to_scipy():
    # scipy's brentq only as the oracle: the program's root finder is the port
    from scipy.optimize import brentq

    rng = np.random.default_rng(7)
    roots = 0
    for f in _BRENT_FUNCTIONS:
        for _ in range(100):
            a, b = sorted(rng.uniform(-3.0, 3.0, size=2))
            if math.copysign(1.0, f(a)) == math.copysign(1.0, f(b)):
                continue
            xtol = 10.0 ** rng.uniform(-15.0, -6.0)
            for rtol in (4.0 * np.finfo(float).eps, 8.9e-16):
                for lo, hi in ((a, b), (b, a)):
                    got = _outcome(kernel._brentq, f, lo, hi, xtol=xtol, rtol=rtol)
                    assert got == _outcome(brentq, f, lo, hi, xtol=xtol, rtol=rtol), (lo, hi)
                    roots += isinstance(got, str)
    assert roots >= 1000


def test_brentq_port_endpoint_roots_and_errors_match_scipy(monkeypatch):
    from scipy.optimize import brentq

    f = lambda x: x - 1.0
    for lo, hi in ((1.0, 2.0), (0.0, 1.0)):
        assert kernel._brentq(f, lo, hi) == brentq(f, lo, hi) == 1.0
    nan_inside = lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5
    cases = [
        (lambda x: x * x + 1.0, -1.0, 1.0),  # ends of one sign
        (nan_inside, 0.0, 1.0),              # NaN at an iterate
        (lambda x: math.nan, 0.0, 1.0),      # NaN at an end
    ]
    for args in cases:
        with pytest.raises(ValueError):
            brentq(*args)
        with pytest.raises(ValueError):
            kernel._brentq(*args)
    # out of iterations
    with pytest.raises(RuntimeError):
        brentq(math.cos, 1.0, 2.0, maxiter=2)
    monkeypatch.setattr(kernel, "_BRENT_MAXITER", 2)
    with pytest.raises(RuntimeError):
        kernel._brentq(math.cos, 1.0, 2.0)
