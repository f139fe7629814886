"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Criterion 9 and the strict shift clause of criterion 6 are
strict xfails: their parameter points are degenerate for the machinery being
tested (see the companion tests and the package README).
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from twistlab import bifurcation, kernel, ring, spectrum
from twistlab.errors import DomainError
from twistlab.kernel import Params


def _line(num, status, detail, elapsed=None):
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num}: {status} - {detail}{stamp}")


@pytest.fixture(scope="module")
def attractive5():
    r0 = spectrum.threshold(5, spectrum.ATTRACTIVE_R0)
    curve = bifurcation.linear_curve(5, 1, Params(r0), (1.0, 0.0, 0.0))
    return r0, curve, bifurcation.gamma_pair(curve)


@pytest.fixture(scope="module")
def finite_r0a():
    return {M: ring.finite_threshold(5, M, ring.ATTRACTIVE) for M in (500, 1000)}


def test_criterion_01_attractive_threshold():
    t0 = time.perf_counter()
    r0 = spectrum.threshold(5, spectrum.ATTRACTIVE_R0)
    elapsed = time.perf_counter() - t0
    assert r0 == pytest.approx(0.06632, abs=1e-4)
    assert elapsed < 1.0
    _line(1, "PASS", f"r0_attractive(5) = {r0:.6f}", elapsed)


def test_criterion_02_finite_threshold_and_gap_halving(finite_r0a):
    t0 = time.perf_counter()
    r0 = spectrum.threshold(5, spectrum.ATTRACTIVE_R0)
    r500, r1000 = finite_r0a[500], finite_r0a[1000]
    elapsed = time.perf_counter() - t0
    assert r1000 == pytest.approx(0.06582, abs=2e-4)
    ratio = (r0 - r500) / (r0 - r1000)
    assert 1.538 < ratio < 2.857  # gap halves within 30%
    assert elapsed < 120.0
    _line(2, "PASS", f"r0(M=1000) = {r1000:.6f}, gap ratio 500/1000 = {ratio:.3f}", elapsed)


def test_criterion_03_repulsive_window_and_critical_mode():
    t0 = time.perf_counter()
    radii = [float(r) for r in np.arange(0.120, 0.175 + 1e-9, 1e-3)] + [0.115, 0.182]
    # the certified infimum over all modes, as the repulsive threshold uses it
    min_eig = {r: spectrum.certified_extreme(5, Params(r), lowest=True)[0] for r in radii}
    for r in radii[:-2]:
        assert min_eig[r] > 0, r
    assert min_eig[0.115] < 0
    assert min_eig[0.182] < 0
    rep = spectrum.spectrum_report(5, Params(0.118), tol=1e-6)
    mode = int(rep.ks[np.argmin(rep.values)])
    elapsed = time.perf_counter() - t0
    assert mode == 11
    assert elapsed < 1.0
    # off the clock: the full mode list to the certified cutoff gives the same bits
    ks = np.arange(1, spectrum.mode_cutoff(5, 1e-6) + 1)
    for r in radii:
        p = Params(r)
        assert min(float(np.min(kernel.c1(5, ks, p))), kernel.tail_limit(5, p)) == min_eig[r], r
    _line(3, "PASS", f"all modes positive on [0.120, 0.175], critical mode {mode}", elapsed)


def test_criterion_04_branch_regression(attractive5, finite_r0a):
    t0 = time.perf_counter()
    _, curve, rep = attractive5
    s0, M = -1e-4, 1000
    assert rep.gamma1 == pytest.approx(9.494e-3, rel=1e-2)
    assert rep.gamma2 == pytest.approx(8.400e-2, rel=1e-2)
    amp = bifurcation.a_app(rep, s0)
    assert amp == pytest.approx(2.974e-2, rel=1e-2)

    r_m = finite_r0a[M]
    z1 = bifurcation.branch_profile(curve, amp, 1, M)
    z2 = bifurcation.branch_profile(curve, amp, 2, M)
    weights = ring.build_weights(M, r_m + s0)
    spec = ring.SystemSpec(Params(r_m + s0))
    eq = ring.newton_equilibrium(z1.values.copy(), spec, weights)
    assert eq.residual_norm < 1e-10
    err1 = float(np.max(np.abs(eq.theta - z1.values)))
    err2 = float(np.max(np.abs(eq.theta - z2.values)))
    assert err2 < err1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line(4, "PASS",
          f"gamma1 = {rep.gamma1:.4e}, gamma2 = {rep.gamma2:.4e}, a_app = {amp:.4e}, "
          f"residual = {eq.residual_norm:.1e}, err_z2 = {err2:.2e} < err_z1 = {err1:.2e}",
          elapsed)


def test_criterion_05_error_order_slopes(attractive5):
    # M is not pinned by the criterion; 2000 keeps the finite-size floor
    # below the leading error terms across the whole s range
    t0 = time.perf_counter()
    r0, curve, rep = attractive5
    q, M = 5, 2000
    theta = ring.twisted_state(M, q)
    spec_p = ring.SystemSpec(Params(0.25), include_orders=(ring.PAIRWISE,))

    def leading(r):
        w = ring.build_weights(M, r)
        return float(ring.jacobian_spectrum(theta, spec_p, w, n_eigs=1)[0])

    r_m = brentq(leading, r0 - 1e-3, r0 + 1e-3, xtol=1e-9)
    s_values = np.array([-1e-5, -3e-5, -1e-4, -3e-4, -1e-3])
    errs1, errs2 = [], []
    for s in s_values:
        amp = bifurcation.a_app(rep, s)
        z1 = bifurcation.branch_profile(curve, amp, 1, M)
        z2 = bifurcation.branch_profile(curve, amp, 2, M)
        weights = ring.build_weights(M, r_m + s)
        spec = ring.SystemSpec(Params(r_m + s))
        eq = ring.newton_equilibrium(z2.values.copy(), spec, weights)
        assert eq.residual_norm < 1e-10
        # the iteration must land on the branch, not back on the twisted state
        assert np.max(np.abs(eq.theta - theta)) > amp / 2
        errs1.append(np.max(np.abs(eq.theta - z1.values)))
        errs2.append(np.max(np.abs(eq.theta - z2.values)))
    logs = np.log(np.abs(s_values))
    slope1 = float(np.polyfit(logs, np.log(errs1), 1)[0])
    slope2 = float(np.polyfit(logs, np.log(errs2), 1)[0])
    elapsed = time.perf_counter() - t0
    assert slope1 == pytest.approx(1.0, abs=0.15)
    assert slope2 == pytest.approx(1.5, abs=0.15)
    assert elapsed < 600.0
    _line(5, "PASS", f"error slopes: first order {slope1:.3f}, second order {slope2:.3f} (M={M})",
          elapsed)


@pytest.fixture(scope="module")
def fig6_runs():
    t0 = time.perf_counter()
    q, M, s = 5, 1000, -1e-5
    r_m = ring.finite_threshold(q, M, ring.REPULSIVE)
    r = r_m + s
    weights = ring.build_weights(M, r)
    spec = ring.SystemSpec(Params(r), sign=ring.REPULSIVE)
    base = ring.twisted_state(M, q)
    finals = []
    # tol an order below the equilibrium stop keeps the integrator's error
    # floor on the field well under the stop threshold
    for seed in (1, 2, 3, 4):
        theta0 = ring.perturb(base, 1e-2, seed)
        out = ring.integrate(theta0, spec, weights, t_end=2e6, tol=1e-11)
        finals.append(out)
    return q, M, s, r_m, weights, finals, time.perf_counter() - t0


def _fractional_shift_residual(theta_a, theta_b, q):
    """Best continuous ring-shift alignment residual between two states."""
    M = len(theta_a)
    base = ring.twisted_state(M, q)
    va = theta_a - base
    vb = theta_b - base
    fa = np.fft.fft(va)
    freqs = np.fft.fftfreq(M, d=1.0 / M)

    def resid(delta):
        shifted = np.fft.ifft(fa * np.exp(2j * np.pi * freqs * delta / M)).real
        cand = shifted - shifted[0]
        return float(np.max(np.abs(ring.wrap_to_pi(cand - vb))))

    j0, _ = ring.best_shift_residual(theta_a, theta_b)
    res = minimize_scalar(resid, bounds=(j0 - 1.5, j0 + 1.5), method="bounded",
                          options={"xatol": 1e-10})
    return float(res.fun)


def test_criterion_06_repulsive_equilibria(fig6_runs):
    t0 = time.perf_counter()
    q, M, s, r_m, weights, finals, fixture_time = fig6_runs
    assert r_m == pytest.approx(0.11654, abs=5e-4)

    r0r = spectrum.threshold(q, spectrum.REPULSIVE_R0)
    curve = bifurcation.linear_curve(q, 11, Params(r0r), (1.0, 0.0, 0.0))
    rep = bifurcation.gamma_pair(curve)
    amp_pred = bifurcation.a_app(rep, s)
    assert amp_pred == pytest.approx(0.0394 * math.pi, rel=2e-2)

    base = ring.twisted_state(M, q)
    for out in finals:
        assert out.stop_reason == "equilibrium"
        diff = ring.wrap_to_pi(out.theta - base)
        amps = np.abs(np.fft.rfft(diff)) * 2.0 / M
        mode = int(np.argmax(amps[1:]) + 1)
        assert mode == 11
        assert float(amps[11]) == pytest.approx(0.1258, abs=5e-3)
        # near-sinusoid: every other nonconstant mode is small
        others = amps.copy()
        others[0] = others[11] = 0.0
        assert np.max(others) < 0.1 * amps[11]

    # equilibria lie on one ring-shift orbit: integer shifts align them to the
    # lattice quantization floor ~ amplitude * pi / M, continuous shifts align
    # them to the convergence depth
    shift_bound = 2.0 * 0.126 * math.pi / M * 4.0
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            _, resid = ring.best_shift_residual(finals[i].theta, finals[j].theta)
            assert resid < shift_bound
            frac = _fractional_shift_residual(finals[i].theta, finals[j].theta, q)
            assert frac < 2e-5

    # branch eigenvalue prediction against the refined equilibrium's spectrum
    spec_att = ring.SystemSpec(Params(r_m + s))
    eq = ring.newton_equilibrium(finals[0].theta.copy(), spec_att, weights)
    prediction = rep.branch_eig_coefficient * amp_pred * amp_pred
    eigs = ring.jacobian_spectrum(eq.theta, spec_att, weights)
    sym_idx = int(np.argmin(np.abs(eigs)))
    assert abs(eigs[sym_idx]) < 10.0 / M
    eigs = np.delete(eigs, sym_idx)
    closest = eigs[np.argmin(np.abs(eigs - prediction))]
    assert np.sign(closest) == np.sign(prediction)
    assert 1.0 / 3.0 < closest / prediction < 3.0

    elapsed = time.perf_counter() - t0 + fixture_time
    assert elapsed < 600.0
    _line(6, "PASS",
          f"4 equilibria, mode 11, amplitude = {amps[11]:.5f}, a_app = {amp_pred/math.pi:.4f} pi, "
          f"branch eig {closest:.2e} vs prediction {prediction:.2e}", elapsed)


@pytest.mark.xfail(strict=True, reason=(
    "integer ring shifts quantize the pattern phase to pi/M ~ 3e-3, so two "
    "independently converged equilibria align only to ~ amplitude * pi / M "
    "~ 4e-4, two orders above the 1e-6 demanded here; the continuous-shift "
    "alignment (criterion 6 main test) is what holds at small tolerance"))
def test_criterion_06_shift_relation_strict(fig6_runs):
    finals = fig6_runs[5]
    worst = 0.0
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            _, resid = ring.best_shift_residual(finals[i].theta, finals[j].theta)
            worst = max(worst, resid)
    _line(6, "FAIL (expected)",
          f"strict integer-shift clause: worst pair residual {worst:.2e} > 1e-6")
    assert worst < 1e-6


def test_criterion_07_gamma_ratio_limit():
    t0 = time.perf_counter()
    r0 = spectrum.threshold(50, spectrum.ATTRACTIVE_R0)
    rep = bifurcation.gamma_pair(
        bifurcation.linear_curve(50, 1, Params(r0), (1.0, 0.0, 0.0)))
    ratio = rep.gamma2 / (rep.gamma1 * 50)
    elapsed = time.perf_counter() - t0
    assert ratio == pytest.approx(1.723, rel=2e-2)
    assert elapsed < 5.0
    _line(7, "PASS", f"gamma2/(gamma1*q) at q=50: {ratio:.4f}", elapsed)


def test_criterion_08_stabilization():
    t0 = time.perf_counter()
    q, r0 = 8, 0.3
    lam0 = kernel.lambda0(q, r0)

    def sup_eig(lam):
        return spectrum.spectrum_report(q, Params(r0, lam, 0.0), tol=1e-6).sup_value

    assert sup_eig(0.0) > 0
    lam_flip = brentq(sup_eig, 0.0, 8.0, xtol=1e-6)
    assert lam_flip == pytest.approx(lam0, abs=1e-6)

    # finite rings: the flip converges to lam0 at first order in 1/M, with the
    # leading finite-size effect a half-cell shift of the effective radius
    flips = {}
    for M in (400, 800):
        theta = ring.twisted_state(M, q)
        weights = ring.build_weights(M, r0)

        def lead(lam):
            spec = ring.SystemSpec(Params(r0, lam, 0.0),
                                   include_orders=(ring.PAIRWISE, ring.TRIPLET))
            return float(ring.jacobian_spectrum(theta, spec, weights, n_eigs=1)[0])

        flips[M] = brentq(lead, lam0 - 1.0, lam0 + 1.0, xtol=1e-6)
    h = 1e-6
    dlam0_dr = (kernel.lambda0(q, r0 + h) - kernel.lambda0(q, r0 - h)) / (2 * h)
    for M, flip in flips.items():
        bound = abs(dlam0_dr) * (0.5 / M) * 1.5 + 20.0 / M
        assert abs(flip - lam0) < bound, (M, flip, lam0, bound)
    ratio = (flips[400] - lam0) / (flips[800] - lam0)
    assert 1.5 < ratio < 2.7
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _line(8, "PASS",
          f"lambda0 = {lam0:.6f}, continuum flip matches to {abs(lam_flip-lam0):.1e}, "
          f"finite gaps {flips[400]-lam0:.3e}/{flips[800]-lam0:.3e} (ratio {ratio:.2f})",
          elapsed)


@pytest.mark.xfail(strict=True, reason=(
    "q=2, r=0.25 sits exactly at q r = 1/2 where the kernel coefficient at "
    "the twist mode vanishes: the critical combined strength is undefined, "
    "the crossing speed is zero, and no strength trade-off can move the "
    "twist-mode eigenvalue, so the trade-off family does not exist at this "
    "point; see the companion test at a regular point"))
def test_criterion_09_type_switching():
    q, r0 = 2, 0.25
    assert q * r0 >= kernel.upsilon0()
    try:
        curve0 = bifurcation.t_family_curve(q, r0, 0.0)  # raises: degenerate kernel
    except DomainError as exc:
        _line(9, "FAIL (expected)", f"trade-off family undefined at q r = 1/2: {exc}")
        raise
    rep0 = bifurcation.gamma_pair(curve0)
    assert rep0.gamma2 == pytest.approx(-5.0 * kernel.w_hat(r0, q), abs=1e-15)
    t_star = -rep0.gamma1 / kernel.cap_X(q, r0)
    assert bifurcation.gamma1_t(q, r0, t_star) == pytest.approx(0.0, abs=1e-8)


def test_criterion_09_companion_regular_point():
    # the same protocol at a regular radius with q r above the positivity
    # threshold: exact trade-off speed, zero crossing of the cubic
    # coefficient at -gamma1_0 / X, and a criticality flip across it
    t0 = time.perf_counter()
    q, r0 = 2, 0.3
    assert q * r0 >= kernel.upsilon0()
    for t in (-1.0, 0.0, 0.5):
        rep = bifurcation.gamma_pair(bifurcation.t_family_curve(q, r0, t))
        assert rep.gamma2 == pytest.approx(-5.0 * kernel.w_hat(r0, q), rel=1e-12)
    g0 = bifurcation.gamma_pair(bifurcation.t_family_curve(q, r0, 0.0)).gamma1
    t_star = -g0 / kernel.cap_X(q, r0)
    t_root = brentq(lambda t: bifurcation.gamma1_t(q, r0, t), t_star - 1.0, t_star + 1.0,
                    xtol=1e-12)
    assert t_root == pytest.approx(t_star, abs=1e-8)
    below = bifurcation.gamma_pair(bifurcation.t_family_curve(q, r0, t_star - 0.2))
    above = bifurcation.gamma_pair(bifurcation.t_family_curve(q, r0, t_star + 0.2))
    assert {below.criticality, above.criticality} == {"subcritical", "supercritical"}
    elapsed = time.perf_counter() - t0
    _line(9, "PASS (companion)",
          f"regular point q=2, r=0.3: t* = {t_star:.6f}, labels flip across it", elapsed)


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    # (a) mode-1 dominance of the kernel coefficients on a 200 x 50 grid
    rs = np.linspace(1e-6, 0.5, 200)
    ks = np.arange(2, 52)
    for r in rs:
        assert np.all(kernel.w_hat(float(r), 1) >= kernel.w_hat(float(r), ks) - 1e-14)

    # (b) sufficient condition implies the twist mode leads, 100 x 20 grid
    count_b = 0
    for q in range(1, 21):
        for r in np.linspace(0.005, 0.5, 100):
            if spectrum.sufficient_condition(q, float(r)):
                rep = spectrum.spectrum_report(q, Params(float(r)), tol=1e-4)
                assert rep.sup_attained_at == q, (q, r)
                count_b += 1
    assert count_b > 500

    # (c) positive cubic coefficient under the attractive crossing structure
    for q in range(2, 31):
        r0 = spectrum.threshold(q, spectrum.ATTRACTIVE_R0)
        p0 = Params(r0)
        assert abs(kernel.c1(q, 1, p0)) < 1e-8
        assert kernel.c1(q, 2, p0) < 0
        assert kernel.c1(q + 1, 1, p0) > 0
        rep = bifurcation.gamma_pair(bifurcation.linear_curve(q, 1, p0, (1.0, 0.0, 0.0)))
        assert rep.gamma1 > 0, q
        assert rep.gamma2 > 0, q

    # (d) fft and naive right-hand sides agree to 1e-9 relative sup-norm
    for M in (64, 256, 1024):
        p = Params(0.19, 0.5, -0.4)
        w = ring.build_weights(M, p.r)
        spec = ring.SystemSpec(p, include_orders=ring.ORDERS)
        rng = np.random.default_rng(M)
        theta = rng.uniform(-3, 3, M)
        theta[0] = 0.0
        fast = ring.rhs(theta, spec, w, method="fft")
        slow = ring.rhs(theta, spec, w, method="naive")
        assert np.max(np.abs(fast - slow)) <= 1e-9 * np.max(np.abs(slow))

    # (e) Jacobian eigenvalue pairs match the analytic sequence at O(1/M)
    q = 3
    p = Params(0.24, 0.3, 0.2)
    for M in (300, 600):
        w = ring.build_weights(M, p.r)
        eigs = ring.jacobian_spectrum(ring.twisted_state(M, q), ring.SystemSpec(p), w)
        top = eigs[:10]
        assert np.max(np.abs(top[0::2] - top[1::2])) < 1e-6  # double multiplicity
        expected = np.sort(kernel.c1(q, np.arange(1, M), p))[::-1][:5]
        assert np.max(np.abs(top[0::2][:5] - expected)) < 5.0 / M

    # (f) the trade-off scaling function: positive past its root, linear growth
    u0 = kernel.upsilon0()
    grid = np.linspace(u0, 50.0, 5001)
    vals = kernel.iota(grid)
    assert np.all(vals > 0)
    grid2 = np.linspace(5.0, 50.0, 2001)
    assert np.max(np.abs(kernel.iota(grid2) - grid2)) < 1.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _line(10, "PASS", f"property suites (a)-(f), {count_b} grid points under (b)", elapsed)


def test_criterion_11_performance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    def best_time(fn, reps):
        times = []
        for _ in range(reps):
            t = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t)
        return min(times)

    # naive quadruplet path at M = 512, extrapolated quadratically to 4096
    M0 = 512
    p = Params(0.2, 0.5, 0.3)
    w0 = ring.build_weights(M0, p.r)
    spec = ring.SystemSpec(p, include_orders=ring.ORDERS)
    th0 = rng.uniform(-2, 2, M0)
    th0[0] = 0.0
    t_naive = best_time(lambda: ring.rhs(th0, spec, w0, method="naive"), 3)

    M1 = 4096
    w1 = ring.build_weights(M1, p.r)
    th1 = rng.uniform(-2, 2, M1)
    th1[0] = 0.0
    ring.rhs(th1, spec, w1)  # warm-up call, off the clock
    t_fft = best_time(lambda: ring.rhs(th1, spec, w1), 7)

    extrapolated = t_naive * (M1 / M0) ** 2
    speedup = extrapolated / t_fft
    assert speedup >= 50.0, (t_naive, t_fft, speedup)

    M2 = 65536
    p2 = Params(0.1)
    w2 = ring.build_weights(M2, p2.r)
    spec2 = ring.SystemSpec(p2)
    th2 = rng.uniform(-2, 2, M2)
    th2[0] = 0.0
    ring.rhs(th2, spec2, w2)
    t_big = best_time(lambda: ring.rhs(th2, spec2, w2), 7)
    assert t_big < 0.1
    elapsed = time.perf_counter() - t0
    _line(11, "PASS",
          f"asymptotic speedup x{speedup:.0f} (naive {t_naive*1e3:.1f} ms at 512 -> "
          f"fft {t_fft*1e3:.2f} ms at 4096), pairwise M=65536 in {t_big*1e3:.1f} ms",
          elapsed)
