import logging
import math

import numpy as np
import pytest

from twistlab import kernel, ring, spectrum
from twistlab.errors import (
    BranchAbsentError,
    ConvergenceError,
    NearSymmetryDegenerateError,
    NoBifurcationError,
    NoThresholdError,
    ResourceLimitError,
    StiffnessError,
)
from twistlab.kernel import Params
from twistlab.ring import (
    DENSE_CAP,
    SystemSpec,
    best_shift_residual,
    build_weights,
    finite_threshold,
    integrate,
    jacobian,
    jacobian_spectrum,
    newton_equilibrium,
    perturb,
    rhs,
    symmetry_shift,
    twisted_state,
    wrap_to_pi,
)

from oracles import phi_series, rk45_final_state

TWO_PI = 2.0 * math.pi


def _random_state(M, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-scale, scale, M)
    theta[0] = 0.0
    return theta


def test_build_weights_examples():
    w = build_weights(10, 0.25)
    dist = np.minimum(np.arange(10), 10 - np.arange(10))
    assert np.all(w.b[dist <= 2] == 1.0)
    assert np.all(w.b[dist == 3] == 0.5)
    assert np.all(w.b[dist >= 4] == 0.0)
    # integer r M: no fractional entry
    w2 = build_weights(20, 0.15)
    assert set(np.unique(w2.b)) == {0.0, 1.0}
    # symmetry and range
    for M, r in ((17, 0.23), (40, 0.499), (12, 0.5)):
        b = build_weights(M, r).b
        assert np.allclose(b, b[::-1][np.r_[M - 1, 0:M - 1]])  # b[d] == b[M-d]
        assert np.all((0.0 <= b) & (b <= 1.0))


def test_build_weights_riemann_sum():
    M = 10**4
    for r in (0.1, 0.33333, 0.5):
        b = build_weights(M, r).b
        assert b.sum() / M == pytest.approx(2 * r, abs=1e-3)


def test_twisted_state_examples():
    assert np.allclose(twisted_state(4, 1), [0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert np.allclose(twisted_state(7, 0), 0.0)
    # a negative count is the mirror image, bit for bit
    assert np.array_equal(twisted_state(60, -3), -twisted_state(60, 3))


def test_twist_count_recovers_any_integer_count():
    M = 60
    for q in (-3, 0, 7, M, M + 3, -2 * M - 1):
        assert ring._twist_count(twisted_state(M, q)) == q
    off = twisted_state(M, 7)
    off[5] = np.nextafter(off[5], np.inf)
    assert ring._twist_count(off) is None
    # entry 1 gives the candidate count: NaN and inf give none, and 1e306 at
    # M = 60 or 1e300 at M = 20000 overflow its state; none raises or warns
    for n, first in ((M, math.nan), (M, math.inf), (M, 1e300), (M, 1e306), (M, 1e308),
                     (20000, 1e300)):
        theta = twisted_state(n, 2)
        theta[1] = first
        assert ring._twist_count(theta) is None, (n, first)


@pytest.mark.parametrize("M,q,p", [
    (64, 3, Params(0.2, 0.0, 0.0)),
    (100, 5, Params(0.11, 0.7, 0.0)),
    (81, 2, Params(0.37, 0.4, -0.8)),
    (64, 1, Params(0.05, -0.2, 0.3)),
])
def test_twisted_state_is_equilibrium(M, q, p):
    w = build_weights(M, p.r)
    spec = SystemSpec(p, include_orders=("pairwise", "triplet", "quadruplet"))
    assert np.max(np.abs(rhs(twisted_state(M, q), spec, w))) < 1e-12
    if p.lam == 0.0 and p.mu == 0.0:
        spec_r = SystemSpec(p, sign="repulsive")
        assert np.max(np.abs(rhs(twisted_state(M, q), spec_r, w))) < 1e-12


_ALL_ORDERS = ("pairwise", "triplet", "quadruplet")


@pytest.mark.parametrize("M,orders", [
    *(pytest.param(M, _ALL_ORDERS, id=str(M)) for M in (63, 64, 255, 256, 1024)),
    *(pytest.param(M, orders, id=f"{M}-{'+'.join(orders)}")
      for M in (63, 64, 255, 256)
      for orders in [("triplet",), ("quadruplet",), ("pairwise", "quadruplet")]),
])
def test_fft_matches_naive(M, orders):
    # even M takes the half-length triplet ifft, odd M the full one; the
    # quadruplet term shares one ifft with the pairwise term when both are on
    p = Params(0.19, 0.5, -0.4)
    w = build_weights(M, p.r)
    spec = SystemSpec(p, include_orders=orders)
    theta = _random_state(M, M + 1, scale=3.0)
    fast = rhs(theta, spec, w, method="fft")
    slow = rhs(theta, spec, w, method="naive")
    assert np.max(np.abs(fast - slow)) <= 1e-9 * np.max(np.abs(slow))


def test_rhs_matches_literal_sums():
    # direct triple/quadruple loops at tiny M validate the convolution layout
    M = 12
    p = Params(0.22, 0.8, -0.6)
    w = build_weights(M, p.r)
    spec = SystemSpec(p, include_orders=("pairwise", "triplet", "quadruplet"))
    theta = _random_state(M, 5, scale=2.0)
    b = w.b
    idx = np.arange(M)
    G = np.zeros(M)
    for k in range(M):
        G[k] += sum(b[(k - j) % M] * math.sin(theta[j] - theta[k]) for j in idx) / M
        G[k] += p.lam * sum(
            b[(j + l - 2 * k) % M] * math.sin(theta[j] + theta[l] - 2 * theta[k])
            for j in idx for l in idx) / M**2
        G[k] += p.mu * sum(
            b[(j - l + m - k) % M] * math.sin(theta[j] - theta[l] + theta[m] - theta[k])
            for j in idx for l in idx for m in idx) / M**3
    literal = G - G[0]
    assert np.allclose(rhs(theta, spec, w), literal, atol=1e-13)


def test_rhs_leaves_its_inputs_unchanged():
    # the fast path works in place on the arrays it makes; the state and the
    # weights, which later calls read again, keep their bits
    import itertools

    p = Params(0.19, 0.5, -0.4)
    for M in (64, 63):
        w = build_weights(M, p.r)
        theta = _random_state(M, M, scale=3.0)
        inputs = (theta, w.b, w.b_fft)
        saved = [a.tobytes() for a in inputs]
        for n in (1, 2, 3):
            for orders in itertools.combinations(_ALL_ORDERS, n):
                spec = SystemSpec(p, include_orders=orders)
                rhs(theta, spec, w)
                for pinned in (True, False):
                    ring._rhs_fft(theta, spec, w, pinned)
                assert [a.tobytes() for a in inputs] == saved, (M, orders)


def test_rhs_validates_inputs():
    w = build_weights(16, 0.2)
    spec = SystemSpec(Params(0.2))
    bad = np.ones(16)
    with pytest.raises(ValueError):
        rhs(bad, spec, w)  # entry 0 not pinned
    with pytest.raises(ValueError):
        rhs(np.zeros(8), spec, w)  # length mismatch
    with pytest.raises(ValueError):
        rhs(np.zeros(16), spec, w, method="wat")


def test_repulsive_constraints_and_sign_flip():
    with pytest.raises(ValueError):
        SystemSpec(Params(0.2, 0.5, 0.0), sign="repulsive")
    M = 48
    w = build_weights(M, 0.13)
    theta = _random_state(M, 9)
    att = rhs(theta, SystemSpec(Params(0.13)), w)
    repl = rhs(theta, SystemSpec(Params(0.13), sign="repulsive"), w)
    assert np.allclose(att, -repl)
    ea = jacobian_spectrum(theta, SystemSpec(Params(0.13)), w)
    er = jacobian_spectrum(theta, SystemSpec(Params(0.13), sign="repulsive"), w)
    assert np.allclose(np.sort(ea), -np.sort(er)[::-1], atol=1e-12)


def test_jacobian_matches_finite_differences():
    M = 48
    p = Params(0.21, 0.6, 0.35)
    w = build_weights(M, p.r)
    spec = SystemSpec(p)
    theta = _random_state(M, 3)
    J = jacobian(theta, spec, w)
    assert J.shape == (M, M)
    # entry 0 is pinned: its velocity and its column vanish exactly
    assert not J[0].any() and not J[:, 0].any()
    h = 1e-6
    fd = np.zeros_like(J)
    for m in range(1, M):
        tp = theta.copy(); tp[m] += h
        tm = theta.copy(); tm[m] -= h
        fd[:, m] = (rhs(tp, spec, w) - rhs(tm, spec, w)) / (2 * h)
    assert np.max(np.abs(J - fd)) < 1e-5


@pytest.mark.parametrize("M,orders", [
    (48, ("triplet",)),
    (48, ("quadruplet",)),
    (61, ("pairwise", "triplet", "quadruplet")),
])
def test_higher_order_jacobian_matches_central_differences(M, orders):
    # the analytic higher-order partials against central differences of the
    # higher-order field (step 1e-6), added to the analytic pairwise block
    p = Params(0.21, 0.6, 0.35)
    w = build_weights(M, p.r)
    theta = _random_state(M, M, scale=3.0)
    spec = SystemSpec(p, include_orders=orders)
    higher = SystemSpec(p, include_orders=tuple(o for o in orders if o != "pairwise"))
    expected = (jacobian(theta, SystemSpec(p, include_orders=("pairwise",)), w)
                if "pairwise" in orders else np.zeros((M, M)))
    h = 1e-6
    for m in range(1, M):
        tp = theta.copy(); tp[m] += h
        tm = theta.copy(); tm[m] -= h
        expected[:, m] += (rhs(tp, higher, w) - rhs(tm, higher, w)) / (2 * h)
    J = jacobian(theta, spec, w)
    assert not J[0].any() and not J[:, 0].any()
    assert np.max(np.abs(J - expected)) < 1e-8


def test_row_blocking_does_not_change_results(monkeypatch):
    M = 97
    p = Params(0.23, 0.5, -0.3)
    w = build_weights(M, p.r)
    theta = _random_state(M, 6, scale=3.0)
    other = symmetry_shift(theta, 40) + 1e-3 * np.sin(np.arange(M))
    other[0] = 0.0
    J = jacobian(theta, SystemSpec(p), w)
    shift = best_shift_residual(theta, other)
    # the one-table form of the shift search is the reference
    k = np.arange(M)
    table = theta[(k[None, :] + k[:, None]) % M] - theta[:, None]
    residuals = np.max(np.abs(wrap_to_pi(table - other[None, :])), axis=1)
    j = int(np.argmin(residuals))
    assert shift == (j, float(residuals[j]))
    monkeypatch.setattr(ring, "_BLOCK_ELEMS", 10 * M + 3)  # ten rows a block, a short last one
    assert np.array_equal(jacobian(theta, SystemSpec(p), w), J)
    assert best_shift_residual(theta, other) == shift


@pytest.mark.parametrize("M", [200, 201])
@pytest.mark.parametrize("p,orders,sign", [
    (Params(0.24), ("pairwise",), "attractive"),
    (Params(0.24), ("pairwise",), "repulsive"),
    (Params(0.24, 0.3, 0.0), ("pairwise", "triplet"), "attractive"),
    (Params(0.24, 0.3, 0.2), ("pairwise", "triplet", "quadruplet"), "attractive"),
    (Params(0.13, -0.4, 0.7), ("pairwise", "triplet", "quadruplet"), "attractive"),
    (Params(0.2, 0.7, 0.0), ("triplet",), "attractive"),
    (Params(0.3, 0.0, 0.9), ("quadruplet",), "attractive"),
    (Params(0.13, -0.4, 0.7), ("triplet", "quadruplet"), "attractive"),
])
def test_twisted_spectrum_matches_dense_eigvals(M, p, orders, sign):
    # every spec and any integer count: negative, and past M
    w = build_weights(M, p.r)
    spec = SystemSpec(p, sign=sign, include_orders=orders)
    for q in (3, -3, M + 3):
        exact = jacobian_spectrum(twisted_state(M, q), spec, w)
        dense = np.linalg.eigvals(jacobian(twisted_state(M, q), spec, w)[1:, 1:])
        assert len(exact) == M - 1
        assert np.all(np.diff(exact) <= 0.0)
        assert np.max(np.abs(exact - np.sort(dense.real)[::-1])) <= 1e-12, q
        assert np.max(np.abs(dense.imag)) <= 1e-12


def test_twisted_spectrum_runs_past_dense_cap():
    p = Params(0.2, 0.5, 0.0)
    M = DENSE_CAP + 1
    w = build_weights(M, p.r)
    lead = jacobian_spectrum(twisted_state(M, 2), SystemSpec(p), w)
    expected = np.max(kernel.c1(2, np.arange(1, M), p))
    assert lead[0] == pytest.approx(expected, abs=5.0 / M)
    # without the pairwise term every mode takes the one value -lam B_q,
    # which tends to -lam w_hat(r, q)
    triplet = jacobian_spectrum(twisted_state(M, 2), SystemSpec(p, include_orders=("triplet",)), w)
    assert len(triplet) == M - 1 and np.all(triplet == triplet[0])
    assert triplet[0] == pytest.approx(-p.lam * kernel.w_hat(p.r, 2), abs=5.0 / M)


def test_jacobian_spectrum_pairs_and_c1_convergence():
    q, p = 3, Params(0.24, 0.0, 0.0)
    for M in (200, 400):
        w = build_weights(M, p.r)
        eigs = jacobian_spectrum(twisted_state(M, q), SystemSpec(p), w)
        # double multiplicity: modes k and M - k pair (closed-form path)
        top = eigs[:10]
        assert np.max(np.abs(top[0::2] - top[1::2])) < 1e-8
        expected = np.sort(kernel.c1(q, np.arange(1, M), p))[::-1][:5]
        assert np.max(np.abs(top[0::2][:5] - expected)) < 5.0 / M
    # higher orders included: the pairs agree to roundoff too
    p2 = Params(0.24, 0.3, 0.2)
    M = 300
    eigs2 = jacobian_spectrum(twisted_state(M, q), SystemSpec(p2), build_weights(M, p2.r))
    top2 = eigs2[:10]
    assert np.max(np.abs(top2[0::2] - top2[1::2])) <= 1e-12
    expected2 = np.sort(kernel.c1(q, np.arange(1, M), p2))[::-1][:5]
    assert np.max(np.abs(top2[0::2][:5] - expected2)) < 5.0 / M


def test_leading_eigenvalue_near_zero_at_continuum_threshold():
    # at the infinite-ring threshold radius, the M=1000 leading eigenvalue is
    # displaced from zero only by the O(1/M) finite-size shift
    M, q = 1000, 5
    w = build_weights(M, 0.06632)
    lead = jacobian_spectrum(twisted_state(M, q), SystemSpec(Params(0.06632)), w, n_eigs=1)[0]
    assert abs(lead) < 1e-3
    assert lead > 0  # finite threshold sits below the continuum one


def test_dense_paths_reject_rings_past_dense_cap():
    M = DENSE_CAP + 1
    p = Params(0.18, 0.4, -0.3)
    w = build_weights(M, p.r)
    theta = twisted_state(M, 2)
    perturbed = perturb(theta, 1e-3, seed=1)
    with pytest.raises(ResourceLimitError) as info:
        jacobian(theta, SystemSpec(p), w)
    assert (info.value.M, info.value.cap) == (M, DENSE_CAP)
    with pytest.raises(ResourceLimitError) as info:
        jacobian_spectrum(perturbed, SystemSpec(p), w, n_eigs=4)
    assert (info.value.M, info.value.cap) == (M, DENSE_CAP)
    # the twisted state itself takes the closed form at any M
    assert np.array_equal(jacobian_spectrum(theta, SystemSpec(p), w, n_eigs=4),
                          np.sort(ring._twisted_lattice(2, SystemSpec(p), w))[::-1][:4])
    # a Newton step needs the dense Jacobian; an equilibrium start takes none
    with pytest.raises(ResourceLimitError) as info:
        newton_equilibrium(perturbed, SystemSpec(p), w)
    assert (info.value.M, info.value.cap) == (M, DENSE_CAP)
    eq = newton_equilibrium(theta, SystemSpec(p), w)
    assert eq.iterations == 0 and eq.residual_norm < ring.NEWTON_TOL
    assert np.array_equal(eq.theta, theta)


def test_jacobian_spectrum_dispatch(monkeypatch):
    M, q = 96, 3
    p = Params(0.24, 0.3, 0.2)
    w = build_weights(M, p.r)
    spec = SystemSpec(p)
    theta = twisted_state(M, q)
    one_ulp_off = theta.copy()
    one_ulp_off[M // 2] = np.nextafter(one_ulp_off[M // 2], np.inf)
    closed_cases = [
        (twisted_state(M, q + M), spec),
        (-theta, spec),                                        # q = -3
        (theta, SystemSpec(p, include_orders=("triplet",))),  # no pairwise term
    ]
    dense_eigs = lambda th, sp: np.sort(np.linalg.eigvals(jacobian(th, sp, w)[1:, 1:]).real)[::-1]
    oracles = [dense_eigs(th, sp) for th, sp in closed_cases]
    off_oracle = dense_eigs(one_ulp_off, spec)

    def refuse(*args):
        raise AssertionError("dense path taken at a twisted state")

    monkeypatch.setattr(ring, "jacobian", refuse)
    exact = np.sort(ring._twisted_lattice(q, spec, w))[::-1]
    assert np.array_equal(jacobian_spectrum(theta, spec, w), exact)
    assert np.array_equal(jacobian_spectrum(theta, spec, w, n_eigs=4), exact[:4])
    for (th, sp), oracle in zip(closed_cases, oracles):
        assert np.max(np.abs(jacobian_spectrum(th, sp, w) - oracle)) <= 1e-12
    # validation comes first: an unpinned state is an error, not a dense solve
    unpinned = theta.copy()
    unpinned[0] = 0.1
    with pytest.raises(ValueError):
        jacobian_spectrum(unpinned, spec, w)

    calls = []
    monkeypatch.setattr(ring, "jacobian", lambda *args: calls.append(1) or jacobian(*args))
    assert np.max(np.abs(jacobian_spectrum(one_ulp_off, spec, w) - off_oracle)) <= 1e-12
    assert len(calls) == 1


def test_jacobian_spectrum_n_eigs_must_be_at_least_one():
    M, q = 100, 3
    p = Params(0.24)
    w = build_weights(M, p.r)
    theta = twisted_state(M, q)
    for state in (theta, perturb(theta, 1e-3, seed=1)):   # closed-form and dense paths
        full = jacobian_spectrum(state, SystemSpec(p), w)
        assert len(full) == M - 1
        assert np.array_equal(jacobian_spectrum(state, SystemSpec(p), w, n_eigs=1), full[:1])
        for bad in (-1, 0):
            with pytest.raises(ValueError, match="n_eigs"):
                jacobian_spectrum(state, SystemSpec(p), w, n_eigs=bad)


def test_jacobian_spectrum_logs_its_path(caplog, capsys):
    M, q = 48, 2
    p = Params(0.2)
    w = build_weights(M, p.r)
    theta = twisted_state(M, q)
    with caplog.at_level(logging.DEBUG, logger="twistlab"):
        jacobian_spectrum(theta, SystemSpec(p), w)
        jacobian_spectrum(perturb(theta, 1e-3, seed=1), SystemSpec(p), w)
    assert [r.getMessage() for r in caplog.records if r.name == "twistlab"] == [
        "jacobian_spectrum: closed-form path, M=48, q=2",
        "jacobian_spectrum: dense path, M=48",
    ]
    assert capsys.readouterr() == ("", "")


def test_integrate_immediate_equilibrium_stop():
    M, q = 60, 2
    p = Params(0.2)
    w = build_weights(M, p.r)
    theta = twisted_state(M, q)
    # one field evaluation, and neither method takes a step
    for run in (integrate, _integrate_etdrk4):
        out = run(theta, SystemSpec(p), w, t_end=50.0)
        assert (out.stop_reason, out.t_reached) == ("equilibrium", 0.0)
        assert (out.steps, out.rhs_evals, out.stop_evals, out.jacobians) == (0, 1, 0, 0)
        assert np.array_equal(out.theta, theta)


def test_states_returned_without_work_are_pinned_exactly():
    # entry 0 off by 1e-13 passes validation; the state is re-pinned there,
    # so the immediate stop and a Newton run of 0 iterations return 0 in it
    M, q = 60, 2
    p = Params(0.2)
    spec, w = SystemSpec(p), build_weights(M, p.r)
    start = twisted_state(M, q) + 1e-13
    out = integrate(start, spec, w, t_end=50.0)
    eq = newton_equilibrium(start, spec, w)
    assert (out.stop_reason, out.t_reached, eq.iterations) == ("equilibrium", 0.0, 0)
    for theta in (out.theta, eq.theta):
        assert theta[0] == 0.0
        assert np.max(np.abs(theta - twisted_state(M, q))) <= 1e-15
    assert start[0] == 1e-13                     # the caller's array is not touched


def test_integrate_needs_positive_t_end_and_tol():
    # -1 would integrate backward and a NaN t_end would never return; inf runs to the stop
    M, q = 100, 2
    p = Params(0.3)
    w = build_weights(M, p.r)
    theta0 = perturb(twisted_state(M, q), 1e-2, seed=0)
    for t_end in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="t_end"):
            integrate(theta0, SystemSpec(p), w, t_end=t_end)
    # a NaN tolerance ran to t_end unchecked, far from the equilibrium
    with pytest.raises(ValueError, match="tol"):
        integrate(theta0, SystemSpec(p), w, t_end=1.0, tol=float("nan"))
    # below 100 eps LSODA raised rtol to that floor with a warning while ETDRK4
    # honoured it, and 1e-300 failed as a StiffnessError; both rings refuse it
    # before any work
    for n in (M, ring.DENSE_CAP + 1):
        w_n = build_weights(n, p.r)
        theta_n = perturb(twisted_state(n, q), 1e-2, seed=0)
        for tol in (1e-15, 1e-300):
            with pytest.raises(ValueError, match="tol"):
                integrate(theta_n, SystemSpec(p), w_n, t_end=1.0, tol=tol)
    out = integrate(theta0, SystemSpec(p), w, t_end=float("inf"))
    assert out.stop_reason == "equilibrium" and 10.0 < out.t_reached < 1e3


def test_integrate_relaxes_to_stable_twisted_state():
    # attractive side below the threshold: small perturbations decay back
    q, M = 3, 120
    r0 = spectrum.threshold(q, spectrum.ATTRACTIVE_R0)
    p = Params(r0 - 5e-3)
    w = build_weights(M, p.r)
    spec = SystemSpec(p)
    eigs = jacobian_spectrum(twisted_state(M, q), spec, w, n_eigs=1)
    assert eigs[0] < 0
    theta0 = perturb(twisted_state(M, q), 1e-4, seed=12)
    out = integrate(theta0, spec, w, t_end=1e7, tol=1e-10)
    assert out.stop_reason == "equilibrium"
    assert np.max(np.abs(wrap_to_pi(out.theta - twisted_state(M, q)))) < 1e-6


def _count_rhs_calls(monkeypatch):
    """Count ``_rhs_fft`` calls: all of them, and those of the unpinned field."""
    counts = {"all": 0, "unpinned": 0}
    rhs_fft = ring._rhs_fft

    def counted(theta, spec, weights, pinned=True):
        counts["all"] += 1
        counts["unpinned"] += not pinned
        return rhs_fft(theta, spec, weights, pinned=pinned)

    monkeypatch.setattr(ring, "_rhs_fft", counted)
    return counts


def _attractive_relaxation_case():
    q, M = 3, 120
    p = Params(spectrum.threshold(q, spectrum.ATTRACTIVE_R0) - 5e-3)
    w, spec = build_weights(M, p.r), SystemSpec(p)
    return spec, w, perturb(twisted_state(M, q), 1e-4, seed=12)


def _integrate_etdrk4(theta0, spec, weights, **kwargs):
    """``integrate`` on the etdrk4 path, which rings above ``DENSE_CAP`` take."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "DENSE_CAP", 0)
        out = integrate(theta0, spec, weights, **kwargs)
    assert out.method == "etdrk4"
    return out


def test_integrate_etdrk4_counts_every_field_evaluation(monkeypatch):
    # one evaluation up front, four per attempted step (three stages and
    # the new state, which the error estimate needs whether or not the step
    # is accepted), one per interior point of the stop's root finding
    counts = _count_rhs_calls(monkeypatch)
    step_calls = []
    step = ring._etdrk4_step
    monkeypatch.setattr(ring, "_etdrk4_step", lambda *a: step_calls.append(a[3]) or step(*a))
    spec, w, theta0 = _attractive_relaxation_case()
    # from phases far off the twisted state some steps are rejected
    M, r = 120, 0.3
    far = perturb(twisted_state(M, 0), 3.0, seed=2), SystemSpec(Params(r)), build_weights(M, r)
    cases = [((theta0, spec, w), 5.0, "t_end"), ((theta0, spec, w), float("inf"), "equilibrium"),
             (far, 100.0, "equilibrium")]
    rejected = []
    for (th, sp, wt), t_end, reason in cases:
        counts["all"] = 0
        step_calls.clear()
        out = _integrate_etdrk4(th, sp, wt, t_end=t_end, tol=1e-10)
        assert out.stop_reason == reason and out.steps > 0 and out.jacobians == 0
        assert counts["all"] == out.rhs_evals == 1 + 4 * len(step_calls) + out.stop_evals
        assert (out.stop_evals > 0) == (reason == "equilibrium")
        assert reason == "t_end" or np.max(np.abs(rhs(out.theta, sp, wt))) <= ring.EQUILIBRIUM_TOL
        rejected.append(len(step_calls) - out.steps)
    assert rejected[0] == rejected[1] == 0 < rejected[2]


def test_integrate_lsoda_stop_costs_one_field_per_accepted_step(monkeypatch):
    # lsoda does not end a step with a field evaluation at the state it
    # accepts, so the stop pays one per accepted step and one per root
    # point; the test at t = 0 reuses the field integrate evaluates first,
    # and the rest is lsoda's unpinned field
    counts = _count_rhs_calls(monkeypatch)
    spec, w, theta0 = _attractive_relaxation_case()
    out = integrate(theta0, spec, w, t_end=1e7, tol=1e-10)
    assert out.method == "lsoda" and out.stop_reason == "equilibrium"
    assert counts["all"] == out.rhs_evals
    assert counts["unpinned"] == out.rhs_evals - out.stop_evals - 1
    assert 0 < out.stop_evals - out.steps < out.steps
    # the slow relaxation turns stiff, and the analytic band Jacobian takes over
    assert out.jacobians > 0


def test_integrate_default_builds_no_jacobian_while_not_stiff():
    # far from any threshold the ring relaxes in t ~ 100 with steps bounded by
    # accuracy: the default stays explicit and never pays for a dense LU
    q, M, r = 5, 400, 0.3
    spec, w = SystemSpec(Params(r)), build_weights(M, r)
    out = integrate(perturb(twisted_state(M, q), 1e-2, seed=1), spec, w, t_end=1e3)
    assert (out.method, out.stop_reason, out.jacobians) == ("lsoda", "equilibrium", 0)


def test_integrate_lsoda_matches_etdrk4():
    # attractive relaxation: the stop fires anywhere sup |rhs| < 1e-10, which
    # on this ring's slowest decaying mode (rate ~ 1.4e-4) is up to ~7e-7 from
    # the twisted state, so the two stopping states agree to 1e-6
    spec, w, theta0 = _attractive_relaxation_case()
    a = integrate(theta0, spec, w, t_end=1e7, tol=1e-10)
    b = _integrate_etdrk4(theta0, spec, w, t_end=1e7, tol=1e-10)
    assert (a.method, a.stop_reason, b.stop_reason) == ("lsoda", "equilibrium", "equilibrium")
    assert np.max(np.abs(a.theta - b.theta)) < 1e-6
    # short repulsive run past the finite threshold, to a fixed end time: both
    # methods meet tol 1e-11, so they agree to 1e-8
    q, M = 5, 120
    r = spectrum.threshold(q, spectrum.REPULSIVE_R0) - 0.01
    spec, w = SystemSpec(Params(r), sign=ring.REPULSIVE), build_weights(M, r)
    assert jacobian_spectrum(twisted_state(M, q), spec, w)[0] > 0.0
    theta0 = perturb(twisted_state(M, q), 1e-2, seed=3)
    a = integrate(theta0, spec, w, t_end=50.0)
    b = _integrate_etdrk4(theta0, spec, w, t_end=50.0)
    assert (a.method, a.stop_reason, b.stop_reason) == ("lsoda", "t_end", "t_end")
    assert b.t_reached == 50.0 and b.theta[0] == 0.0
    assert np.max(np.abs(a.theta - b.theta)) < 1e-8


def test_integrate_etdrk4_without_pairwise_term_matches_lsoda():
    # a triplet-only ring, whose twisted state shifts every mode by -lam B_q
    # (unstable here): both methods run at tol 1e-11 to a fixed end time and
    # agree to 1e-8. ETDRK4 takes 4 steps to t = 10; by t = 20 (9 steps) it
    # lies 1.4e-8 from a DOP853 reference at 1e-13 and LSODA 2.5e-10, because
    # the embedded estimate reads the local error of these long steps low
    M, q, p = 120, 3, Params(0.2, 0.7, 0.0)
    spec, w = SystemSpec(p, include_orders=("triplet",)), build_weights(M, p.r)
    theta0 = perturb(twisted_state(M, q), 1e-2, seed=1)
    a = integrate(theta0, spec, w, t_end=10.0)
    b = _integrate_etdrk4(theta0, spec, w, t_end=10.0)
    assert (a.method, a.stop_reason, b.stop_reason) == ("lsoda", "t_end", "t_end")
    assert np.max(np.abs(a.theta - theta0)) > 1e-2
    assert np.max(np.abs(a.theta - b.theta)) < 1e-8


def test_integrate_etdrk4_matches_scipy_rk45():
    # the large_ring spec on a ring 16 times smaller, to a fixed end time;
    # both meet tol 1e-11, so they agree to 1e-8
    M, q, p = 4096, 8, Params(0.3, 6.0, 0.2)
    spec, w = SystemSpec(p), build_weights(M, p.r)
    assert spec.include_orders == ring.ORDERS
    theta0 = perturb(twisted_state(M, q), 1e-2, seed=1)
    out = integrate(theta0, spec, w, t_end=200.0)
    assert (out.method, out.stop_reason, out.t_reached) == ("etdrk4", "t_end", 200.0)
    assert np.max(np.abs(out.theta - rk45_final_state(theta0, spec, w, 200.0, 1e-11))) < 1e-8


def test_integrate_etdrk4_runs_to_the_stop_without_t_end():
    # the large_ring spec, whose twisted state is stable, past the cap
    M, q, p = DENSE_CAP + 1, 8, Params(0.3, 6.0, 0.2)
    spec, w = SystemSpec(p), build_weights(M, p.r)
    assert jacobian_spectrum(twisted_state(M, q), spec, w, n_eigs=1)[0] < 0.0
    theta0 = perturb(twisted_state(M, q), 1e-2, seed=0)
    out = integrate(theta0, spec, w, t_end=float("inf"))
    assert (out.method, out.stop_reason) == ("etdrk4", "equilibrium")
    assert 10.0 < out.t_reached < 1e3 and out.theta[0] == 0.0
    assert np.max(np.abs(rhs(out.theta, spec, w))) <= ring.EQUILIBRIUM_TOL
    assert np.max(np.abs(wrap_to_pi(out.theta - twisted_state(M, q)))) < 1e-7


def test_etdrk4_error_estimate_is_fourth_order():
    # on the large_ring spec at M=4096, halving h shrinks the embedded
    # estimate by about 2^4; an estimate whose quadrature took N(b) alone as
    # the midpoint value would shrink by under 2^3
    M, q, p = 4096, 8, Params(0.3, 6.0, 0.2)
    spec, w = SystemSpec(p), build_weights(M, p.r)
    base = twisted_state(M, q)
    nu = np.concatenate(([0.0], ring._twisted_lattice(q, spec, w)[:M // 2]))

    def nonlinear(v):
        F = np.fft.rfft(ring._rhs_fft(base + np.fft.irfft(v, M), spec, w))
        F[0] = 0.0
        return F - nu * v

    v = np.fft.rfft(perturb(base, 1e-2, seed=1) - base)
    n1 = nonlinear(v)
    sizes = []
    for h in (1.0, 0.5, 0.25, 0.125):
        v_new, stages, phi = ring._etdrk4_step(nonlinear, v, n1, h, nu)
        err = ring._etdrk4_error(stages, nonlinear(v_new), h, phi)
        sizes.append(np.sqrt(np.mean(np.square(np.fft.irfft(err, M)))))
    orders = np.log2(np.array(sizes[:-1]) / sizes[1:])
    assert np.all((3.5 < orders) & (orders < 4.5)), orders


def test_phi_functions_match_decimal_series():
    zs = [0.0]
    for m in (1e-8, 1e-4, 0.1, 0.5, 0.999999, 1.0, 1.000001, 2.0, 5.0, 20.0, 50.0):
        zs += [m, -m]
    zs = np.array([z for z in zs if -50.0 <= z <= 20.0])
    for k, got in enumerate(ring._phi(zs), start=1):
        ref = np.array([phi_series(k, z) for z in zs])
        assert np.max(np.abs(got - ref) / ref) < 2e-15, k


def test_integrate_etdrk4_failures_are_typed(monkeypatch):
    spec, w, theta0 = _attractive_relaxation_case()
    for bad in (np.nan, np.inf):
        theta = theta0.copy()
        theta[7] = bad
        with pytest.raises(ValueError, match="finite"):
            _integrate_etdrk4(theta, spec, w, t_end=10.0)
    rhs_fft = ring._rhs_fft
    calls = [0]

    def fails_later(make_bad):
        def field(theta, *args):
            calls[0] += 1
            f = rhs_fft(theta, *args)
            return make_bad(f) if calls[0] > 10 else f
        return field

    # a NaN field mid-run: the error estimate turns NaN, which must not
    # shrink the step forever
    monkeypatch.setattr(ring, "_rhs_fft", fails_later(lambda f: f * np.nan))
    with pytest.raises(StiffnessError, match="NaN") as info:
        _integrate_etdrk4(theta0, spec, w, t_end=1e7)
    assert 0.0 < info.value.t_reached < 1e7
    # a finite field that no step size resolves: the step collapses to roundoff
    noise = np.random.default_rng(0)
    calls[0] = 0
    monkeypatch.setattr(ring, "_rhs_fft",
                        fails_later(lambda f: f + 1e10 * noise.standard_normal(len(f))))
    with pytest.raises(StiffnessError, match="roundoff") as info:
        _integrate_etdrk4(theta0, spec, w, t_end=1e7)
    assert 0.0 < info.value.t_reached < 1e7


def test_integrate_nan_field_is_typed(monkeypatch):
    # lsoda steps on through NaN states, to t_end if nothing stops it; the
    # stop test on the first of them raises, reaching the last time whose
    # test was finite
    M, q, r = 120, 3, 0.2
    spec, w = SystemSpec(Params(r)), build_weights(M, r)
    theta0 = perturb(twisted_state(M, q), 1e-2, seed=1)
    assert integrate(theta0, spec, w, t_end=1e4).rhs_evals > 500
    rhs_fft = ring._rhs_fft
    calls = [0]

    def nan_from(n):
        def field(theta, *args):
            calls[0] += 1
            f = rhs_fft(theta, *args)
            return f * np.nan if calls[0] >= n else f
        return field

    for n in (5, 50, 500):
        calls[0] = 0
        monkeypatch.setattr(ring, "_rhs_fft", nan_from(n))
        with pytest.raises(StiffnessError, match="NaN") as info:
            integrate(theta0, spec, w, t_end=1e4)
        assert 0.0 <= info.value.t_reached < 1e4
    # a NaN field at the start stops both methods at t = 0
    for run in (integrate, _integrate_etdrk4):
        calls[0] = 0
        monkeypatch.setattr(ring, "_rhs_fft", nan_from(1))
        with pytest.raises(StiffnessError, match="NaN") as info:
            run(theta0, spec, w, t_end=1e4)
        assert info.value.t_reached == 0.0


def test_integrate_method_follows_dense_cap(monkeypatch):
    # lsoda gets the analytic Jacobian up to the cap; etdrk4 takes larger rings
    calls = []

    class Recorded(ring._LSODA):
        def __init__(self, *args, **kwargs):
            calls.append("jac" in kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ring, "_LSODA", Recorded)
    p = Params(0.2)
    theta = perturb(twisted_state(DENSE_CAP + 1, 2), 1e-3, seed=1)
    out = integrate(theta, SystemSpec(p), build_weights(DENSE_CAP + 1, p.r), t_end=1e-3)
    assert out.method == "etdrk4" and calls == []
    # a ring of exactly the cap's size still takes lsoda (small cap, same rule)
    monkeypatch.setattr(ring, "DENSE_CAP", 60)
    out = integrate(perturb(twisted_state(60, 2), 1e-3, seed=1), SystemSpec(p),
                    build_weights(60, p.r), t_end=1e-3)
    assert out.method == "lsoda" and calls == [True]


def _unfold_band(band, theta):
    """The band Jacobian at ``theta`` in site order, pinned as :func:`jacobian` pins."""
    order, pos, bw, fill = band
    packed = fill(theta[order])
    i, j = np.indices(packed.shape[1:] * 2)
    inside = np.abs(i - j) <= bw
    folded = np.zeros(i.shape)
    folded[inside] = packed[(bw + i - j)[inside], j[inside]]
    A = folded[np.ix_(pos, pos)]
    A[1:] -= A[0]
    A[0] = A[:, 0] = 0.0
    return A


def test_band_jacobian_matches_dense_jacobian():
    # even and odd M, edge weights fractional (r M = 12.48, 12.61) and whole
    # (r M = 12), both signs, twisted and perturbed states; the fold makes the
    # half-width twice the largest coupled distance
    for M, r, p in ((120, 0.104, 13), (97, 0.13, 13), (120, 0.1, 12)):
        for sign in (ring.ATTRACTIVE, ring.REPULSIVE):
            spec, w = SystemSpec(Params(r), sign=sign), build_weights(M, r)
            band = ring._band_jacobian(spec, w)
            assert band[2] == 2 * p
            for theta in (twisted_state(M, 5), perturb(twisted_state(M, 5), 0.5, seed=M)):
                assert np.max(np.abs(_unfold_band(band, theta) - jacobian(theta, spec, w))) < 1e-14


def test_band_jacobian_only_for_narrow_pairwise_rings():
    M = 120
    for p in (Params(0.1, 0.5, 0.0), Params(0.1, 0.0, 0.5)):   # distant couplings: dense
        assert ring._band_jacobian(SystemSpec(p), build_weights(M, p.r)) is None
    # the packed band holds fewer entries than the dense matrix up to bw = 2p < M / 2
    for r, banded in ((0.2, True), (0.24, True), (0.25, False), (0.3, False)):
        assert (ring._band_jacobian(SystemSpec(Params(r)), build_weights(M, r)) is not None) == banded
    # weights that reach the antipode (p = M / 2): fill would count that term
    # twice on the diagonal, and the rule keeps the ring dense
    assert ring._band_jacobian(SystemSpec(Params(0.5)), build_weights(64, 0.5)) is None


def _lsoda_oracle(theta0, spec, weights, t_end, tol):
    """The LSODA run of :func:`integrate` under scipy's ``solve_ivp``, with the
    stop as a terminal event that it resolves to 4 eps: the unpinned field with
    its unpinned Jacobian, in the fold order with its band for a narrow pairwise
    ring, re-pinned at the end. The oracle of its steps and bits."""
    from scipy.integrate import solve_ivp

    band = ring._band_jacobian(spec, weights)
    if band is None:
        order = pos = slice(None)
        options = {"jac": lambda t, y: ring._unpinned_jacobian(y, spec, weights)}
    else:
        order, pos, bw, fill = band
        options = {"jac": lambda t, y: fill(y), "lband": bw, "uband": bw}

    def event(t, y):
        return float(np.max(np.abs(ring._rhs_fft(y[pos], spec, weights))) - ring.EQUILIBRIUM_TOL)

    event.terminal = True
    event.direction = -1
    sol = solve_ivp(lambda t, y: ring._rhs_fft(y[pos], spec, weights, pinned=False)[order],
                    (0.0, t_end), theta0[order], method="LSODA", rtol=tol, atol=tol,
                    events=event, **options)
    y = (sol.y_events[0][0] if sol.status == 1 else sol.y[:, -1])[pos]
    return y - y[0], sol


def _lsoda_cases():
    """``(spec, weights, theta0, t_end, tol)`` of LSODA runs that turn stiff and stop.

    The narrow pairwise relaxation takes the band; distant couplings (triplet,
    quadruplet) and a wide band (r = 0.3) take the dense unpinned Jacobian in
    the same frame (the quadruplet ring sits near its threshold, so that
    LSODA turns stiff).
    """
    spec, w, theta0 = _attractive_relaxation_case()
    cases = [(spec, w, theta0, 1e7, 1e-10)]
    r_near = spectrum.threshold(3, spectrum.ATTRACTIVE_R0) - 5e-3
    for M, q, p, sign in ((120, 3, Params(0.3, 0.5, 0.0), ring.ATTRACTIVE),
                          (120, 3, Params(r_near, 0.0, 0.05), ring.ATTRACTIVE),
                          (200, 3, Params(0.3), ring.REPULSIVE)):
        spec, w = SystemSpec(p, sign=sign), build_weights(M, p.r)
        cases.append((spec, w, perturb(twisted_state(M, q), 1e-1, seed=7), 1e4, 1e-11))
    return cases


def test_integrate_takes_the_band_for_narrow_pairwise_rings_only(monkeypatch):
    dense = ring._unpinned_jacobian
    (spec, w, theta0, t_end, tol), *dense_cases = _lsoda_cases()
    # a narrow pairwise ring turns stiff without ever building the dense Jacobian
    monkeypatch.setattr(ring, "_unpinned_jacobian", lambda *a: pytest.fail("dense jacobian built"))
    out = integrate(theta0, spec, w, t_end=t_end, tol=tol)
    assert (out.method, out.stop_reason) == ("lsoda", "equilibrium") and out.theta[0] == 0.0
    assert out.jacobians > 0 and np.max(np.abs(rhs(out.theta, spec, w))) <= ring.EQUILIBRIUM_TOL
    # every other ring builds the dense unpinned Jacobian and stops at the equilibrium
    calls = []
    monkeypatch.setattr(ring, "_unpinned_jacobian", lambda *a: calls.append(1) or dense(*a))
    for spec, w, theta0, t_end, tol in dense_cases:
        calls.clear()
        out = integrate(theta0, spec, w, t_end=t_end, tol=tol)
        assert len(calls) == out.jacobians > 0
        assert out.stop_reason == "equilibrium" and out.theta[0] == 0.0
        assert np.max(np.abs(rhs(out.theta, spec, w))) <= ring.EQUILIBRIUM_TOL


def test_integrate_steps_lsoda_as_solve_ivp_does():
    # integrate steps LSODA itself. To a fixed end time it returns the bits of
    # the same run under solve_ivp; at the stop it takes the same steps and
    # Jacobians and lies within its resolution, tol / EQUILIBRIUM_TOL in time,
    # of solve_ivp's event time
    for (spec, w, theta0, t_end, tol), t_fixed in zip(_lsoda_cases(), (1e3, 150.0, 2e3, 1e3)):
        out = integrate(theta0, spec, w, t_end=t_end, tol=tol)
        theta, sol = _lsoda_oracle(theta0, spec, w, t_end, tol)
        assert (out.stop_reason, sol.status) == ("equilibrium", 1)
        assert (out.steps, out.jacobians) == (len(sol.t) - 1, sol.njev)
        assert abs(out.t_reached - sol.t_events[0][0]) <= tol / ring.EQUILIBRIUM_TOL
        # a fixed end time before the stop, after LSODA has turned stiff
        out = integrate(theta0, spec, w, t_end=t_fixed, tol=tol)
        theta, sol = _lsoda_oracle(theta0, spec, w, t_fixed, tol)
        assert (out.stop_reason, sol.status, out.t_reached) == ("t_end", 0, sol.t[-1])
        assert (out.steps, out.jacobians) == (len(sol.t) - 1, sol.njev) and out.jacobians > 0
        assert np.array_equal(out.theta, theta)


def test_integrate_returned_equilibria_meet_the_stop():
    # the stop holds on the state returned, not only on the state it tested:
    # band LSODA and ETDRK4 from eight starts, dense LSODA on three rings from
    # three starts each
    spec, w, _ = _attractive_relaxation_case()
    runs = []
    for seed in range(8):
        theta0 = perturb(twisted_state(120, 3), 1e-4, seed=seed)
        runs += [(spec, w, run(theta0, spec, w, t_end=1e7, tol=1e-10))
                 for run in (integrate, _integrate_etdrk4)]
    for spec, w, _, t_end, tol in _lsoda_cases()[1:]:
        for seed in range(3):
            theta0 = perturb(twisted_state(w.M, 3), 1e-1, seed=seed)
            runs.append((spec, w, integrate(theta0, spec, w, t_end=t_end, tol=tol)))
    assert [o.method for _, _, o in runs].count("lsoda") == 17
    for spec, w, out in runs:
        assert out.stop_reason == "equilibrium"
        assert np.max(np.abs(rhs(out.theta, spec, w))) <= ring.EQUILIBRIUM_TOL


def test_integrate_does_not_leak_lsoda_work_arrays():
    # scipy's LSODA keeps a reference to the work arrays of every solve;
    # integrate hands each solve of one size the same arrays, so repeated
    # runs do not each leave one behind (the band work array here is
    # 8 * (22 + 88 * 120) bytes, about 85 kB)
    import gc
    import tracemalloc

    spec, w, theta0 = _attractive_relaxation_case()
    integrate(theta0, spec, w, t_end=1e7, tol=1e-10)
    tracemalloc.start()
    try:
        integrate(theta0, spec, w, t_end=1e7, tol=1e-10)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            integrate(theta0, spec, w, t_end=1e7, tol=1e-10)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 20_000, grown


def test_integrate_lets_its_lsoda_solver_go_without_the_cycle_collector(monkeypatch):
    # scipy's solver refers to itself through its field wrappers, which hold
    # integrate's closures and the band index arrays (about 2.9 MB a call at
    # fig6's size); integrate lets it go when it returns and when it raises,
    # so no run leaves its solver for a cyclic collection
    import gc
    import tracemalloc
    import weakref

    M, q = 1000, 5
    p = Params(finite_threshold(q, M, ring.REPULSIVE) - 1e-5)
    spec, w = SystemSpec(p, sign=ring.REPULSIVE), build_weights(M, p.r)
    theta0 = perturb(twisted_state(M, q), 1e-2, seed=1)
    integrate(theta0, spec, w, t_end=50.0)
    solvers, rhs_fft = [], ring._rhs_fft

    class Recorded(ring._LSODA):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(weakref.ref(self))

    monkeypatch.setattr(ring, "_LSODA", Recorded)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            integrate(theta0, spec, w, t_end=50.0)
        grown = tracemalloc.get_traced_memory()[0] - before
        calls = []

        def nan_from_the_20th_call(theta, *args):
            calls.append(1)
            return rhs_fft(theta, *args) * (np.nan if len(calls) >= 20 else 1.0)

        monkeypatch.setattr(ring, "_rhs_fft", nan_from_the_20th_call)
        with pytest.raises(StiffnessError, match="NaN"):
            integrate(theta0, spec, w, t_end=50.0)
        alive = [ref() is not None for ref in solvers]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 500_000, grown
    assert alive == [False] * 4


_FIRST_LSODA_SCRIPT = """
import sys, threading
from twistlab import ring, spectrum
from twistlab.kernel import Params

assert "scipy.integrate" not in sys.modules and "_LSODA" not in vars(ring)
q, M = 3, 120
p = Params(spectrum.threshold(q, spectrum.ATTRACTIVE_R0) - 5e-3)
spec, w = ring.SystemSpec(p), ring.build_weights(M, p.r)
theta0 = ring.perturb(ring.twisted_state(M, q), 1e-2, seed=12)
run = lambda: ring.integrate(theta0, spec, w, t_end=200.0)
key = lambda out: (out.theta.tobytes(), out.t_reached, out.steps, out.rhs_evals, out.jacobians)
start, outs, classes = threading.Barrier(2), [None, None], [None, None]

def first(i):
    start.wait(timeout=60)
    outs[i] = run()
    classes[i] = ring._LSODA

threads = [threading.Thread(target=first, args=(i,)) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
assert not any(t.is_alive() for t in threads)
serial = run()
assert outs[0].method == "lsoda" and outs[0].steps > 10, outs[0]
assert [key(out) for out in outs] == [key(serial)] * 2
one = sys.modules["twistlab._lsoda"]._LSODA
assert classes[0] is one and classes[1] is one and ring._LSODA is one, classes
print("ok")
"""


def test_first_lsoda_runs_in_two_threads_build_one_class():
    # scipy.integrate loads, and _LSODA with it, on the first LSODA run; two
    # threads that make it at once get one class and the serial run's bits.
    # A fresh interpreter, so the class is not yet loaded.
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(ring.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _FIRST_LSODA_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split()[-1] == "ok"


def test_integrate_logs_lsoda_jacobian_storage(caplog):
    spec, w, theta0 = _attractive_relaxation_case()
    wide = SystemSpec(Params(0.3)), build_weights(120, 0.3)
    # one line per run, written from the result's counts
    with caplog.at_level(logging.DEBUG, logger="twistlab"):
        runs = [integrate(theta0, spec, w, t_end=1e7, tol=1e-10),
                integrate(perturb(twisted_state(120, 3), 1e-2, seed=1), *wide, t_end=1.0),
                _integrate_etdrk4(theta0, spec, w, t_end=5.0)]
    storage = ("lsoda, band jacobian, half-bandwidth 26, ", "lsoda, dense jacobian, ", "etdrk4, ")
    assert [r.getMessage() for r in caplog.records if r.name == "twistlab"] == [
        f"integrate: {s}{o.steps} steps, {o.rhs_evals} rhs evaluations, "
        f"{o.stop_evals} in the stop, {o.jacobians} jacobians" for s, o in zip(storage, runs)]


def test_newton_from_twisted_state_is_immediate():
    M, q = 80, 3
    p = Params(0.2, 0.3, 0.1)
    w = build_weights(M, p.r)
    eq = newton_equilibrium(twisted_state(M, q), SystemSpec(p), w)
    assert eq.iterations == 0
    assert eq.residual_norm < 1e-12


def _attractive_curve(q):
    """The r-linear curve through the attractive q-crossing, as ``branch`` builds it."""
    from twistlab import bifurcation

    return bifurcation.linear_curve(q, 1, Params(spectrum.threshold(q, spectrum.ATTRACTIVE_R0)),
                                    (1.0, 0.0, 0.0))


def test_newton_converges_to_branch_equilibrium():
    from twistlab import bifurcation

    q, M, s0 = 5, 400, -1e-4
    curve = _attractive_curve(q)
    r_m, (row,) = ring.follow_branch(curve, M, [s0])
    eq, amp = row.equilibrium, row.a_app
    z1 = bifurcation.branch_profile(curve, amp, 1, M)
    z2 = bifurcation.branch_profile(curve, amp, 2, M)
    assert eq.residual_norm < 1e-12
    err1 = np.max(np.abs(eq.theta - z1.values))
    err2 = np.max(np.abs(eq.theta - z2.values))
    assert err2 < err1 < amp / 2  # lands on the branch, not back on the twisted state
    # shifted copies are equilibria too
    w = build_weights(M, r_m + s0)
    for j in (1, 57):
        shifted = symmetry_shift(eq.theta, j)
        assert np.max(np.abs(rhs(shifted, SystemSpec(Params(r_m + s0)), w))) < 1e-10


def _branch_start(q, M, s, order):
    """Order-``order`` branch profile of the attractive q-crossing and the spec at ``r_M + s``."""
    from twistlab import bifurcation

    curve = _attractive_curve(q)
    amp = bifurcation.a_app(bifurcation.gamma_pair(curve), s)
    r = finite_threshold(q, M, "attractive") + s
    profile = bifurcation.branch_profile(curve, amp, order, M)
    return profile.values.copy(), SystemSpec(Params(r)), build_weights(M, r)


def test_follow_branch_rows_stay_on_the_branch():
    from twistlab import bifurcation

    # the five rows of `branch --error-scaling`, at M=200
    q, M = 5, 200
    s_values = [-1e-5, -3e-5, -1e-4, -3e-4, -1e-3]
    curve = _attractive_curve(q)
    report = bifurcation.gamma_pair(curve)
    r_m, rows = ring.follow_branch(curve, M, s_values)
    assert r_m == finite_threshold(q, M, "attractive")
    assert [row.s for row in rows] == s_values
    for row in rows:
        assert row.a_app == bifurcation.a_app(report, row.s)
        assert row.equilibrium.residual_norm < ring.NEWTON_TOL
        # continuation keeps every row on the branch, off the twisted state
        assert np.max(np.abs(row.equilibrium.theta - twisted_state(M, q))) > row.a_app / 2, row.s
    # row 0 is Newton from the order-1 profile at r_M + s, criterion 4's route
    first = newton_equilibrium(*_branch_start(q, M, s_values[0], 1))
    assert np.array_equal(rows[0].equilibrium.theta, first.theta)
    assert (rows[0].equilibrium.residual_norm, rows[0].equilibrium.iterations) == (
        first.residual_norm, first.iterations)

    assert ring.follow_branch(curve, M, []) == (r_m, [])
    # not an r-linear curve through a pairwise base: a lambda-linear curve, and
    # an r-linear one through a crossing with lam != 0
    base = Params(0.3, kernel.lambda0(8, 0.3))
    for direction in ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="r-linear"):
            ring.follow_branch(bifurcation.linear_curve(8, 8, base, direction), M, s_values)
    # the attractive branch lives at s < 0
    with pytest.raises(BranchAbsentError):
        ring.follow_branch(curve, M, [1e-4])


def test_newton_raises_near_symmetry_degenerate_on_the_shift_family():
    # the s = -1e-3 row of `branch --error-scaling` at M=400, started from z2:
    # the iteration falls onto the ring-shift family and its LU goes singular
    theta0, spec, w = _branch_start(5, 400, -1e-3, 2)
    with pytest.raises(NearSymmetryDegenerateError,
                       match=r"reciprocal condition .* at residual ") as info:
        newton_equilibrium(theta0, spec, w)
    err = info.value
    assert 0.0 < err.rcond < ring._RCOND_LIMIT
    assert ring.NEWTON_TOL <= err.residual < np.max(np.abs(rhs(theta0, spec, w)))
    assert f"{err.rcond:.2e}" in str(err) and f"{err.residual:.2e}" in str(err)


def test_newton_convergence_error_carries_iterations_and_residual(monkeypatch):
    theta0, spec, w = _branch_start(5, 200, -1e-4, 1)
    monkeypatch.setattr(ring, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="in 1 iterations") as info:
        newton_equilibrium(theta0, spec, w)
    assert info.value.iterations == 1
    assert ring.NEWTON_TOL < info.value.residual < np.max(np.abs(rhs(theta0, spec, w)))


def test_pinned_band_solve_and_rcond_match_the_dense_jacobian():
    from scipy.linalg import lu_factor
    from scipy.linalg.lapack import dgecon

    for M in (120, 401):
        r = 0.1234                                # r M = 14.808 and 49.48: a fractional edge
        branch, _, _ = _branch_start(5, M, -1e-4, 1)
        for sign in ("attractive", "repulsive"):
            spec, w = SystemSpec(Params(r), sign=sign), build_weights(M, r)
            band = ring._band_jacobian(spec, w)
            assert band is not None and w.b[w.b != 0.0].min() < 1.0
            for theta in (perturb(twisted_state(M, 3), 0.3, seed=M), branch):
                J = jacobian(theta, spec, w)[1:, 1:]
                b = np.random.default_rng(M).standard_normal(M - 1)
                solve, rcond = ring._pinned_solver(theta, spec, w, band)
                x = np.linalg.solve(J, b)
                assert np.max(np.abs(solve(b) - x)) <= 1e-9 * np.max(np.abs(x)), (M, sign)
                expected = dgecon(lu_factor(J)[0], np.linalg.norm(J, 1), norm="1")[0]
                assert rcond == pytest.approx(expected, rel=1e-2), (M, sign)


def test_newton_takes_the_band_exactly_for_narrow_pairwise_rings(monkeypatch, caplog):
    M, q = 60, 2
    dense = []
    build = ring.jacobian
    monkeypatch.setattr(ring, "jacobian", lambda *a: dense.append(a) or build(*a))
    cases = [(Params(0.1), "band, half-bandwidth 12"),
             (Params(0.45), "dense"),                         # a wide pairwise ring
             (Params(0.1, 0.3, 0.0), "dense"),
             (Params(0.1, 0.0, 0.2), "dense")]
    for p, path in cases:
        dense.clear()
        w = build_weights(M, p.r)
        with caplog.at_level(logging.DEBUG, logger="twistlab"):
            caplog.clear()
            eq = newton_equilibrium(perturb(twisted_state(M, q), 1e-3, seed=1), SystemSpec(p), w)
        assert eq.residual_norm < ring.NEWTON_TOL and eq.iterations > 0
        assert len(dense) == (0 if path.startswith("band") else eq.iterations), p
        assert 0.0 < eq.rcond <= 1.0 and eq.halvings >= 0
        assert [r.getMessage() for r in caplog.records if r.name == "twistlab"] == [
            f"newton_equilibrium: {path}, {eq.iterations} iterations, {eq.halvings} halvings, "
            f"rcond {eq.rcond:.3e}"]
    eq = newton_equilibrium(twisted_state(M, q), SystemSpec(Params(0.1)), build_weights(M, 0.1))
    assert (eq.iterations, eq.halvings, eq.rcond) == (0, 0, None)


def test_newton_counts_step_halvings():
    # far from the twisted state the full step overshoots at first
    M, p = 60, Params(0.1)
    eq = newton_equilibrium(perturb(twisted_state(M, 2), 1.0, seed=2), SystemSpec(p),
                            build_weights(M, p.r))
    assert eq.residual_norm < ring.NEWTON_TOL and eq.halvings > 0


def test_band_newton_keeps_the_dense_cap():
    M, p = DENSE_CAP + 1, Params(0.1)
    w = build_weights(M, p.r)
    assert ring._band_jacobian(SystemSpec(p), w) is not None
    with pytest.raises(ResourceLimitError) as info:
        newton_equilibrium(perturb(twisted_state(M, 2), 1e-3, seed=1), SystemSpec(p), w)
    assert (info.value.M, info.value.cap) == (M, DENSE_CAP)


def test_follow_branch_restarts_after_a_zero_amplitude_row():
    # the s = 0 row has amplitude 0, so the next row cannot rescale it
    curve = _attractive_curve(5)
    _, (zero, row) = ring.follow_branch(curve, 200, [0.0, -1e-4])
    _, (alone,) = ring.follow_branch(curve, 200, [-1e-4])
    assert zero.a_app == 0.0 and zero.equilibrium.iterations == 0
    assert np.array_equal(row.equilibrium.theta, alone.equilibrium.theta)
    assert (row.a_app, row.equilibrium.iterations) == (alone.a_app, alone.equilibrium.iterations)


def test_finite_threshold_values_and_errors(monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("finite_threshold made a dense eigensolve")

    monkeypatch.setattr(ring, "jacobian", no_dense)
    assert finite_threshold(5, 500, "attractive") == pytest.approx(0.065298, abs=2e-4)
    with pytest.raises(ValueError):
        finite_threshold(5, 60, "attractive")  # M < 20 q
    with pytest.raises(NoBifurcationError):
        finite_threshold(1, 100, "repulsive")
    # a continuum centre too far from the finite threshold exhausts the 60-step walk
    for centre, side in ((0.001, "above"), (0.49, "below")):
        monkeypatch.setattr(spectrum, "threshold", lambda q, kind, c=centre: c)
        with pytest.raises(NoThresholdError, match=side):
            finite_threshold(5, 500, "attractive")


def test_symmetry_shift_properties():
    M = 90
    theta = _random_state(M, 21, scale=2.0)
    assert np.array_equal(symmetry_shift(theta, 0), theta)
    p = Params(0.17)
    w = build_weights(M, p.r)
    spec = SystemSpec(p)
    # equivariance: shifting commutes with the field up to re-pinning
    j = 13
    f_shifted = rhs(symmetry_shift(theta, j), spec, w)
    shifted_f = np.roll(rhs(theta, spec, w), -j)
    assert np.allclose(f_shifted, shifted_f - shifted_f[0], atol=1e-12)


def test_symmetry_shift_conjugates_flow():
    M = 50
    p = Params(0.21, 0.4, 0.0)
    w = build_weights(M, p.r)
    spec = SystemSpec(p)
    theta0 = perturb(twisted_state(M, 2), 0.2, seed=8)
    j = 11
    a = integrate(symmetry_shift(theta0, j), spec, w, t_end=3.0, tol=1e-11)
    b = integrate(theta0, spec, w, t_end=3.0, tol=1e-11)
    assert np.max(np.abs(a.theta - symmetry_shift(b.theta, j))) < 1e-7


def test_perturb_contract():
    theta = twisted_state(64, 3)
    assert np.array_equal(perturb(theta, 0.0, seed=1), theta)
    for bad in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="amplitude"):
            perturb(theta, bad, seed=1)
    a = perturb(theta, 1e-2, seed=42)
    b = perturb(theta, 1e-2, seed=42)
    assert np.array_equal(a, b)
    assert a[0] == 0.0
    assert np.max(np.abs(a - theta)) <= 1e-2


def test_best_shift_residual_recovers_shift():
    theta = twisted_state(128, 4) + 0.05 * np.sin(TWO_PI * 3 * np.arange(128) / 128)
    theta[0] = 0.0
    shifted = symmetry_shift(theta, 37)
    j, resid = best_shift_residual(shifted, theta)
    assert (j + 37) % 128 == 0 or resid < 1e-12
    assert resid < 1e-12


def test_best_shift_residual_takes_the_first_of_tied_shifts():
    # a state of period 33 on a 99-ring: shifts j, j + 33 and j + 66 tie exactly
    M = 99
    theta = np.tile(_random_state(33, 8, scale=3.0), 3)
    other = symmetry_shift(theta, 10) + 1e-3 * np.sin(np.arange(M))
    other[0] = 0.0
    k = np.arange(M)
    table = theta[(k[None, :] + k[:, None]) % M] - theta[:, None]
    residuals = np.max(np.abs(wrap_to_pi(table - other[None, :])), axis=1)
    assert residuals[10] == residuals[43] == residuals[76] == np.min(residuals)
    assert best_shift_residual(theta, other) == (10, float(residuals[10]))


def test_best_shift_residual_memory_is_bounded():
    import tracemalloc

    M = 2048
    theta = twisted_state(M, 3) + 0.05 * np.sin(TWO_PI * 2 * np.arange(M) / M)
    theta[0] = 0.0
    shifted = symmetry_shift(theta, 100)
    tracemalloc.start()
    try:
        j, resid = best_shift_residual(shifted, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (j + 100) % M == 0 and resid < 1e-12
    assert peak < 16 * 2**20
