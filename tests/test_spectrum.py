import math

import numpy as np
import pytest

from twistlab import kernel, spectrum
from twistlab.errors import NoBifurcationError
from twistlab.kernel import Params, w_hat
from twistlab.spectrum import (
    alt_eigenvalue,
    kappa,
    mode_cutoff,
    spectrum_report,
    sufficient_condition,
    threshold,
    triangle_tail_bound,
    truncation_bound,
)

from oracles import alt_coupling_eigenvalue_fd, product4_field, product4_field_double_sum


def test_mode_cutoff_certifies_tail():
    for q, tol in ((3, 1e-4), (7, 1e-6), (1, 1e-3)):
        K = mode_cutoff(q, tol)
        assert truncation_bound(q, K) < tol
        # the bound really dominates |c1(k) - tail| for k > K
        p = Params(0.19, 0.4, -0.2)
        ks = np.arange(K + 1, K + 2000)
        gap = np.abs(kernel.c1(q, ks, p) - kernel.tail_limit(q, p))
        assert np.all(gap <= truncation_bound(q, K) + 1e-15)


def test_spectrum_report_trivial_half_range():
    rep = spectrum_report(3, Params(0.5), tol=1e-6)
    assert rep.sup_value == pytest.approx(0.5, abs=1e-14)
    assert rep.sup_attained_at == 3
    # every other mode over the full certified list
    full = kernel.c1(3, np.arange(1, mode_cutoff(3, 1e-6) + 1), Params(0.5))
    assert np.max(np.abs(np.delete(full, 2))) < 1e-14


def test_spectrum_report_all_positive_window():
    # the certified infimum over all modes, tail included, is positive
    rep = spectrum_report(5, Params(0.14), tol=1e-6)
    assert np.all(rep.values > 0)
    assert rep.tail > 0
    assert spectrum.certified_extreme(5, Params(0.14), lowest=True)[0] > 0


def test_spectrum_report_repulsive_critical_mode():
    # the lowest mode over the full certified list, and as certified_extreme finds it
    p = Params(0.118)
    full = kernel.c1(5, np.arange(1, mode_cutoff(5, 1e-6) + 1), p)
    assert int(np.argmin(full)) + 1 == 11
    assert spectrum.certified_extreme(5, p, lowest=True)[1] == 11


def test_spectrum_report_truncation_stability():
    # doubling the listed range moves the certified supremum by less than tol
    q, p, tol = 4, Params(0.22, 0.3, 0.0), 1e-5
    rep = spectrum_report(q, p, tol=tol)
    K2 = 2 * len(rep.ks)
    ks2 = np.arange(1, K2 + 1)
    sup2 = max(float(np.max(kernel.c1(q, ks2, p))), kernel.tail_limit(q, p))
    assert abs(sup2 - rep.sup_value) < tol


def test_spectrum_report_equals_full_list_supremum():
    # the listing stops once its maximum settles the supremum, or at the
    # ceiling; its supremum fields are those of the full mode_cutoff list
    tol = 1e-4
    at_ceiling = set()
    for q in (1, 2, 5, 13):
        ceiling = mode_cutoff(q, tol)
        for r in [1e-5, 1e-3] + list(np.linspace(0.02, 0.5, 9)):
            for lam, mu in ((0.0, 0.0), (0.8, -0.3), (-1.5, 0.0)):
                p = Params(float(r), lam, mu)
                rep = spectrum_report(q, p, tol=tol)
                full = kernel.c1(q, np.arange(1, ceiling + 1), p)
                i = int(np.argmax(full))
                attained = full[i] >= rep.tail
                assert rep.sup_value == (float(full[i]) if attained else rep.tail)
                assert rep.sup_attained_at == (i + 1 if attained else None)
                assert rep.tail == kernel.tail_limit(q, p)
                n = len(rep.ks)
                assert np.array_equal(rep.ks, np.arange(1, n + 1))
                assert np.array_equal(rep.values, full[:n])
                assert rep.truncation_bound == truncation_bound(q, n)
                at_ceiling.add(n == ceiling)
    assert at_ceiling == {True, False}  # some settled early, some ran to the ceiling


def test_sup_linear_shift_in_lambda():
    # sup(q, (r, lam + d, mu)) = sup(q, (r, lam, mu)) - d * w_hat(r, q)
    q, r, mu = 6, 0.31, 0.2
    base = spectrum_report(q, Params(r, 0.1, mu), tol=1e-6)
    assert base.sup_attained_at is not None
    for d in (0.05, -0.3, 1.2):
        shifted = spectrum_report(q, Params(r, 0.1 + d, mu), tol=1e-6)
        assert shifted.sup_value == pytest.approx(
            base.sup_value - d * w_hat(r, q), rel=1e-12, abs=1e-12)


def test_kappa_excludes_critical_mode():
    r0a = threshold(5, spectrum.ATTRACTIVE_R0)
    val = kappa(5, 1, Params(r0a), tol=1e-6)
    assert val < 0  # all other modes still stable at the mode-1 crossing
    assert kappa(3, 3, Params(0.5), tol=1e-6) == pytest.approx(0.0, abs=1e-14)
    # full-scan oracle with a large fixed cutoff
    p = Params(0.11787)
    ks = np.arange(1, 10**4 + 1)
    vals = kernel.c1(5, ks, p)
    vals[10] = -np.inf  # exclude ell = 11
    oracle = max(float(vals.max()), kernel.tail_limit(5, p))
    assert kappa(5, 11, p, tol=1e-6) == pytest.approx(oracle, abs=1e-9)
    # repulsive convention: sup over k != 11 of -c1 is negative here
    assert -oracle < 0


def test_threshold_attractive():
    r0 = threshold(5, spectrum.ATTRACTIVE_R0)
    assert r0 == pytest.approx(0.06632, abs=1e-4)
    assert abs(kernel.c1(5, 1, Params(r0))) < 1e-8


def test_threshold_repulsive_window():
    r0r = threshold(5, spectrum.REPULSIVE_R0)
    # the two reported reference values straddle 0.117-0.118; accept both
    assert abs(r0r - 0.1174) < 1.2e-3
    # window in 2 q r units, against the eigenvalue-plot boundaries
    ks = np.arange(1, mode_cutoff(5, 1e-6) + 1)
    from scipy.optimize import brentq

    f = lambda r: min(float(np.min(kernel.c1(5, ks, Params(r)))), kernel.tail_limit(5, Params(r)))
    upper = brentq(f, 0.15, 0.2, xtol=1e-12)
    assert 2 * 5 * r0r == pytest.approx(1.170, abs=2e-3)
    assert 2 * 5 * upper == pytest.approx(1.789, abs=2e-3)


def test_threshold_repulsive_q1_has_no_bifurcation():
    with pytest.raises(NoBifurcationError):
        threshold(1, spectrum.REPULSIVE_R0)


def test_threshold_r_star():
    r_star = threshold(8, spectrum.R_STAR)
    assert 0.0 < r_star < 0.5
    ks = np.arange(1, mode_cutoff(8, 1e-6) + 1)
    # argmax is the twist mode on a sample of radii above the threshold
    for r in np.linspace(r_star + 1e-4, 0.5, 13):
        vals = kernel.c1(8, ks, Params(float(r)))
        assert int(np.argmax(vals)) + 1 == 8
    # and is not immediately below it
    vals_below = kernel.c1(8, ks, Params(r_star - 5e-4))
    assert int(np.argmax(vals_below)) + 1 != 8


def test_sufficient_condition_examples():
    assert sufficient_condition(2, 0.5)
    assert not sufficient_condition(1, 0.01)
    # the condition is monotone in r
    assert sufficient_condition(3, 0.4)
    assert not sufficient_condition(3, 0.05)


def test_sufficient_condition_is_strictly_stronger_than_its_product_form():
    # the product threshold q r >= upsilon0 does NOT imply the sufficient
    # condition (counterexample below), though the conclusion still holds
    # there; the true implication runs the other way
    from twistlab.kernel import upsilon0

    q, r = 2, 0.25
    assert q * r >= upsilon0()
    assert not sufficient_condition(q, r)
    rep = spectrum_report(q, Params(r), tol=1e-4)
    assert rep.sup_attained_at == q  # conclusion holds regardless
    # condition => product form, on a grid
    for qq in range(1, 12):
        for rr in np.linspace(0.02, 0.5, 49):
            if sufficient_condition(qq, float(rr)):
                assert 2.0 <= 2 * math.pi * qq * rr - math.sin(2 * math.pi * qq * rr) + 1e-12


def test_sufficient_condition_implies_twist_mode_leads():
    # moderate grid here; the acceptance suite runs the full 100 x 20 version
    for q in range(1, 11):
        for r in np.linspace(0.02, 0.5, 25):
            if sufficient_condition(q, float(r)):
                rep = spectrum_report(q, Params(float(r)), tol=1e-4)
                assert rep.sup_attained_at == q, (q, r)


def test_alt_eigenvalue_general_family():
    # mode independent for k != 0, zero at k = 0
    assert alt_eigenvalue("general_d", 3, 0.2, 0, m_last=-2) == 0.0
    vals = [alt_eigenvalue("general_d", 3, 0.2, k, m_last=-2) for k in (1, 2, 7, 40)]
    assert np.allclose(vals, vals[0])
    assert vals[0] == pytest.approx(-w_hat(0.2, 3), rel=1e-12)
    # lattice directional-derivative oracle, canonical diffusive weights (1, 1, -2):
    # confirms the sign of the printed formula
    num = alt_coupling_eigenvalue_fd("general_d", 3, 0.2, 5, M=512, m_weights=(1, 1, -2))
    assert num == pytest.approx(0.5 * (-2) * w_hat(0.2, 3), rel=5e-2)
    # a second weight vector with positive trailing weight
    num2 = alt_coupling_eigenvalue_fd("general_d", 2, 0.17, 3, M=512, m_weights=(1, -2, 1))
    assert num2 == pytest.approx(0.5 * 1 * w_hat(0.17, 2), rel=5e-2)


def test_alt_eigenvalue_product4():
    assert alt_eigenvalue("product4", 3, 0.5, 2) == pytest.approx(0.0, abs=1e-15)
    assert alt_eigenvalue("product4", 4, 0.5, 9) == pytest.approx(0.0, abs=1e-15)
    val = alt_eigenvalue("product4", 2, 0.23, 3)
    # lattice linearization converges to the formula at first order in 1/M
    num256 = alt_coupling_eigenvalue_fd("product4", 2, 0.23, 3, M=256)
    num512 = alt_coupling_eigenvalue_fd("product4", 2, 0.23, 3, M=512)
    assert num512 == pytest.approx(val, rel=5e-2)
    assert abs(num512 - val) < 0.7 * abs(num256 - val)


def test_product4_oracle_field_matches_double_sum():
    # the O(M^2) convolution form of the product4 oracle's field against the
    # O(M^3) double sum it replaced, on a small ring with random phases
    from twistlab import ring

    theta = np.random.default_rng(3).uniform(-2, 2, 48)
    b = ring.build_weights(48, 0.23).b
    assert np.max(np.abs(product4_field(b, theta) - product4_field_double_sum(b, theta))) < 1e-15


def test_alt_eigenvalue_triangle():
    # truncation convergence of the series with its certified tail bound
    v200 = alt_eigenvalue("triangle", 2, 0.2, 3, ell_cutoff=200)
    v400 = alt_eigenvalue("triangle", 2, 0.2, 3, ell_cutoff=400)
    assert abs(v200 - v400) < triangle_tail_bound(2, 3, 200) + triangle_tail_bound(2, 3, 400)
    # the three-factor variant decays one order faster and meets 1e-4 here
    c200 = alt_eigenvalue("triangle", 2, 0.2, 3, ell_cutoff=200, corrected=True)
    c400 = alt_eigenvalue("triangle", 2, 0.2, 3, ell_cutoff=400, corrected=True)
    assert abs(c200 - c400) < 1e-4
    assert alt_eigenvalue("triangle", 2, 0.2, 0) == 0.0
    with pytest.raises(ValueError):
        alt_eigenvalue("triangle", 5, 0.2, 4, ell_cutoff=8)


def test_alt_eigenvalue_triangle_corrected_matches_lattice():
    # direct lattice linearization of the triple-kernel coupling converges to
    # the three-factor series, not to the two-factor one
    for q, r, k in ((2, 0.2, 3), (3, 0.33, 2)):
        printed = alt_eigenvalue("triangle", q, r, k, ell_cutoff=6400)
        fixed = alt_eigenvalue("triangle", q, r, k, ell_cutoff=6400, corrected=True)
        num = alt_coupling_eigenvalue_fd("triangle", q, r, k, M=256)
        assert num == pytest.approx(fixed, rel=6e-2)
        assert abs(num - printed) > 10 * abs(num - fixed)


def test_alt_eigenvalue_validation():
    with pytest.raises(ValueError):
        alt_eigenvalue("nope", 2, 0.2, 1)
    with pytest.raises(ValueError):
        alt_eigenvalue("general_d", 2, 0.2, 1)  # missing m_last


# float.hex of threshold(q, kind) as computed on the full mode_cutoff(q, 1e-6)
# list, before the truncation bound decided when a list is long enough
_GOLDEN_THRESHOLDS = {
    spectrum.ATTRACTIVE_R0: {
        1: "0x1.5ca1eaf07e5e4p-2", 2: "0x1.55555555556eap-3", 3: "0x1.c58a1b7d40ac7p-4",
        5: "0x1.0fa7ab3552119p-4", 8: "0x1.535ed8d433852p-5", 13: "0x1.a1970e7ece368p-6",
        30: "0x1.69deb72674d47p-7", 50: "0x1.b23c93eb271fdp-8",
    },
    spectrum.REPULSIVE_R0: {
        2: "0x1.1c395bcb306dap-2", 3: "0x1.880e2a0516cb1p-3", 5: "0x1.df66722639954p-4",
        8: "0x1.2bf66249cbe37p-4", 13: "0x1.718817a998759p-5", 30: "0x1.40323f36761fbp-6",
        50: "0x1.804aa3c94b0d5p-7",
    },
    spectrum.R_STAR: {
        1: "0x1.0624dd2f1a200p-10", 2: "0x1.6016041893741p-3", 3: "0x1.3b374bc6a7eefp-3",
        5: "0x1.ab3f7ced9166ep-4", 8: "0x1.91f0a3d70a3bep-4", 13: "0x1.3603126e978bap-4",
        30: "0x1.987ef9db22cd5p-5", 50: "0x1.26eb851eb84e3p-5",
    },
}


@pytest.mark.parametrize("kind", spectrum.THRESHOLD_KINDS)
def test_thresholds_equal_full_list_values(kind):
    for q, expected in _GOLDEN_THRESHOLDS[kind].items():
        assert float(threshold(q, kind)).hex() == expected, (kind, q)


def test_thresholds_do_not_depend_on_the_block_size(monkeypatch):
    # one radius per block: every sign change and trailing radius straddles
    # a block boundary
    monkeypatch.setattr(spectrum, "_BLOCK_ELEMS", 1)
    for kind in (spectrum.REPULSIVE_R0, spectrum.R_STAR):
        for q in (2, 5, 13):
            assert float(threshold(q, kind)).hex() == _GOLDEN_THRESHOLDS[kind][q], (kind, q)


def _scan_grids():
    """The repulsive scan's radii (upward) and the r_star scan's (downward)."""
    step = spectrum._SCAN_STEP
    return np.arange(step, 0.5 + step / 2, step), np.arange(0.5, step / 2, -step)


@pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 30, 50])
def test_grid_listing_equals_per_radius_c1_bit_for_bit(q):
    K = max(4 * q, 64)
    for grid in _scan_grids():
        values, tails = spectrum._grid_c1(q, K, grid)
        for r, row, tail in zip(grid, values, tails):
            p = Params(float(r))
            assert row.tobytes() == kernel.c1(q, np.arange(1, K + 1), p).tobytes(), (q, r)
            assert float(tail).hex() == kernel.tail_limit(q, p).hex(), (q, r)


@pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 30, 50])
def test_sweeps_decide_every_radius_as_the_per_radius_tests(q):
    up, down = _scan_grids()
    fallbacks = {"repulsive": [], "r_star": []}

    def counted(name, test):
        def fallback(q, r):
            fallbacks[name].append(r)
            return test(q, r)
        return fallback

    if q > 1:
        *_, lowest = spectrum._sweep(q, up, spectrum._lowest_rows,
                                     counted("repulsive", spectrum._lowest_sign))
        assert np.array_equal(lowest, [spectrum._lowest_sign(q, r) for r in up])
    *_, leads = spectrum._sweep(q, down, spectrum._leading_rows,
                                counted("r_star", spectrum._leading_is_twist))
    assert leads.tolist() == [spectrum._leading_is_twist(q, r) for r in down]
    # near r = 1/2 (repulsive, even q) and near r = 0 (q = 1, r_star) the
    # first listing leaves the test open
    if q == 2:
        assert len(fallbacks["repulsive"]) == 2
    if q == 1:
        assert len(fallbacks["r_star"]) == 2


def _full_list_kappa(q, ell, p, tol=1e-6):
    values = kernel.c1(q, np.arange(1, max(mode_cutoff(q, tol), ell + 1) + 1), p)
    values[ell - 1] = -np.inf
    return max(float(values.max()), kernel.tail_limit(q, p))


def test_kappa_equals_full_list_value():
    # (q, ell, (r, lam, mu), float.hex of kappa on the full list); ell = 200
    # lies past the first list of max(4q, 64) modes
    golden = [
        (5, 1, (0.06632201078639745, 0.0, 0.0), "-0x1.0857c06d8c800p-14"),
        (5, 11, (0.11787, 0.0, 0.0), "0x1.542fddc8ab233p-3"),
        (8, 8, (0.3, 0.5, 0.1), "0x1.b95d5859d44fbp-4"),
        (13, 2, (0.07, -0.2, 0.3), "0x1.386605a4f0b1ep-4"),
        (2, 200, (0.2, 0.0, 0.0), "0x1.1906858d30d1bp-4"),
    ]
    for q, ell, p, expected in golden:
        p = Params(*p)
        got = kappa(q, ell, p)
        assert got.hex() == expected, (q, ell)
        assert got.hex() == _full_list_kappa(q, ell, p).hex()


def _count_c1_modes(monkeypatch):
    sizes = []
    c1 = kernel.c1

    def counted(q, k, p):
        sizes.append(int(np.size(k)))
        return c1(q, k, p)

    monkeypatch.setattr(kernel, "c1", counted)
    return sizes


def test_repulsive_threshold_lists_few_modes(monkeypatch):
    # the full list at every scan point and root-finder iterate is ~1.6e8 values
    sizes = _count_c1_modes(monkeypatch)
    threshold(5, spectrum.REPULSIVE_R0)
    assert 0 < sum(sizes) < 5e6


def test_unsettled_tests_grow_to_the_full_list(monkeypatch):
    # at r = 1/2 every w_hat(r, j != 0) vanishes up to rounding, so every mode
    # but the twist mode sits on the tail, inside any tail band: neither the
    # supremum over k != q nor the infimum settles before the ceiling
    sizes = _count_c1_modes(monkeypatch)
    q, p = 3, Params(0.5)
    ceiling = mode_cutoff(q, 1e-6)
    got = kappa(q, q, p)
    assert max(sizes) == ceiling and len(sizes) > 1
    assert got.hex() == _full_list_kappa(q, q, p).hex()

    sizes.clear()
    value, k = spectrum.certified_extreme(q, p, lowest=True)
    assert max(sizes) == ceiling and len(sizes) > 1
    full = kernel.c1(q, np.arange(1, ceiling + 1), p)
    assert value == min(float(full.min()), kernel.tail_limit(q, p))
    assert k == int(np.argmin(full)) + 1


def test_repulsive_critical_mode_equals_full_list_argmin():
    for q, ell in {2: 5, 3: 7, 5: 11, 8: 17, 13: 28, 30: 65}.items():
        r0 = threshold(q, spectrum.REPULSIVE_R0)
        assert spectrum.repulsive_critical_mode(q, r0) == ell, q
    r0 = threshold(5, spectrum.REPULSIVE_R0)
    full = kernel.c1(5, np.arange(1, mode_cutoff(5, 1e-6) + 1), Params(r0 + 1e-9))
    assert int(np.argmin(full)) + 1 == 11


def test_threshold_crossing_pairs_radius_and_mode():
    assert spectrum.threshold_crossing(5, spectrum.ATTRACTIVE_R0) == (
        threshold(5, spectrum.ATTRACTIVE_R0), 1)
    assert spectrum.threshold_crossing(5, spectrum.REPULSIVE_R0) == (
        threshold(5, spectrum.REPULSIVE_R0), 11)
    with pytest.raises(ValueError):
        spectrum.threshold_crossing(5, spectrum.R_STAR)


def test_near_zero_modes_equal_full_list():
    # q r = 3/2 puts the tail at zero, so near-zero modes recur along the whole
    # list and the test runs to the ceiling
    r0 = threshold(5, spectrum.ATTRACTIVE_R0)
    for q, p in ((5, Params(r0)), (5, Params(0.3)), (8, Params(0.2, 0.3, 0.1))):
        full = kernel.c1(q, np.arange(1, mode_cutoff(q, 1e-6) + 1), p)
        expected = np.nonzero(np.abs(full) < 1e-6)[0] + 1
        assert np.array_equal(spectrum.near_zero_modes(q, p, 1e-6), expected)
    assert list(spectrum.near_zero_modes(5, Params(r0), 1e-6)) == [1]
