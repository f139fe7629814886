import math

import numpy as np
import pytest

from twistlab import bifurcation, kernel, spectrum
from twistlab.bifurcation import (
    CurveSpec,
    a_app,
    branch_eigenvalue_prediction,
    branch_profile,
    gamma1_t,
    gamma_pair,
    linear_curve,
    stability_map,
    t_family_curve,
)
from twistlab.errors import BranchAbsentError, DegenerateKernelError, DomainError, SecondHarmonicResonanceError
from twistlab.kernel import Params, w_hat


@pytest.fixture(scope="module")
def attractive5():
    r0 = spectrum.threshold(5, spectrum.ATTRACTIVE_R0)
    curve = linear_curve(5, 1, Params(r0), (1.0, 0.0, 0.0))
    return r0, curve, gamma_pair(curve)


def test_curve_spec_validation():
    r0 = spectrum.threshold(5, spectrum.ATTRACTIVE_R0)
    with pytest.raises(ValueError):  # not a crossing
        CurveSpec(Params(0.3), (1.0, 0.0, 0.0), q=5, ell=1)
    with pytest.raises(ValueError):  # boundary base
        CurveSpec(Params(0.5), (1.0, 0.0, 0.0), q=3, ell=3)
    with pytest.raises(ValueError):
        CurveSpec(Params(r0), (1.0, 0.0), q=5, ell=1)
    CurveSpec(Params(r0), (1.0, 0.0, 0.0), q=5, ell=1)


def test_gamma_pair_attractive_reference_values(attractive5):
    _, _, rep = attractive5
    assert rep.gamma1 == pytest.approx(9.494e-3, rel=1e-2)
    assert rep.gamma2 == pytest.approx(8.400e-2, rel=1e-2)
    assert rep.criticality == "subcritical"
    assert rep.branch_side == "s_negative"
    assert rep.kappa_at_bifurcation < 0
    assert rep.branch_eig_coefficient == pytest.approx(2 * rep.gamma1)
    assert not rep.degenerate_crossing


def test_gamma_pair_repulsive_reference_values():
    r0r = spectrum.threshold(5, spectrum.REPULSIVE_R0)
    curve = linear_curve(5, 11, Params(r0r), (1.0, 0.0, 0.0))
    rep = gamma_pair(curve)
    assert rep.gamma1 == pytest.approx(1.38e-3, rel=5e-2)
    assert rep.gamma2 == pytest.approx(2.12, rel=5e-2)
    # amplitude prediction in twist units
    assert a_app(rep, -1e-5) == pytest.approx(0.0394 * math.pi, rel=2e-2)


def test_gamma2_matches_finite_difference(attractive5):
    r0, curve, rep = attractive5
    h = 1e-6
    fd = (kernel.c1(5, 1, Params(r0 + h)) - kernel.c1(5, 1, Params(r0 - h))) / (2 * h)
    assert rep.gamma2 == pytest.approx(fd, rel=1e-5)
    # mixed direction
    curve_m = linear_curve(3, 1, Params(spectrum.threshold(3, spectrum.ATTRACTIVE_R0)),
                           (0.5, -0.3, 0.8))
    rep_m = gamma_pair(curve_m)
    p0 = curve_m.base
    c1_dir = lambda s: kernel.c1(3, 1, Params(p0.r + 0.5 * s, p0.lam - 0.3 * s, p0.mu + 0.8 * s))
    fd_m = (c1_dir(h) - c1_dir(-h)) / (2 * h)
    assert rep_m.gamma2 == pytest.approx(fd_m, rel=1e-5)


def test_gamma_pair_second_harmonic_resonance():
    # q r = 1/4 makes the double-frequency eigenvalue land on an exact zero
    # configuration: construct one via the lambda direction at a crossing
    # where c1(q, 2 ell) ~ 0. Easier: synthetic check through the error path.
    r0 = spectrum.threshold(5, spectrum.ATTRACTIVE_R0)
    curve = linear_curve(5, 1, Params(r0), (1.0, 0.0, 0.0))
    # directly verify the guard rejects a resonant configuration
    with pytest.raises(SecondHarmonicResonanceError):
        bifurcation._second_harmonic_denominator(2, 2, Params(0.25, 0.0, 0.0))
    # and the regular case passes
    assert bifurcation._second_harmonic_denominator(curve.q, curve.ell, curve.base) != 0


def test_t_family_gamma2_and_slope():
    q, r0 = 2, 0.3
    for t in (-1.0, 0.0, 0.7, 2.5):
        rep = gamma_pair(t_family_curve(q, r0, t))
        assert rep.gamma2 == pytest.approx(-5.0 * w_hat(r0, q), rel=1e-12)
    g0 = gamma_pair(t_family_curve(q, r0, 0.0)).gamma1
    g1 = gamma_pair(t_family_curve(q, r0, 1.0)).gamma1
    assert g1 - g0 == pytest.approx(kernel.cap_X(q, r0), rel=1e-10)
    # gamma1_t consistency with the full computation
    for t in (-0.4, 0.9):
        assert gamma1_t(q, r0, t) == pytest.approx(
            gamma_pair(t_family_curve(q, r0, t)).gamma1, abs=1e-10)


def test_t_family_type_switch_at_regular_point():
    # q r >= upsilon0 with a nonvanishing kernel coefficient: the trade-off
    # index moves the cubic coefficient through zero and flips the label
    q, r0 = 2, 0.3
    assert q * r0 >= kernel.upsilon0()
    g0 = gamma_pair(t_family_curve(q, r0, 0.0)).gamma1
    X = kernel.cap_X(q, r0)
    t_star = -g0 / X
    assert gamma1_t(q, r0, t_star) == pytest.approx(0.0, abs=1e-10)
    below = gamma_pair(t_family_curve(q, r0, t_star - 0.1))
    above = gamma_pair(t_family_curve(q, r0, t_star + 0.1))
    labels = {below.criticality, above.criticality}
    assert labels == {"subcritical", "supercritical"}


def test_t_family_degenerate_kernel_point():
    # q r = 1/2: the kernel coefficient at the twist mode vanishes and the
    # trade-off family cannot be built
    with pytest.raises(DegenerateKernelError):
        t_family_curve(2, 0.25, 0.0)


def test_a_app_identity_and_errors(attractive5):
    _, _, rep = attractive5
    s = -1e-4
    a = a_app(rep, s)
    assert a * a * rep.gamma1 + rep.gamma2 * s == pytest.approx(0.0, abs=1e-18)
    assert a_app(rep, 0.0) == 0.0
    with pytest.raises(BranchAbsentError):
        a_app(rep, 1e-4)  # branch lives on s <= 0 here
    assert a_app(rep, -1e-4) == pytest.approx(2.974e-2, rel=1e-2)


def test_branch_profile_structure(attractive5):
    _, curve, rep = attractive5
    a = 0.05
    n = 256
    z1 = branch_profile(curve, a, 1, n)
    z2 = branch_profile(curve, a, 2, n)
    x = np.arange(n) / n
    assert z1.values[0] == 0.0 and z2.values[0] == 0.0
    assert np.allclose(z1.values, 2 * math.pi * 5 * x + a * np.sin(2 * math.pi * x), atol=1e-15)
    # orders differ exactly in the doubled mode
    diff = z2.values - z1.values
    expected = z2.z2_coefficient * np.sin(2 * math.pi * 2 * x)
    assert np.allclose(diff, expected, atol=1e-15)
    assert z2.z2_coefficient == pytest.approx(
        -0.5 * a * a * kernel.c2(5, 1, curve.base) / kernel.c1(5, 2, curve.base))
    # zero amplitude reproduces the twisted profile for both orders
    for order in (1, 2):
        z0 = branch_profile(curve, 0.0, order, n)
        assert np.allclose(z0.values, 2 * math.pi * 5 * x, atol=1e-15)


def test_branch_eigenvalue_prediction_signs(attractive5):
    _, _, rep = attractive5
    assert rep.gamma1 > 0
    assert branch_eigenvalue_prediction(rep, 0.02) > 0  # subcritical: branch unstable
    flipped = bifurcation.BifurcationReport(
        q=rep.q, ell=rep.ell, p0=rep.p0, gamma1=-rep.gamma1, gamma2=rep.gamma2,
        criticality="supercritical", branch_side="s_positive",
        kappa_at_bifurcation=rep.kappa_at_bifurcation,
        branch_eig_coefficient=-2 * rep.gamma1)
    assert branch_eigenvalue_prediction(flipped, 0.02) < 0  # supercritical: stable


def test_gamma_ratio_limit():
    # attractive-family ratio approaches its large-q limit
    r0 = spectrum.threshold(50, spectrum.ATTRACTIVE_R0)
    rep = gamma_pair(linear_curve(50, 1, Params(r0), (1.0, 0.0, 0.0)))
    assert rep.gamma2 / (rep.gamma1 * 50) == pytest.approx(1.723, rel=2e-2)


def test_repulsive_ratio_outliers_reported_as_is():
    # the small-q repulsive ratios are enormous; they are computed and
    # reported without special-casing
    expected = {2: 6248.0, 3: 1045.0}
    for q, target in expected.items():
        r0r = spectrum.threshold(q, spectrum.REPULSIVE_R0)
        srep = spectrum.spectrum_report(q, Params(r0r + 1e-9), tol=1e-6)
        ell = int(srep.ks[np.argmin(srep.values)])
        rep = gamma_pair(linear_curve(q, ell, Params(r0r), (1.0, 0.0, 0.0)))
        assert rep.gamma2 / (rep.gamma1 * q) == pytest.approx(target, rel=1e-2)


def test_gamma_positive_under_attractive_assumptions():
    # whenever the crossing structure holds numerically, the cubic
    # coefficient is positive (checked across a q range in the acceptance run)
    for q in (2, 7, 19):
        r0 = spectrum.threshold(q, spectrum.ATTRACTIVE_R0)
        p0 = Params(r0)
        assert abs(kernel.c1(q, 1, p0)) < 1e-8
        assert kernel.c1(q, 2, p0) < 0
        assert kernel.c1(q + 1, 1, p0) > 0
        rep = gamma_pair(linear_curve(q, 1, p0, (1.0, 0.0, 0.0)))
        assert rep.gamma1 > 0 and rep.gamma2 > 0


def test_stability_map_boundary_matches_lambda0():
    q = 8
    smap = stability_map(q, (0.25, 0.45), (-8.0, 8.0), grid=(9, 65), tol=1e-4)
    assert smap.max_eigenvalue.shape == (9, 65)
    r_star = spectrum.threshold(q, spectrum.R_STAR)
    lam_step = smap.lambda_values[1] - smap.lambda_values[0]
    checked = 0
    for pt in smap.boundary:
        if pt.r > r_star:
            assert pt.lam == pytest.approx(kernel.lambda0(q, pt.r), abs=lam_step)
            assert pt.ell == q
            checked += 1
    assert checked >= 5
    # the grid radii with a vanishing twist-mode coefficient are flagged
    assert len(smap.flags) == 2
    assert {round(f[0], 4) for f in smap.flags} == {0.25, 0.375}
    # interior cells: sign agrees with a direct spectrum evaluation
    i, j = 4, 40
    direct = spectrum.spectrum_report(
        q, Params(smap.r_values[i], smap.lambda_values[j], 0.0), tol=1e-6).sup_value
    assert smap.max_eigenvalue[i, j] == pytest.approx(direct, abs=1e-4)


def test_stability_map_lambda_sweep_flips_sign():
    # fixed r0 with a positive leading eigenvalue at lam = 0: the sweep
    # crosses zero exactly once at the boundary value
    q, r0 = 8, 0.3
    lam0 = kernel.lambda0(q, r0)
    sup0 = spectrum.spectrum_report(q, Params(r0), tol=1e-6).sup_value
    assert sup0 > 0
    sup_above = spectrum.spectrum_report(q, Params(r0, lam0 + 1e-6, 0.0), tol=1e-6).sup_value
    sup_below = spectrum.spectrum_report(q, Params(r0, lam0 - 1e-6, 0.0), tol=1e-6).sup_value
    assert sup_below > 0 > sup_above


def test_negative_lambda_stabilizes_when_slope_is_positive():
    # where the kernel coefficient at the twist mode is negative, the
    # eigenvalue slope in lambda is positive and stabilization needs
    # lambda below the (negative) boundary value
    q, r0 = 8, 0.325
    assert kernel.w_hat(r0, q) < 0
    lam0 = kernel.lambda0(q, r0)
    assert lam0 < 0
    sup = lambda lam: spectrum.spectrum_report(q, Params(r0, lam, 0.0), tol=1e-6).sup_value
    assert sup(0.0) > 0                     # unstable without higher-order terms
    assert sup(lam0 - 0.1) < 0 < sup(lam0 + 0.1)
    assert sup(lam0) == pytest.approx(0.0, abs=1e-12)


def test_stability_map_zero_lambda_row_is_subcritical():
    # sweeping lambda at a radius just past the pairwise-only instability:
    # the boundary crosses near lambda = 0 and classifies subcritical
    q = 8
    r0a = spectrum.threshold(q, spectrum.ATTRACTIVE_R0)
    # close enough to the pairwise threshold that mode 1 still leads (the
    # following modes cross within a few 1e-3 of it)
    smap = stability_map(q, (r0a + 1e-5, r0a + 3e-5), (-0.05, 0.05), grid=(2, 41), tol=1e-4)
    assert len(smap.boundary) == 2
    for pt in smap.boundary:
        assert abs(pt.lam) < 0.005
        assert pt.criticality == "subcritical"
        assert pt.ell == 1


def test_stability_map_flags_degenerate_columns():
    # q r = 1/2 column cannot be classified
    smap = stability_map(2, (0.25, 0.25 + 1e-12), (-1.0, 1.0), grid=(2, 8), tol=1e-4)
    assert len(smap.flags) >= 1
    assert len(smap.boundary) == 0


def test_stability_map_validates_grid_and_range_either_way_round():
    for r_range, grid in [((0.3, 0.4), (1, 3)), ((0.3, 0.4), (0, 3)), ((0.3, 0.4), (3, 1)),
                          ((0.3, 0.7), (5, 3)), ((0.7, 0.3), (5, 3)), ((0.2, 0.0), (5, 3))]:
        with pytest.raises(ValueError, match="grid must be|r_range must"):
            stability_map(8, r_range, (0.0, 6.0), grid)
    descending = stability_map(8, (0.4, 0.3), (0.0, 6.0), (3, 3), tol=1e-3)
    ascending = stability_map(8, (0.3, 0.4), (0.0, 6.0), (3, 3), tol=1e-3)
    assert np.array_equal(descending.max_eigenvalue, ascending.max_eigenvalue[::-1])


def test_stability_column_equals_full_list_values():
    # float.hex of the sup row on the full mode_cutoff(8, 1e-4) list, before the
    # truncation bound decided when a list is long enough; r = 0.16 has a boundary
    golden = {
        0.16: ["0x1.182800e0d547cp-2", "0x1.e044c0632fe66p-3", "0x1.90397f04b53d4p-3",
               "0x1.402e3da63a943p-3", "0x1.e045f88f7fd62p-4", "0x1.402f75d28a83ep-4",
               "0x1.4031e62b2a636p-5", "0x1.382c4fefc0000p-19", "-0x1.402824c8aae58p-5"],
        0.5: ["0x1.ffffffffffffdp-2", "0x1.ffffffffffffep-2", "0x1.fffffffffffffp-2",
              "0x1.fffffffffffffp-2", "0x1.0000000000000p-1", "0x1.0000000000000p-1",
              "0x1.0000000000001p-1", "0x1.0000000000001p-1", "0x1.0000000000001p-1"],
    }
    q, tol = 8, 1e-4
    lams = np.linspace(-2.0, 2.0, 9)
    for r, expected in golden.items():
        sup, point, flag = bifurcation.stability_column(q, r, lams, tol=tol)
        assert [v.hex() for v in sup] == expected, r
        p0 = Params(r)
        values = kernel.c1(q, np.arange(1, spectrum.mode_cutoff(q, tol) + 1), p0)
        m0 = max(float(values.max()), kernel.tail_limit(q, p0))
        assert np.array_equal(sup, m0 - lams * w_hat(r, q))
        if point is not None:
            assert point.ell == int(np.argmax(values)) + 1
    sup, point, flag = bifurcation.stability_column(q, 0.16, lams, tol=tol)
    assert (point.lam.hex(), point.ell, flag) == ("0x1.8001f333dda97p+0", 8, None)
