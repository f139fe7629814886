"""The benchmark's four workloads: their inputs, operations and output checks.

A workload is built from a seed by :func:`build`. Each operation is one CLI
command run in-process through ``twistlab.cli.main`` or one library call;
it takes the round's output directory and returns what the checks read. An
operation fails when it raises or a command exits non-zero. Checks use only
:mod:`oracles` and properties the method must have; they return a list of
failure messages, empty when every output is right.
"""

import json
import math
from pathlib import Path

import numpy as np

import oracles as orc

# paper anchors (fig6 and the q = 50 ratio of fig3a)
FIG6_AMPLITUDE = 0.1258
FIG6_R_FINITE = 0.11654
RATIO_Q50 = 1.723

EQUILIBRIUM_TOL = 1e-10   # ring.integrate's fixed equilibrium stop


class Workload:
    def __init__(self, ops, check):
        self.ops = ops        # [(op name, callable(out_dir) -> output)]
        self.check = check    # callable({op name: output}) -> [failure]


def _cli(tl, name, argv):
    def run(out_dir):
        out = Path(out_dir) / name
        rc = tl.cli.main(argv + ["--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"twistlab {' '.join(argv)} exited with code {rc}")
        return out
    return name, run


def _csv(path, columns=None):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=columns)


def _json_results(path):
    return json.loads(Path(path).read_text())["results"]


def _fail_unless(failures, ok, message):
    if not ok:
        failures.append(message)


# ---------------------------------------------------------------------------
# continuum


def _check_attractive(f, q, r0):
    val = float(orc.c1(q, 1, r0))
    _fail_unless(f, abs(val) < 1e-10, f"attractive r0(q={q}) = {r0!r}: c1(q,1,r0) = {val:.3e}")


def _check_repulsive(f, q, r0, delta=1e-8):
    below = orc.inf_interval(q, r0 - delta)
    above = orc.inf_interval(q, r0 + delta)
    _fail_unless(f, below[1] < 0.0 < above[0],
                 f"repulsive r0(q={q}) = {r0!r}: inf over modes {below} below, {above} above")


def _dominance(q, r):
    """Interval of ``c1(q, q) - sup_{k != q} c1(q, k)``."""
    lo, hi = orc.sup_interval(q, r, exclude=q)
    twist = float(orc.c1(q, q, r))
    return twist - hi, twist - lo


def _check_gamma2(f, label, q, ell, r0, g2, h=1e-6):
    fd = float(orc.c1(q, ell, r0 + h) - orc.c1(q, ell, r0 - h)) / (2.0 * h)
    _fail_unless(f, abs(g2 - fd) <= 1e-6 * max(1.0, abs(fd)),
                 f"{label} q={q}: gamma2 {g2!r} against finite difference {fd!r}")


def _check_gamma_rows(f, rows, label):
    """Rows of a fig3 table: q, ell, r0, gamma1, gamma2, ratio."""
    for q, ell, r0, _, g2, _ in rows:
        _check_gamma2(f, label, int(q), int(ell), r0, g2)


def _critical_mode(q, r0):
    return int(np.argmin(orc.c1(q, np.arange(1, 100_001), r0 + 1e-9))) + 1


def continuum(tl, seed):
    rng = np.random.default_rng(seed)
    fig2_rows = rng.choice(390 * 30, size=200, replace=False)
    s = str(seed)
    ops = [
        _cli(tl, "fig2", ["spectrum", "--preset", "fig2", "--seed", s]),
        _cli(tl, "fig3a", ["gamma", "--preset", "fig3a", "--seed", s]),
        # fig3b cut from q = 2..30 to q = 2..4: the repulsive scans it makes are
        # the same kind as the other commands' (see README)
        _cli(tl, "fig3b", ["gamma", "--preset", "fig3b", "--q-max", "4", "--seed", s]),
        _cli(tl, "fig4", ["stability-map", "--preset", "fig4", "--seed", s]),
        _cli(tl, "fig7", ["iota", "--preset", "fig7", "--seed", s]),
        _cli(tl, "r_star", ["thresholds", "--q", "5", "--kind", "r-star", "--seed", s]),
        _cli(tl, "gamma_rep", ["gamma", "--q", "5", "--at", "repulsive-threshold",
                               "--s0=-1e-5", "--seed", s]),
    ]

    def check(out):
        f = orc.closed_form_self_check()
        if "fig2" in out:
            table = _csv(out["fig2"] / "fig2.csv")[fig2_rows]
            ref = orc.c1(5, table[:, 1], table[:, 0])
            err = float(np.max(np.abs(table[:, 2] - ref)))
            _fail_unless(f, err < 1e-12, f"fig2 values differ from the closed form by {err:.3e}")
            res = _json_results(out["fig2"] / "spectrum.json")
            _check_attractive(f, 5, res["r0_attractive"])
            _check_repulsive(f, 5, res["r0_repulsive"])
        if "fig3a" in out:
            rows = _csv(out["fig3a"] / "fig3a.csv")
            for q, r0 in rows[:, [0, 2]]:
                _check_attractive(f, int(q), r0)
            _check_gamma_rows(f, rows, "fig3a")
            last = rows[-1]
            _fail_unless(f, int(last[0]) == 50 and abs(last[5] / RATIO_Q50 - 1.0) < 0.02,
                         f"fig3a ratio at q={int(last[0])} is {last[5]!r}, paper {RATIO_Q50}")
        if "fig3b" in out:
            rows = _csv(out["fig3b"] / "fig3b.csv")
            for q, ell, r0 in rows[:, :3]:
                _check_repulsive(f, int(q), r0)
                _fail_unless(f, int(ell) == _critical_mode(int(q), r0),
                             f"fig3b q={int(q)}: critical mode {int(ell)}")
            _check_gamma_rows(f, rows, "fig3b")
        if "fig4" in out:
            for r, lam in _csv(out["fig4"] / "boundary.csv", (0, 1)):
                lo, hi = orc.sup_interval(8, r, lam)
                # the preset certifies its mode list to tol = 1e-4
                _fail_unless(f, lo <= 1e-4 and hi >= -1e-4,
                             f"fig4 boundary (r={r!r}, lambda={lam!r}): sup in [{lo:.3e}, {hi:.3e}]")
        if "fig7" in out:
            rows = _csv(out["fig7"] / "iota.csv")
            u0 = orc.upsilon0()
            above = rows[rows[:, 0] > u0]
            _fail_unless(f, len(above) > 0 and bool(np.all(above[:, 1] > 0)),
                         f"fig7: iota not positive above upsilon0 = {u0!r}")
            got = _json_results(out["fig7"] / "iota.json")["upsilon0"]
            _fail_unless(f, abs(got - u0) < 1e-12, f"fig7: upsilon0 {got!r} against {u0!r}")
        if "r_star" in out:
            r_star = _json_results(out["r_star"] / "thresholds.json")["r0"]
            at, below = _dominance(5, r_star), _dominance(5, r_star - 2e-6)
            _fail_unless(f, at[1] >= 0.0 > below[1],
                         f"r_star = {r_star!r}: twist dominance {at} at, {below} below")
        if "gamma_rep" in out:
            res = _json_results(out["gamma_rep"] / "gamma.json")
            _check_repulsive(f, 5, res["r0"])
            _fail_unless(f, res["ell"] == _critical_mode(5, res["r0"]),
                         f"repulsive gamma: critical mode {res['ell']}")
            _check_gamma2(f, "repulsive gamma", 5, res["ell"], res["r0"], res["gamma2"])
            _fail_unless(f, res.get("a_app", 0.0) > 0.0, "repulsive gamma: no branch amplitude")
        return f

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# finite_ring


def _check_lattice_flip(f, label, M, q, r, sign, delta=1e-5):
    below = orc.lattice_leading(M, q, r - delta, sign)
    above = orc.lattice_leading(M, q, r + delta, sign)
    want = below < 0.0 < above if sign > 0 else below > 0.0 > above
    _fail_unless(f, want, f"{label} = {r!r}: lattice leading eigenvalue {below:.3e} below, "
                          f"{above:.3e} above")


def _flip_bound(q, r0, M):
    """Criterion 8's bound on |flip - lambda0| at ring size M."""
    h = 1e-6
    slope = (orc.lambda0(q, r0 + h) - orc.lambda0(q, r0 - h)) / (2 * h)
    return abs(slope) * (0.5 / M) * 1.5 + 20.0 / M


def finite_ring(tl, seed):
    ring, Params = tl.ring, tl.kernel.Params
    rng = np.random.default_rng(seed)
    q8, r8 = 8, 0.3
    lam0 = orc.lambda0(q8, r8)
    lam_all, mu_all = 5.5 + rng.random(), 0.15 + 0.1 * rng.random()
    s = str(seed)

    def flip(M):
        def run(out_dir):
            # imported where used: the benchmark loads no module the program does not
            from scipy.optimize import brentq
            theta = ring.twisted_state(M, q8)
            weights = ring.build_weights(M, r8)

            def lead(lam):
                spec = ring.SystemSpec(Params(r8, lam, 0.0),
                                       include_orders=(ring.PAIRWISE, ring.TRIPLET))
                return float(ring.jacobian_spectrum(theta, spec, weights, n_eigs=1)[0])

            return brentq(lead, lam0 - 1.0, lam0 + 1.0, xtol=1e-6)
        return f"flip_M{M}", run

    def all_orders(out_dir):
        M = 2000
        spec = ring.SystemSpec(Params(r8, lam_all, mu_all))
        return ring.jacobian_spectrum(ring.twisted_state(M, q8), spec, ring.build_weights(M, r8))

    # `thresholds --kind attractive --M 1000` and `equilibrium --init z1` repeat
    # the attractive finite threshold and the Newton solve that fig5 makes at
    # the same point, so they are left out to keep a run short (see README)
    ops = [
        _cli(tl, "thr_rep", ["thresholds", "--q", "5", "--M", "1000", "--kind", "repulsive",
                             "--seed", s]),
        _cli(tl, "fig5", ["branch", "--preset", "fig5", "--seed", s]),
        flip(400),
        flip(800),
        ("spectrum_M2000", all_orders),
    ]

    def check(out):
        f = []
        if "thr_rep" in out:
            r = _json_results(out["thr_rep"] / "thresholds.json")["r0"]
            _check_lattice_flip(f, "repulsive r_M", 1000, 5, r, -1.0)
            _fail_unless(f, abs(r - FIG6_R_FINITE) < 5e-4,
                         f"repulsive r_M = {r!r}, paper {FIG6_R_FINITE}")
        if "fig5" in out:
            res = _json_results(out["fig5"] / "branch.json")
            _check_lattice_flip(f, "fig5 r_M", 1000, 5, res["r0_finite"], 1.0)
            theta = _csv(out["fig5"] / "equilibrium.csv")[:, 2]
            z1, z2 = _csv(out["fig5"] / "branch.csv", (2, 3)).T
            resid = float(np.max(np.abs(orc.pairwise_field(theta, res["r0_finite"] + res["s0"]))))
            _fail_unless(f, resid < 1e-10, f"fig5: direct-summation residual {resid:.3e}")
            diff, amps = orc.mode_amplitudes(theta, 5)
            dev = float(np.max(np.abs(diff)))
            e1, e2 = float(np.max(np.abs(theta - z1))), float(np.max(np.abs(theta - z2)))
            # on the mode-1 branch: nearer the branch profiles than the twisted state
            _fail_unless(f, int(np.argmax(amps[1:])) + 1 == 1 and e2 < e1 < dev,
                         f"fig5: err_z2 {e2:.3e}, err_z1 {e1:.3e}, deviation {dev:.3e}")
            _fail_unless(f, abs(e1 - res["err_z1"]) < 1e-12 and abs(e2 - res["err_z2"]) < 1e-12,
                         f"fig5: reported errors {res['err_z1']!r}, {res['err_z2']!r} "
                         f"against {e1!r}, {e2!r}")
        for M in (400, 800):
            if f"flip_M{M}" in out:
                got, bound = out[f"flip_M{M}"], _flip_bound(q8, r8, M)
                _fail_unless(f, abs(got - lam0) < bound,
                             f"M={M}: flip at lambda {got!r}, lambda0 {lam0!r}, bound {bound:.3e}")
        if "spectrum_M2000" in out:
            eigs = np.sort(out["spectrum_M2000"])
            nu = orc.lattice_spectrum(2000, q8, r8, lam_all, mu_all)
            ref = np.sort(nu)
            err = float(np.max(np.abs(eigs - ref))) if len(eigs) == len(ref) else np.inf
            # the higher-order Jacobian columns are central differences (noise ~ 1e-9)
            _fail_unless(f, err < 1e-8, f"M=2000 spectrum differs from the lattice by {err:.3e}")
            # every mode k pairs with M - k except k = M/2
            paired = np.delete(eigs, int(np.argmin(np.abs(eigs - nu[999]))))
            gap = float(np.max(np.abs(paired[0::2] - paired[1::2])))
            _fail_unless(f, gap < 1e-8, f"M=2000 eigenvalues are not paired: gap {gap:.3e}")
        return f

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# stiff_ring


def _stiff_initial_state(M, q, mode, amplitude, seed):
    """Twisted state plus seeded uniform noise whose unstable-mode part has a fixed size.

    The time to reach the equilibrium grows with the log of the unstable
    mode's initial amplitude, so that amplitude is set to its expected value
    under uniform noise, ``2 a / sqrt(3 M)``, and only its phase is random.
    """
    rng = np.random.default_rng(seed)
    noise = np.fft.rfft(rng.uniform(-amplitude, amplitude, M))
    noise[mode] = 0.0
    noise = np.fft.irfft(noise, M)
    x = np.arange(M) / M
    noise += 2.0 * amplitude / math.sqrt(3.0 * M) * np.sin(2.0 * math.pi * mode * x
                                                          + rng.uniform(0.0, 2.0 * math.pi))
    return orc.twisted(M, q) + noise - noise[0]


def stiff_ring(tl, seed):
    ring, Params = tl.ring, tl.kernel.Params
    M, q = 1000, 5
    r = orc.lattice_threshold(M, q, -1.0, 0.10, 0.13) - 1e-5
    theta0 = _stiff_initial_state(M, q, 11, 1e-2, seed)
    shift = seed % (M - 1) + 1

    def simulate(out_dir):
        spec = ring.SystemSpec(Params(r), sign=ring.REPULSIVE)
        res = ring.integrate(theta0, spec, ring.build_weights(M, r), t_end=2e6, tol=1e-11)
        # the shift relation `simulate` reports between runs, here between the
        # equilibrium and a ring shift of it
        return res, ring.best_shift_residual(res.theta, ring.symmetry_shift(res.theta, shift))

    def check(out):
        f = []
        if "simulate" in out:
            res, relation = out["simulate"]
            _fail_unless(f, relation == (shift, 0.0),
                         f"shift relation {relation} for a ring shift by {shift}")
            _fail_unless(f, res.stop_reason == "equilibrium",
                         f"stopped at {res.stop_reason} (t = {res.t_reached:.4g})")
            _, amps = orc.mode_amplitudes(res.theta, q)
            mode = int(np.argmax(amps[1:])) + 1
            _fail_unless(f, mode == 11 and abs(amps[11] - FIG6_AMPLITUDE) < 5e-3,
                         f"dominant mode {mode}, amplitude {amps[mode]:.5f}; "
                         f"paper mode 11, {FIG6_AMPLITUDE}")
            field = float(np.max(np.abs(orc.pairwise_field(res.theta, r, -1.0))))
            # the stop fires where the FFT field crosses the threshold; the two
            # summation orders differ by roundoff only
            _fail_unless(f, field < EQUILIBRIUM_TOL * (1.0 + 1e-6),
                         f"direct-summation field {field:.6e} at the final state")
        return f

    return Workload([("simulate", simulate)], check)


# ---------------------------------------------------------------------------
# large_ring


def large_ring(tl, seed):
    ring, Params = tl.ring, tl.kernel.Params
    M, q, r, lam, mu = 65536, 8, 0.3, 6.0, 0.2
    M_small = 48
    rng = np.random.default_rng(seed)
    theta_small = orc.twisted(M_small, q)
    theta_small[1:] += rng.uniform(-0.3, 0.3, M_small - 1)

    def small_field(out_dir):
        spec = ring.SystemSpec(Params(r, lam, mu))
        return ring.rhs(theta_small, spec, ring.build_weights(M_small, r))

    ops = [
        _cli(tl, "simulate", ["simulate", "--M", str(M), "--q", str(q), "--r", str(r),
                              f"--lambda={lam}", f"--mu={mu}", "--tol", "1e-11",
                              "--n-runs", "1", "--seed", str(seed)]),
        ("small_field", small_field),
    ]

    def check(out):
        f = []
        lo, hi = orc.sup_interval(q, r, lam, mu)
        _fail_unless(f, hi < 0.0, f"closed-form supremum in [{lo:.3e}, {hi:.3e}] is not below 0")
        if "simulate" in out:
            run = _json_results(out["simulate"] / "simulate.json")["runs"][0]
            _fail_unless(f, run["stop_reason"] == "equilibrium",
                         f"stopped at {run['stop_reason']}")
            theta = _csv(out["simulate"] / "state_run0.csv")[:, 2]
            diff, _ = orc.mode_amplitudes(theta, q)
            dev = float(np.max(np.abs(diff))) if len(theta) == M else np.inf
            _fail_unless(f, dev < 1e-6, f"final state is {dev:.3e} from the twisted state")
        if "small_field" in out:
            ref = orc.full_field(theta_small, r, lam, mu)
            err = float(np.max(np.abs(out["small_field"] - ref)))
            _fail_unless(f, err < 1e-12 + 1e-9 * float(np.max(np.abs(ref))),
                         f"FFT field differs from direct summation by {err:.3e} at M={M_small}")
        return f

    return Workload(ops, check)


WORKLOADS = {
    "continuum": continuum,
    "finite_ring": finite_ring,
    "stiff_ring": stiff_ring,
    "large_ring": large_ring,
}


def build(name, tl, seed):
    return WORKLOADS[name](tl, seed)
