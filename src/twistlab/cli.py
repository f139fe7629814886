"""Command-line front end: reproducible experiments with CSV/JSON reports.

Every run writes a JSON envelope (schema 1) echoing the full configuration,
plus fixed-schema CSV files per command. Deterministic commands produce
byte-identical outputs for identical configurations. The finite-ring layer,
and with it scipy, is imported only inside the commands that use it.
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, bifurcation, kernel, spectrum
from .errors import DomainError
from .kernel import Params

# command -> preset -> the option values it pins
PRESETS = {
    "spectrum": {"fig2": {"q": 5, "lam": 0.0, "mu": 0.0}},
    "gamma": {"fig3a": {"q_max": 50}, "fig3b": {"q_max": 30}},
    "stability-map": {"fig4": {"q": 8, "r": "0.05:0.5:128", "lam": "-2:2:128"}},
    "branch": {"fig5": {"q": 5, "s0": -1e-4, "M": 1000}},
    "simulate": {"fig6": {"M": 1000, "q": 5, "sign": "repulsive", "s": -1e-5,
                          "amplitude": 1e-2, "n_runs": 4, "t_end": 2e6}},
    "iota": {"fig7": {"lo": 0.05, "hi": 3.0, "steps": 300}},
}

_THRESHOLD_KINDS = {"attractive": spectrum.ATTRACTIVE_R0, "repulsive": spectrum.REPULSIVE_R0,
                    "r-star": spectrum.R_STAR}
_R_LINEAR = (1.0, 0.0, 0.0)

EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


@dataclass
class RunConfig:
    command: str
    parameters: dict
    output_dir: Path
    seed: int = 0
    formats: tuple = ("csv", "json")


@dataclass
class ReportEnvelope:
    config: RunConfig
    results: dict
    provenance: list = field(default_factory=list)
    csv_files: dict = field(default_factory=dict)   # name -> (header, rows)


def _fmt(x):
    """Shortest round-trip text for floats; plain text otherwise."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _parse_range(text):
    """Parse 'lo:hi:n' into (lo, hi, n)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected lo:hi:n, got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _load_config_file(path):
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Twisted states on nonlocally coupled rings: spectra, "
                    "bifurcations, and finite-ring experiments.",
    )
    parser.add_argument("--version", action="version", version=f"twistlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default="twistlab-out", help="output directory")
        sp.add_argument("--seed", type=int, default=0, help="base seed for stochastic commands")
        sp.add_argument("--formats", default="csv,json",
                        help="comma subset of {csv,json}; the JSON envelope is always written")
        sp.add_argument("--config", default=None,
                        help="flat key=value config file; overrides the preset, flags override it")

    sp = sub.add_parser("kernel", help="evaluate one kernel-level quantity")
    sp.add_argument("--name", required=True, choices=_KERNEL_QUANTITIES)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.add_argument("--mu", type=float, default=0.0)
    sp.add_argument("--upsilon", type=float, default=None)
    common(sp)

    sp = sub.add_parser("spectrum", help="eigenvalue listing with a certified supremum")
    sp.add_argument("--q", type=int)
    sp.add_argument("--r", type=float)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.add_argument("--mu", type=float, default=0.0)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--kmax", default="auto",
                    help="'auto' (the listing that certifies the supremum) or N for modes 1..N")
    sp.add_argument("--preset", choices=PRESETS["spectrum"], default=None)
    common(sp)

    sp = sub.add_parser("thresholds", help="threshold coupling radii")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--kind", required=True, choices=["attractive", "repulsive", "r-star"])
    sp.add_argument("--M", type=int, default=None,
                    help="when given, the finite-size threshold on an M-ring instead")
    common(sp)

    sp = sub.add_parser("gamma", help="pitchfork coefficients along a parameter curve")
    sp.add_argument("--q", type=int)
    sp.add_argument("--ell", type=int, default=None, help="critical mode (default: auto-detect)")
    sp.add_argument("--family", default="r-linear",
                    choices=["r-linear", "lambda-linear", "mixed", "t-family"])
    sp.add_argument("--at", default=None,
                    choices=["attractive-threshold", "repulsive-threshold"],
                    help="place the curve base at a computed threshold radius")
    sp.add_argument("--r0", type=float, default=None, help="explicit base radius")
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.add_argument("--mu", type=float, default=0.0)
    sp.add_argument("--direction", default=None, help="dr,dlam,dmu for --family mixed")
    sp.add_argument("--s0", type=float, default=None,
                    help="curve offset at which to report the branch amplitude")
    sp.add_argument("--t", type=float, default=0.0, help="trade-off index for --family t-family")
    sp.add_argument("--q-max", type=int, default=None, help="sweep q = 2..q-max (ratio table)")
    sp.add_argument("--preset", choices=PRESETS["gamma"], default=None)
    common(sp)

    sp = sub.add_parser("branch", help="bifurcating-branch profiles and Newton refinement")
    sp.add_argument("--q", type=int, default=5)
    sp.add_argument("--s0", type=float, default=-1e-4)
    sp.add_argument("--M", type=int, default=1000)
    sp.add_argument("--error-scaling", action="store_true",
                    help="sweep s over decades and report error slopes")
    sp.add_argument("--preset", choices=PRESETS["branch"], default=None)
    common(sp)

    sp = sub.add_parser("simulate", help="integrate perturbed twisted states to equilibrium")
    sp.add_argument("--M", type=int, default=1000)
    sp.add_argument("--q", type=int, default=5)
    sp.add_argument("--sign", default="attractive", choices=["attractive", "repulsive"])
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--s", type=float, default=None,
                    help="offset from the finite-size threshold (when --r is not given)")
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.add_argument("--mu", type=float, default=0.0)
    sp.add_argument("--t-end", type=float, default=2e6)
    sp.add_argument("--tol", type=float, default=1e-11)
    sp.add_argument("--amplitude", type=float, default=1e-2)
    sp.add_argument("--n-runs", type=int, default=4)
    sp.add_argument("--preset", choices=PRESETS["simulate"], default=None)
    common(sp)

    sp = sub.add_parser("equilibrium", help="Newton refinement of an equilibrium")
    sp.add_argument("--M", type=int, default=1000)
    sp.add_argument("--q", type=int, default=5)
    sp.add_argument("--sign", default="attractive", choices=["attractive", "repulsive"])
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.add_argument("--mu", type=float, default=0.0)
    sp.add_argument("--init", default="twisted", choices=["twisted", "z1"],
                    help="start from the twisted state or the first-order branch profile")
    sp.add_argument("--s0", type=float, default=-1e-4)
    common(sp)

    sp = sub.add_parser("stability-map", help="(r, lambda) stability landscape")
    sp.add_argument("--q", type=int, default=8)
    sp.add_argument("--r", default="0.05:0.5:128", help="r range as lo:hi:n")
    sp.add_argument("--lambda", dest="lam", default="-2:2:128", help="lambda range as lo:hi:n")
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--preset", choices=PRESETS["stability-map"], default=None)
    common(sp)

    sp = sub.add_parser("iota", help="tabulate the strength-trade-off scaling function")
    sp.add_argument("--from", dest="lo", type=float, default=0.3)
    sp.add_argument("--to", dest="hi", type=float, default=3.0)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--preset", choices=PRESETS["iota"], default=None)
    common(sp)

    return parser


def parse_config(argv):
    """Parse flags into a RunConfig.

    Values come in layers: built-in defaults < preset < config file < flags.
    The preset's values and the file's become the chosen subcommand's
    defaults in a parser built for this call, and the command line is parsed
    again over them, so argparse applies each option's type to file values
    and resolves flags, abbreviated ones included.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    file_values = {}
    if ns.config:
        try:
            file_values = _load_config_file(ns.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        unknown = sorted(set(file_values) - (set(vars(ns)) - {"command"}))
        if unknown:
            parser.error(f"unknown config keys: {', '.join(unknown)}")
        for key, val in file_values.items():
            if isinstance(getattr(ns, key), bool):  # store_true flags take no type
                file_values[key] = val.lower() in ("1", "true", "yes", "on")
    preset = getattr(ns, "preset", None) or file_values.get("preset")
    if preset or file_values:
        sub = next(a.choices for a in parser._actions if a.dest == "command")[ns.command]
        sub.set_defaults(**{**PRESETS.get(ns.command, {}).get(preset, {}), **file_values})
        ns = parser.parse_args(argv)
        for action in sub._actions:  # argparse checks choices on flags, not on defaults
            value = getattr(ns, action.dest, None)
            if action.dest in file_values and action.choices and value not in action.choices:
                parser.error(f"config {action.dest} = {value!r}: expected one of "
                             f"{', '.join(map(str, action.choices))}")

    formats = tuple(s.strip() for s in ns.formats.split(",") if s.strip())
    bad = [f for f in formats if f not in ("csv", "json")]
    if bad:
        parser.error(f"unknown report formats: {', '.join(bad)}")

    params = {k: v for k, v in vars(ns).items()
              if k not in ("out", "seed", "formats", "config", "command")}
    config = RunConfig(
        command=ns.command,
        parameters=params,
        output_dir=Path(ns.out),
        seed=ns.seed,
        formats=formats,
    )
    _validate(config, parser)
    return config


def _validate(config, parser):
    """Flag combinations; the library checks the values themselves."""
    p = config.parameters
    if config.command == "spectrum" and p.get("preset") is None:
        if p.get("q") is None or p.get("r") is None:
            parser.error("spectrum requires --q and --r (or --preset fig2)")
    if config.command == "gamma" and p.get("q_max") is not None and p["q_max"] < 2:
        parser.error("--q-max must be at least 2")
    if config.command == "gamma" and p.get("preset") is None and p.get("q_max") is None:
        if p.get("q") is None:
            parser.error("gamma requires --q (or --preset / --q-max)")
        if p.get("at") is None and p.get("r0") is None:
            parser.error("gamma requires --at or an explicit --r0")
    if config.command == "simulate":
        if p.get("r") is None and p.get("s") is None and p.get("preset") is None:
            parser.error("simulate requires --r or --s (or --preset fig6)")
    if config.command == "equilibrium" and p["init"] == "z1" and p["sign"] == "repulsive":
        if p.get("r") is None:
            parser.error("--init z1 is built on the attractive crossing; "
                         "with --sign repulsive give --r")


# ---------------------------------------------------------------------------
# command implementations


# --name -> (evaluation from the flags and their Params, the flags it requires)
_KERNEL_QUANTITIES = {
    "w-hat": (lambda p, params: kernel.w_hat(params.r, p["k"]), ("r", "k")),
    "c1": (lambda p, params: kernel.c1(p["q"], p["k"], params), ("q", "k", "r")),
    "c2": (lambda p, params: kernel.c2(p["q"], p["k"], params), ("q", "k", "r")),
    "c3": (lambda p, params: kernel.c3(p["q"], p["m"], p["k"], params), ("q", "k", "m", "r")),
    "c4": (lambda p, params: kernel.c4(p["q"], p["m"], p["k"], params), ("q", "k", "m", "r")),
    "c5": (lambda p, params: kernel.c5(p["q"], p["k"], params), ("q", "k", "r")),
    "c6": (lambda p, params: kernel.c6(p["q"], p["k"], params), ("q", "k", "r")),
    "tail-limit": (lambda p, params: kernel.tail_limit(p["q"], params), ("q", "r")),
    "lambda0": (lambda p, params: kernel.lambda0(p["q"], params.r), ("q", "r")),
    "big-h": (lambda p, params: kernel.big_H(p["q"], params.r), ("q", "r")),
    "cap-x": (lambda p, params: kernel.cap_X(p["q"], params.r), ("q", "r")),
    "iota": (lambda p, params: kernel.iota(p["upsilon"]), ("upsilon",)),
    "upsilon0": (lambda p, params: kernel.upsilon0(), ()),
}


def _run_kernel(cfg):
    p = cfg.parameters
    name = p["name"]
    evaluate, required = _KERNEL_QUANTITIES[name]
    if any(p[k] is None for k in required):
        raise ValueError(f"--name {name} requires {', '.join('--' + k for k in required)}")
    # Params checks the range of --r for every quantity, whether or not it reads r
    params = Params(p["r"], p["lam"], p["mu"]) if p["r"] is not None else None
    value = evaluate(p, params)
    results = {"name": name, "value": float(value)}
    csvs = {"kernel": ("name,value", [[name, _fmt(value)]])}
    return results, csvs, []


def _run_spectrum(cfg):
    p = cfg.parameters
    prov = []
    if p.get("preset") == "fig2":
        q = p["q"]
        r_values = np.round(np.arange(0.005, 0.2 + 1e-12, 5e-4), 10)
        k_values = list(range(1, 31))
        rows = []
        for r in r_values:
            vals = kernel.c1(q, np.arange(1, 31), Params(float(r)))
            rows.extend([[_fmt(r), str(k), _fmt(v)] for k, v in zip(k_values, vals)])
        r0a = spectrum.threshold(q, spectrum.ATTRACTIVE_R0)
        r0r = spectrum.threshold(q, spectrum.REPULSIVE_R0)
        results = {"q": q, "r0_attractive": r0a, "r0_repulsive": r0r,
                   "n_r": len(r_values), "k_max": 30}
        prov.append(["r0_attractive", "fig2"])
        prov.append(["r0_repulsive", "fig2"])
        csvs = {"fig2": ("r,k,c1", rows)}
        return results, csvs, prov

    q, params = p["q"], Params(p["r"], p["lam"], p["mu"])
    rep = spectrum.spectrum_report(q, params, tol=p["tol"])
    ks, values = rep.ks, rep.values
    if p.get("kmax") not in (None, "auto"):
        kmax = int(p["kmax"])
        if kmax < 1:
            raise ValueError(f"--kmax must be 'auto' or a positive integer, got {kmax}")
        ks = np.arange(1, kmax + 1)
        values = kernel.c1(q, ks, params)
    rows = [[str(int(k)), _fmt(v)] for k, v in zip(ks, values)]
    results = {
        "q": q, "r": params.r, "lambda": params.lam, "mu": params.mu,
        "sup_value": rep.sup_value,
        "sup_attained_at": rep.sup_attained_at if rep.sup_attained_at is not None else "tail",
        "tail": rep.tail, "truncation_bound": rep.truncation_bound,
        "modes_listed": len(rows),
    }
    return results, {"spectrum": ("k,c1", rows)}, prov


def _run_thresholds(cfg):
    p = cfg.parameters
    q, kind, M = p["q"], p["kind"], p.get("M")
    if M is None:
        value, label = spectrum.threshold(q, _THRESHOLD_KINDS[kind]), kind
    else:
        from . import ring

        value, label = ring.finite_threshold(q, M, kind), f"{kind}_finite_M{M}"
    prov = []
    if q == 5 and kind in ("attractive", "repulsive"):
        prov.append(["r0", "fig2" if M is None else "fig6"])
    results = {"q": q, "kind": label, "r0": value}
    csvs = {"thresholds": ("q,kind,r0", [[str(q), label, _fmt(value)]])}
    return results, csvs, prov


def _curve_from_gamma_args(p):
    q = p["q"]
    if p["family"] == "t-family":
        r0 = p.get("r0")
        if r0 is None:
            raise ValueError("t-family requires an explicit --r0")
        return bifurcation.t_family_curve(q, r0, p.get("t", 0.0))
    if p.get("at"):
        kind = _THRESHOLD_KINDS[p["at"].removesuffix("-threshold")]
        r0, ell = spectrum.threshold_crossing(q, kind)
        if p.get("ell") is not None:
            ell = p["ell"]
    else:
        r0, ell = p["r0"], p.get("ell")
        if ell is None:
            near = spectrum.near_zero_modes(q, Params(r0, p["lam"], p["mu"]),
                                            bifurcation.CROSSING_TOL)
            if len(near) == 0:
                raise ValueError("no near-zero eigenvalue at the given base; pass --ell")
            if len(near) > 1:
                shown = ", ".join(str(int(k)) for k in near[:5])
                more = ", ..." if len(near) > 5 else ""
                raise ValueError(f"{len(near)} near-zero modes ({shown}{more}); pass --ell")
            ell = int(near[0])
    base = Params(r0, p["lam"], p["mu"])
    if p["family"] == "r-linear":
        direction = _R_LINEAR
    elif p["family"] == "lambda-linear":
        direction = (0.0, 1.0, 0.0)
    else:
        if not p.get("direction"):
            raise ValueError("--family mixed requires --direction dr,dlam,dmu")
        direction = tuple(float(s) for s in p["direction"].split(","))
    return bifurcation.linear_curve(q, ell, base, direction)


def _run_gamma(cfg):
    p = cfg.parameters
    prov = []
    preset = p.get("preset")
    if p.get("q_max"):  # a gamma preset always sets it
        kind = "repulsive" if preset == "fig3b" else "attractive"
        qs = list(range(2, p["q_max"] + 1))
        rows = []
        for q in qs:
            curve, report = _threshold_report(q, _THRESHOLD_KINDS[kind])
            ratio = report.gamma2 / (report.gamma1 * q)
            rows.append([str(q), str(curve.ell), _fmt(curve.base.r), _fmt(report.gamma1),
                         _fmt(report.gamma2), _fmt(ratio)])
        name = preset or f"gamma-ratio-{kind}"
        prov.append(["gamma2/(gamma1*q)", preset or "fig3a"])
        results = {"kind": kind, "q_values": qs,
                   "ratio_last": float(ratio)}
        return results, {name: ("q,ell,r0,gamma1,gamma2,ratio", rows)}, prov

    curve = _curve_from_gamma_args(p)
    report = bifurcation.gamma_pair(curve)
    results = {
        "q": report.q, "ell": report.ell,
        "r0": report.p0.r, "lambda0": report.p0.lam, "mu0": report.p0.mu,
        "gamma1": report.gamma1, "gamma2": report.gamma2,
        "criticality": report.criticality, "branch_side": report.branch_side,
        "kappa_at_bifurcation": report.kappa_at_bifurcation,
        "branch_eig_coefficient": report.branch_eig_coefficient,
        "degenerate_crossing": report.degenerate_crossing,
    }
    rows = [["ell", str(report.ell)],
            ["gamma1", _fmt(report.gamma1)],
            ["gamma2", _fmt(report.gamma2)],
            ["criticality", report.criticality],
            ["branch_side", str(report.branch_side)],
            ["kappa_at_bifurcation", _fmt(report.kappa_at_bifurcation)],
            ["branch_eig_coefficient", _fmt(report.branch_eig_coefficient)]]
    if p.get("s0") is not None:
        amp = bifurcation.a_app(report, p["s0"])
        results["s0"], results["a_app"] = p["s0"], amp
        rows.append(["a_app", _fmt(amp)])
    if p.get("at") == "attractive-threshold":
        prov.append(["gamma1", "fig5" if p["q"] == 5 else "fig3a"])
        prov.append(["gamma2", "fig5" if p["q"] == 5 else "fig3a"])
        if p.get("s0") is not None and p["q"] == 5:
            prov.append(["a_app", "fig5"])
    if p.get("at") == "repulsive-threshold" and p["q"] == 5:
        prov.append(["gamma1", "fig6"])
        prov.append(["gamma2", "fig6"])
        if p.get("s0") is not None:
            prov.append(["a_app", "fig6"])
    return results, {"gamma": ("quantity,value", rows)}, prov


def _threshold_report(q, kind):
    """r-linear curve through the threshold crossing of ``kind``, and its pitchfork report."""
    r0, ell = spectrum.threshold_crossing(q, kind)
    curve = bifurcation.linear_curve(q, ell, Params(r0), _R_LINEAR)
    return curve, bifurcation.gamma_pair(curve)


def _profile_errors(curve, row, M):
    """Order-1 and order-2 branch profiles at a branch row's amplitude on the
    M-grid, and the sup-norm distances of the row's equilibrium to both."""
    profiles = [bifurcation.branch_profile(curve, row.a_app, order, M) for order in (1, 2)]
    return profiles, [float(np.max(np.abs(row.equilibrium.theta - z.values))) for z in profiles]


def _run_branch(cfg):
    from . import ring

    p = cfg.parameters
    q, s0, M = p["q"], p["s0"], p["M"]
    prov = []
    curve, report = _threshold_report(q, spectrum.ATTRACTIVE_R0)
    r_m, (row,) = ring.follow_branch(curve, M, [s0])
    eq = row.equilibrium
    (z1, z2), (err1, err2) = _profile_errors(curve, row, M)
    results = {
        "q": q, "s0": s0, "M": M, "r0": curve.base.r, "r0_finite": r_m,
        "ell": report.ell, "gamma1": report.gamma1, "gamma2": report.gamma2,
        "a_app": row.a_app, "criticality": report.criticality,
        "newton_residual": eq.residual_norm,
        "newton_iterations": eq.iterations,
        "err_z1": err1, "err_z2": err2,
        "z2_coefficient": z2.z2_coefficient,
    }
    if q == 5 and abs(s0 + 1e-4) < 1e-12 and M == 1000:
        for name in ("gamma1", "gamma2", "a_app"):
            prov.append([name, "fig5"])

    psi = 2.0 * math.pi * q * z1.x
    profile_rows = [[_fmt(x), _fmt(a), _fmt(b), _fmt(c)]
                    for x, a, b, c in zip(z1.x, psi, z1.values, z2.values)]
    csvs = {"branch": ("x,psi_q,z1,z2", profile_rows), "equilibrium": _state_csv(eq.theta)}

    if p.get("error_scaling"):
        s_values = [-1e-5, -3e-5, -1e-4, -3e-4, -1e-3]
        _, rows = ring.follow_branch(curve, M, s_values)
        errs = [_profile_errors(curve, r, M)[1] for r in rows]
        logs = np.log(np.abs(np.array(s_values)))
        for col, name in enumerate(("error_slope_z1", "error_slope_z2")):
            results[name] = float(np.polyfit(logs, np.log([e[col] for e in errs]), 1)[0])
        csvs["error-scaling"] = ("s,a_app,err_z1,err_z2", [[_fmt(v) for v in (r.s, r.a_app, *e)]
                                                            for r, e in zip(rows, errs)])
    return results, csvs, prov


def _state_csv(theta):
    """A ring state as (header, rows) of ``index,x,theta``."""
    M = len(theta)
    # tolist() gives Python floats, whose repr is _fmt's text at a fraction of its cost
    return "index,x,theta", [[str(i), repr(i / M), repr(v)] for i, v in enumerate(theta.tolist())]


def _mode_amplitudes(theta, q):
    """Fourier amplitudes of the deviation from the q-twisted profile."""
    from . import ring

    M = len(theta)
    diff = ring.wrap_to_pi(theta - ring.twisted_state(M, q))
    spec = np.abs(np.fft.rfft(diff)) * 2.0 / M
    spec[0] /= 2.0
    return diff, spec


def _ring_radius(p, offset):
    """``(r, r_m)``: ``--r`` and None, else ``r_m + offset`` and the finite
    threshold ``r_m`` of ``--sign``."""
    if p.get("r") is not None:
        return p["r"], None
    from . import ring

    r_m = ring.finite_threshold(p["q"], p["M"], p["sign"])
    return r_m + offset, r_m


def _run_simulate(cfg):
    from . import ring

    p = cfg.parameters
    if p["n_runs"] < 1:
        raise ValueError(f"--n-runs must be a positive integer, got {p['n_runs']}")
    M, q = p["M"], p["q"]
    prov = []
    r, r_m = _ring_radius(p, p["s"])
    params = Params(r, p["lam"], p["mu"])
    spec = ring.SystemSpec(params, sign=p["sign"])
    weights = ring.build_weights(M, r)
    base = ring.twisted_state(M, q)

    runs = []
    finals = []
    csvs = {}
    for i in range(p["n_runs"]):
        seed = cfg.seed + i
        theta0 = ring.perturb(base, p["amplitude"], seed)
        out = ring.integrate(theta0, spec, weights, t_end=p["t_end"], tol=p["tol"])
        diff, amps = _mode_amplitudes(out.theta, q)
        dominant = int(np.argmax(amps))
        finals.append(out.theta)
        runs.append({
            "seed": seed, "method": out.method, "stop_reason": out.stop_reason,
            "t_reached": out.t_reached,
            "dominant_mode": dominant, "dominant_amplitude": float(amps[dominant]),
            "max_deviation": float(np.max(np.abs(diff))),
        })
        csvs[f"state_run{i}"] = _state_csv(out.theta)
    shift_relations = []
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            shift, resid = ring.best_shift_residual(finals[i], finals[j])
            shift_relations.append({"run_a": i, "run_b": j,
                                    "shift": shift, "residual": resid})
    results = {
        "M": M, "q": q, "sign": p["sign"], "r": r, "r0_finite": r_m,
        "lambda": p["lam"], "mu": p["mu"],
        "t_end": p["t_end"], "tol": p["tol"], "amplitude": p["amplitude"],
        "weights_sha256": hashlib.sha256(weights.b.tobytes()).hexdigest()[:16],
        "runs": runs,
        "shift_relations": shift_relations,
    }
    if p.get("preset") == "fig6":
        prov.append(["dominant_amplitude", "fig6"])
        prov.append(["r0_finite", "fig6"])
    return results, csvs, prov


def _run_equilibrium(cfg):
    from . import ring

    p = cfg.parameters
    M, q = p["M"], p["q"]
    r, _ = _ring_radius(p, p["s0"])
    params = Params(r, p["lam"], p["mu"])
    spec = ring.SystemSpec(params, sign=p["sign"])
    weights = ring.build_weights(M, r)
    if p["init"] == "twisted":
        theta0 = ring.twisted_state(M, q)
    else:
        curve, report = _threshold_report(q, spectrum.ATTRACTIVE_R0)
        theta0 = bifurcation.branch_profile(curve, bifurcation.a_app(report, p["s0"]), 1, M).values
    eq = ring.newton_equilibrium(theta0, spec, weights)
    leading = ring.jacobian_spectrum(eq.theta, spec, weights, n_eigs=10)
    results = {
        "M": M, "q": q, "r": r, "sign": p["sign"],
        "residual_norm": eq.residual_norm, "iterations": eq.iterations,
        "leading_eigenvalues": [float(v) for v in leading],
    }
    return results, {"equilibrium": _state_csv(eq.theta)}, []


def _run_stability_map(cfg):
    p = cfg.parameters
    r_lo, r_hi, n_r = _parse_range(p["r"])
    l_lo, l_hi, n_l = _parse_range(p["lam"])
    smap = bifurcation.stability_map(p["q"], (r_lo, r_hi), (l_lo, l_hi), (n_r, n_l), tol=p["tol"])
    grid_rows = [[_fmt(r), _fmt(lam), _fmt(v)]
                 for r, row in zip(smap.r_values, smap.max_eigenvalue)
                 for lam, v in zip(smap.lambda_values, row)]
    boundary_rows = [[_fmt(b.r), _fmt(b.lam), str(b.ell), b.criticality, _fmt(b.gamma1),
                      _fmt(b.gamma2)] for b in smap.boundary]
    results = {"q": smap.q, "n_r": n_r, "n_lambda": n_l,
               "boundary_points": len(boundary_rows), "flagged_columns": len(smap.flags)}
    prov = [["boundary", "fig4"]] if p.get("preset") == "fig4" else []
    csvs = {"grid": ("r,lambda,max_eigenvalue", grid_rows),
            "boundary": ("r,lambda0,ell,criticality,gamma1,gamma2", boundary_rows)}
    if smap.flags:
        csvs["flags"] = ("r,reason", [[_fmt(r), reason] for r, reason in smap.flags])
    return results, csvs, prov


def _run_iota(cfg):
    p = cfg.parameters
    u = np.linspace(p["lo"], p["hi"], p["steps"])
    vals = kernel.iota(u)
    rows = [[_fmt(a), _fmt(b)] for a, b in zip(u, vals)]
    u0 = kernel.upsilon0()
    above = vals[u >= u0]
    results = {"from": p["lo"], "to": p["hi"], "steps": p["steps"],
               "upsilon0": u0,
               "min_above_upsilon0": float(above.min()) if len(above) else None,
               "all_positive_above_upsilon0": bool((above > 0).all()) if len(above) else None}
    prov = []
    if p.get("preset") == "fig7":
        prov.append(["iota", "fig7"])
    return results, {"iota": ("upsilon,iota", rows)}, prov


_RUNNERS = {
    "kernel": _run_kernel,
    "spectrum": _run_spectrum,
    "thresholds": _run_thresholds,
    "gamma": _run_gamma,
    "branch": _run_branch,
    "simulate": _run_simulate,
    "equilibrium": _run_equilibrium,
    "stability-map": _run_stability_map,
    "iota": _run_iota,
}


def execute(config):
    """Dispatch a validated RunConfig to its command implementation."""
    results, csvs, prov = _RUNNERS[config.command](config)
    return ReportEnvelope(config=config, results=results, provenance=prov, csv_files=csvs)


def _config_echo(cfg):
    return {
        "command": cfg.command,
        "parameters": cfg.parameters,
        "output_dir": str(cfg.output_dir),
        "seed": cfg.seed,
        "formats": list(cfg.formats),
    }


def write_report(envelope):
    """Write the JSON envelope (always) and the per-command CSV files."""
    cfg = envelope.config
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": 1,
        "tool_version": __version__,
        "command": cfg.command,
        "config": _config_echo(cfg),
        "results": envelope.results,
        "provenance": envelope.provenance,
    }
    written = []
    json_path = out / f"{cfg.command}.json"
    json_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    written.append(json_path)
    if "csv" in cfg.formats:
        for name, (header, rows) in envelope.csv_files.items():
            path = out / f"{name}.csv"
            lines = [header] + [",".join(row) for row in rows]
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
    return written


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_config(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        envelope = execute(config)
        written = write_report(envelope)
    except (DomainError, MemoryError) as exc:   # MemoryError: say, spectrum --kmax 99999999999
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
