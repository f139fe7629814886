"""Pitchfork coefficients along parameter curves, branch approximations, stability maps.

The reduced bifurcation equation near a simple eigenvalue crossing is
``a (gamma1 a^2 + gamma2 s) = 0``: ``gamma1`` (cubic) decides sub- vs
supercriticality, ``gamma2`` (crossing speed) the side on which the
nontrivial branch lives, and ``sqrt(-gamma2 s / gamma1)`` its leading
amplitude. Profiles are reconstructed to first and second order in the
amplitude; the second order adds a double-frequency correction.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernel, spectrum
from .errors import BranchAbsentError, DomainError, SecondHarmonicResonanceError
from .kernel import Params

#: |gamma1| below this is reported as degenerate rather than classified.
CRITICALITY_TOL = 1e-10

#: |c1(q, ell, base)| must be below this for a curve to qualify as a crossing.
CROSSING_TOL = 1e-6

SUBCRITICAL = "subcritical"
SUPERCRITICAL = "supercritical"
DEGENERATE = "degenerate"

S_NEGATIVE = "s_negative"
S_POSITIVE = "s_positive"


@dataclass(frozen=True)
class CurveSpec:
    """A smooth parameter curve through a simple eigenvalue crossing.

    ``base`` is the curve point at ``s = 0`` and ``direction`` its derivative
    there. ``ell`` is the mode whose eigenvalue crosses zero at the base;
    construction verifies the crossing to within ``CROSSING_TOL``.
    """

    base: Params
    direction: tuple
    q: int
    ell: int

    def __post_init__(self):
        if self.q < 1 or self.ell < 1:
            raise ValueError("q and ell must be positive integers")
        if not 0.0 < self.base.r < 0.5:
            raise ValueError("curve base must lie strictly inside the parameter space")
        if len(self.direction) != 3:
            raise ValueError("direction must be a (dr, dlam, dmu) triple")
        resid = abs(kernel.c1(self.q, self.ell, self.base))
        if resid >= CROSSING_TOL:
            raise ValueError(
                f"c1(q={self.q}, ell={self.ell}, base) = {resid:.3e} exceeds the "
                f"crossing tolerance {CROSSING_TOL:.1e}: base is not a mode-{self.ell} crossing"
            )


def linear_curve(q, ell, base, direction):
    """Straight-line curve ``p(s) = base + s * direction`` through a crossing."""
    return CurveSpec(base=base, direction=tuple(float(d) for d in direction), q=q, ell=ell)


def t_family_curve(q, r0, t):
    """Strength trade-off family at fixed radius, indexed by ``t``.

    ``p(s) = (r0, 4 s - 2 t + big_H(q, r0)/4, 2 s + 4 t)``; the combined
    strength ``4 lam + 2 mu`` sits at its critical value for every ``t``, so
    the twist-mode eigenvalue crosses zero at ``s = 0`` along the whole family.
    """
    h = kernel.big_H(q, Params(r0).r)  # an out-of-range r0 is a ValueError, not a degeneracy
    base = Params(r0, h / 4.0 - 2.0 * t, 4.0 * t)
    return CurveSpec(base=base, direction=(0.0, 4.0, 2.0), q=q, ell=q)


@dataclass(frozen=True)
class BifurcationReport:
    """Pitchfork classification at a crossing.

    ``branch_eig_coefficient`` is ``2 * gamma1``: the predicted leading
    eigenvalue along the branch per unit squared amplitude. For a sign-flipped
    (repulsive) system the stability roles of the two criticality labels swap;
    the coefficients themselves are computed in the attractive convention.
    ``branch_side`` is ``None`` when the classification is degenerate.
    """

    q: int
    ell: int
    p0: Params
    gamma1: float
    gamma2: float
    criticality: str
    branch_side: Optional[str]
    kappa_at_bifurcation: float
    branch_eig_coefficient: float
    degenerate_crossing: bool = False  # gamma2 ~ 0: zero crossing speed


def _second_harmonic_denominator(q, ell, p0):
    denom = kernel.c1(q, 2 * ell, p0)
    if abs(denom) < kernel.DEGENERACY_TOL:
        raise SecondHarmonicResonanceError(
            f"c1(q={q}, k={2 * ell}, p0) = {denom:.3e}: double-frequency resonance, "
            "cubic coefficient undefined"
        )
    return denom


def gamma_pair(curve, kappa_tol=1e-6):
    """Cubic and crossing-speed coefficients of the reduced equation along ``curve``."""
    q, ell, p0 = curve.q, curve.ell, curve.base
    denom = _second_harmonic_denominator(q, ell, p0)
    g1 = 0.5 * (kernel.c5(q, ell, p0)
                - kernel.c2(q, ell, p0) * kernel.c3(q, 2 * ell, ell, p0) / denom)
    grad = kernel.c1_param_gradient(q, ell, p0)
    g2 = float(grad @ np.asarray(curve.direction, dtype=float))
    if abs(g1) < CRITICALITY_TOL:
        crit, side = DEGENERATE, None
    else:
        crit = SUBCRITICAL if g1 > 0 else SUPERCRITICAL
        side = S_NEGATIVE if g2 / g1 > 0 else S_POSITIVE
    return BifurcationReport(
        q=q, ell=ell, p0=p0,
        gamma1=g1, gamma2=g2,
        criticality=crit, branch_side=side,
        kappa_at_bifurcation=spectrum.kappa(q, ell, p0, tol=kappa_tol),
        branch_eig_coefficient=2.0 * g1,
        degenerate_crossing=abs(g2) < CRITICALITY_TOL,
    )


def gamma1_t(q, r0, t):
    """Cubic coefficient along the trade-off family: value at ``t = 0`` plus ``t * cap_X``."""
    base_report = gamma_pair(t_family_curve(q, r0, 0.0))
    return base_report.gamma1 + t * kernel.cap_X(q, r0)


def a_app(report, s):
    """Leading branch amplitude ``sqrt(-gamma2 s / gamma1)`` at curve offset ``s``."""
    if report.criticality == DEGENERATE:
        raise DomainError("branch amplitude undefined for a degenerate cubic coefficient")
    val = -report.gamma2 * s / report.gamma1
    if val < 0.0:
        raise BranchAbsentError(
            f"no branch at s={s}: the nontrivial solutions live on the "
            f"{report.branch_side} side of the crossing"
        )
    return math.sqrt(val)


@dataclass(frozen=True)
class BranchProfile:
    """Sampled branch approximation.

    ``z2_coefficient`` is the amplitude of the double-frequency correction
    (zero at order 1). The profile vanishes at ``x = 0`` by the pinning
    convention, and the order-1 part is exactly the twisted profile plus
    ``a * sin(2 pi ell x)`` on the grid.
    """

    q: int
    ell: int
    a: float
    order: int
    z2_coefficient: float
    x: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)


def branch_profile(curve, a, order, grid_size):
    """First- or second-order branch profile on the uniform grid ``x_j = j / grid_size``."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if grid_size < 1:
        raise ValueError("grid_size must be a positive integer")
    q, ell, p0 = curve.q, curve.ell, curve.base
    x = np.arange(grid_size) / grid_size
    values = 2.0 * math.pi * q * x + a * np.sin(2.0 * math.pi * ell * x)
    z2_coef = 0.0
    if order == 2:
        denom = _second_harmonic_denominator(q, ell, p0)
        z2_coef = -0.5 * a * a * kernel.c2(q, ell, p0) / denom
        values = values + z2_coef * np.sin(2.0 * math.pi * (2 * ell) * x)
    return BranchProfile(q=q, ell=ell, a=a, order=order,
                         z2_coefficient=z2_coef, x=x, values=values)


@dataclass(frozen=True)
class BoundaryPoint:
    """One point of the zero contour of the leading eigenvalue in the (r, lam) plane."""

    r: float
    lam: float
    ell: int
    criticality: str
    gamma1: float
    gamma2: float


@dataclass(frozen=True)
class StabilityMap:
    """Leading-eigenvalue landscape over an (r, lam) grid with a classified zero contour."""

    q: int
    r_values: np.ndarray = field(repr=False)
    lambda_values: np.ndarray = field(repr=False)
    max_eigenvalue: np.ndarray = field(repr=False)  # shape (len(r), len(lam))
    boundary: list = field(default_factory=list)
    flags: list = field(default_factory=list)


def stability_column(q, r, lambda_values, tol=1e-4):
    """One fixed-``r`` column of the stability landscape.

    Returns ``(sup_row, boundary_point_or_None, flag_or_None)`` where
    ``sup_row`` holds the leading eigenvalue at each lambda, the boundary
    point classifies the sign change when one occurs inside the range, and
    a flag carries the reason when classification is impossible. The
    supremum at ``lam = 0`` and its mode come from
    :func:`spectrum.certified_extreme`: the mode list grows from
    ``max(4q, 64)`` until the truncation bound settles the supremum, up to
    ``mode_cutoff(q, tol)`` modes.
    """
    lambda_values = np.asarray(lambda_values, dtype=float)
    m0, ell = spectrum.certified_extreme(q, Params(r, 0.0, 0.0), tol=tol)
    wq = kernel.w_hat(r, q)
    # every eigenvalue and the tail shift linearly in lam with the common slope -wq
    sup = m0 - lambda_values * wq
    if abs(wq) < kernel.DEGENERACY_TOL:
        return sup, None, (float(r), "kernel coefficient vanishes at the twist mode")
    signs = np.sign(sup)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if len(flips) == 0:
        return sup, None, None
    j = int(flips[0])
    lam_c = kernel._brentq(lambda lam: m0 - lam * wq,
                           lambda_values[j], lambda_values[j + 1], xtol=1e-12)
    try:
        curve = linear_curve(q, ell, Params(min(r, 0.5 - 1e-12), lam_c, 0.0), (0.0, 1.0, 0.0))
        rep = gamma_pair(curve, kappa_tol=tol)
        point = BoundaryPoint(r=float(r), lam=float(lam_c), ell=ell,
                              criticality=rep.criticality,
                              gamma1=rep.gamma1, gamma2=rep.gamma2)
        return sup, point, None
    except (DomainError, ValueError) as exc:
        return sup, None, (float(r), str(exc))


def stability_map(q, r_range, lambda_range, grid, tol=1e-4):
    """Sweep the (r, lam) plane at mu = 0; classify the zero contour of the leading eigenvalue.

    ``r_range`` and ``lambda_range`` are (lo, hi) pairs, either way round;
    ``grid`` is the pair of sample counts. Columns where the kernel
    coefficient at the twist mode vanishes are flagged and carry no boundary
    point.
    """
    n_r, n_lam = grid
    if n_r < 2 or n_lam < 2:
        raise ValueError(f"grid must be at least 2 x 2, got {n_r} x {n_lam}")
    r_values = np.linspace(r_range[0], r_range[1], n_r)
    if not (0.0 < r_values.min() and r_values.max() <= 0.5):
        raise ValueError(f"r_range must lie in (0, 1/2], got {tuple(r_range)}")
    lambda_values = np.linspace(lambda_range[0], lambda_range[1], n_lam)

    max_eig = np.empty((n_r, n_lam))
    boundary = []
    flags = []
    for i, r in enumerate(r_values):
        sup, point, flag = stability_column(q, float(r), lambda_values, tol=tol)
        max_eig[i] = sup
        if point is not None:
            boundary.append(point)
        if flag is not None:
            flags.append(flag)
    return StabilityMap(q=q, r_values=r_values, lambda_values=lambda_values,
                        max_eigenvalue=max_eig, boundary=boundary, flags=flags)
