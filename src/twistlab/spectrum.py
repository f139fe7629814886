"""Stability spectra of twisted states: certified suprema, thresholds, alternative couplings.

The eigenvalue sequence ``c1(q, k, p)`` accumulates only at its tail limit, so
a finite mode list plus an analytic tail bound certifies suprema and infima
over all modes. Every extreme and every sign test over all modes lists the
first ``K`` modes, with ``K`` doubling from ``max(4q, 64)`` up to
``mode_cutoff(q, tol)``, and stops as soon as :func:`truncation_bound` (plus
a roundoff margin) shows that the unlisted modes cannot change the result.
Listed values do not depend on ``K``, so every result equals the one the
full ``mode_cutoff`` list gives, bit for bit. Threshold radii are located by
a coarse scan followed by bracketed root refinement.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernel
from .errors import NoBifurcationError, NoThresholdError
from .kernel import Params

#: Threshold kinds accepted by :func:`threshold`.
ATTRACTIVE_R0 = "attractive_r0"
REPULSIVE_R0 = "repulsive_r0"
R_STAR = "r_star"
THRESHOLD_KINDS = (ATTRACTIVE_R0, REPULSIVE_R0, R_STAR)

ALT_FAMILIES = ("general_d", "product4", "triangle")

_SCAN_STEP = 1e-3
_REFINE_XTOL = 1e-12

#: Added to ``truncation_bound`` when it decides a test: computed ``c1``
#: values of order one carry a few ulps of rounding error.
_ROUNDOFF = 1e-12


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue listing with a certified supremum.

    Every listed eigenvalue has multiplicity two in the full linearization.
    ``sup_attained_at`` is the mode index of the supremum, or ``None`` when it
    is only approached along the tail. ``truncation_bound`` bounds
    ``|c1(k) - tail|`` for every unlisted mode ``k > max(ks)``.
    """

    q: int
    p: Params
    ks: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    sup_value: float
    sup_attained_at: Optional[int]
    tail: float
    truncation_bound: float


def mode_cutoff(q, tol):
    """Number of modes to list so that all unlisted ones sit within ``tol`` of the tail."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return max(4 * q, math.ceil(1.0 / (math.pi * tol)) + q, 64)


def truncation_bound(q, K):
    """Bound on ``|c1(q, k, p) - tail|`` valid for every ``k > K`` and every ``p``."""
    if K <= q:
        raise ValueError("cutoff must exceed q")
    return (1.0 / (2.0 * math.pi)) * (1.0 / (K + 1 - q) + 1.0 / (K + 1 + q))


def spectrum_report(q, p, tol=1e-6):
    """Compute the eigenvalue sequence and its supremum, certified to within ``tol``."""
    if q < 1:
        raise ValueError("twist number q must be a positive integer")
    K = mode_cutoff(q, tol)
    ks = np.arange(1, K + 1)
    values = kernel.c1(q, ks, p)
    tail = kernel.tail_limit(q, p)
    tb = truncation_bound(q, K)
    i_max = int(np.argmax(values))
    listed_max = float(values[i_max])
    if listed_max >= tail:
        sup_value, attained = listed_max, int(ks[i_max])
    else:
        sup_value, attained = tail, None
    return SpectrumReport(
        q=q, p=p, ks=ks, values=values,
        sup_value=sup_value, sup_attained_at=attained,
        tail=tail, truncation_bound=tb,
    )


def _listed_c1(q, p, settled, ceiling):
    """``c1(q, 1..K, p)`` for the first ``K`` at which ``settled(values, band)`` holds.

    ``K`` starts at ``max(4q, 64)`` and doubles up to ``ceiling``, where the
    list is returned whatever ``settled`` says. Every unlisted mode lies
    within ``band`` of the tail limit, so ``settled`` holds once those modes
    cannot change the caller's result. ``c1`` reads a dense mode list from
    one table, so the listed values do not depend on ``K``: a result computed
    from the returned list equals the one computed from the ceiling list.
    """
    K = max(4 * q, 64)
    while K < ceiling:
        values = kernel.c1(q, np.arange(1, K + 1), p)
        if settled(values, truncation_bound(q, K) + _ROUNDOFF):
            return values
        K = 2 * K
    return kernel.c1(q, np.arange(1, ceiling + 1), p)


def _max_except(values, ell):
    """Largest listed value over the modes other than ``ell``."""
    return max(values[:ell - 1].max(initial=-np.inf), values[ell:].max(initial=-np.inf))


def certified_extreme(q, p, lowest=False, tol=1e-6):
    """Supremum (infimum when ``lowest``) of ``c1(q, k, p)`` over all modes, and its listed mode.

    Returns ``(value, k)``: ``value`` is the listed extreme against the tail
    limit, the same as over the first ``mode_cutoff(q, tol)`` modes; ``k`` is
    the listed mode of largest (smallest) value, which attains ``value``
    unless the tail does.
    """
    tail = kernel.tail_limit(q, p)
    ceiling = mode_cutoff(q, tol)
    if lowest:
        values = _listed_c1(q, p, lambda v, band: v.min() < tail - band, ceiling)
        i = int(np.argmin(values))
        return min(float(values[i]), tail), i + 1
    values = _listed_c1(q, p, lambda v, band: v.max() > tail + band, ceiling)
    i = int(np.argmax(values))
    return max(float(values[i]), tail), i + 1


def repulsive_critical_mode(q, r0):
    """Mode whose eigenvalue crosses zero at the repulsive threshold ``r0``: lowest just above it."""
    return certified_extreme(q, Params(r0 + 1e-9), lowest=True)[1]


def threshold_crossing(q, kind):
    """Threshold radius ``r0`` of ``kind`` and the mode ``ell`` whose eigenvalue crosses there.

    Mode 1 crosses at the attractive threshold; at the repulsive one it is
    :func:`repulsive_critical_mode`.
    """
    if kind not in (ATTRACTIVE_R0, REPULSIVE_R0):
        raise ValueError(f"no crossing mode for threshold kind {kind!r}")
    r0 = threshold(q, kind)
    return r0, 1 if kind == ATTRACTIVE_R0 else repulsive_critical_mode(q, r0)


def near_zero_modes(q, p, crossing_tol):
    """Modes ``k`` with ``|c1(q, k, p)| < crossing_tol``, ascending, over all modes.

    Settled once every unlisted mode, within the tail band, is farther than
    ``crossing_tol`` from zero; the ceiling is ``mode_cutoff(q, 1e-6)`` modes.
    """
    tail = kernel.tail_limit(q, p)
    values = _listed_c1(q, p, lambda v, band: abs(tail) > band + crossing_tol,
                        mode_cutoff(q, 1e-6))
    return np.nonzero(np.abs(values) < crossing_tol)[0] + 1


def kappa(q, ell, p, tol=1e-6):
    """Supremum of ``c1(q, k, p)`` over all modes ``k != ell``, certified to ``tol``.

    The list grows until its largest value over ``k != ell`` clears the tail
    band of :func:`truncation_bound`, or reaches ``max(mode_cutoff(q, tol),
    ell + 1)`` modes.
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    tail = kernel.tail_limit(q, p)
    values = _listed_c1(q, p, lambda v, band: _max_except(v, ell) > tail + band,
                        max(mode_cutoff(q, tol), ell + 1))
    return max(float(_max_except(values, ell)), tail)


def _scan_first_sign_change(f, r_grid):
    """First index i with sign(f(r_i)) flipping from <=0 to >0; None if f never goes positive."""
    prev = f(r_grid[0])
    for i in range(1, len(r_grid)):
        cur = f(r_grid[i])
        if prev <= 0.0 < cur:
            return i
        prev = cur
    return None


def threshold(q, kind):
    """Threshold coupling radii of the pairwise-only system.

    ``attractive_r0``: first zero crossing of the mode-1 eigenvalue from below;
    the mode-1 eigenvalue is swept over the whole scan grid of radii at once.
    ``repulsive_r0``: lower edge of the radius window on which every eigenvalue
    is positive (requires ``q >= 2``).
    ``r_star``: radius past which the leading mode is the twist mode itself,
    estimated by a downward grid scan with bracket refinement.

    The repulsive and ``r_star`` tests over all modes list ``max(4q, 64)``
    modes, doubling until the truncation bound settles each test (a sign or
    comparison on the grid, the exact infimum in the refinement), up to
    ``mode_cutoff(q, 1e-6)`` modes; every result equals the full-list one.
    """
    if q < 1:
        raise ValueError("twist number q must be a positive integer")
    if kind == ATTRACTIVE_R0:
        f = lambda r: kernel.c1(q, 1, Params(r, 0.0, 0.0))
        grid = np.arange(_SCAN_STEP, 0.5 + _SCAN_STEP / 2, _SCAN_STEP)
        # c1's arithmetic at lam = mu = 0, over the whole grid in one sweep
        values = kernel._twisted_c1(lambda j: kernel.w_hat(grid, j), q, 1, 0.0, 0.0)
        if values[0] > 0.0:  # crossing below the first grid point (very large q)
            return kernel._brentq(f, 1e-9, grid[0], xtol=_REFINE_XTOL)
        ups = np.nonzero((values[:-1] <= 0.0) & (values[1:] > 0.0))[0]
        if len(ups) == 0:
            raise NoThresholdError(f"mode-1 eigenvalue never becomes positive for q={q}")
        i = ups[0] + 1
        return kernel._brentq(f, grid[i - 1], grid[i], xtol=_REFINE_XTOL)

    ceiling = mode_cutoff(q, 1e-6)
    if kind == REPULSIVE_R0:
        if q == 1:
            raise NoBifurcationError(
                "q=1 twisted states never gain stability under sign reversal: no bifurcation"
            )

        def lowest_sign(r):
            # a value with the sign of the infimum: settled once the listed one
            # is not positive or the whole tail band is
            p = Params(r, 0.0, 0.0)
            tail = kernel.tail_limit(q, p)
            values = _listed_c1(q, p, lambda v, band: min(v.min(), tail) <= 0.0 or tail > band,
                                ceiling)
            return min(float(values.min()), tail)

        grid = np.arange(_SCAN_STEP, 0.5 + _SCAN_STEP / 2, _SCAN_STEP)
        i = _scan_first_sign_change(lowest_sign, grid)
        if i is None:
            raise NoThresholdError(f"no radius window with all-positive eigenvalues for q={q}")
        lowest = lambda r: certified_extreme(q, Params(r, 0.0, 0.0), lowest=True)[0]
        return kernel._brentq(lowest, grid[i - 1], grid[i], xtol=_REFINE_XTOL)

    if kind == R_STAR:

        def leading_is_twist(r):
            p = Params(r, 0.0, 0.0)
            tail = kernel.tail_limit(q, p)
            leads = lambda v: v[q - 1] >= max(_max_except(v, q), tail)
            # settled once the twist mode trails a listed value, or clears the tail band
            values = _listed_c1(q, p, lambda v, band: not leads(v) or v[q - 1] > tail + band,
                                ceiling)
            return leads(values)

        grid = np.arange(0.5, _SCAN_STEP / 2, -_SCAN_STEP)
        if not leading_is_twist(grid[0]):
            raise NoThresholdError(f"leading mode is not the twist mode even at r=1/2 for q={q}")
        last_good = grid[0]
        first_bad = None
        for r in grid[1:]:
            if leading_is_twist(r):
                last_good = r
            else:
                first_bad = r
                break
        if first_bad is None:
            return float(grid[-1])  # numerical estimate: holds on the whole scanned range
        lo, hi = first_bad, last_good
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if leading_is_twist(mid):
                hi = mid
            else:
                lo = mid
        return hi

    raise ValueError(f"unknown threshold kind {kind!r}; expected one of {THRESHOLD_KINDS}")


def sufficient_condition(q, r):
    """True when ``2/(pi q) <= 2 r - sin(2 pi r)/pi``.

    When this holds the leading eigenvalue over all modes is attained at the
    twist mode ``k = q``.
    """
    return 2.0 / (math.pi * q) <= 2.0 * r - math.sin(2.0 * math.pi * r) / math.pi


def triangle_tail_bound(q, k, L):
    """Bound on the truncation error of the triangle-coupling mode sum at cutoff ``L``."""
    c = q + abs(k)
    if L <= c + 1:
        raise ValueError("cutoff L too small for the requested (q, k)")
    return (8.0 / math.pi**2) / (L - c)


def alt_eigenvalue(family, q, r, k, d=None, m_last=None, ell_cutoff=None, corrected=False):
    """Twisted-state eigenvalue of one of the alternative higher-order couplings.

    ``general_d``: coupling through a single kernel evaluation over ``d + 1``
    phases with integer weights; needs ``m_last`` (the weight on the evolving
    phase, which carries the sign). The eigenvalue is mode-independent for
    ``k != 0``.
    ``product4``: product-kernel triplet coupling.
    ``triangle``: fully symmetric triangle coupling; the mode sum is truncated
    symmetrically at ``|ell| <= ell_cutoff`` with a certified O(1/L) tail.
    The default triangle series carries two kernel factors per term; a direct
    linearization of the triple-kernel coupling produces a third factor, and
    ``corrected=True`` selects that variant (the two disagree; finite-ring
    Jacobians converge to the corrected one).
    Returns 0 for ``k = 0`` in every family.
    """
    if family not in ALT_FAMILIES:
        raise ValueError(f"unknown coupling family {family!r}; expected one of {ALT_FAMILIES}")
    if k == 0:
        return 0.0
    if family == "general_d":
        if m_last is None:
            raise ValueError("general_d requires the integer weight m_last")
        if d is not None and d < 2:
            raise ValueError("general_d covers couplings of three or more phases (d >= 2)")
        return 0.5 * m_last * kernel.w_hat(r, q)
    if family == "product4":
        W = lambda j: kernel.w_hat(r, j)
        return 0.25 * W(q) * (W(q + k) + W(q - k) - 2.0 * W(q))
    # triangle
    L = 400 if ell_cutoff is None else int(ell_cutoff)
    triangle_tail_bound(q, k, L)  # validates L
    ell = np.arange(-L, L + 1)
    W = lambda j: kernel.w_hat(r, j)
    if corrected:
        total = np.sum(
            W(ell) * (W(ell + k + q) * W(ell - q)
                      + W(ell + k - q) * W(ell + q)
                      - 2.0 * W(ell + q) * W(ell - q))
        )
        return float(total) / 8.0
    total = np.sum(
        W(-k + ell - q) * W(ell + q)
        + W(-k + ell + q) * W(ell - q)
        + W(ell - q) * W(k + q + ell)
        + W(ell + q) * W(k - q + ell)
        - 4.0 * W(ell - q) * W(ell + q)
    )
    return float(total) / 8.0
