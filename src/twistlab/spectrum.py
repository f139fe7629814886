"""Stability spectra of twisted states: certified suprema, thresholds, alternative couplings.

The eigenvalue sequence ``c1(q, k, p)`` accumulates only at its tail limit, so
a finite mode list plus an analytic tail bound certifies suprema and infima
over all modes. Every extreme and every sign test over all modes lists the
first ``K`` modes, with ``K`` doubling from ``max(4q, 64)`` up to
``mode_cutoff(q, tol)``, and stops as soon as :func:`truncation_bound` (plus
a roundoff margin) shows that the unlisted modes cannot change the result.
Listed values do not depend on ``K``, so every result equals the one the
full ``mode_cutoff`` list gives, bit for bit. Threshold radii are located by
a coarse scan followed by bracketed root refinement. A scan lists the first
``max(4q, 64)`` modes at every grid radius from one ``w_hat`` table over
radii x modes, in blocks of radii under a fixed element budget, and stops at
the block that holds its answer; the few radii that first listing leaves
undecided take the per-radius doubling above.
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

#: Entries of the ``w_hat`` table per block of a radius-grid listing (2 MiB of float64).
_BLOCK_ELEMS = 1 << 18
_FIRST_BLOCK = 16  # radii in the first block; each later block doubles up to the budget


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
    """List the eigenvalue sequence until it certifies its supremum to within ``tol``.

    The list grows as in every other test over all modes: from ``max(4q,
    64)`` modes, doubling until its largest value clears the tail band of
    :func:`truncation_bound`, up to ``mode_cutoff(q, tol)`` modes. The
    supremum fields equal those of the full ``mode_cutoff`` list bit for
    bit. ``truncation_bound`` describes the returned list, so it may exceed
    ``tol`` once the listed maximum has settled the supremum.
    """
    if q < 1:
        raise ValueError("twist number q must be a positive integer")
    values, i_max, tail = _settled_extreme(q, p, False, tol)
    listed_max = float(values[i_max])
    if listed_max >= tail:
        sup_value, attained = listed_max, i_max + 1
    else:
        sup_value, attained = tail, None
    return SpectrumReport(
        q=q, p=p, ks=np.arange(1, len(values) + 1), values=values,
        sup_value=sup_value, sup_attained_at=attained,
        tail=tail, truncation_bound=truncation_bound(q, len(values)),
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
    values, i, tail = _settled_extreme(q, p, lowest, tol)
    return (min if lowest else max)(float(values[i]), tail), i + 1


def _settled_extreme(q, p, lowest, tol):
    """``(values, i, tail)``: the listing that settles the supremum (infimum when ``lowest``).

    The list stops once its largest (smallest) value, at index ``i``, clears
    the tail band around ``tail``, or at ``mode_cutoff(q, tol)`` modes.
    """
    tail = kernel.tail_limit(q, p)
    if lowest:
        values = _listed_c1(q, p, lambda v, band: v.min() < tail - band, mode_cutoff(q, tol))
        return values, int(np.argmin(values)), tail
    values = _listed_c1(q, p, lambda v, band: v.max() > tail + band, mode_cutoff(q, tol))
    return values, int(np.argmax(values)), tail


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


def _grid_c1(q, K, radii):
    """``(values, tails)``: ``c1(q, 1..K, r)`` and the tail ``kernel.tail_limit`` at each radius.

    At ``lam = mu = 0``, row ``i`` of ``values`` equals ``kernel.c1(q,
    np.arange(1, K + 1), Params(radii[i]))`` bit for bit: one table of
    ``w_hat`` over radii x modes ``0..|q| + K``, read at ``|j|`` as ``c1``
    reads its own, with the same arithmetic.
    """
    table = kernel.w_hat(np.asarray(radii, dtype=float)[:, None], np.arange(abs(q) + K + 1))
    W = lambda j: table[:, np.abs(np.atleast_1d(j))]
    values = kernel._twisted_c1(W, q, np.arange(1, K + 1), 0.0, 0.0)
    return values, 0.25 * table[:, abs(q)] * -2.0


def _sweep(q, grid, decide, fallback):
    """Per-radius results over ``grid`` at ``lam = mu = 0``, block by block.

    Each block of radii lists ``K = max(4q, 64)`` modes through
    :func:`_grid_c1`. Blocks start at ``_FIRST_BLOCK`` radii and double up
    to ``_BLOCK_ELEMS`` table entries, so a scan that ends near its first
    radii lists few more. ``decide(q, values, tails, band)`` returns each row's
    result and whether that listing settles it, with ``band`` the truncation
    bound of ``K`` modes plus ``_ROUNDOFF``. An unsettled row takes
    ``fallback(q, r)``, the per-radius test that doubles its listing. Yields
    the results of ``grid[:n]`` as ``n`` grows, so a caller stops at the block
    that holds its answer.
    """
    K = max(4 * q, 64)
    band = truncation_bound(q, K) + _ROUNDOFF
    cap = max(1, _BLOCK_ELEMS // (q + K + 1))
    done, start, rows = [], 0, min(_FIRST_BLOCK, cap)
    while start < len(grid):
        radii = grid[start:start + rows]
        result, settled = decide(q, *_grid_c1(q, K, radii), band)
        for i in np.nonzero(~settled)[0]:
            result[i] = fallback(q, float(radii[i]))
        done.append(result)
        yield np.concatenate(done)
        start, rows = start + rows, min(2 * rows, cap)


def _lowest_sign(q, r):
    """A value with the sign of the infimum of ``c1(q, k, r)`` over all modes."""
    # settled once the listed value is not positive or the whole tail band is
    p = Params(r, 0.0, 0.0)
    tail = kernel.tail_limit(q, p)
    values = _listed_c1(q, p, lambda v, band: min(v.min(), tail) <= 0.0 or tail > band,
                        mode_cutoff(q, 1e-6))
    return min(float(values.min()), tail)


def _lowest_rows(q, values, tails, band):
    """:func:`_lowest_sign` of every listed row, and which rows the listing settles."""
    lowest = np.minimum(values.min(axis=1), tails)
    return lowest, (lowest <= 0.0) | (tails > band)


def _leading_is_twist(q, r):
    """Whether the twist mode ``k = q`` leads every mode of ``c1(q, k, r)``."""
    p = Params(r, 0.0, 0.0)
    tail = kernel.tail_limit(q, p)
    leads = lambda v: v[q - 1] >= max(_max_except(v, q), tail)
    # settled once the twist mode trails a listed value, or clears the tail band
    values = _listed_c1(q, p, lambda v, band: not leads(v) or v[q - 1] > tail + band,
                        mode_cutoff(q, 1e-6))
    return leads(values)


def _leading_rows(q, values, tails, band):
    """:func:`_leading_is_twist` of every listed row, and which rows the listing settles."""
    twist = values[:, q - 1]
    others = np.maximum(values[:, :q - 1].max(axis=1, initial=-np.inf),
                        values[:, q:].max(axis=1, initial=-np.inf))
    leads = twist >= np.maximum(others, tails)
    return leads, ~leads | (twist > tails + band)


def threshold(q, kind):
    """Threshold coupling radii of the pairwise-only system.

    ``attractive_r0``: first zero crossing of the mode-1 eigenvalue from below;
    the mode-1 eigenvalue is swept over the whole scan grid of radii at once.
    ``repulsive_r0``: lower edge of the radius window on which every eigenvalue
    is positive (requires ``q >= 2``).
    ``r_star``: radius past which the leading mode is the twist mode itself,
    estimated by a downward grid scan with bracket refinement.

    The repulsive and ``r_star`` scans list ``max(4q, 64)`` modes at every
    grid radius from one ``w_hat`` table per block of radii (:func:`_sweep`),
    and stop at the block that holds the first sign change or the first
    radius where the twist mode trails. A radius whose test that listing
    leaves open lists again on its own, doubling up to ``mode_cutoff(q,
    1e-6)`` modes, as the Brent refinement of the repulsive edge and the
    ``r_star`` bisection do at every iterate; every result equals the
    full-list one.
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

    if kind == REPULSIVE_R0:
        if q == 1:
            raise NoBifurcationError(
                "q=1 twisted states never gain stability under sign reversal: no bifurcation"
            )
        grid = np.arange(_SCAN_STEP, 0.5 + _SCAN_STEP / 2, _SCAN_STEP)
        for lowest in _sweep(q, grid, _lowest_rows, _lowest_sign):
            ups = np.nonzero((lowest[:-1] <= 0.0) & (lowest[1:] > 0.0))[0]
            if len(ups):
                i = ups[0] + 1
                f = lambda r: certified_extreme(q, Params(r, 0.0, 0.0), lowest=True)[0]
                return kernel._brentq(f, grid[i - 1], grid[i], xtol=_REFINE_XTOL)
        raise NoThresholdError(f"no radius window with all-positive eigenvalues for q={q}")

    if kind == R_STAR:
        grid = np.arange(0.5, _SCAN_STEP / 2, -_SCAN_STEP)
        for leads in _sweep(q, grid, _leading_rows, _leading_is_twist):
            if not leads[0]:
                raise NoThresholdError(
                    f"leading mode is not the twist mode even at r=1/2 for q={q}")
            trails = np.nonzero(~leads)[0]
            if len(trails):
                i = trails[0]
                lo, hi = grid[i], grid[i - 1]
                while hi - lo > 1e-6:
                    mid = 0.5 * (lo + hi)
                    if _leading_is_twist(q, mid):
                        hi = mid
                    else:
                        lo = mid
                return hi
        return float(grid[-1])  # numerical estimate: holds on the whole scanned range

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


def alt_eigenvalue(family, q, r, k, m_last=None, ell_cutoff=None, corrected=False):
    """Twisted-state eigenvalue of one of the alternative higher-order couplings.

    ``general_d``: coupling of three or more phases through a single kernel
    evaluation with integer weights; needs ``m_last`` (the weight on the
    evolving phase, which carries the sign). The eigenvalue is the same for
    every ``k != 0``, whatever the number of phases.
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
