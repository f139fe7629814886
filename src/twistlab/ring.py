"""Finite ring dynamics: coupling weights, fast right-hand sides, Jacobians, solvers.

States are plain float arrays of length M holding phase differences relative
to oscillator 0; entry 0 is pinned to 0 and stays 0 exactly (the right-hand
side vanishes there by construction). Values are kept unwrapped so converged
profiles remain comparable to the analytic branch expansions.

The pairwise, triplet, and quadruplet sums all reduce to circular
convolutions of ``exp(i theta)`` against the weight vector, which the fast
path evaluates with FFTs in O(M log M): the pairwise and quadruplet terms
share one inverse FFT, and for even M the triplet term needs only a
half-length one. The naive path evaluates the same convolutions by direct
summation and serves as the oracle.

Spectra are exact, and :func:`jacobian_spectrum` picks the path from the
state: :func:`twisted_spectrum` in closed form when it is handed a twisted
state (circulant linearization, any M), dense eigenvalues of the analytic
:func:`jacobian` at any other state with ``M <= DENSE_CAP``.

Time integration is adaptive with a terminal stop at the equilibrium
``sup |rhs| < EQUILIBRIUM_TOL``; the ring size alone picks the method. It is
LSODA for ``M <= DENSE_CAP``: explicit Adams steps while the ring is
non-stiff, implicit BDF fed the analytic :func:`jacobian` once it turns stiff
(near a weakly unstable twisted state). Above the cap it is an embedded 5(4)
Runge-Kutta pair. Damped Newton refinement of an equilibrium is dense, up to
``DENSE_CAP``, and only solves: callers that want the spectrum at the
solution ask :func:`jacobian_spectrum`.

This is the one module that needs scipy (``solve_ivp`` and the LU routines),
and it imports it at module level. The package imports this module on first
use of ``twistlab.ring`` or of a finite-ring name it re-exports, so work on
the closed forms alone never loads scipy. Finite thresholds are refined by
the package's own Brent solver, ``kernel._brentq``.
"""

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg import get_lapack_funcs

from . import kernel, spectrum
from .errors import (
    ConvergenceError,
    NearSymmetryDegenerateError,
    NoThresholdError,
    ResourceLimitError,
    StiffnessError,
)
from .kernel import Params

TWO_PI = 2.0 * math.pi

_log = logging.getLogger("twistlab")

PAIRWISE = "pairwise"
TRIPLET = "triplet"
QUADRUPLET = "quadruplet"
ORDERS = (PAIRWISE, TRIPLET, QUADRUPLET)

ATTRACTIVE = "attractive"
REPULSIVE = "repulsive"

#: Dense eigensolver / Newton size limit (state dimension M).
DENSE_CAP = 2000

_BLOCK_ELEMS = 1 << 18   # entries per row block of the O(M^2) fills (2 MiB of float64)
_RCOND_LIMIT = 1e-12     # Newton Jacobian reciprocal-condition floor

#: Integration stops once ``sup |rhs|`` falls below this.
EQUILIBRIUM_TOL = 1e-10

#: Radius resolution of :func:`finite_threshold`.
THRESHOLD_XTOL = 1e-6


@dataclass(frozen=True)
class CouplingWeights:
    """Ring coupling weights indexed by signed circular offset (length M).

    Symmetric under ``d -> M - d``; all entries in [0, 1] with a single
    fractional pair at the window edge whenever ``r * M`` is not an integer,
    which makes ``r`` a continuous parameter of the finite system. ``b_fft``
    is ``np.fft.fft(b)``, which every right-hand side, Jacobian and spectrum
    reads.
    """

    M: int
    r: float
    b: np.ndarray = field(repr=False)
    b_fft: np.ndarray = field(repr=False, compare=False)


def build_weights(M, r):
    """Coupling weights for an M-ring with range ``r``.

    Offsets with circular distance up to ``floor(r M)`` get weight 1; the next
    distance gets the fractional remainder ``r M - floor(r M)`` (dropped when
    it would wrap past the antipode), so the weights, and every spectrum and
    threshold of the ring, are continuous in ``r``.
    """
    if M < 4:
        raise ValueError("need at least M = 4 oscillators")
    if not 0.0 < r <= 0.5:
        raise ValueError(f"coupling range must satisfy 0 < r <= 1/2, got r={r}")
    d = np.arange(M)
    dist = np.minimum(d, M - d)
    k0 = int(math.floor(r * M))
    b = np.zeros(M)
    b[dist <= k0] = 1.0
    b[dist == k0 + 1] = r * M - k0
    return CouplingWeights(M=M, r=r, b=b, b_fft=np.fft.fft(b))


@dataclass(frozen=True)
class SystemSpec:
    """Which interaction orders to evaluate, with what sign.

    ``include_orders=None`` selects the pairwise term plus whichever
    higher-order terms have nonzero strength. The repulsive (sign-reversed)
    model is defined for pairwise-only coupling.
    """

    p: Params
    sign: str = ATTRACTIVE
    include_orders: Optional[tuple] = None

    def __post_init__(self):
        if self.sign not in (ATTRACTIVE, REPULSIVE):
            raise ValueError(f"sign must be {ATTRACTIVE!r} or {REPULSIVE!r}")
        if self.include_orders is None:
            orders = [PAIRWISE]
            if self.p.lam != 0.0:
                orders.append(TRIPLET)
            if self.p.mu != 0.0:
                orders.append(QUADRUPLET)
            object.__setattr__(self, "include_orders", tuple(orders))
        else:
            orders = tuple(self.include_orders)
            bad = [o for o in orders if o not in ORDERS]
            if bad:
                raise ValueError(f"unknown interaction orders {bad}")
            object.__setattr__(self, "include_orders", orders)
        if self.sign == REPULSIVE and set(self.include_orders) != {PAIRWISE}:
            raise ValueError("the repulsive model is defined for pairwise-only coupling")

    @property
    def sign_factor(self):
        return -1.0 if self.sign == REPULSIVE else 1.0


def twisted_state(M, q):
    """The q-twisted phase-difference profile on M sites: ``2 pi q k / M``."""
    if M < 1 or q < 0:
        raise ValueError("need M >= 1 and q >= 0")
    return TWO_PI * q * np.arange(M) / M


def perturb(theta, amplitude, seed):
    """Add seeded uniform(-amplitude, amplitude) noise to every entry except the pinned one."""
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    out = np.array(theta, dtype=float, copy=True)
    rng = np.random.default_rng(seed)
    out[1:] += rng.uniform(-amplitude, amplitude, size=len(out) - 1)
    return out


def symmetry_shift(theta, j):
    """Cyclic ring shift by ``j`` sites with re-pinning; maps equilibria to equilibria."""
    M = len(theta)
    if not 0 <= j < M:
        raise ValueError("shift must satisfy 0 <= j < M")
    out = np.roll(theta, -j) - theta[j]
    out[0] = 0.0
    return out


def best_shift_residual(theta_a, theta_b):
    """Closest ring-shift match between two states, compared modulo 2 pi.

    Returns ``(j, residual)`` minimizing the sup-norm of the wrapped difference
    ``symmetry_shift(theta_a, j) - theta_b`` over all integer shifts.
    """
    M = len(theta_a)
    if len(theta_b) != M:
        raise ValueError("states must have equal length")
    k = np.arange(M)
    residuals = np.empty(M)
    for rows in _row_blocks(M):
        shifted = theta_a[(k[None, :] + k[rows, None]) % M] - theta_a[rows, None]  # row j = shift by j
        residuals[rows] = np.max(np.abs(wrap_to_pi(shifted - theta_b[None, :])), axis=1)
    j = int(np.argmin(residuals))
    return j, float(residuals[j])


def _row_blocks(M):
    """Slices of consecutive rows of an M-column table, ``_BLOCK_ELEMS`` entries each."""
    step = max(1, _BLOCK_ELEMS // M)
    return [slice(s, min(s + step, M)) for s in range(0, M, step)]


def wrap_to_pi(x):
    """Reduce angles to [-pi, pi)."""
    return (np.asarray(x) + np.pi) % TWO_PI - np.pi


def _direct_convolve(x, y):
    """Circular convolution by direct summation (the O(M^2) oracle path)."""
    M = len(x)
    idx = (np.arange(M)[:, None] - np.arange(M)[None, :]) % M
    return y[idx] @ x


def _check_state(theta, weights):
    theta = np.asarray(theta, dtype=float)
    if len(theta) != weights.M:
        raise ValueError(f"state length {len(theta)} does not match weights for M={weights.M}")
    if abs(theta[0]) > 1e-12:
        raise ValueError("entry 0 of the state must be pinned to 0")
    return theta


def _rhs_fft(theta, spec, weights):
    M = weights.M
    u = np.exp(1j * theta)
    U = np.fft.fft(u)
    B = weights.b_fft
    p, orders = spec.p, spec.include_orders
    G = np.zeros(M)
    if QUADRUPLET in orders:
        # conv(b, u, u, conj u) has spectrum B U |U|^2 and is read through
        # conj(u) like the pairwise conv(b, u): one ifft of B U X serves both
        X = U.real ** 2
        X += U.imag ** 2
        X *= p.mu / M**3
        if PAIRWISE in orders:
            X += 1.0 / M
        X = X * U
        X *= B
        G = (np.conj(u) * np.fft.ifft(X)).imag
    elif PAIRWISE in orders:
        G = (np.conj(u) * np.fft.ifft(B * U)).imag / M
    if TRIPLET in orders:
        Y = B * U
        Y *= U
        if M % 2 == 0:
            # entries 2k of a length-M ifft: half the ifft of the folded
            # spectrum at length M/2, once for k < M/2 and again for k >= M/2
            h = M // 2
            Y[:h] += Y[h:]
            half = np.fft.ifft(Y[:h])
            half *= 0.5
            conv = np.concatenate((half, half))
        else:
            conv = np.fft.ifft(Y)[(2 * np.arange(M)) % M]
        G = G + p.lam * (np.conj(u) ** 2 * conv).imag / M**2
    out = spec.sign_factor * (G - G[0])
    out[0] = 0.0
    return out


def _rhs_naive(theta, spec, weights):
    M = weights.M
    u = np.exp(1j * theta)
    b = weights.b
    p = spec.p
    G = np.zeros(M)
    if PAIRWISE in spec.include_orders:
        G = (np.conj(u) * _direct_convolve(u, b)).imag / M
    if TRIPLET in spec.include_orders:
        inner = _direct_convolve(u, u)                      # precomputed inner convolution
        conv = _direct_convolve(inner, b)[(2 * np.arange(M)) % M]
        G = G + p.lam * (np.conj(u) ** 2 * conv).imag / M**2
    if QUADRUPLET in spec.include_orders:
        rev = np.conj(u[(-np.arange(M)) % M])
        inner = _direct_convolve(_direct_convolve(u, rev), u)
        conv = _direct_convolve(inner, b)
        G = G + p.mu * (np.conj(u) * conv).imag / M**3
    out = spec.sign_factor * (G - G[0])
    out[0] = 0.0
    return out


def rhs(theta, spec, weights, method="fft"):
    """Pinned phase-difference velocity field.

    ``method="fft"`` is the O(M log M) fast path; ``"naive"`` evaluates the
    same sums by O(M^2) direct summation and is the reference the fast path
    is tested against. The naive mode stays a library option because the
    acceptance criteria ask the package for it (10(d) checks it against the
    fast path, 11 times the two) and the benchmark's tracer counts its calls
    as ``ring.rhs`` work. Entry 0 of the result is exactly 0.
    """
    theta = _check_state(theta, weights)
    if method == "fft":
        return _rhs_fft(theta, spec, weights)
    if method == "naive":
        return _rhs_naive(theta, spec, weights)
    raise ValueError(f"unknown method {method!r}; expected 'fft' or 'naive'")


def jacobian(theta, spec, weights):
    """Analytic Jacobian of :func:`rhs` on the pinned coordinates 1..M-1.

    Every order adds its off-diagonal partials, gathered from circular
    convolutions of ``exp(i theta)``, to one unpinned M x M matrix filled in
    row blocks. Every order is invariant under a global phase shift, so the
    diagonal is minus the row sum; pinning entry 0 subtracts row 0.
    """
    theta = _check_state(theta, weights)
    M, p, orders = weights.M, spec.p, spec.include_orders
    u = np.exp(1j * theta)
    U = np.fft.fft(u)
    B = weights.b_fft
    if TRIPLET in orders:
        bu = np.fft.ifft(B * U)                      # conv(b, u)
    if QUADRUPLET in orders:
        buu = np.fft.ifft(B * U * U)                 # conv(b, u, u)
        bR = np.fft.ifft(B * (U * np.conj(U)))       # conv(b, autocorrelation of u)
    if PAIRWISE in orders:
        # row j of the circulant b[(j - cols) % M] is window M-1-j of (b, b) reversed
        windows = np.lib.stride_tricks.sliding_window_view(np.tile(weights.b, 2)[::-1], M)
        c, s = np.cos(theta), np.sin(theta)
    cols = np.arange(M)
    A = np.zeros((M, M))
    for rows in _row_blocks(M):
        k = cols[rows, None]
        if PAIRWISE in orders:
            # cos(theta_cols - theta_rows) as a rank-2 product
            A[rows] = (windows[M - rows.stop:M - rows.start][::-1]
                       * (c[rows, None] * c + s[rows, None] * s) / M)
        if TRIPLET in orders:
            A[rows] += (2.0 * p.lam / M**2) * (
                np.conj(u[rows, None]) ** 2 * u * bu[(2 * k - cols) % M]).real
        if QUADRUPLET in orders:
            A[rows] += (p.mu / M**3) * (np.conj(u[rows, None]) * (
                2.0 * u * bR[(k - cols) % M] - np.conj(u) * buu[(k + cols) % M])).real
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    J = A[1:, 1:] - A[0, 1:]
    J *= spec.sign_factor
    return J


def twisted_spectrum(q, spec, weights):
    """Exact pinned Jacobian eigenvalues at the q-twisted state, descending.

    The linearization at a twisted state is circulant, so its eigenvalues are
    :func:`kernel.c1` with ``w_hat(r, j)`` replaced by the lattice
    coefficients ``B_j = (2/M) Re FFT(b)_j``, for modes ``k = 1..M-1``. Any M;
    the spec must include the pairwise term.
    """
    if PAIRWISE not in spec.include_orders:
        raise ValueError("the twisted-state spectrum needs the pairwise term")
    M = weights.M
    B = (2.0 / M) * weights.b_fft.real
    lam = spec.p.lam if TRIPLET in spec.include_orders else 0.0
    mu = spec.p.mu if QUADRUPLET in spec.include_orders else 0.0
    vals = kernel._twisted_c1(lambda j: B[j % M], q, np.arange(1, M), lam, mu)
    return np.sort(spec.sign_factor * vals)[::-1]


def _repin(theta):
    theta = np.asarray(theta, dtype=float).copy()
    theta[0] = 0.0
    return theta


def _twist_count(theta, spec):
    """The q with ``theta`` bitwise ``twisted_state(M, q)``, or None.

    ``q`` runs over ``0 <= q < M``, one count per distinct twisted state of
    the ring; larger counts alias ``q mod M`` and are left to the dense path.
    O(M). Returns None, never raises, for any state or spec the closed form
    does not cover.
    """
    M = len(theta)
    if M < 2 or PAIRWISE not in spec.include_orders:
        return None
    x = float(theta[1]) * M / TWO_PI
    if not math.isfinite(x):
        return None
    q = round(x)
    if not 0 <= q < M or not np.array_equal(theta, twisted_state(M, q)):
        return None
    return q


def jacobian_spectrum(theta, spec, weights, n_eigs=None):
    """Real parts of the Jacobian eigenvalues on the pinned coordinates, descending.

    When ``theta`` is bitwise ``twisted_state(M, q)`` with ``0 <= q < M``, and
    the spec has the pairwise term, this is :func:`twisted_spectrum` in
    O(M log M) at any M. Any other state gets the dense eigenvalues of the
    analytic :func:`jacobian`, for ``M <= DENSE_CAP``; larger rings raise
    :class:`ResourceLimitError`. ``n_eigs`` keeps only the leading values. The
    path taken is logged at DEBUG level on the ``twistlab`` logger.
    """
    theta = _check_state(theta, weights)
    M = weights.M
    q = _twist_count(theta, spec)
    if q is not None:
        _log.debug("jacobian_spectrum: closed-form path, M=%d, q=%d", M, q)
        parts = twisted_spectrum(q, spec, weights)
    else:
        _log.debug("jacobian_spectrum: dense path, M=%d", M)
        if M > DENSE_CAP:
            raise ResourceLimitError(f"dense eigensolve needs M <= {DENSE_CAP}; got M={M}")
        parts = np.sort(np.linalg.eigvals(jacobian(theta, spec, weights)).real)[::-1]
    return parts if n_eigs is None else parts[:n_eigs]


@dataclass(frozen=True)
class IntegrationResult:
    theta: np.ndarray
    t_reached: float
    stop_reason: str                      # "equilibrium" or "t_end"
    method: str                           # "lsoda" or "rk45"


def integrate(theta0, spec, weights, t_end, tol=1e-11):
    """Integrate the ring until ``t_end`` or until the state is an equilibrium.

    The integrator is adaptive, with absolute and relative tolerance ``tol``
    and a terminal equilibrium stop at ``sup |rhs| < EQUILIBRIUM_TOL``; the
    default ``tol`` sits an order below the stop, so the integrator's error
    on the field does not keep it from firing. The ring size picks the
    method, and the result names it:

    - ``M <= DENSE_CAP``: LSODA (Petzold, *SIAM J. Sci. Stat. Comput.* 4,
      1983), reported as ``"lsoda"``. It takes explicit Adams steps while
      they are bounded by accuracy and switches to implicit BDF fed the
      analytic :func:`jacobian` (zero row and column 0 in the solver's M x M
      frame) when stability bounds them, as near a weakly unstable twisted
      state, whose pinned spectrum spans several decades.
    - larger rings: the embedded 5(4) Runge-Kutta pair, ``"rk45"``.

    Entry 0 never drifts: its velocity is identically zero. At each accepted
    step the equilibrium stop reads the field the solver has just evaluated
    at that state when there is one (rk45); otherwise, and at the stop's root
    finding, it evaluates the field afresh.
    """
    theta0 = _check_state(theta0, weights)
    if tol <= 0:
        raise ValueError("tol must be positive")
    method = "lsoda" if weights.M <= DENSE_CAP else "rk45"
    f = lambda th: _rhs_fft(th, spec, weights)

    if np.max(np.abs(f(theta0))) < EQUILIBRIUM_TOL:
        return IntegrationResult(theta=theta0.copy(), t_reached=0.0,
                                 stop_reason="equilibrium", method=method)

    last = [None, None]  # the solver's latest (state, field)

    def field(t, y):
        last[:] = y.copy(), f(y)
        return last[1]

    def event(t, y):
        # an rk45 step ends where the solver last evaluated the field
        fy = last[1] if np.array_equal(y, last[0]) else f(y)
        return float(np.max(np.abs(fy)) - EQUILIBRIUM_TOL)

    event.terminal = True
    event.direction = -1
    options = {}
    if method == "lsoda":
        M = weights.M

        def jac(t, y):
            # entry 0 has zero velocity and stays exactly 0: row and column 0 vanish
            J = np.zeros((M, M))
            J[1:, 1:] = jacobian(y, spec, weights)
            return J

        options["jac"] = jac
    sol = solve_ivp(field, (0.0, t_end), theta0, method=method.upper(),
                    rtol=tol, atol=tol, events=event, **options)
    if sol.status == -1:
        raise StiffnessError(f"integration step failed: {sol.message}",
                             t_reached=float(sol.t[-1]) if len(sol.t) else 0.0)
    if sol.status == 1:
        theta = _repin(sol.y_events[0][0])
        t_reached = float(sol.t_events[0][0])
        reason = "equilibrium"
    else:
        theta = _repin(sol.y[:, -1])
        t_reached = float(sol.t[-1])
        reason = "t_end"
    return IntegrationResult(theta=theta, t_reached=t_reached, stop_reason=reason,
                             method=method)


@dataclass(frozen=True)
class EquilibriumResult:
    theta: np.ndarray
    residual_norm: float
    iterations: int


def newton_equilibrium(theta_init, spec, weights, max_iter=50, tol=1e-12):
    """Damped Newton iteration for an equilibrium of the pinned system.

    Steps are halved (at most 30 times) until the residual decreases. Success
    means ``sup |rhs| < tol``. The result holds the solution, its residual
    and the iteration count; its stability is :func:`jacobian_spectrum` at
    ``result.theta``.
    """
    theta = _check_state(theta_init, weights).copy()
    M = weights.M
    if M > DENSE_CAP:
        raise ResourceLimitError(f"Newton refinement is dense-only; M={M} exceeds {DENSE_CAP}")
    gecon = get_lapack_funcs("gecon", (np.empty((2, 2)),))
    F = rhs(theta, spec, weights)
    res = np.max(np.abs(F))
    for iteration in range(max_iter):
        if res < tol:
            return EquilibriumResult(theta=theta, residual_norm=float(res), iterations=iteration)
        J = jacobian(theta, spec, weights)
        lu, piv = lu_factor(J)
        rcond = gecon(lu, np.linalg.norm(J, 1), norm="1")[0]
        if rcond < _RCOND_LIMIT:
            raise NearSymmetryDegenerateError(
                f"Jacobian reciprocal condition {rcond:.2e} at residual {res:.2e}: "
                "iteration sits on the ring-shift family; restart from a different "
                "pattern phase"
            )
        delta = lu_solve((lu, piv), -F[1:])
        step = 1.0
        for _ in range(30):
            trial = theta.copy()
            trial[1:] += step * delta
            F_new = rhs(trial, spec, weights)
            new_res = np.max(np.abs(F_new))
            if new_res < res:
                theta, res, F = trial, new_res, F_new
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                f"Newton stalled after {iteration} iterations at residual {res:.3e}",
                iterations=iteration, residual=float(res),
            )
    if res < tol:
        return EquilibriumResult(theta=theta, residual_norm=float(res), iterations=max_iter)
    raise ConvergenceError(
        f"Newton did not reach tolerance {tol:.1e} in {max_iter} iterations; "
        f"final residual {res:.3e}",
        iterations=max_iter, residual=float(res),
    )


def finite_threshold(q, M, kind=ATTRACTIVE):
    """Finite-size bifurcation radius of the q-twisted state on an M-ring.

    Brackets and refines the sign change of the leading eigenvalue of
    :func:`twisted_spectrum` (pairwise coupling with the continuous,
    fractional weights) around the continuum threshold; resolves the radius
    to ``THRESHOLD_XTOL``. Requires M >= 20 q so the profile is resolved.
    """
    if kind not in (ATTRACTIVE, REPULSIVE):
        raise ValueError(f"kind must be {ATTRACTIVE!r} or {REPULSIVE!r}, got {kind!r}")
    if M < 20 * q:
        raise ValueError(f"need M >= 20 q to resolve the twisted profile; got M={M}, q={q}")
    # sign-normalized objective: negative below the threshold, positive above
    flip = 1.0 if kind == ATTRACTIVE else -1.0

    def g(r):
        spec = SystemSpec(Params(r), sign=kind)
        return flip * float(twisted_spectrum(q, spec, build_weights(M, r))[0])

    center = spectrum.threshold(
        q, spectrum.ATTRACTIVE_R0 if kind == ATTRACTIVE else spectrum.REPULSIVE_R0
    )
    # walk from the continuum centre towards the sign change, 1e-3 a step
    up = g(center) < 0.0
    r, edge = center, (0.5 if up else 2.0 / M)
    for _ in range(60):
        r = min(r + 1e-3, edge) if up else max(r - 1e-3, edge)
        g_r = g(r)
        found = g_r > 0.0 if up else g_r < 0.0
        if found or r == edge:
            break
    if not found:
        raise NoThresholdError(
            f"leading eigenvalue does not change sign {'above' if up else 'below'} "
            f"r={center:.4f} (q={q}, M={M})"
        )
    return kernel._brentq(g, min(center, r), max(center, r), xtol=THRESHOLD_XTOL)
