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

Spectra are exact, and :func:`jacobian_spectrum` is the one spectrum call:
the closed form :func:`_twisted_lattice` at any twisted state (every spec,
twist count and M), dense eigenvalues of :func:`jacobian` at any other state.
That Jacobian has one frame, the state's own M x M with row and column 0
zero, built only up to ``DENSE_CAP``: it is the unpinned Jacobian
(:func:`_unpinned_jacobian`) pinned in place, and the dense spectrum and
Newton off the narrow pairwise rings read its pinned block ``[1:, 1:]``
(Newton from a reflection-odd start its column fold).
Ring shifts are :func:`symmetry_shift`, which :func:`best_shift_residual`
also searches.

Time integration is adaptive with a terminal stop at the equilibrium
``sup |rhs| <= EQUILIBRIUM_TOL``; the ring size alone picks the method. It is
LSODA for ``M <= DENSE_CAP``: explicit Adams steps while the ring is
non-stiff, implicit BDF fed an analytic Jacobian once it turns stiff (near a
weakly unstable twisted state). It integrates the unpinned field and
re-pins the result: in the fold order ``0, M-1, 1, M-2, ...`` with a band
Jacobian (:func:`_band_jacobian`) for a pairwise ring of short range, with
the dense :func:`_unpinned_jacobian` for every other spec. Above the cap it
is ETDRK4, an exponential integrator that takes that closed form, diagonal
in Fourier space, exactly and needs no matrix; an embedded estimate from the
field at the new state, which the next step reuses, controls its steps. Both
methods call one counted field and feed one loop over their accepted steps,
which holds the one stop, and the one result reports what the run cost.
Damped Newton refinement of an equilibrium runs at most
``NEWTON_MAX_ITER`` iterations to the residual ``NEWTON_TOL``, up to
``DENSE_CAP``, and only solves: callers that want the spectrum at the
solution ask :func:`jacobian_spectrum`. With symmetric weights every order
is equivariant under the ring reflection ``theta_k -> -theta_{-k}``, so a
start that is a twisted state plus a reflection-odd deviation (every branch
profile, and every start the CLI builds) stays odd: Newton then solves on
the ``(M - 1) // 2`` odd unknowns (:func:`_odd_solver`), whose block lacks
the ring-shift direction that leaves the full pinned Jacobian nearly
singular at branch equilibria. For a pairwise ring of short range that
block is a band of half-width ``p``; every other spec folds the columns of
:func:`jacobian`. Any other start solves on the ``M - 1`` pinned unknowns:
for a pairwise ring of short range the pinned Jacobian is ``(I + 1 1^T)``
times LSODA's band with site 0 dropped, so its steps factor that band
(:func:`_pinned_solver`); every other spec factors the dense pinned block of
:func:`jacobian`. Rows on a bifurcating branch come from
:func:`follow_branch`, which anchors them at the ring's own threshold and
continues each from the last.

This is the one module that needs scipy (LSODA, through ``twistlab._lsoda``,
and the dense and band LU routines), and it loads each part on first use:
``scipy.integrate`` with the first LSODA run, ``scipy.linalg`` with the first
Newton factorization. Finite thresholds, spectra at twisted states and ETDRK4 runs
above ``DENSE_CAP`` run on numpy alone. The package imports this module on
first use of ``twistlab.ring`` or of a finite-ring name it re-exports, so
work on the closed forms never loads it. Loading it imports only scipy's
package, to pin the bundled OpenBLAS to one thread
(:func:`_pin_openblas_threads`): outputs are the same bits at any
``OPENBLAS_NUM_THREADS``, and a caller's own BLAS work then runs on one
thread too. Finite thresholds are refined by the package's own Brent
solver, ``kernel._brentq``.
"""

import ctypes
import glob
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy

from . import bifurcation, kernel, spectrum
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

#: Largest ring (state dimension M) whose dense :func:`jacobian` is built.
DENSE_CAP = 2000

_BLOCK_ELEMS = 1 << 18   # entries per row block of the Jacobian fill (2 MiB of float64)
_RCOND_LIMIT = 1e-12     # Newton Jacobian reciprocal-condition floor

#: Integration stops once ``sup |rhs|`` is at most this.
EQUILIBRIUM_TOL = 1e-10

#: Radius resolution of :func:`finite_threshold`.
THRESHOLD_XTOL = 1e-6

#: Iteration limit and residual target ``sup |rhs|`` of :func:`newton_equilibrium`.
NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-12


def _pin_openblas_threads():
    """One thread in the OpenBLAS libraries bundled with numpy and scipy.

    Called when this module loads, whatever ``OPENBLAS_NUM_THREADS`` says or
    was imported first, so a caller's own BLAS work runs on one thread too.
    Each wheel's library, found next to its package, exports a setter for the
    running library; a build without one keeps its count, logged at DEBUG.
    """
    for package, symbol in ((scipy, "scipy_openblas_set_num_threads"),
                            (np, "scipy_openblas_set_num_threads64_")):
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                            f"{package.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            try:
                setter = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            break
        else:
            _log.debug("no %s in %s; its OpenBLAS keeps its thread count", symbol, libs)


_pin_openblas_threads()


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
    model is defined for pairwise-only coupling. The ring layer reads the
    radius only from the weights, so ``p.r`` may be a placeholder.
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
    """The q-twisted phase-difference profile on M sites: ``2 pi q k / M``, any integer q."""
    if M < 1:
        raise ValueError("need M >= 1")
    return TWO_PI * q * np.arange(M) / M


def perturb(theta, amplitude, seed):
    """Add seeded uniform(-amplitude, amplitude) noise to every entry except the pinned one."""
    if not 0.0 <= amplitude < math.inf:   # NaN fails this too
        raise ValueError(f"amplitude must be finite and nonnegative, got {amplitude}")
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
    ``symmetry_shift(theta_a, j) - theta_b`` over all integer shifts; the
    first such ``j`` on ties. O(M^2) time, O(M) memory.
    """
    M = len(theta_a)
    if len(theta_b) != M:
        raise ValueError("states must have equal length")
    residuals = [np.max(np.abs(wrap_to_pi(symmetry_shift(theta_a, j) - theta_b)))
                 for j in range(M)]
    j = int(np.argmin(residuals))
    return j, float(residuals[j])


def wrap_to_pi(x):
    """Reduce angles to [-pi, pi)."""
    return (np.asarray(x) + np.pi) % TWO_PI - np.pi


def _direct_convolve(x, y):
    """Circular convolution by direct summation (the O(M^2) oracle path)."""
    M = len(x)
    idx = (np.arange(M)[:, None] - np.arange(M)[None, :]) % M
    return y[idx] @ x


def _check_state(theta, weights):
    """``theta`` as floats; entry 0 within 1e-12 of 0 is re-pinned, an exact 0 keeps its bits."""
    theta = np.asarray(theta, dtype=float)
    if len(theta) != weights.M:
        raise ValueError(f"state length {len(theta)} does not match weights for M={weights.M}")
    if not abs(theta[0]) <= 1e-12:   # NaN fails this too
        raise ValueError("entry 0 of the state must be pinned to 0")
    if theta[0] != 0.0:
        theta = theta - theta[0]
    return theta


def _rhs_fft(theta, spec, weights, pinned=True):
    """The field of :func:`rhs`; ``pinned=False`` skips subtracting entry 0's velocity.

    Works in place on the arrays it makes, so a call at large M allocates
    few temporaries; every complex product keeps its operand order (numpy's
    complex multiply is not bitwise commutative).
    """
    M = weights.M
    u = 1j * theta
    U = np.fft.fft(np.exp(u, out=u))
    cu = np.conj(u, out=u)                        # u itself is read only through conj(u)
    B = weights.b_fft
    p, orders = spec.p, spec.include_orders
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
        G = np.multiply(cu, np.fft.ifft(X, out=X), out=X).imag
    elif PAIRWISE in orders:
        X = B * U
        G = np.multiply(cu, np.fft.ifft(X, out=X), out=X).imag
        G /= M
    else:
        G = np.zeros(M)
    if TRIPLET in orders:
        Y = B * U
        Y *= U
        if M % 2 == 0:
            # entries 2k of a length-M ifft: half the ifft of the folded
            # spectrum at length M/2, once for k < M/2 and again for k >= M/2
            h = M // 2
            Y[:h] += Y[h:]
            half = np.fft.ifft(Y[:h], out=Y[:h])
            half *= 0.5
            Y[h:] = half
            conv = Y
        else:
            conv = np.fft.ifft(Y, out=Y)[(2 * np.arange(M)) % M]
        T = np.multiply(np.square(cu, out=cu), conv, out=conv).imag
        T *= p.lam
        T /= M**2
        G += T
    if not pinned:
        return spec.sign_factor * G
    out = G - G[0]
    out *= spec.sign_factor
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


def _unpinned_jacobian(theta, spec, weights):
    """Analytic Jacobian of ``_rhs_fft(..., pinned=False)`` at any state, unchecked.

    Every order adds its off-diagonal partials, gathered from circular
    convolutions of ``exp(i theta)``, to one M x M matrix filled in row
    blocks; invariance under a global phase shift makes the diagonal minus
    the row sum.
    """
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
    step = max(1, _BLOCK_ELEMS // M)
    for start in range(0, M, step):
        rows = slice(start, min(start + step, M))
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
    A *= spec.sign_factor
    return A


def _check_dense_cap(M, what):
    if M > DENSE_CAP:
        raise ResourceLimitError(f"{what} needs M <= {DENSE_CAP}; got M={M}",
                                 M=M, cap=DENSE_CAP)


def jacobian(theta, spec, weights):
    """Analytic Jacobian of :func:`rhs` in the state's own M x M frame.

    :func:`_unpinned_jacobian` pinned in place: row 0 is subtracted and row
    and column 0 zeroed, leaving the pinned Jacobian in ``[1:, 1:]``. Raises
    :class:`ResourceLimitError` for ``M > DENSE_CAP``.
    """
    theta = _check_state(theta, weights)
    _check_dense_cap(weights.M, "dense Jacobian")
    A = _unpinned_jacobian(theta, spec, weights)
    A[1:] -= A[0]
    A[0] = A[:, 0] = 0.0
    return A


def _band_jacobian(spec, weights):
    """LSODA's banded Jacobian of a pairwise ring, or None where the dense one is kept.

    For pairwise coupling the unpinned field ``sign G`` has the Jacobian
    ``b_d cos(theta_{k+d} - theta_k) / M`` between sites ``d`` apart, minus
    the row sums on the diagonal: a circulant band of half-width ``p``, the
    largest ring distance with a nonzero weight (the fractional edge weight
    counts). The fold order ``0, M-1, 1, M-2, ...`` turns it into a true band
    of half-width ``bw = 2 p``. Triplet and quadruplet terms couple distant
    sites, and a band whose packed storage ``(2 bw + 1) M`` is not below the
    dense ``M^2`` costs LSODA more memory than the dense matrix and takes in
    weights at the antipode ``p = M / 2``, which ``fill`` would count twice
    on the diagonal; both get None.

    Returns ``(order, pos, bw, fill)``: the folded state is
    ``y = theta[order]``, so ``theta = y[pos]``, and ``fill(y)`` is the
    Jacobian at ``y`` in LAPACK's packed band storage,
    ``packed[bw + i - j, j] = J[i, j]``, built in O(p M).
    """
    M, b = weights.M, weights.b
    if spec.include_orders != (PAIRWISE,):
        return None
    d = np.arange(M)
    p = int(np.minimum(d, M - d)[b != 0.0].max())
    bw = 2 * p
    if 2 * bw + 1 >= M:
        return None
    order = np.empty(M, dtype=np.intp)
    order[0::2] = d[:(M + 1) // 2]
    order[1::2] = d[:(M - 1) // 2:-1]
    pos = np.argsort(order)                       # folded position of each site
    nbr = (d + d[1:p + 1, None]) % M              # row d - 1: the site d ahead of each site
    i, j = pos, pos[nbr]
    upper, lower = (bw + i - j) * M + j, (bw + j - i) * M + i
    diagonal = bw * M + pos
    coupling = (spec.sign_factor / M) * b[1:p + 1, None]

    def fill(y):
        theta = y[pos]
        c = coupling * np.cos(theta[nbr] - theta)
        packed = np.zeros((2 * bw + 1) * M)
        packed[upper] = c
        packed[lower] = c
        packed[diagonal] = -(c.sum(axis=0) + np.bincount(nbr.ravel(), c.ravel(), M))
        return packed.reshape(2 * bw + 1, M)

    return order, pos, bw, fill


def _twisted_lattice(q, spec, weights):
    """Eigenvalues of the linearization at the q-twisted state on Fourier modes ``k = 1..M-1``.

    The linearization is circulant and additive over orders. With lattice
    coefficients ``B_j = (2/M) Re FFT(b)_j`` for ``w_hat(r, j)``, the pairwise
    term gives ``0.25 (B_{q-k} + B_{q+k}) - 0.5 B_q`` and the triplet and
    quadruplet terms add ``-(lam + mu/2) B_q`` on every mode; with the
    pairwise term that is :func:`kernel.c1` on the lattice. Modes ``k`` and
    ``M - k`` share a value. Exact for every spec, integer q and M.
    """
    M, orders = weights.M, spec.include_orders
    B = (2.0 / M) * weights.b_fft.real
    W = lambda j: B[j % M]
    lam = spec.p.lam if TRIPLET in orders else 0.0
    mu = spec.p.mu if QUADRUPLET in orders else 0.0
    if PAIRWISE in orders:
        values = kernel._twisted_c1(W, q, np.arange(1, M), lam, mu)
    else:
        values = np.full(M - 1, -(lam + 0.5 * mu) * W(q))
    return spec.sign_factor * values


def _twist_count(theta):
    """The q with ``theta`` bitwise ``twisted_state(M, q)``, or None.

    Any integer q, negative or past M. O(M); returns None, and never raises
    or warns, for any other state.
    """
    M = len(theta)
    # a NaN or infinite count, or one too large for the state, builds NaN entries
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.rint(float(theta[1]) * M / TWO_PI)
        return int(q) if np.array_equal(theta, twisted_state(M, q)) else None


def jacobian_spectrum(theta, spec, weights, n_eigs=None):
    """Real parts of the Jacobian eigenvalues on the pinned coordinates, descending.

    At a bitwise ``twisted_state(M, q)``, any integer q and any spec, this is
    the closed form :func:`_twisted_lattice`, in O(M log M) at any M. Any
    other state gets the dense eigenvalues of the pinned block of
    :func:`jacobian`, which raises :class:`ResourceLimitError` past
    ``DENSE_CAP``. ``n_eigs`` keeps only the leading values and must be at
    least 1; ``None`` keeps all M - 1. The path taken is logged at DEBUG
    level on the ``twistlab`` logger.
    """
    theta = _check_state(theta, weights)
    if n_eigs is not None and n_eigs < 1:
        raise ValueError(f"n_eigs must be None or at least 1, got {n_eigs}")
    q = _twist_count(theta)
    if q is not None:
        _log.debug("jacobian_spectrum: closed-form path, M=%d, q=%d", weights.M, q)
        parts = _twisted_lattice(q, spec, weights)
    else:
        _log.debug("jacobian_spectrum: dense path, M=%d", weights.M)
        parts = np.linalg.eigvals(jacobian(theta, spec, weights)[1:, 1:]).real
    parts = np.sort(parts)[::-1]
    return parts if n_eigs is None else parts[:n_eigs]


def __getattr__(name):
    # scipy.integrate loads on first use (twistlab._lsoda): _LSODA on the first
    # LSODA run, and solve_ivp, which nothing here calls, for the bench tracer
    # that patches it
    if name in ("_LSODA", "solve_ivp"):
        from . import _lsoda
        return getattr(_lsoda, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class IntegrationResult:
    theta: np.ndarray
    t_reached: float
    stop_reason: str                      # "equilibrium" or "t_end"
    method: str                           # "lsoda" (M <= DENSE_CAP) or "etdrk4"
    steps: int                            # accepted steps
    rhs_evals: int                        # field evaluations: at t = 0, in the method, in the stop
    stop_evals: int                       # of those, the ones made only for the stop
    jacobians: int                        # LSODA's Jacobian fills; 0 for ETDRK4


def integrate(theta0, spec, weights, t_end, tol=1e-11):
    """Integrate the ring until ``t_end > 0`` (may be ``inf``) or an equilibrium.

    The integrator is adaptive, with absolute and relative tolerance ``tol``
    and a terminal equilibrium stop at ``sup |rhs| <= EQUILIBRIUM_TOL``; the
    default ``tol`` sits an order below the stop, so the integrator's error
    on the field does not keep it from firing. The ring size picks the
    method, and the result names it:

    - ``M <= DENSE_CAP``: LSODA (Petzold, *SIAM J. Sci. Stat. Comput.* 4,
      1983), reported as ``"lsoda"``. It takes explicit Adams steps while
      they are bounded by accuracy and switches to implicit BDF fed an
      analytic Jacobian when stability bounds them, as near a weakly
      unstable twisted state, whose pinned spectrum spans several decades.
      It integrates the unpinned field ``sign G`` and re-pins the result as
      ``theta - theta[0]``, which every order's invariance under a global
      phase shift allows. A pairwise ring with a narrow coupling band
      (:func:`_band_jacobian`) takes it in the fold order, where its
      Jacobian is a band that LSODA factors in O(bw^2 M) (the pinned
      Jacobian is dense through its rank-one pinning term); every other
      spec takes the dense :func:`_unpinned_jacobian`.
    - larger rings: ETDRK4, ``"etdrk4"``, which integrates the closed-form
      linearization at the twisted state of ``theta0``'s winding number
      exactly and only the remainder by Runge-Kutta stages
      (:func:`_etdrk4_steps`). Each attempted step costs 4 field
      evaluations: three stages and the new state, which gives the error
      estimate and is the next step's first stage.

    Both methods feed one loop over their accepted steps, which holds the
    one stop: ``sup |f| - EQUILIBRIUM_TOL <= 0`` on the pinned field ``f``,
    tested at t = 0 on the field evaluated first and at each step (ETDRK4
    has ``f`` there, LSODA pays one evaluation). Once it holds, the stop is
    a root on the step's continuous extension, found by
    :func:`kernel._brentq` to ``tol / EQUILIBRIUM_TOL`` in time (the state
    moves at about ``EQUILIBRIUM_TOL``, so by about ``tol``): the earliest
    time Brent evaluated at which the test holds, so the state meets it.

    The state returned is pinned: its entry 0 is exactly 0, also with no
    step taken. A non-finite ``theta0`` or a ``tol`` below scipy's LSODA
    floor ``100 eps`` raises ``ValueError``; a failed LSODA step, a NaN
    ETDRK4 error estimate or step size below roundoff, and a NaN field in
    the stop test raise :class:`StiffnessError` with the time reached. The
    result reports the accepted ``steps``, ``rhs_evals`` (every field
    evaluation of the call), ``stop_evals`` (those only for the stop:
    LSODA's per-step tests and the root points) and LSODA's ``jacobians``,
    which a DEBUG line on the ``twistlab`` logger repeats with LSODA's
    Jacobian storage and half-bandwidth.
    """
    theta0 = _check_state(theta0, weights)
    if not np.all(np.isfinite(theta0)):
        raise ValueError("theta0 must be finite")
    if not tol >= 100 * np.finfo(float).eps:   # NaN fails too: it disables error control
        raise ValueError(f"tol must be at least 100 eps = 2.2e-14, got {tol}")
    if not t_end > 0:   # so does a NaN t_end, which would hang
        raise ValueError(f"t_end must be positive, got {t_end}")
    method = "lsoda" if weights.M <= DENSE_CAP else "etdrk4"
    evals = [0, 0]                                # field evaluations: all, only for the stop

    def field(theta, pinned=True, stop=False):
        evals[0] += 1
        evals[1] += stop
        return _rhs_fft(theta, spec, weights, pinned)

    def excess(f, t_ok):                          # the stop test; t_ok: its last finite time
        g = float(np.max(np.abs(f))) - EQUILIBRIUM_TOL
        if math.isnan(g):
            raise StiffnessError(f"the field turned NaN after t={t_ok:.6g}", t_reached=t_ok)
        return g

    f0 = field(theta0)
    t, theta, g = 0.0, theta0, excess(f0, 0.0)
    storage, solver, steps, accepted, jacobians = "", None, (), 0, 0
    if g > 0.0 and method == "etdrk4":
        steps = _etdrk4_steps(theta0, f0, field, spec, weights, t_end, tol)
    elif g > 0.0:
        # no band: the dense Jacobian in site order, and LSODA's default storage
        order, pos, bw, fill = _band_jacobian(spec, weights) or (
            slice(None), slice(None), None, lambda y: _unpinned_jacobian(y, spec, weights))
        storage = "dense jacobian, " if bw is None else f"band jacobian, half-bandwidth {bw}, "
        lsoda = sys.modules[__name__]._LSODA      # a class assigned to ring._LSODA runs
        solver = lsoda(lambda t, y: field(y[pos], pinned=False)[order], 0.0, theta0[order],
                       t_end, rtol=tol, atol=tol, jac=lambda t, y: fill(y), lband=bw, uband=bw)
        repin = lambda y: y[pos] - y[0]           # site 0 is fold position 0

        def lsoda_steps():                        # re-pinned, the stop tests the states returned
            while solver.status == "running":
                message = solver.step()
                if solver.status == "failed":
                    raise StiffnessError(f"integration step failed: {message}", t_reached=solver.t)
                yield solver.t, repin(solver.y), None, lambda s: repin(solver.dense_output()(s))

        steps = lsoda_steps()
    below = []                                    # times seen where the stop holds

    def stop(s):                                  # on the step from t to t_new, once it holds
        g_s = g if s == t else g_new if s == t_new else excess(field(at(s), stop=True), t)
        if g_s <= 0.0:
            below.append(s)
        return g_s

    try:
        for accepted, (t_new, theta_new, f, at) in enumerate(steps, 1):
            g_new = excess(field(theta_new, stop=True) if f is None else f, t)
            if g_new <= 0.0:
                kernel._brentq(stop, t, t_new, xtol=tol / EQUILIBRIUM_TOL)
                # brentq may end on either side of the root; the earliest time seen
                # below it lies within xtol of the root and meets the stop
                t_stop = min(below)
                theta_new, t_new = theta_new if t_stop == t_new else at(t_stop), t_stop
            t, theta, g = t_new, theta_new, g_new
            if g <= 0.0:
                break
    finally:
        if solver is not None:        # scipy's solver refers to itself: read it, then let it go
            jacobians = int(solver.njev)
            solver.__dict__.clear()
    _log.debug("integrate: %s, %s%d steps, %d rhs evaluations, %d in the stop, %d jacobians",
               method, storage, accepted, evals[0], evals[1], jacobians)
    return IntegrationResult(theta=theta - theta[0], t_reached=float(t), method=method,
                             stop_reason="equilibrium" if g <= 0.0 else "t_end", steps=accepted,
                             rhs_evals=evals[0], stop_evals=evals[1], jacobians=jacobians)


# the 17 Taylor coefficients of phi_3 used below |z| = 1; the first one dropped is under 1e-18
_PHI3_TAYLOR = tuple(1.0 / math.factorial(j + 3) for j in range(17))


def _phi(z):
    """``phi_1, phi_2, phi_3`` of a real array ``z``: ETDRK4's weight functions.

    ``phi_1(z) = (e^z - 1) / z`` and ``phi_{k+1}(z) = (phi_k(z) - 1/k!) / z``,
    each with the limit ``1/k!`` at 0. The recurrence is used as written for
    ``|z| >= 1``; below, ``phi_3 = sum_j z^j / (j + 3)!`` by Horner's rule,
    and ``phi_k = 1/k! + z phi_{k+1}`` back up, which cancels nothing there.
    The series runs on those entries only: a step long enough to matter
    leaves few of them.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1.0
    zd = np.where(small, 1.0, z)
    p1 = np.expm1(zd) / zd
    p2 = (p1 - 1.0) / zd
    p3 = (p2 - 0.5) / zd
    zs = z[small]
    s3 = np.full_like(zs, _PHI3_TAYLOR[-1])
    for c in _PHI3_TAYLOR[-2::-1]:
        s3 = s3 * zs + c
    p3[small] = s3
    p2[small] = s2 = 0.5 + zs * s3
    p1[small] = 1.0 + zs * s2
    return p1, p2, p3


def _etdrk4_state(v, stages, h, s, nu, phi):
    """ETDRK4's continuous extension: the state at time ``s`` of a step of length ``h`` from ``v``.

    ``v`` and the four stage values ``N(v), N(a), N(b), N(c)`` of the
    nonlinear part are real-FFT coefficients, ``nu`` is the diagonal linear
    part and ``phi`` is ``_phi(s * nu)``. At ``s = h`` this is the ETDRK4 step
    (Cox & Matthews, *J. Comput. Phys.* 176, 2002, with the weights of Kassam
    & Trefethen, *SIAM J. Sci. Comput.* 26, 2005); inside the step it is the
    method's continuous extension.
    """
    n1, na, nb, nc = stages
    p1, p2, p3 = phi
    x = s / h
    # in place, each product with the operand order of
    #   e^(s nu) v + s p1 n1 + (s x) p2 (2 (na + nb) - 3 n1 - nc)
    #   + (4 s x^2) p3 (n1 - na - nb + nc)
    e = s * nu
    out = np.multiply(np.exp(e, out=e), v)
    w = np.multiply(s * p1, n1)
    out += w
    a = np.multiply(2.0, na + nb)
    a -= np.multiply(3.0, n1, out=w)
    a -= nc
    out += np.multiply((s * x) * p2, a, out=a)
    np.subtract(n1, na, out=a)
    a -= nb
    a += nc
    out += np.multiply((4.0 * s * x * x) * p3, a, out=a)
    return out


def _etdrk4_step(nonlinear, v, n1, h, nu):
    """One ETDRK4 step of length ``h`` from ``v``, whose nonlinear part ``n1`` is known.

    Evaluates ``nonlinear`` three times. Returns the new state, the four
    stage values, which :func:`_etdrk4_state` also interpolates with, and
    ``_phi(h * nu)``, which the error estimate shares.
    """
    z = 0.5 * h * nu
    e2 = np.exp(z)
    w2 = 0.5 * h * _phi(z)[0]
    # in place, each product with the operand order of a = e2 v + w2 n1,
    # b = e2 v + w2 na and c = e2 a + w2 (2 nb - n1)
    ev = e2 * v
    a = np.multiply(w2, n1)
    na = nonlinear(np.add(ev, a, out=a))
    b = np.multiply(w2, na)
    nb = nonlinear(np.add(ev, b, out=b))
    c = np.multiply(2.0, nb, out=b)
    c -= n1
    np.multiply(w2, c, out=c)
    nc = nonlinear(np.add(np.multiply(e2, a, out=a), c, out=a))
    stages, phi = (n1, na, nb, nc), _phi(h * nu)
    return _etdrk4_state(v, stages, h, h, nu, phi), stages, phi


def _etdrk4_error(stages, n_new, h, phi):
    """The embedded error estimate of an ETDRK4 step, in real-FFT coefficients.

    ``h (phi_2 - 4 phi_3)(h nu) (N(u_new) - N(c))``, with ``phi = _phi(h nu)``
    and ``N(u_new)`` the nonlinear part at the step's new state, is ETDRK4
    minus the third-order exponential quadrature that interpolates ``N``
    quadratically through ``N(v)``, ``(N(a) + N(b)) / 2`` and ``N(u_new)``.
    It is O(h^4).
    """
    return h * (phi[1] - 4.0 * phi[2]) * (n_new - stages[3])


def _etdrk4_steps(theta0, f0, field, spec, weights, t_end, tol):
    """The accepted steps of adaptive ETDRK4 on the twisted-state diagonal, for :func:`integrate`.

    The state follows the mean-free field ``f - mean(f)`` of ``f = _rhs_fft``;
    every order is invariant under a global phase shift, so re-pinning gives
    the pinned trajectory. Its deviation ``delta`` from the twisted state of
    ``theta0``'s winding number q evolves as ``L delta + N``: ``L`` is that
    state's circulant linearization, diagonal on real-FFT modes with the
    values of :func:`_twisted_lattice` (0 on the constant mode), and
    ``N = f - mean(f) - L delta``. The splitting is exact for any q and any
    spec; a q near the state only keeps ``N`` small, so that steps are
    limited by how fast ``N`` changes, not by ``L``'s fastest mode.

    Error control is embedded and first-same-as-last (Whalen, Brio &
    Moloney, *J. Comput. Phys.* 280, 2015): each attempt takes one step of
    length h and evaluates the field at the new state, which gives the
    estimate (:func:`_etdrk4_error`), the stop's test and the next step's
    ``N(v)``. The step is accepted when the estimate is at most 1 in the RMS
    norm weighted by ``tol (1 + max(|theta|, |theta_new|))``, as scipy weighs
    ``rtol = atol = tol``, and the step size is scaled by
    ``0.9 err^(-1/4)`` within [0.2, 10]. An attempt costs 4 field
    evaluations, accepted or not.

    ``field`` is :func:`integrate`'s counted pinned field and ``f0`` its
    value at ``theta0``. Yields ``(t, theta, f, at)`` per accepted step: the
    unpinned state, its field and the step's continuous extension until the
    next step.
    """
    M = weights.M
    winding = float(np.sum(wrap_to_pi(np.diff(theta0, append=theta0[0]))))
    q = round(winding / TWO_PI)
    base = twisted_state(M, q)
    nu = np.concatenate(([0.0], _twisted_lattice(q, spec, weights)[:M // 2]))

    def split(f, v):
        F = np.fft.rfft(f)
        F[0] = 0.0                                # the mean-free field
        F -= nu * v
        return F

    def state(v):
        delta = np.fft.irfft(v, M)
        return np.add(base, delta, out=delta)

    nonlinear = lambda v: split(field(state(v)), v)

    t, theta, v = 0.0, theta0, np.fft.rfft(theta0 - base)
    n1 = split(f0, v)
    rms = lambda x: math.sqrt(float(np.mean(np.square(x))))
    scale = tol + tol * np.abs(theta0)
    d0, d1 = rms((theta0 - base) / scale), rms((f0 - np.mean(f0)) / scale)
    h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1   # scipy's first guess, on delta
    shrunk = False
    while t < t_end:                              # the last step ends at t_end exactly
        if h < 10.0 * (np.nextafter(t, np.inf) - t):
            raise StiffnessError(f"ETDRK4 step size {h:.3e} fell below roundoff at t={t:.6g}",
                                 t_reached=t)
        last = t + h >= t_end
        if last:
            h = t_end - t
        v_new, stages, phi = _etdrk4_step(nonlinear, v, n1, h, nu)
        theta_new = state(v_new)
        f_new = field(theta_new)
        n_new = split(f_new, v_new)
        scale = np.maximum(np.abs(theta), np.abs(theta_new))
        scale *= tol
        scale += tol
        estimate = np.fft.irfft(_etdrk4_error(stages, n_new, h, phi), M)
        estimate /= scale
        err = rms(estimate)
        if math.isnan(err):
            raise StiffnessError(f"ETDRK4 error estimate is NaN at t={t:.6g}", t_reached=t)
        if err > 1.0:
            h *= max(0.2, 0.9 * err ** -0.25)
            shrunk = True
            continue
        factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.25)
        if shrunk:
            factor = min(1.0, factor)
        t_old, t = t, (t_end if last else t + h)
        yield t, theta_new, f_new, lambda s: state(
            _etdrk4_state(v, stages, h, s - t_old, nu, _phi((s - t_old) * nu)))
        theta, v, n1 = theta_new, v_new, n_new
        h *= factor
        shrunk = False


@dataclass(frozen=True)
class EquilibriumResult:
    theta: np.ndarray
    residual_norm: float
    iterations: int
    halvings: int                         # step halvings over all iterations
    # of the last factored block: the odd block on reflection-odd starts, else
    # the pinned Jacobian; None after 0 iterations
    rcond: Optional[float]


def _inverse_norm1(solve, n):
    """Hager's estimate of ``||P^-1||_1`` from solves with ``P`` and ``P^T``.

    LAPACK's ``dlacn2``, which ``gecon`` runs (Higham, *ACM TOMS* 14, 1988):
    ``solve(b, transpose)`` returns ``P^-1 b`` or ``P^-T b``. At most five
    solves with each, and one more with an alternating vector that guards
    against a poor first estimate.
    """
    x = solve(np.full(n, 1.0 / n), False)
    est = float(np.sum(np.abs(x)))
    signs = np.where(x >= 0.0, 1.0, -1.0)
    j = int(np.argmax(np.abs(solve(signs, True))))
    for _ in range(4):
        e = np.zeros(n)
        e[j] = 1.0
        x = solve(e, False)
        est_old, est = est, float(np.sum(np.abs(x)))
        new = np.where(x >= 0.0, 1.0, -1.0)
        if np.array_equal(new, signs) or est <= est_old:
            break
        signs = new
        z = solve(signs, True)
        j_last, j = j, int(np.argmax(np.abs(z)))
        if z[j_last] == abs(z[j]):
            break
    alt = (1.0 + np.arange(n) / (n - 1)) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return max(est, 2.0 * float(np.sum(np.abs(solve(alt, False)))) / (3 * n))


def _lu_solver(J):
    """``(solve, rcond)`` of a dense square ``J``: its LU, and ``gecon``'s 1-norm estimate."""
    from scipy.linalg import lu_factor, lu_solve
    from scipy.linalg.lapack import dgecon as gecon

    lu, piv = lu_factor(J)
    rcond = gecon(lu, np.linalg.norm(J, 1), norm="1")[0]
    return (lambda b: lu_solve((lu, piv), b)), float(rcond)


def _pinned_solver(theta, spec, weights, band):
    """The pinned Newton system at ``theta``: ``(solve, rcond)``.

    ``solve(b)`` is ``J^-1 b`` for the pinned Jacobian ``J``, the block
    ``[1:, 1:]`` of :func:`jacobian`, and ``rcond`` its 1-norm reciprocal
    condition. ``band`` is :func:`_band_jacobian`'s value for the spec. With
    None, ``J`` is built dense, LU-factored, and ``gecon`` estimates its
    condition. Otherwise the unpinned Jacobian ``A`` is symmetric with zero
    row sums, so ``J = A[1:, 1:] - 1 A[0, 1:] = (I + 1 1^T) A11`` with
    ``A11 = A[1:, 1:]``, which in the fold order is a band of half-width
    ``bw``: ``J^-1 b = A11^-1 (b - (sum b / M) 1)`` and
    ``J^-T b = (I - 1 1^T / M) A11^-1 b``. One banded LU (``gbtrf``) in
    O(bw^2 M) then serves every solve; ``||J||_1`` is summed exactly from
    the band and ``A[0, 1:]``, and ``||J^-1||_1`` is :func:`_inverse_norm1`,
    the estimate ``gecon`` makes. Both paths raise
    :class:`ResourceLimitError` past ``DENSE_CAP``.
    """
    if band is None:
        return _lu_solver(jacobian(theta, spec, weights)[1:, 1:])
    M = weights.M
    _check_dense_cap(M, "Newton step")
    from scipy.linalg.lapack import dgbtrf as gbtrf, dgbtrs as gbtrs

    order, _, bw, fill = band
    packed = fill(theta[order])[:, 1:]            # A without fold position 0, site 0
    cols = np.arange(bw)
    a0 = np.zeros(M - 1)                          # A[0, 1:] in the fold order
    a0[:bw] = packed[bw - 1 - cols, cols]
    packed[bw - 1 - cols, cols] = 0.0
    rows = np.arange(M - 1) + np.arange(-bw, bw + 1)[:, None]
    inside = (rows >= 0) & (rows < M - 1)
    norm = np.max(np.sum(np.abs(packed - a0), axis=0, where=inside)
                  + (M - 1 - np.sum(inside, axis=0)) * np.abs(a0))
    ab = np.zeros((3 * bw + 1, M - 1))            # gbtrf's room for fill-in above the band
    ab[bw:] = packed
    lu, piv, info = gbtrf(ab, bw, bw, overwrite_ab=True)
    fold = order[1:] - 1                          # pinned index at each fold position

    def solve(b, transpose=False):
        if not transpose:
            b = b - np.sum(b) / M
        x = np.empty(M - 1)
        x[fold] = gbtrs(lu, bw, bw, b[fold], piv)[0]
        if transpose:
            x -= np.sum(x) / M
        return x

    rcond = 0.0 if info > 0 else 1.0 / (_inverse_norm1(solve, M - 1) * float(norm))
    return solve, rcond


def _odd_base(theta):
    """The twisted state ``tau`` off which ``theta`` deviates by a reflection-odd ``delta``, or None.

    ``tau`` is ``twisted_state(M, q)`` for ``theta``'s winding number q, and
    ``delta = theta - tau`` counts as odd, ``delta_{M-k} = -delta_k`` (so
    ``delta_{M/2} = 0`` for even M), when it is so to 8 ulps of
    ``max |theta|``: a profile built as ``tau`` plus a sine series is odd to
    1-2 ulps, its rounding. O(M); None for a non-finite state.
    """
    M = len(theta)
    winding = float(np.sum(wrap_to_pi(np.diff(theta, append=theta[0]))))
    if not math.isfinite(winding):
        return None
    base = twisted_state(M, round(winding / TWO_PI))
    delta = theta - base
    gap = np.max(np.abs(delta[1:] + delta[:0:-1]))    # delta_k + delta_{M-k}, k = 1..M-1
    return base if gap <= 8 * np.finfo(float).eps * np.max(np.abs(theta)) else None


def _odd_band(spec, weights):
    """The odd block of a narrow pairwise ring as a band: ``(p, fill)``, or None.

    On reflection-odd deviations the unknowns are ``x_k = delta_k``,
    ``k = 1..h`` with ``h = (M - 1) // 2``, and the Newton block is
    ``O[i, j] = J[i, j] - J[i, M - j]``: the reflection folds the ring onto
    the segment ``1..h``, and the pinning term ``A[0, j] - A[0, M - j]``
    vanishes. For pairwise coupling of range ``p`` (the largest ring distance
    with a nonzero weight) ``O`` is a band of half-width ``p`` with no wrap:
    each row's ``2 p`` neighbours ``b_d cos(theta_k - theta_i) / M`` land on
    column ``k``, or with a minus sign on column ``M - k`` in the two corners
    ``i + j <= p`` and ``i + j >= M - p``, and their sum leaves the diagonal;
    site 0 (pinned) and site ``M / 2`` (fixed) carry no unknown. None exactly
    where :func:`_band_jacobian` is None. ``fill(theta)`` returns ``O`` in
    the storage ``gbtrf`` factors in place, ``ab[2 p + i - j, j] = O[i, j]``
    with ``p`` rows of room above, built in O(p M).
    """
    M, b = weights.M, weights.b
    if spec.include_orders != (PAIRWISE,):
        return None
    d = np.arange(M)
    p = int(np.minimum(d, M - d)[b != 0.0].max())
    if 4 * p + 1 >= M:
        return None
    h = (M - 1) // 2
    rows = d[1:h + 1]
    offsets = np.concatenate((d[1:p + 1], -d[1:p + 1]))[:, None]
    sites = (rows + offsets) % M                  # each row's 2 p neighbours
    cols = np.where(sites <= h, sites, M - sites)
    kept = np.flatnonzero((cols >= 1) & (cols <= h))
    target = ((2 * p + rows - cols) * h + cols - 1).ravel()[kept]
    sign = np.where(sites <= h, 1.0, -1.0).ravel()[kept]
    coupling = (spec.sign_factor / M) * b[np.abs(offsets)]
    diagonal = 2 * p * h + rows - 1

    def fill(theta):
        c = coupling * np.cos(theta[sites] - theta[rows])
        ab = np.bincount(target, sign * c.ravel()[kept], (3 * p + 1) * h)
        ab[diagonal] -= c.sum(axis=0)
        return ab.reshape(3 * p + 1, h)

    return p, fill


def _odd_solver(theta, spec, weights, band):
    """The Newton system on the reflection-odd unknowns at ``theta``: ``(solve, rcond)``.

    ``solve(b)`` is ``O^-1 b`` for the odd block ``O`` of
    :func:`_odd_band`, ``rcond`` its 1-norm reciprocal condition. ``band`` is
    :func:`_odd_band`'s value for the spec. With None, ``O`` is the column
    fold of the dense :func:`jacobian`, LU-factored, with ``gecon``'s
    estimate. Otherwise one ``gbtrf`` of half-width ``p`` on ``h`` unknowns
    serves every solve; ``||O||_1`` is summed from the band and
    ``||O^-1||_1`` is :func:`_inverse_norm1` on ``gbtrs`` solves. Both paths
    raise :class:`ResourceLimitError` past ``DENSE_CAP``.
    """
    M = weights.M
    h = (M - 1) // 2
    if band is None:
        J = jacobian(theta, spec, weights)
        return _lu_solver(J[1:h + 1, 1:h + 1] - J[1:h + 1, M - 1:M - h - 1:-1])
    _check_dense_cap(M, "Newton step")
    from scipy.linalg.lapack import dgbtrf as gbtrf, dgbtrs as gbtrs

    p, fill = band
    ab = fill(theta)
    norm = float(np.max(np.sum(np.abs(ab), axis=0)))
    lu, piv, info = gbtrf(ab, p, p, overwrite_ab=True)
    solve = lambda b, transpose=False: gbtrs(lu, p, p, b, piv, trans=int(transpose))[0]
    rcond = 0.0 if info > 0 else 1.0 / (_inverse_norm1(solve, h) * norm)
    return solve, rcond


def newton_equilibrium(theta_init, spec, weights):
    """Damped Newton iteration for an equilibrium of the pinned system.

    The start alone picks the unknowns. When it is ``tau`` plus a
    reflection-odd deviation (:func:`_odd_base`: ``tau`` the twisted state of
    its winding number), the unknowns are the ``h = (M - 1) // 2`` values
    ``x_k = delta_k = -delta_{M-k}``, every iterate is rebuilt as
    ``tau + (x, -x)``, so it stays exactly odd, and each step solves with the
    odd block ``J[i, j] - J[i, M - j]``, ``i, j = 1..h``
    (:func:`_odd_solver`): a band of half-width ``p`` for a pairwise ring of
    short range, the column fold of :func:`jacobian` for every other spec.
    Every other start solves on the ``M - 1`` pinned unknowns with the
    pinned Jacobian (:func:`_pinned_solver`): a banded LU in the fold order
    for a pairwise ring of short range (the rings whose LSODA Jacobian is
    :func:`_band_jacobian`'s band), a dense LU of the pinned block of
    :func:`jacobian` for every other spec. All four need
    ``M <= DENSE_CAP``. A block whose 1-norm reciprocal condition is below
    ``_RCOND_LIMIT`` raises :class:`NearSymmetryDegenerateError`. Steps are
    halved (at most 30 times) until the residual decreases. Success means
    ``sup |rhs| < NEWTON_TOL`` within ``NEWTON_MAX_ITER`` iterations; a
    start that meets it returns after 0, at any M, pinned exactly. The
    result reports the iterations, the step halvings and the last block's
    ``rcond``, and logs them at DEBUG level on the ``twistlab`` logger with
    the path taken: ``odd band, half-bandwidth p``, ``odd dense``,
    ``band, half-bandwidth 2p`` or ``dense``. The stability of the result is
    :func:`jacobian_spectrum` at ``result.theta``.
    """
    theta = _check_state(theta_init, weights).copy()
    base = _odd_base(theta)
    if base is None:                              # the M - 1 pinned unknowns theta[1:]
        band = _band_jacobian(spec, weights)
        path = "dense" if band is None else f"band, half-bandwidth {band[2]}"
        factor = lambda theta: _pinned_solver(theta, spec, weights, band)
        x, rows, pin = theta[1:], slice(1, None), theta[:1]
        state = lambda x: np.concatenate((pin, x))
    else:                                         # the h odd unknowns x = delta[1:h + 1]
        band = _odd_band(spec, weights)
        path = "odd dense" if band is None else f"odd band, half-bandwidth {band[0]}"
        factor = lambda theta: _odd_solver(theta, spec, weights, band)
        M, h = weights.M, (weights.M - 1) // 2
        x, rows = theta[1:h + 1] - base[1:h + 1], slice(1, h + 1)

        def state(x):                             # base + (x, -x): exactly odd
            out = base.copy()
            out[1:h + 1] += x
            out[M - 1:M - h - 1:-1] -= x
            return out

    F = rhs(theta, spec, weights)
    res = np.max(np.abs(F))
    halvings, rcond = 0, None
    for iteration in range(NEWTON_MAX_ITER + 1):
        if res < NEWTON_TOL:
            _log.debug("newton_equilibrium: %s, %d iterations, %d halvings, rcond %s", path,
                       iteration, halvings, "none" if rcond is None else f"{rcond:.3e}")
            return EquilibriumResult(theta=theta, residual_norm=float(res), iterations=iteration,
                                     halvings=halvings, rcond=rcond)
        if iteration == NEWTON_MAX_ITER:
            break
        solve, rcond = factor(theta)
        if rcond < _RCOND_LIMIT:
            raise NearSymmetryDegenerateError(
                f"Jacobian reciprocal condition {rcond:.2e} at residual {res:.2e}: "
                "iteration sits on the ring-shift family; restart from a different "
                "pattern phase",
                rcond=rcond, residual=float(res),
            )
        delta = solve(-F[rows])
        step = 1.0
        for _ in range(30):
            x_trial = x + step * delta
            trial = state(x_trial)
            F_new = rhs(trial, spec, weights)
            new_res = np.max(np.abs(F_new))
            if new_res < res:
                theta, x, res, F = trial, x_trial, new_res, F_new
                break
            step *= 0.5
            halvings += 1
        else:
            raise ConvergenceError(
                f"Newton stalled after {iteration} iterations at residual {res:.3e}",
                iterations=iteration, residual=float(res),
            )
    raise ConvergenceError(
        f"Newton did not reach tolerance {NEWTON_TOL:.1e} in {NEWTON_MAX_ITER} iterations; "
        f"final residual {res:.3e}",
        iterations=NEWTON_MAX_ITER, residual=float(res),
    )


@dataclass(frozen=True)
class BranchRow:
    """One equilibrium on a finite-ring branch: curve offset, amplitude, Newton result."""

    s: float
    a_app: float
    equilibrium: EquilibriumResult


def follow_branch(curve, M, s_values):
    """Equilibria of the M-ring on the branch that bifurcates along ``curve``.

    ``curve`` is r-linear, direction ``(1, 0, 0)``, through a pairwise
    crossing of the attractive ring. Its rows are anchored at the ring's own
    threshold ``r_M = finite_threshold(curve.q, M)``, not at the continuum
    base: row ``s`` is the :func:`newton_equilibrium` at ``r_M + s``. They are
    solved in the order given, by natural continuation. The first row, and
    any row after one of amplitude 0 (``s = 0``), starts from the order-1
    branch profile; every other one from the previous equilibrium's deviation
    from the twisted state, rescaled by the ratio of branch amplitudes, which
    keeps Newton on the branch instead of falling back onto the twisted state.
    Returns ``(r_M, rows)``, one :class:`BranchRow` per ``s``. Any other curve
    is a ``ValueError``, and an ``s`` on the side without a branch a
    ``BranchAbsentError``, before any solve.
    """
    if tuple(curve.direction) != (1.0, 0.0, 0.0) or curve.base.lam != 0.0 or curve.base.mu != 0.0:
        raise ValueError("follow_branch needs an r-linear curve, direction (1, 0, 0), "
                         f"through a pairwise base; got direction {curve.direction} "
                         f"at {curve.base}")
    report = bifurcation.gamma_pair(curve)
    amps = [bifurcation.a_app(report, s) for s in s_values]
    r_m = finite_threshold(curve.q, M, ATTRACTIVE)
    twisted = twisted_state(M, curve.q)
    rows = []
    for s, amp in zip(s_values, amps):
        if rows and rows[-1].a_app != 0.0:
            prev = rows[-1]
            start = twisted + (prev.equilibrium.theta - twisted) * (amp / prev.a_app)
        else:
            start = bifurcation.branch_profile(curve, amp, 1, M).values
        r = r_m + s
        eq = newton_equilibrium(start, SystemSpec(Params(r)), build_weights(M, r))
        rows.append(BranchRow(s=s, a_app=amp, equilibrium=eq))
    return r_m, rows


def finite_threshold(q, M, kind=ATTRACTIVE):
    """Finite-size bifurcation radius of the q-twisted state on an M-ring.

    Brackets and refines the sign change of the leading eigenvalue of the
    closed-form twisted-state spectrum (pairwise coupling with the
    continuous, fractional weights) around the continuum threshold; resolves
    the radius to ``THRESHOLD_XTOL``. Requires M >= 20 q so the profile is resolved.
    """
    if kind not in (ATTRACTIVE, REPULSIVE):
        raise ValueError(f"kind must be {ATTRACTIVE!r} or {REPULSIVE!r}, got {kind!r}")
    if M < 20 * q:
        raise ValueError(f"need M >= 20 q to resolve the twisted profile; got M={M}, q={q}")
    # sign-normalized objective: negative below the threshold, positive above
    flip = 1.0 if kind == ATTRACTIVE else -1.0

    def g(r):
        spec = SystemSpec(Params(r), sign=kind)
        return flip * float(_twisted_lattice(q, spec, build_weights(M, r)).max())

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
