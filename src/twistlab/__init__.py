"""Numerical laboratory for twisted states on nonlocally coupled oscillator rings.

Modules:
    kernel      -- coupling kernel, Fourier coefficients, coefficient algebra
    spectrum    -- stability spectra, certified suprema, threshold radii
    bifurcation -- pitchfork coefficients, branch approximations, stability maps
    ring        -- finite-ring dynamics, FFT right-hand sides, solvers
    cli         -- command-line front end

The closed forms (``kernel``, ``spectrum``, ``bifurcation``) need only numpy.
``ring`` loads on first use: ``twistlab.ring``, or any of the finite-ring
names re-exported here (``integrate``, ``SystemSpec``, ...), imports it then.
It imports scipy's package to pin OpenBLAS, and scipy's integrator and LU
routines only when a run first needs them. A process that never touches the
finite ring never imports scipy.
"""

import importlib
import os

# Only the fallback for an OpenBLAS without the thread setter that ``ring`` calls
# (a distribution's build, or an older wheel): a library loaded after this line
# reads it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import bifurcation, errors, kernel, spectrum
from .bifurcation import (
    BifurcationReport,
    BranchProfile,
    CurveSpec,
    a_app,
    branch_profile,
    gamma1_t,
    gamma_pair,
    linear_curve,
    stability_map,
    t_family_curve,
)
from .kernel import Params, big_H, c1, cap_X, iota, lambda0, tail_limit, upsilon0, w_hat
from .spectrum import SpectrumReport, alt_eigenvalue, kappa, spectrum_report, sufficient_condition, threshold

__version__ = "0.1.0"

#: Names of ``ring`` the package re-exports; ``ring`` loads on first use.
_RING_NAMES = frozenset({
    "BranchRow", "CouplingWeights", "EquilibriumResult", "IntegrationResult", "SystemSpec",
    "build_weights", "finite_threshold", "follow_branch", "integrate", "jacobian",
    "jacobian_spectrum", "newton_equilibrium", "perturb", "rhs", "symmetry_shift",
    "twisted_state",
})


def __getattr__(name):
    if name == "ring" or name in _RING_NAMES:
        # import_module, not ``from . import ring``: that asks this hook for ``ring``
        ring = importlib.import_module(f"{__name__}.ring")
        return ring if name == "ring" else getattr(ring, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | {"ring"} | _RING_NAMES)
