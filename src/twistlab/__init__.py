"""Numerical laboratory for twisted states on nonlocally coupled oscillator rings.

Modules:
    kernel      -- coupling kernel, Fourier coefficients, coefficient algebra
    spectrum    -- stability spectra, certified suprema, threshold radii
    bifurcation -- pitchfork coefficients, branch approximations, stability maps
    ring        -- finite-ring dynamics, FFT right-hand sides, solvers
    cli         -- command-line front end
"""

import os

# One OpenBLAS thread unless the caller chose a count: the LU factorizations of
# Newton solves and of LSODA's stiff steps then give the same bits on any number
# of cores. It takes effect when the package is imported before numpy, as the
# console script does.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import bifurcation, errors, kernel, ring, spectrum
from .bifurcation import (
    BifurcationReport,
    BranchProfile,
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
from .kernel import Params, big_H, c1, cap_X, coefficient, iota, lambda0, tail_limit, upsilon0, w_hat, w_kernel
from .ring import (
    CouplingWeights,
    EquilibriumResult,
    IntegrationResult,
    SystemSpec,
    build_weights,
    finite_threshold,
    integrate,
    jacobian,
    jacobian_spectrum,
    newton_equilibrium,
    perturb,
    rhs,
    symmetry_shift,
    twisted_spectrum,
    twisted_state,
)
from .spectrum import SpectrumReport, alt_eigenvalue, kappa, spectrum_report, sufficient_condition, threshold

__version__ = "0.1.0"
