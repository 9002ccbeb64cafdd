"""Fourier-space solver for transition densities of symmetric pure-jump Levy
processes.

Pipeline: (1) a double-exponential quadrature turns mu(y) = y^gamma nu(y),
nu the Levy density, into weighted point sources whose semi-infinite Fourier
transform is evaluated on a uniform frequency grid by a nonuniform FFT with
exponential-of-semicircle gridding; (2) a sinc-Gauss
sampling formula integrates the transform indefinitely (once or twice) via FFT
convolution, yielding the characteristic exponent; (3) a continuous Euler
transform inverts e^{t G} back to the density with a fractional FFT.
"""

from .de_ft import DeFtParams, node_plan, phi_parts, splice_plan
from .euler_ft import EulerParams, inverse_ft, weight
from .numkit import frft_even
from .nufft import gridding_plan
from .sinc_gauss import KernelTable, indefinite_integral, kernel_table
from .solver import (GridSpec, LevyModel, SolveResult, clear_exponent_cache,
                     custom_model, exact_nig, exact_vg, g_gamma, make_grid, nig_model,
                     solve, vg_model)

__version__ = "0.1.0"

__all__ = [
    "frft_even",
    "DeFtParams", "node_plan", "phi_parts", "splice_plan",
    "gridding_plan",
    "KernelTable", "indefinite_integral", "kernel_table",
    "EulerParams", "inverse_ft", "weight",
    "GridSpec", "LevyModel", "SolveResult", "clear_exponent_cache",
    "custom_model", "exact_nig", "exact_vg", "g_gamma", "make_grid",
    "nig_model", "solve", "vg_model",
    "__version__",
]
