"""Nonlocal vector calculus with half-ball interaction neighborhoods.

Fourier-spectral implementation on periodic boxes (-pi, pi)^d: orientation
dependent nonlocal gradient/divergence/diffusion/curl operators, their
symbol tables with uniform coercivity checks, and the closed-form per-mode
solvers built on them (Stokes, Leray projection, Helmholtz decomposition,
div-curl systems, isotropic linear elasticity and its wave dynamics).
"""

from .errors import ConfigError, KernelError, QuadratureConvergenceError
from .kernels import KernelSpec, epsilon_cutoff, eval_kernel, from_config, normalize
from .symbols import (
    Orientation,
    SymbolTable,
    build_table,
    lambda_radial,
    load_table,
    local_table,
    save_table,
    verify_bounds,
)
from .fields import SpectralField, l2_norm, random_field, s_norm

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "KernelError",
    "KernelSpec",
    "Orientation",
    "QuadratureConvergenceError",
    "SpectralField",
    "SymbolTable",
    "build_table",
    "epsilon_cutoff",
    "eval_kernel",
    "from_config",
    "l2_norm",
    "lambda_radial",
    "load_table",
    "local_table",
    "normalize",
    "random_field",
    "s_norm",
    "save_table",
    "verify_bounds",
    "__version__",
]
