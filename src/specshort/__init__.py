"""Shorted operators, spectral order, spectral shorted operators, and vector
complexity for dense real symmetric matrices.

Every central quantity is computable by two independent routes (a closed-form
spectral construction and an iterated-power limit), and the harness module
cross-checks the two over seeded random instances.
"""

from .core import (
    DEFAULT_TOL,
    STRICT_TOL,
    DimensionMismatchError,
    DomainError,
    SpectralDecomposition,
    Subspace,
    SymMatrix,
    Tolerances,
    eig_sym,
    matrix_function,
    matrix_power,
    projection_meet,
    pseudo_inverse,
    spectral_projection,
)
from .kolmogorov import (
    KolmogorovResult,
    kolmogorov_closed,
    kolmogorov_duality,
    kolmogorov_power,
)
from .order import OrderCertificate, spectral_leq
from .shorted import ShortedResult, short_at, short_schur, short_vector
from .spectral_shorted import (
    ConvergenceTrace,
    SpectralShortResult,
    TraceStep,
    monotone_calculus_residual,
    spectral_short_closed,
    spectral_short_iterative,
    spectral_short_min,
    spectral_short_vector,
    spectral_short_vector_power,
)

__version__ = "0.1.0"

# The harness is imported on first use: of the CLI, only `verify` needs it.
_HARNESS_NAMES = (
    "SpectrumSpec",
    "TheoremResult",
    "VerificationReport",
    "gen_psd",
    "gen_subspace",
    "run_suite",
    "run_trial",
    "THEOREMS",
)


def __getattr__(name):
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
