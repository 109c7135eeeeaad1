"""Shorted operators, spectral order, spectral shorted operators, and vector
complexity for dense real symmetric matrices.

Every central quantity is computable by two independent routes (a closed-form
spectral construction and an iterated-power limit), and the harness module
cross-checks the two over seeded random instances.
"""

import importlib

__version__ = "0.1.0"

# Every public name is imported from its module on first use, so a CLI
# subcommand loads only the modules it runs.
_EXPORTS = {
    "core": (
        "DEFAULT_TOL",
        "STRICT_TOL",
        "DimensionMismatchError",
        "DomainError",
        "SpectralDecomposition",
        "Subspace",
        "SymMatrix",
        "Tolerances",
        "eig_sym",
        "matrix_function",
        "matrix_power",
        "projection_meet",
        "pseudo_inverse",
        "spectral_projection",
    ),
    "kolmogorov": (
        "KolmogorovResult",
        "kolmogorov_closed",
        "kolmogorov_duality",
        "kolmogorov_power",
    ),
    "order": ("OrderCertificate", "spectral_leq"),
    "shorted": ("ShortedResult", "short_at", "short_schur", "short_vector"),
    "spectral_shorted": (
        "ConvergenceTrace",
        "SpectralShortResult",
        "TraceStep",
        "monotone_calculus_residual",
        "spectral_short_closed",
        "spectral_short_iterative",
        "spectral_short_min",
        "spectral_short_vector",
        "spectral_short_vector_power",
    ),
    "harness": (
        "SpectrumSpec",
        "TheoremResult",
        "VerificationReport",
        "gen_psd",
        "gen_subspace",
        "run_suite",
        "run_trial",
        "THEOREMS",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value  # later lookups find it without this hook
        return value
    if name in _SUBMODULES:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
