"""Shorted operators, spectral order, spectral shorted operators, and vector
complexity for dense real symmetric matrices.

Every central quantity is computable by two independent routes (a closed-form
spectral construction and an iterated-power limit), and the harness module
cross-checks the two over seeded random instances.
"""

import importlib
import importlib.util

__version__ = "0.1.0"

# Each public name is listed once, in its module's own __all__.  Its first
# use imports the modules in this order, up to the one that defines it, so
# a CLI subcommand loads only the modules it runs.
_ORDER = ("core", "shorted", "spectral_shorted", "kolmogorov", "order", "harness")


def _modules():
    return (importlib.import_module(f".{name}", __name__) for name in _ORDER)


def __getattr__(name):
    if name == "__all__":
        value = [public for module in _modules() for public in module.__all__]
    elif name.startswith("_") or not name.isidentifier():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    elif importlib.util.find_spec(f"{__name__}.{name}"):  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    else:
        module = next((m for m in _modules() if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
