from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from specshort import DEFAULT_TOL

# One hypothesis profile for every property: the same examples on every
# run, a fixed budget, and no per-example deadline.
settings.register_profile("specshort", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("specshort")


@pytest.fixture
def tol():
    return DEFAULT_TOL


def min_eig(a):
    a = np.asarray(a)
    return float(np.linalg.eigvalsh(a).min()) if a.size else 0.0


def max_abs(a):
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def containment_residual(p, q):
    """||(I - P_q) B_p||_2 for p's orthonormal basis B_p: 0 means p lies
    inside q."""
    if not p.dim:
        return 0.0
    return float(np.linalg.norm(p.basis - q.basis @ (q.basis.T @ p.basis), 2))


def same_subspace(s, t, tol=1e-9):
    """Two subspaces are equal iff their orthogonal projections agree."""
    return max_abs(s.projection() - t.projection()) <= tol


class LinalgCall(NamedTuple):
    name: str
    shape: tuple[int, ...]
    kwargs: dict


@contextmanager
def linalg_calls(monkeypatch, *names):
    """Record every call to the named np.linalg functions made inside the
    block, as LinalgCall(name, shape of the first argument, keyword
    arguments), in call order."""
    calls: list[LinalgCall] = []

    def recording(name, f):
        def call(a, *args, **kwargs):
            calls.append(LinalgCall(name, np.shape(a), kwargs))
            return f(a, *args, **kwargs)

        return call

    with monkeypatch.context() as m:
        for name in names:
            m.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
        yield calls
