from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
import pytest

from specshort import DEFAULT_TOL


@pytest.fixture
def tol():
    return DEFAULT_TOL


def min_eig(a):
    a = np.asarray(a)
    return float(np.linalg.eigvalsh(a).min()) if a.size else 0.0


def max_abs(a):
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


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
