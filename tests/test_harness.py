import dataclasses
import json
import math

import numpy as np
import pytest

from specshort import (
    DomainError,
    SpectrumSpec,
    Subspace,
    SymMatrix,
    gen_psd,
    gen_subspace,
    run_suite,
    spectral_leq,
)
from specshort import harness
from specshort.harness import THEOREMS, TheoremCheck, run_trial
from specshort.core import DEFAULT_TOL

from conftest import IDENTITIES, max_abs, min_eig


def test_gen_psd_reproducible_bitwise():
    spec = SpectrumSpec("well_separated", 6)
    a1 = gen_psd(spec, 7)
    a2 = gen_psd(spec, 7)
    np.testing.assert_array_equal(a1.entries, a2.entries)
    a3 = gen_psd(spec, 8)
    assert max_abs(a1.entries - a3.entries) > 0


def test_gen_psd_kinds():
    proj = gen_psd(SpectrumSpec("projection", 4), 5)
    assert max_abs(proj.entries @ proj.entries - proj.entries) <= 1e-12
    assert int(round(float(np.trace(proj.entries)))) == 2

    sing = gen_psd(SpectrumSpec("with_zeros", 5, zero_count=2), 5)
    w = np.linalg.eigvalsh(sing.entries)
    assert np.sum(np.abs(w) < 1e-10) == 2

    clus = gen_psd(SpectrumSpec("clustered", 6), 5)
    w = np.sort(np.linalg.eigvalsh(clus.entries))
    # at least one exactly repeated level for n = 6
    gaps = np.diff(w)
    assert np.any(gaps < 1e-12)

    sep = gen_psd(SpectrumSpec("well_separated", 6), 5)
    w = np.sort(np.linalg.eigvalsh(sep.entries))
    ratios = w[:-1] / w[1:]
    assert np.all(ratios <= 0.8 + 1e-9)


def test_gen_commuting_pair():
    A, B = gen_psd(SpectrumSpec("commuting_pair", 5), 11)
    assert max_abs(A.entries @ B.entries - B.entries @ A.entries) <= 1e-12
    assert min_eig(B.entries - A.entries) >= -1e-12
    assert spectral_leq(A, B).holds


def test_gen_subspace_reproducible_and_valid():
    s1 = gen_subspace(6, 3, 2)
    s2 = gen_subspace(6, 3, 2)
    np.testing.assert_array_equal(s1.basis, s2.basis)
    assert max_abs(s1.basis.T @ s1.basis - np.eye(3)) <= 1e-12
    assert gen_subspace(4, 0, 1).dim == 0
    assert gen_subspace(4, 4, 1).dim == 4


def test_gen_validation_errors():
    with pytest.raises(DomainError):
        SpectrumSpec("bogus", 4)
    with pytest.raises(DomainError):
        SpectrumSpec("well_separated", 0)
    with pytest.raises(DomainError):
        SpectrumSpec("with_zeros", 4, zero_count=4)
    with pytest.raises(DomainError):
        SpectrumSpec("with_zeros", 1)
    with pytest.raises(DomainError):
        gen_subspace(3, 7, 0)
    # a negative seed is named, not numpy's bare ValueError
    with pytest.raises(DomainError, match="^seed must be nonnegative, got -1$"):
        gen_psd(SpectrumSpec("well_separated", 3), -1)
    with pytest.raises(DomainError, match="^seed must be nonnegative, got -1$"):
        gen_subspace(3, 1, -1)
    with pytest.raises(DomainError, match="^seed must be nonnegative, got -1$"):
        run_trial(THEOREMS[0], 0, 0, (3,), -1, DEFAULT_TOL)
    with pytest.raises(DomainError, match="^seed must be nonnegative, got -1$"):
        run_suite(dims=(3,), trials=1, seed=-1)


def test_run_suite_smoke_passes():
    rep = run_suite(dims=(2, 3), trials=4, seed=5)
    assert rep.total_failures == 0
    assert len(rep.theorems) == 15
    for t in rep.theorems:
        assert t.trials == 4
        assert (t.failures == 0) == (t.worst_residual <= 1.0)
        assert t.failing_trial is None


def test_run_suite_empty():
    for dims in ((2,), ()):
        rep = run_suite(dims=dims, trials=0, seed=0)
        assert rep.theorems == ()
        assert rep.total_failures == 0


def test_run_suite_rejects_empty_dims():
    with pytest.raises(DomainError, match="^need at least one dimension$"):
        run_suite(dims=(), trials=1, seed=0)
    with pytest.raises(DomainError, match="^need at least one dimension$"):
        run_trial(THEOREMS[0], 0, 0, (), 0, DEFAULT_TOL)
    with pytest.raises(DomainError, match="at least 2"):
        run_suite(dims=(2, 1), trials=1, seed=0)
    # run_trial checks the dimensions before any theorem code runs
    with pytest.raises(DomainError, match="every dimension must be at least 2"):
        run_trial(THEOREMS[0], 0, 0, (1,), 0, DEFAULT_TOL)


def test_run_suite_rejects_negative_trials():
    # a negative count would run nothing and report no failures
    with pytest.raises(DomainError, match="trials"):
        run_suite(dims=(2,), trials=-1, seed=0)


def test_run_suite_deterministic_bytes():
    r1 = run_suite(dims=(2, 3), trials=3, seed=9)
    r2 = run_suite(dims=(2, 3), trials=3, seed=9)
    text = json.dumps(r1.to_json_dict(), sort_keys=True)
    assert text == json.dumps(r2.to_json_dict(), sort_keys=True)
    assert "wall_time" not in text


def test_negative_control_zero_bound_fails():
    # T1's residual is a measured gap, not a constant 0, so a zero bound
    # fails it: at dims (3,), seed 1, trial 0 or 1 gives a positive one
    residuals = [run_trial(THEOREMS[0], 0, t, (3,), 1, DEFAULT_TOL) for t in range(2)]
    assert max(residuals) > 0.0


def test_nan_residual_fails(monkeypatch):
    # a check that returns NaN, or a finite residual above 1, fails every
    # trial; a NaN is reported as inf in a report that still parses
    for residual, worst in ((math.nan, math.inf), (2.0, 2.0)):
        check = TheoremCheck("T1", "returns a constant", lambda rng, n, tol: (), lambda tol: residual)
        monkeypatch.setattr(harness, "THEOREMS", (check,))
        rep = run_suite(dims=(3,), trials=2)
        (t1,) = rep.theorems
        assert (t1.failures, t1.failing_trial, t1.worst_residual) == (2, 0, worst)
        assert rep.total_failures == 2
        assert json.loads(json.dumps(rep.to_json_dict()))["theorems"][0]["worst_residual"] == worst


def test_trials_are_order_independent():
    dims = (2, 3, 4)
    check = THEOREMS[0]
    forward = [run_trial(check, 0, t, dims, 7, DEFAULT_TOL) for t in range(5)]
    backward = [run_trial(check, 0, t, dims, 7, DEFAULT_TOL) for t in reversed(range(5))]
    assert forward == list(reversed(backward))


def test_report_json_schema():
    rep = run_suite(dims=(2,), trials=1, seed=0)
    d = rep.to_json_dict()
    assert d["schema"] == 1
    assert set(d) == {"schema", "seed", "dims", "trials", "failures_total", "theorems"}
    assert [t["id"] for t in d["theorems"]] == [f"T{i}" for i in range(1, 16)]


def test_vector_power_does_not_stop_on_a_neighbouring_plateau():
    # n = 3, levels (0, 1.0553, 1.4667), xi with a tiny weight on 1.0553:
    # the quotient estimate rests near 1.4667 for a few steps first
    index = [t.theorem for t in THEOREMS].index("T10")
    residual = run_trial(THEOREMS[index], index, 1, tuple(range(2, 13)), 698272774, DEFAULT_TOL)
    assert residual <= 1.0


def test_monotone_calculus_maps_the_kernel_to_f0_at_n200():
    # a well-separated spectrum at n = 200 has levels below the rank cut:
    # kernel for rho(A), so they must be kernel for sqrt(A) too
    index = [t.theorem for t in THEOREMS].index("T8")
    for trial in range(6):
        assert run_trial(THEOREMS[index], index, trial, (200,), 0, DEFAULT_TOL) <= 1.0


@pytest.mark.parametrize("theorem", ["T1", "T3", "T4", "T11", "T15"])
@pytest.mark.parametrize("n, trials", [(30, 10), (60, 10), (100, 10), (200, 3)])
def test_large_n_theorems_pass(theorem, n, trials):
    # seed 0: a cluster that reaches the rank cut is the kernel (T1, T4),
    # the commuting family checks rho's value at any stop reason (T3), the
    # order reads one partition of the pair (T11), pinv(A) keeps A's
    # partition and T15 reads xi's range part (T15)
    index = [t.theorem for t in THEOREMS].index(theorem)
    for trial in range(trials):
        assert run_trial(THEOREMS[index], index, trial, (n,), 0, DEFAULT_TOL) <= 1.0, trial


def _scaled(route):
    """route with its value scaled by 1 + 1e-6."""

    def call(*args):
        out = route(*args)
        if isinstance(out, float):
            return out * (1.0 + 1e-6)
        return dataclasses.replace(out, value=SymMatrix(out.value.entries * (1.0 + 1e-6)))

    return call


def _scaled_on(matrix):
    """The perturbation that scales route's value by 1 + 1e-6 on one matrix
    object only, so an identity comparing two equal matrices sees it."""
    return lambda route: lambda A, *args: (_scaled(route) if A is matrix else route)(A, *args)


def _accepting(route):
    """route with every order certificate turned to holds."""
    return lambda *args: dataclasses.replace(route(*args), holds=True)


# A = H diag(1, 2, 3) H, S = H span(e2, e3) and T = H span(e1, e3), so
# S ^ T = H span(e3) carries A's top level; B = H diag(2, 2, 3) H lies above A
_H = np.eye(3) - 2.0 * np.outer([1.0, 2.0, 2.0], [1.0, 2.0, 2.0]) / 9.0
_A, _B = SymMatrix.from_eigens([1.0, 2.0, 3.0], _H), SymMatrix.from_eigens([2.0, 2.0, 3.0], _H)
_S, _T = Subspace(_H[:, 1:]), Subspace(_H[:, [0, 2]])
# T12 compares rho(A, xi) with rho(B, xi), so it reads A against a second,
# equal matrix object; its reverse direction reads the canonical pair
_A_AGAIN = SymMatrix.from_eigens([1.0, 2.0, 3.0], _H)
_CONTROLS = {
    "T1": ("short_schur", _scaled, (_A, _S)),
    "T2": ("short_at", _scaled, (_A, _S, _T)),
    "T4": ("spectral_short_closed", _scaled, (_A, _S)),
    "T5": ("spectral_short_closed", _scaled, (_A, _S, _T)),
    "T11": ("spectral_leq", _accepting, (_A, _B)),
    "T12": ("spectral_short_vector", _scaled_on(_A), (_A, _A_AGAIN, list(_H.T), *harness._ORDER_COUNTEREXAMPLE)),
    "T15": ("spectral_short_vector", _scaled, (_A, _H @ np.ones(3))),
}


@pytest.mark.parametrize("theorem", list(_CONTROLS))
def test_an_identity_sees_its_route_perturbed(monkeypatch, theorem):
    # tests call these identities, so one that read 0 whatever its route
    # returned would silence them: a route off by 1e-6, or an order that
    # accepts the counterexample, fails the identity on an input it passes
    route, perturbed, inputs = _CONTROLS[theorem]
    assert IDENTITIES[theorem](*inputs, DEFAULT_TOL) <= 1.0
    monkeypatch.setattr(harness, route, perturbed(getattr(harness, route)))
    assert IDENTITIES[theorem](*inputs, DEFAULT_TOL) > 1.0
