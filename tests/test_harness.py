import numpy as np
import pytest

from specshort import (
    DomainError,
    SpectrumSpec,
    gen_psd,
    gen_subspace,
    run_suite,
    spectral_leq,
)
from specshort.harness import THEOREMS, run_trial
from specshort.core import DEFAULT_TOL

from conftest import max_abs, min_eig


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

    sep = gen_psd(SpectrumSpec("well_separated", 6, gap=0.2), 5)
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


def test_run_suite_smoke_passes():
    rep = run_suite(dims=(2, 3), trials=4, seed=5)
    assert rep.total_failures == 0
    assert len(rep.theorems) == 15
    for t in rep.theorems:
        assert t.trials == 4
        assert (t.failures == 0) == (t.worst_residual <= t.bound)
        assert t.failing_trial is None


def test_run_suite_empty():
    rep = run_suite(dims=(2,), trials=0, seed=0)
    assert rep.theorems == ()
    assert rep.total_failures == 0


def test_run_suite_rejects_empty_dims():
    with pytest.raises(DomainError):
        run_suite(dims=(), trials=1, seed=0)
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
    assert r1.to_json() == r2.to_json()
    assert "wall_time" not in r1.to_json()


def test_negative_control_zero_bound_fails():
    rep = run_suite(dims=(3,), trials=2, seed=1, bound_overrides={"T1": 0.0})
    t1 = next(t for t in rep.theorems if t.theorem == "T1")
    assert t1.failures > 0
    assert t1.failing_trial is not None
    assert rep.total_failures == t1.failures


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
