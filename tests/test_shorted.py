import math

import numpy as np
import pytest

from specshort import (
    DomainError,
    SpectrumSpec,
    Subspace,
    SymMatrix,
    eig_sym,
    gen_psd,
    gen_subspace,
    matrix_power,
    projection_meet,
    short_at,
    short_schur,
    short_vector,
)

from conftest import max_abs, min_eig


def _rand_pair(seed, n, kind="with_zeros"):
    A = gen_psd(SpectrumSpec(kind, n), seed)
    S = gen_subspace(n, 1 + seed % (n - 1), seed + 1)
    return A, S


def test_short_of_projection_is_meet_projection():
    # shorting a projection gives the projection onto the intersection
    A = SymMatrix(np.diag([1.0, 1.0, 0.0]))  # projection onto span(e1, e2)
    S = Subspace.span(np.eye(3)[:, 1:3])
    expected = np.diag([0.0, 1.0, 0.0])
    for routine in (short_at, short_schur):
        assert max_abs(routine(A, S).value.entries - expected) < 1e-12


def test_short_commuting_case_is_compression():
    A = SymMatrix(np.diag([1.0, 2.0]))
    S = Subspace.span([[0.0], [1.0]])
    expected = np.diag([0.0, 2.0])
    for routine in (short_at, short_schur):
        assert max_abs(routine(A, S).value.entries - expected) < 1e-12


def test_short_hand_value_four_thirds():
    A = SymMatrix(np.diag([1.0, 2.0]))
    S = Subspace.span([[1.0], [1.0]])
    # oracle: <A^{-1} xi, xi> = 3/4 for xi = (e1+e2)/sqrt(2)
    for routine in (short_at, short_schur):
        r = routine(A, S)
        assert abs(r.scalar() - 4.0 / 3.0) < 1e-12
        assert max_abs(r.value.entries - (4.0 / 3.0) * S.projection()) < 1e-12


def test_short_vector_examples():
    A = SymMatrix(np.diag([1.0, 2.0]))
    xi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert abs(short_vector(A, xi) - 4.0 / 3.0) < 1e-12
    assert abs(short_vector(SymMatrix(np.eye(3)), np.ones(3) / math.sqrt(3.0)) - 1.0) < 1e-12
    assert short_vector(SymMatrix(np.diag([1.0, 0.0])), [0.0, 1.0]) == 0.0
    # -1e-12 and 5e-9 form one level of value 2.4995e-9, which xi meets
    B = SymMatrix(np.diag([-1e-12, 5e-9, 1.0]))
    xi = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    assert short_vector(B, xi) == pytest.approx(2.4995e-9, rel=1e-12, abs=0.0)
    assert short_vector(B, xi) == pytest.approx(short_at(B, Subspace.span(xi)).scalar(), rel=1e-12, abs=0.0)


def test_short_vector_range_bound():
    for seed in range(6):
        A, _ = _rand_pair(seed, 5)
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal(5)
        xi /= np.linalg.norm(xi)
        val = short_vector(A, xi)
        assert 0.0 <= val <= float(xi @ A.entries @ xi) + 1e-12


def test_short_vector_rejects_bad_vectors():
    A = SymMatrix(np.eye(2))
    with pytest.raises(DomainError):
        short_vector(A, [0.0, 0.0])
    with pytest.raises(DomainError):
        short_vector(A, [1.0, 1.0])  # not unit


def test_result_invariants():
    for seed in range(8):
        n = 3 + seed % 4
        A, S = _rand_pair(seed, n)
        r = short_at(A, S)
        nrm = eig_sym(A).norm2
        # positive, below A, supported inside S
        assert min_eig(r.value.entries) >= -1e-8 * max(1.0, nrm)
        assert min_eig(A.entries - r.value.entries) >= -1e-8 * max(1.0, nrm)
        assert r.range_residual <= 1e-10 * max(1.0, nrm)
        assert r.method == "anderson_trapp"
        assert short_schur(A, S).method == "schur"


def test_methods_agree_including_singular():
    for seed in range(10):
        n = 2 + seed % 7
        kind = ("with_zeros", "well_separated", "projection", "clustered")[seed % 4]
        A = gen_psd(SpectrumSpec(kind, n), seed)
        S = gen_subspace(n, seed % (n + 1), seed + 13)
        gap = max_abs(short_at(A, S).value.entries - short_schur(A, S).value.entries)
        assert gap <= 1e-8 * eig_sym(A).norm2


def test_edge_subspaces():
    A = gen_psd(SpectrumSpec("well_separated", 4), 0)
    zero = short_at(A, Subspace.zero(4))
    assert max_abs(zero.value.entries) == 0.0
    full = short_at(A, Subspace.full(4))
    assert max_abs(full.value.entries - A.entries) <= 1e-10


def test_monotone_in_subspace():
    for seed in range(5):
        n = 6
        A = gen_psd(SpectrumSpec("with_zeros", n), seed)
        big = gen_subspace(n, 4, seed)
        small = Subspace(big.basis[:, :2])
        lo = short_at(A, small).value.entries
        hi = short_at(A, big).value.entries
        assert min_eig(hi - lo) >= -1e-8 * max(1.0, eig_sym(A).norm2)


def test_monotone_in_matrix():
    rng = np.random.default_rng(17)
    for seed in range(5):
        n = 5
        A = gen_psd(SpectrumSpec("well_separated", n), seed)
        g = rng.standard_normal((n, 2))
        B = SymMatrix(A.entries + 0.5 * g @ g.T)
        S = gen_subspace(n, 2, seed)
        lo = short_at(A, S).value.entries
        hi = short_at(B, S).value.entries
        assert min_eig(hi - lo) >= -1e-8 * max(1.0, eig_sym(B).norm2)


def test_composition_over_intersections():
    for seed in range(6):
        n = 6
        A = gen_psd(SpectrumSpec("well_separated", n), seed)
        S = gen_subspace(n, 3, seed + 100)
        T = gen_subspace(n, 4, seed + 200)
        lhs = short_at(A, projection_meet(S, T)).value.entries
        rhs = short_at(short_at(A, T).value, S).value.entries
        assert max_abs(lhs - rhs) <= 1e-8 * eig_sym(A).norm2


def test_maximality_against_sampled_candidates():
    # candidates X with 0 <= X <= A and range inside S never exceed the short
    rng = np.random.default_rng(23)
    for seed in range(5):
        n = 5
        A = gen_psd(SpectrumSpec("with_zeros", n), seed)
        S = gen_subspace(n, 3, seed + 7)
        sigma = short_at(A, S).value
        root = matrix_power(sigma, 0.5)
        for _ in range(4):
            g = rng.standard_normal((n, n))
            w = g @ g.T
            w /= max(np.linalg.eigvalsh(w).max(), 1e-12)
            eps = rng.uniform(0.0, 1.0)
            # X = root (I - eps W) root is PSD, below sigma, supported in S
            x = root.entries @ (np.eye(n) - eps * w) @ root.entries
            x = (x + x.T) / 2.0
            assert min_eig(A.entries - x) >= -1e-8
            assert min_eig(sigma.entries - x) >= -1e-8


def test_compressed_accessor():
    A = SymMatrix(np.diag([1.0, 2.0]))
    S = Subspace.span([[1.0], [1.0]])
    comp = short_at(A, S).compressed()
    assert comp.shape == (1, 1)
    assert abs(comp[0, 0] - 4.0 / 3.0) < 1e-12
    with pytest.raises(DomainError):
        short_at(A, Subspace.full(2)).scalar()
