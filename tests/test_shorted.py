import dataclasses
import math

import numpy as np
import pytest

from specshort import (
    DEFAULT_TOL,
    DomainError,
    SpectrumSpec,
    Subspace,
    SymMatrix,
    Tolerances,
    eig_sym,
    gen_psd,
    gen_subspace,
    matrix_power,
    projection_meet,
    short_at,
    short_schur,
    short_vector,
)
from specshort.shorted import ShortedResult

from conftest import linalg_calls, max_abs, min_eig


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


def test_schur_on_large_norm_with_small_levels():
    # Sigma(S, A) is O(1) while ||A|| = 1e9: the rounding asymmetry of the
    # Schur blocks, about n eps ||A||, exceeds sym_tol relative to the
    # result, so the result must be symmetrized before it is stored.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        A = SymMatrix((v * [1e9, 1e9, 1.0, 1.0]) @ v.T)
        S = Subspace.span(rng.standard_normal((4, 2)))
        diff = short_schur(A, S).value.entries - short_at(A, S).value.entries
        assert max_abs(diff) <= 1e-12 * 1e9


def _schur_by_eigh(A, S, tol=DEFAULT_TOL):
    """short_schur's trailing block inverted through its eigh, above the
    rank cut, for an A with no kernel (so S ^ R(A) is S)."""
    bs, bc = S.basis, S.complement().basis
    w, v = np.linalg.eigh(bc.T @ A.entries @ bc)
    keep = w > tol.rank_abs(A.spectral_norm(tol))
    h = (bs.T @ A.entries @ bc @ v[:, keep]) / np.sqrt(w[keep])
    return bs @ (bs.T @ A.entries @ bs - h @ h.T) @ bs.T


def _trailing_eighs(monkeypatch, A, S, tol=DEFAULT_TOL):
    """short_schur(A, S, tol) and the shapes of the eighs it takes once A's
    own decomposition is cached."""
    eig_sym(A, tol)
    with linalg_calls(monkeypatch, "eigh") as calls:
        r = short_schur(A, S, tol)
    return r, [call.shape for call in calls]


def test_schur_inverts_a_definite_trailing_block_whole(monkeypatch):
    # lambda_min(A) above the rank cut by more than rounding: by interlacing
    # the trailing block is inverted whole, with no eigh, and agrees with
    # the eigh route; conditions up to 1e9 are covered
    rng = np.random.default_rng(3)
    for spectrum in (np.linspace(1.0, 2.0, 30), np.logspace(-4, 0, 30), np.logspace(-9, 0, 30)):
        v, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        A = SymMatrix((v * spectrum) @ v.T)
        S = Subspace.span(rng.standard_normal((30, 12)))
        r, eighs = _trailing_eighs(monkeypatch, A, S)
        assert eighs == []
        assert max_abs(r.value.entries - _schur_by_eigh(A, S)) <= 1e-13 * max(1.0, A.spectral_norm())


def test_schur_takes_the_eigh_near_the_cut_and_on_a_kernel(monkeypatch):
    rng = np.random.default_rng(4)
    v, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    S = Subspace.span(rng.standard_normal((20, 8)))
    # lambda_min at 1.5 times the cut, which 8 n eps ||A|| of rounding
    # margin exceeds at rank_tol = 1e-14: the interlacing bound cannot clear
    # the cut, so the trailing block's eigh decides
    tol = Tolerances(rank_tol=1e-14)
    A = SymMatrix((v * np.r_[3e-14, np.linspace(1.0, 2.0, 19)]) @ v.T)
    assert eig_sym(A, tol).lambda_min == pytest.approx(1.5 * tol.rank_abs(2.0), rel=0.1)
    assert _trailing_eighs(monkeypatch, A, S, tol)[1] == [(12, 12)]
    # a singular A: S ^ R(A) has dimension 7, so the trailing block is 13 x 13
    A = SymMatrix((v * np.r_[0.0, np.linspace(1.0, 2.0, 19)]) @ v.T)
    assert _trailing_eighs(monkeypatch, A, S)[1] == [(13, 13)]


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


def _eager_range_residual(r):
    # the formula each result once stored when it was built
    b = r.subspace.basis
    outside = b @ (b.T @ r.value.entries)
    np.subtract(r.value.entries, outside, out=outside)
    return float(np.abs(outside, out=outside).max())


def test_range_residual_is_derived_on_read():
    assert "range_residual" not in {f.name for f in dataclasses.fields(ShortedResult)}
    for seed in range(8):
        A, S = _rand_pair(seed, 3 + seed % 5)
        for routine in (short_at, short_schur):
            r = routine(A, S)
            assert r.range_residual == _eager_range_residual(r), (seed, routine)


def test_range_residual_reaches_meet_tol_where_S_meets_the_range_within_it():
    # S = span(e1 + eps e2) lies within meet_tol of R(A) = span(e1), so it
    # is shorted to whole; short_at's value lives on R(A), off S by eps.
    eps, top = 5e-9, 1e3
    A = SymMatrix(np.diag([top, 0.0, 0.0]))
    S = Subspace.span([[1.0], [eps], [0.0]])
    at, schur = short_at(A, S), short_schur(A, S)
    assert 0.9 * eps * top <= at.range_residual <= DEFAULT_TOL.meet_tol * top
    assert at.range_residual == _eager_range_residual(at)
    assert schur.range_residual <= 1e-14 * top


def test_range_residual_is_zero_on_the_whole_space():
    A = gen_psd(SpectrumSpec("with_zeros", 5), 0)
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))
    for S in (Subspace.full(5), Subspace(q)):
        for routine in (short_at, short_schur):
            assert routine(A, S).range_residual == 0.0
