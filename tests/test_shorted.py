import dataclasses

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
    short_at,
    short_schur,
)
from specshort.core import _range_meet
from specshort.shorted import ShortedResult

from conftest import IDENTITIES, linalg_calls, max_abs, min_eig


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
    # Schur blocks, about n eps ||A||, exceeds _SYM_TOL relative to the
    # result, so the result must be symmetrized before it is stored.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        A = SymMatrix((v * [1e9, 1e9, 1.0, 1.0]) @ v.T)
        S = Subspace.span(rng.standard_normal((4, 2)))
        diff = short_schur(A, S).value.entries - short_at(A, S).value.entries
        assert max_abs(diff) <= 1e-12 * 1e9


def _schur_by_eigh(A, S, tol=DEFAULT_TOL):
    """The Schur complement of the block Bc^T A Bc, Bc a basis of S's
    complement, inverted through its eigh above the rank cut, for an A with
    no kernel (so S ^ R(A) is S)."""
    bs, bc = S.basis, S.complement().basis
    w, v = np.linalg.eigh(bc.T @ A.entries @ bc)
    keep = w > tol.rank_tol * A.spectral_norm()
    h = (bs.T @ A.entries @ bc @ v[:, keep]) / np.sqrt(w[keep])
    return bs @ (bs.T @ A.entries @ bs - h @ h.T) @ bs.T


def _schur_factorizations(monkeypatch, A, S, tol=DEFAULT_TOL):
    """short_schur(A, S, tol) and the (name, shape) of each eigh and
    Cholesky it takes once A's own decomposition is cached."""
    eig_sym(A, tol)
    with linalg_calls(monkeypatch, "eigh", "cholesky") as calls:
        r = short_schur(A, S, tol)
    return r, [(call.name, call.shape) for call in calls]


def test_schur_inverts_a_definite_trailing_block_whole(monkeypatch):
    # lambda_min(A) above the rank cut by more than rounding: by interlacing
    # nothing is cut, so the complement block K = Bc^T A Bc (18 x 18) takes
    # one Cholesky and no eigh, and the value agrees with the eigh route,
    # which keeps every eigenvalue of the complement block; conditions up to
    # 1e9 are covered, and lambda_min at twice the margin
    # rank_tol * ||A|| + 8 n eps ||A||
    rng = np.random.default_rng(3)
    margin = (1e-14 + 8 * 30 * np.finfo(float).eps) * 2.0
    for spectrum, tol in (
        (np.linspace(1.0, 2.0, 30), DEFAULT_TOL),
        (np.logspace(-4, 0, 30), DEFAULT_TOL),
        (np.logspace(-9, 0, 30), DEFAULT_TOL),
        (np.r_[2 * margin, np.linspace(1.0, 2.0, 29)], Tolerances(rank_tol=1e-14)),
    ):
        v, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        A = SymMatrix((v * spectrum) @ v.T)
        S = Subspace.span(rng.standard_normal((30, 12)))
        r, calls = _schur_factorizations(monkeypatch, A, S, tol)
        assert calls == [("cholesky", (18, 18))]
        assert max_abs(r.value.entries - _schur_by_eigh(A, S, tol)) <= 1e-13 * max(1.0, A.spectral_norm())


def test_schur_takes_one_cholesky_on_a_kernel_and_one_eigh_near_rounding(monkeypatch):
    rng = np.random.default_rng(4)
    v, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    S = Subspace.span(rng.standard_normal((20, 8)))
    # a singular A: its kernel block is lifted to ||A||, so the complement
    # block of T = S ^ R(A) (7 wide, so 13 x 13) is definite and takes one
    # Cholesky, with no eigh
    A = SymMatrix((v * np.r_[0.0, np.linspace(1.0, 2.0, 19)]) @ v.T)
    assert _schur_factorizations(monkeypatch, A, S)[1] == [("cholesky", (13, 13))]
    assert IDENTITIES["T1"](A, S, DEFAULT_TOL) <= 1
    # a positive level at 3e-14, above the rank cut at rank_tol = 1e-14 but
    # within the rounding margin 8 n eps ||A|| = 7.1e-14: the complement
    # block's eigh keeps its positive eigenvalues (S ^ R(A) is S, so the
    # block is 12 x 12)
    tol = Tolerances(rank_tol=1e-14)
    A = SymMatrix((v * np.r_[3e-14, np.linspace(1.0, 2.0, 19)]) @ v.T)
    assert eig_sym(A, tol).blocks[0][1].stop == 0
    assert eig_sym(A, tol).lambda_min < 8 * 20 * np.finfo(float).eps * 2.0
    assert _schur_factorizations(monkeypatch, A, S, tol)[1] == [("eigh", (12, 12))]
    assert IDENTITIES["T1"](A, S, tol) <= 1


def test_schur_reads_the_kernel_block_that_at_reads():
    # A's kernel block is {0, 2e-10}: 2e-10 lies above the rank cut 1e-10
    # but within cluster_tol of 0, so it joins the run that starts at 0.
    # The Schur route shorts over that block, as short_at does, rather
    # than inverting A22's eigenvalue near 2e-10; with a cut of its own
    # the routes disagreed by 2.77 times T1's bound
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 6)))
    A = SymMatrix.from_eigens([0.0, 2e-10, 0.3, 0.5, 0.8, 1.0], q)
    S = Subspace.span(np.c_[q[:, 2] + 9e-9 * q[:, 1], q[:, 4] + q[:, 0]])
    assert eig_sym(A).blocks[0][1].stop == 2
    assert IDENTITIES["T1"](A, S, DEFAULT_TOL) <= 1


@pytest.mark.parametrize("kernel", [0, 2], ids=["definite", "kernel"])
@pytest.mark.parametrize("dim", [1, 11], ids=["line", "hyperplane"])
@pytest.mark.parametrize("route", [short_at, short_schur], ids=["at", "schur"])
def test_routes_return_a_bit_symmetric_value(route, dim, kernel):
    # short_at's f f^T and short_schur's A' - h h^T are symmetric to the
    # bit, at dim S = 1 (a line inside the range of A, so the value is not
    # 0) and n - 1
    n = 12
    rng = np.random.default_rng(6)
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = SymMatrix((v * np.r_[np.zeros(kernel), np.logspace(-3, 0, n - kernel)]) @ v.T)
    g = rng.standard_normal((n, dim))
    e = route(A, Subspace.span(A.entries @ g if dim == 1 else g)).value.entries
    assert np.array_equal(e, e.T)
    assert max_abs(e) > 0.0


@pytest.mark.parametrize("kernel", [0, 3], ids=["definite", "singular"])
@pytest.mark.parametrize("n", [12, 60, 200])
@pytest.mark.parametrize("route", [short_at, short_schur], ids=["at", "schur"])
def test_routes_are_basis_invariant(route, n, kernel):
    # Sigma(S, A) reads S, not the spanning set given for it: S M for a
    # random invertible M and a column permutation of S give the same
    # value; and Sigma(U A U^T, U S) = U Sigma(A, S) U^T for orthogonal U.
    # The worst over these draws is 5.0e-16 ||A||_2 (schur, n = 200, a
    # singular A), and the bound is 100 times that
    rng = np.random.default_rng(n + kernel)
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = SymMatrix((v * np.r_[np.zeros(kernel), np.logspace(-3, 0, n - kernel)]) @ v.T)
    k = n // 3
    g = rng.standard_normal((n, k))
    sigma = route(A, Subspace.span(g)).value.entries
    bound = 5e-14 * A.spectral_norm()
    for spanning in (g @ rng.standard_normal((k, k)), g[:, rng.permutation(k)]):
        assert max_abs(route(A, Subspace.span(spanning)).value.entries - sigma) <= bound
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    rotated = route(SymMatrix(u @ A.entries @ u.T), Subspace.span(u @ g)).value.entries
    assert max_abs(rotated - u @ sigma @ u.T) <= bound


def _short_by_q(A, S, tol=DEFAULT_TOL):
    """sqrt(A) P_M sqrt(A) from M's Q factor, F = U Lambda^{1/2} Q."""
    d = eig_sym(A, tol)
    k = d.blocks[0][1].stop
    u, root = d.vectors[:, k:], np.sqrt(d.values[k:])
    q, _ = np.linalg.qr((u.T @ _range_meet(d, S, tol).basis) / root[:, None])
    f = u @ (root[:, None] * q)
    return f @ f.T


@pytest.mark.parametrize("kernel", [0, 3], ids=["definite", "kernel"])
def test_at_takes_r_alone_and_matches_the_q_route(monkeypatch, kernel):
    # F = U X R^{-1} is U Lambda^{1/2} Q: the two agree on conditions up to
    # 1e9, and short_at factors M for R alone
    n = 30
    rng = np.random.default_rng(7)
    for k in (1, 12, n - kernel - 1):
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = SymMatrix((v * np.r_[np.zeros(kernel), np.logspace(-9, 0, n - kernel)]) @ v.T)
        S = Subspace.span(rng.standard_normal((n, k)))
        eig_sym(A)
        with linalg_calls(monkeypatch, "qr") as calls:
            r = short_at(A, S)
        assert [call.kwargs.get("mode") for call in calls] == ["r"]
        assert max_abs(r.value.entries - _short_by_q(A, S)) <= 1e-13 * A.spectral_norm()


def test_short_commuting_case_is_compression():
    A = SymMatrix(np.diag([1.0, 2.0]))
    S = Subspace.span([[0.0], [1.0]])
    expected = np.diag([0.0, 2.0])
    for routine in (short_at, short_schur):
        assert max_abs(routine(A, S).value.entries - expected) < 1e-12
        # a line in the kernel shorts to exactly 0
        assert routine(SymMatrix(np.diag([1.0, 0.0])), S).scalar() == 0.0


def test_short_hand_value_four_thirds():
    A = SymMatrix(np.diag([1.0, 2.0]))
    S = Subspace.span([[1.0], [1.0]])
    # oracle: <A^{-1} xi, xi> = 3/4 for xi = (e1+e2)/sqrt(2)
    for routine in (short_at, short_schur):
        r = routine(A, S)
        assert abs(r.scalar() - 4.0 / 3.0) < 1e-12
        assert max_abs(r.value.entries - (4.0 / 3.0) * S.projection()) < 1e-12
        assert abs(routine(SymMatrix(np.eye(3)), Subspace.span(np.ones(3))).scalar() - 1.0) < 1e-12
    # -1e-12 and 5e-9 form one cluster whose first member is at or below
    # the rank cut, so it is the kernel, and the line lies in it
    B = SymMatrix(np.diag([-1e-12, 5e-9, 1.0]))
    line = Subspace.span([1.0, 1.0, 0.0])
    for routine in (short_at, short_schur):
        assert routine(B, line).scalar() == 0.0


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
        # on a line, off the range of A and inside it: 0 <= Sigma <= <A xi, xi>
        g = np.random.default_rng(seed).standard_normal(n)
        for line in (Subspace.span(g), Subspace.span(A.entries @ g)):
            xi = line.basis[:, 0]
            for routine in (short_at, short_schur):
                assert 0.0 <= routine(A, line).scalar() <= float(xi @ A.entries @ xi) + 1e-12


def test_methods_agree_including_singular():
    for seed in range(10):
        n = 2 + seed % 7
        kind = ("with_zeros", "well_separated", "projection", "clustered")[seed % 4]
        A = gen_psd(SpectrumSpec(kind, n), seed)
        S = gen_subspace(n, seed % (n + 1), seed + 13)
        assert IDENTITIES["T1"](A, S, DEFAULT_TOL) <= 1


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
        assert IDENTITIES["T2"](A, S, T, DEFAULT_TOL) <= 1


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
