import math
from dataclasses import replace

import numpy as np
import pytest

from specshort import (
    DEFAULT_TOL,
    ConvergenceTrace,
    DomainError,
    Subspace,
    SymMatrix,
    eig_sym,
    kolmogorov_closed,
    kolmogorov_power,
    matrix_function,
    matrix_power,
    projection_meet,
    pseudo_inverse,
    short_at,
    short_schur,
    spectral_leq,
    spectral_short_closed,
    spectral_short_iterative,
    spectral_short_min,
    spectral_short_vector,
    spectral_short_vector_power,
    spectral_projection,
)
from specshort.harness import SpectrumSpec, gen_psd, gen_subspace

from specshort import shorted
from specshort.core import ShortedResult, _range_meet

from conftest import IDENTITIES, linalg_calls, max_abs, min_eig


def test_closed_projection_case():
    # the spectral short of a projection is the projection onto the meet
    A = SymMatrix(np.diag([1.0, 1.0, 0.0]))
    S = Subspace.span(np.eye(3)[:, 1:3])
    r = spectral_short_closed(A, S)
    assert max_abs(r.value.entries - np.diag([0.0, 1.0, 0.0])) < 1e-12


def test_closed_commuting_case():
    A = SymMatrix(np.diag([1.0, 2.0]))
    S = Subspace.span([[0.0], [1.0]])
    r = spectral_short_closed(A, S)
    assert max_abs(r.value.entries - S.projection() @ A.entries) < 1e-12


def test_closed_diagonal_with_tilted_line():
    # the meet at the top level vanishes, so the whole line sits at level 1
    A = SymMatrix(np.diag([1.0, 2.0]))
    S = Subspace.span([[1.0], [1.0]])
    r = spectral_short_closed(A, S)
    assert max_abs(r.value.entries - S.projection()) < 1e-12
    # cross-check by the independent iterative route, Richardson-extrapolated
    # under its O(1/power) error model: 2 B_k - B_{k-1} for doubling powers
    before, last = spectral_short_iterative(A, S).trace.iterates[-2:]
    ext = 2.0 * np.asarray(last.value) - np.asarray(before.value)
    assert max_abs(ext - r.value.entries) < 5e-3


def _walk_cases():
    for seed in range(6):
        yield gen_psd(SpectrumSpec("clustered", 6), seed), gen_subspace(6, 3, seed + 5)
    # block sines of 8e-9 each stay within meet_tol, but their sum leaves it
    xi = np.array([8e-9, 8e-9, 1.0])
    yield SymMatrix(np.diag([1.0, 2.0, 3.0])), Subspace.span(xi / np.linalg.norm(xi))


def test_closed_levels_are_nested_and_spectrum_sits_on_levels():
    for A, S in _walk_cases():
        r = spectral_short_closed(A, S)
        d = eig_sym(A)
        cut = 1e-10 * d.norm2
        positives = [float(v) for v in d.level_values if v > cut]
        assert [mu for mu, _ in r.levels] == positives[::-1]
        eigs = np.linalg.eigvalsh(r.value.entries)
        cumulative = 0
        for mu, rank in r.levels:
            # the ranks add up to the dimensions of the meets E_A[mu, inf) ^ S
            cumulative += rank
            assert cumulative == projection_meet(spectral_projection(d, mu), S).dim
            # and each is the multiplicity of its value in rho
            assert np.count_nonzero(np.abs(eigs - mu) <= 1e-8 * max(1.0, d.norm2)) == rank
        targets = [0.0] + positives
        for eig in eigs:
            assert min(abs(eig - t) for t in targets) <= 1e-8 * max(1.0, d.norm2)
        if S.dim == 1:
            # the walk and the half-line reader agree on the line
            assert spectral_short_vector(A, S.basis[:, 0]) == spectral_short_min(A, S) == 2.0
            assert abs(r.scalar() - 2.0) <= 1e-12


def test_rho_keeps_the_levels_of_a():
    # A's levels 1 - 1.325w (four members) and 1 - 0.95w lie 3.75e-9 apart,
    # inside the cluster width at rho's own scale, which would merge them
    # into one level 0.9999999875
    w = 1e-8
    A = SymMatrix(np.diag([0.5, 1 - 2 * w, 1 - 1.1 * w, 1 - 1.1 * w, 1 - 1.1 * w, 1 - 0.95 * w]))
    S = Subspace(np.eye(6)[:, 1:])
    rho = spectral_short_closed(A, S).value
    levels = [mu for mu, _ in eig_sym(A).blocks[2:]]
    assert levels == [0.99999998675, 0.9999999905]
    assert [(mu, idx.stop - idx.start) for mu, idx in eig_sym(rho).blocks] == [(0.0, 1), (levels[0], 4), (levels[1], 1)]
    # rho of rho reads A's exact level values
    assert [mu for mu, _ in spectral_short_closed(rho, S).levels] == levels[::-1]


def test_closed_and_complexity_scale_with_the_matrix():
    # rho(cA, S) = c rho(A, S) at every scale: distinct levels of a small
    # matrix must not merge
    S = Subspace.span([[1.0], [1.0]])
    for c in (1e-12, 1e-9, 1.0, 1e3, 1e12):
        A = SymMatrix(c * np.diag([1.0, 2.0]))
        rho = spectral_short_closed(A, S).value.entries
        assert max_abs(rho - 0.5 * c * np.ones((2, 2))) <= 1e-12 * c
        assert abs(kolmogorov_closed(A, [1.0, 1.0]).value - 2.0 * c) <= 1e-12 * c


def _limit_route(route, A, xi):
    """(value, stop reason) of one limit route on A and the line of xi."""
    if route == "iterative":
        result = spectral_short_iterative(A, Subspace.span(np.reshape(xi, (-1, 1))))
        return result.value.entries, result.trace.stop_reason
    if route == "kolmogorov_power":
        result = kolmogorov_power(A, xi)
        return result.value, result.trace.stop_reason
    result = spectral_short_vector_power(A, xi)
    return result.value, result.trace.stop_reason


@pytest.mark.parametrize(
    "route, exponent",
    [
        ("iterative", -30),
        ("kolmogorov_power", -30),
        ("vector_power", 30),  # its band reads pinv(cA)
        ("kolmogorov_power", 520),
        ("kolmogorov_power", -600),
        ("vector_power", -520),
        ("vector_power", 600),
    ],
)
def test_limit_routes_scale_with_the_matrix(route, exponent):
    # c a power of two scales every float of cA exactly, so a route that
    # scales with A stops where it does at c = 1, on c times the value: its
    # stopping band is relative, and each iterate's norm is taken after an
    # exact power-of-two scaling, so its squares neither overflow nor vanish
    xi = np.array([1.0, 1.0, 0.0])
    A = np.diag([1.0, 2.0, 0.0])
    c = 2.0**exponent
    value, reason = _limit_route(route, SymMatrix(c * A), xi)
    want, want_reason = _limit_route(route, SymMatrix(A), xi)
    assert reason == want_reason
    assert np.array_equal(np.asarray(value) / c, want)


_KERNEL_LINE_ROUTES = {
    "closed": lambda A, xi: spectral_short_closed(A, Subspace.span(xi)).scalar(),
    "vector": spectral_short_vector,
    "kolmogorov_closed": lambda A, xi: kolmogorov_closed(A, xi).value,
    "short_at": lambda A, xi: short_at(A, Subspace.span(xi)).scalar(),
    "short_schur": lambda A, xi: short_schur(A, Subspace.span(xi)).scalar(),
}


@pytest.mark.parametrize(
    "w, rotated",
    [([0.0, 1e-8, 1.0, 2.0], False), ([0.0, 1e-8, 1.0, 2.0], True), ([0.0, 1.0, 1e-8], False)],
    ids=["diagonal", "rotated", "3x3"],
)
@pytest.mark.parametrize("route", list(_KERNEL_LINE_ROUTES))
def test_kernel_line_beside_a_tiny_level_gives_zero(route, w, rotated):
    # A = diag(0, 1e-8, 1, 2), and its 3 x 3 form diag(0, 1, 1e-8): rho <=
    # P_S A P_S = 0 and <A e0, e0> = 0 on the kernel line e0.  0 and 1e-8
    # form one cluster whose first member is at the rank cut, so the whole
    # cluster is the kernel
    w = np.array(w)
    q = np.eye(len(w))
    if rotated:
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    A = SymMatrix((q * w) @ q.T)
    assert abs(_KERNEL_LINE_ROUTES[route](A, q[:, 0])) <= 1e-15


def _generic(n, spectrum, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * spectrum) @ q.T
    return SymMatrix((a + a.T) / 2.0), q, rng


def test_closed_on_generic_draw_with_small_angles():
    # a generic draw whose subspace makes small principal angles with some
    # half-line projections of A (the benchmark's many-levels instance 57)
    n, k = 96, 48
    w = np.linspace(1.0, 2.0, n)
    A, _, rng = _generic(n, w, [0, 57])
    rho = spectral_short_closed(A, Subspace.span(rng.standard_normal((n, k)))).value
    assert spectral_leq(rho, A).holds
    want = np.concatenate([np.zeros(n - k), w[:k]])
    assert max_abs(np.linalg.eigvalsh(rho.entries) - want) <= 1e-8


def _cumulative_walk(A, S, tol=DEFAULT_TOL):
    # reference: the walk with one cumulative SVD at every level, from all
    # of S, as the closed form ran before the QR of C^T settled its leading
    # blocks
    d = eig_sym(A, tol)
    c = d.vectors.T @ S.basis
    w = np.eye(S.dim)
    values, coords, levels = [], [], []
    for mu, rows in d.blocks:
        rank = 0
        if rows.stop > rows.start and w.shape[1]:
            _, sines, vt = np.linalg.svd(c[: rows.stop] @ w)
            rank = int(np.count_nonzero(sines > tol.meet_tol))
            w = w @ vt.T
            coords.append(w[:, :rank])
            values.extend([mu] * rank)
            w = w[:, rank:]
        if mu > 0.0:
            levels.append((mu, rank))
    placed = S.basis @ np.hstack(coords) if coords else np.zeros((A.n, 0))
    q, _ = np.linalg.qr(placed, mode="complete")
    vectors = np.hstack([placed, q[:, placed.shape[1] :]])
    values.extend([0.0] * (A.n - placed.shape[1]))
    return SymMatrix.from_eigens(values, vectors).entries, tuple(reversed(levels))


def _walk_calls(monkeypatch, A, S):
    """spectral_short_closed(A, S), the number of SVDs with singular
    vectors it takes (the walk's; the QR's triangles take values only) and
    the shapes of its reduced QRs (an uncached complement of S takes a
    complete QR of its own)."""
    eig_sym(A)
    with linalg_calls(monkeypatch, "svd", "qr") as calls:
        r = spectral_short_closed(A, S)
    svds = sum(call.kwargs.get("compute_uv", True) for call in calls if call.name == "svd")
    qrs = [c.shape for c in calls if c.name == "qr" and c.kwargs.get("mode", "reduced") == "reduced"]
    return r, svds, qrs


def _qr_walk_cases():
    """(A, S, settled in the QR alone) covering each way the walk can go."""
    for n in (96, 200):  # L = n: every block one row
        A, _, rng = _generic(n, np.linspace(1.0, 2.0, n), n)
        yield A, Subspace.span(rng.standard_normal((n, n // 2))), True
    # few levels: two blocks of 50 rows settle S
    A, _, rng = _generic(200, np.repeat(np.linspace(1.0, 2.0, 4), 50), 4)
    yield A, Subspace.span(rng.standard_normal((200, 100))), True
    # kernels larger than dim S settle it in the kernel block
    for seed in range(4):
        A = gen_psd(SpectrumSpec("with_zeros", 12, zero_count=7), seed)
        yield A, gen_subspace(12, 1 + seed, seed), True
    # block sines of 8e-9: the first block stays within meet_tol
    xi = np.array([8e-9, 8e-9, 1.0])
    yield SymMatrix(np.diag([1.0, 2.0, 3.0])), Subspace.span(xi / np.linalg.norm(xi)), False
    # S orthogonal to A's bottom eigenvector: one stay from block 0 on
    A, q, rng = _generic(60, np.linspace(1.0, 2.0, 60), 7)
    basis = rng.standard_normal((60, 30))
    basis -= np.outer(q[:, 0], q[:, 0] @ basis)
    yield A, Subspace.span(basis), False
    # a block of 5 rows that settles one of S's three directions takes an SVD
    A, q, rng = _generic(20, np.repeat([1.0, 2.0, 3.0, 4.0], 5), 8)
    basis = np.column_stack([rng.standard_normal(20), q[:, 5:] @ rng.standard_normal((15, 2))])
    yield A, Subspace.span(basis), False
    # two blocks settle in the QR, the third takes an SVD
    e = np.eye(5)
    yield SymMatrix(np.diag([1.0, 2.0, 3.0, 4.0, 5.0])), Subspace.span(
        np.column_stack([e[0], e[1], e[3] + e[4]])
    ), False
    # S orthogonal to A's bottom 10 eigenvectors: ten stays at once
    A, q, rng = _generic(60, np.linspace(1.0, 2.0, 60), 9)
    basis = rng.standard_normal((60, 30))
    basis -= q[:, :10] @ (q[:, :10].T @ basis)
    yield A, Subspace.span(basis), False
    # S inside A's top half: every direction stays through the bottom half
    A, q, rng = _generic(40, np.linspace(1.0, 2.0, 40), 10)
    yield A, Subspace.span(q[:, 20:] @ rng.standard_normal((20, 12))), False
    # S spanned by eigenvectors of A, on single and repeated levels
    for spectrum in (np.linspace(1.0, 2.0, 30), np.repeat([1.0, 2.0, 3.0], 10)):
        A, q, _ = _generic(30, spectrum, 11)
        yield A, Subspace.span(q[:, [2, 5, 11, 17, 29]]), False


def test_qr_settled_blocks_match_the_cumulative_walk(monkeypatch):
    # The walk takes one reduced QR, of C's first c rows, c the stop of the
    # first block to reach row k = dim S.  A walk whose stays outlive row c
    # (here exactly the walks that take an SVD) settles them with R's later
    # columns, formed through Q^T and not by a second QR.
    for A, S, settled in _qr_walk_cases():
        r, walk_svds, qrs = _walk_calls(monkeypatch, A, S)
        assert (walk_svds == 0) == settled
        blocks = eig_sym(A).blocks
        c = next(rows.stop for _, rows in blocks if rows.stop >= S.dim)
        assert qrs == [(S.dim, c)]
        starts = [rows.start for _, rows in blocks[1:]]
        past_c = any(rank and start >= c for (_, rank), start in zip(reversed(r.levels), starts))
        assert past_c == (not settled)
        rho, levels = _cumulative_walk(A, S)
        assert max_abs(r.value.entries - rho) <= 1e-13 * max(1.0, A.spectral_norm())
        assert r.levels == levels


@pytest.mark.parametrize(
    "sine, uvs, ranks",
    [
        (1e-7, [], [0, 3]),  # the Cholesky certificate settles the triangle
        (1.2e-8, [False], [0, 3]),  # too close to meet_tol for it: its SVD does
        (1e-9, [False, True, True], [3, 0]),  # within meet_tol: all three stay
    ],
)
def test_walk_certifies_a_multi_row_triangle(monkeypatch, sine, uvs, ranks):
    # A has two levels of three members each, and S three directions whose
    # components on the bottom level have singular values `sine`: the
    # triangle of the bottom block settles all three there exactly when
    # `sine` exceeds meet_tol
    A, q, rng = _generic(6, np.repeat([1.0, 2.0], 3), 12)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    w, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    S = Subspace(q @ np.vstack([sine * u, math.sqrt(1.0 - sine**2) * w]))
    eig_sym(A)
    with linalg_calls(monkeypatch, "svd", "cholesky") as calls:
        r = spectral_short_closed(A, S)
    assert calls[0].name == "cholesky"
    assert [call.kwargs.get("compute_uv", True) for call in calls if call.name == "svd"] == uvs
    assert [rank for _, rank in r.levels] == ranks
    rho, levels = _cumulative_walk(A, S)
    assert max_abs(r.value.entries - rho) <= 1e-13 and r.levels == levels


def test_walk_carries_only_its_stays(monkeypatch):
    # S orthogonal to A's bottom eigenvector: that level settles nothing
    # and leaves one direction of S in the meet, which stays until the last
    # of S's n/2 coordinates has entered.  Each level's SVD acts on that
    # stay and the one coordinate entering there, never on the rest of S.
    n = 200
    A, q, rng = _generic(n, np.linspace(1.0, 2.0, n), 7)
    basis = rng.standard_normal((n, n // 2))
    basis -= np.outer(q[:, 0], q[:, 0] @ basis)
    S = Subspace.span(basis)
    eig_sym(A)
    with linalg_calls(monkeypatch, "svd") as calls:
        r = spectral_short_closed(A, S)
    widths = [call.shape[1] for call in calls]
    # bottom up: level 1 settles none, levels 2 .. n/2 + 1 one each
    assert len(widths) == n // 2 + 1 and max(widths) == 2
    assert [rank for _, rank in r.levels] == [0] * (n // 2 - 1) + [1] * (n // 2) + [0]


def _assembly_cases():
    """(A, S): L = n and two-level draws, and kernels that settle part of S."""
    for n in (96, 200):
        A, _, rng = _generic(n, np.linspace(1.0, 2.0, n), n)
        yield A, Subspace.span(rng.standard_normal((n, n // 2)))
        A, _, rng = _generic(n, np.repeat([1.0, 2.0], n // 2), n + 1)
        yield A, Subspace.span(rng.standard_normal((n, n // 2)))
    for seed in range(4):
        A = gen_psd(SpectrumSpec("with_zeros", 12, zero_count=7), seed)
        yield A, gen_subspace(12, 1 + 2 * seed, seed)


def test_kernel_is_the_complement_of_s():
    # rho's kernel eigenvectors are S's cached complement, and its entries
    # are those of completing the settled directions by a complete QR of
    # their own, since the kernel columns carry the value 0
    for A, S in _assembly_cases():
        r = spectral_short_closed(A, S)
        w, v = r.value._eigens
        n, k = A.n, S.dim
        # stable sorting puts the kernel after the zeros settled in S
        z = int(np.count_nonzero(w == 0.0)) - (n - k)
        kernel = v[:, z : z + n - k]
        assert np.array_equal(kernel, S.complement().basis)
        assert max_abs(kernel.T @ kernel - np.eye(n - k)) <= 1e-14
        assert max_abs(S.basis.T @ kernel) <= 1e-14
        settled = np.delete(v, np.s_[z : z + n - k], axis=1)
        q, _ = np.linalg.qr(settled, mode="complete")
        values = np.concatenate([np.delete(w, np.s_[z : z + n - k]), np.zeros(n - k)])
        completed = SymMatrix.from_eigens(values, np.hstack([settled, q[:, k:]]))
        assert np.array_equal(r.value.entries, completed.entries)
        assert r.levels == _cumulative_walk(A, S)[1]


def test_factorizations_of_one_op(monkeypatch):
    # The factorizations of one op after A's eigh: Subspace.span's complete
    # QR gives S's basis and its complement, which short_schur and the
    # closed form share when A has no kernel (S ^ R(A) is S).
    # short_at factors its M for R alone and short_schur the complement
    # block Bc^T A Bc by one Cholesky, by interlacing; each inverts its
    # triangle's diagonal halves.  Cholesky certificates settle span's rank
    # and the walk's multi-row triangles, so no n x n Cholesky, no solve,
    # no SVD and no second eigh is taken.
    # The closed form factors only C's rows up to the stop of the first
    # level block to reach row k = dim S: k of them on both draws.
    draws = [
        (_generic(96, np.linspace(1.0, 2.0, 96), 3), 48, 2),  # L = n
        (_generic(200, np.repeat(np.linspace(1.0, 2.0, 4), 50), 4), 100, 4),  # 4 levels
    ]
    for (A, _, rng), k, choleskys in draws:
        m = rng.standard_normal((A.n, k))
        eig_sym(A)
        with linalg_calls(monkeypatch, "qr", "svd", "eigh", "cholesky", "solve", "inv") as calls:
            S = Subspace.span(m)
            short_at(A, S)
            short_schur(A, S)
            rho = spectral_short_closed(A, S)
            assert spectral_leq(rho.value, A).holds
        names = [call.name for call in calls]
        modes = [call.kwargs.get("mode", "reduced") for call in calls if call.name == "qr"]
        assert modes == ["complete", "r", "reduced"]
        assert [call.shape for call in calls if call.name == "qr"][-1] == (k, k)
        # dim S and its complement are both k = n / 2
        assert [call.shape for call in calls if call.name == "inv"] == [(k // 2, k // 2)] * 4
        assert (A.n, A.n) not in [call.shape for call in calls if call.name == "cholesky"]
        assert "svd" not in names and "eigh" not in names and "solve" not in names
        assert names.count("cholesky") == choleskys


@pytest.mark.parametrize("eps", [1e-12, 1e-11, 1e-9, 1e-7])
def test_line_routes_share_one_membership_test(eps):
    # a line eps off a half-line of A is inside it exactly when eps is at
    # most meet_tol, on every route
    A = SymMatrix(np.diag([1.0, 2.0]))
    xi = np.array([eps, 1.0]) / math.hypot(eps, 1.0)
    line = Subspace.span(xi)
    vector = spectral_short_vector(A, xi)
    assert vector == (2.0 if eps <= DEFAULT_TOL.meet_tol else 1.0)
    assert abs(spectral_short_min(A, line) - vector) <= 1e-12
    assert abs(spectral_short_closed(A, line).scalar() - vector) <= 1e-12
    # the complexity is the reciprocal of rho(span, pinv(A))
    tilted = [1.0, eps]
    rho_inv = spectral_short_closed(pseudo_inverse(A), Subspace.span(tilted)).scalar()
    assert abs(kolmogorov_closed(A, tilted).value - 1.0 / rho_inv) <= 1e-12
    # the range of a singular matrix is the half-line above its kernel, and
    # both shorted routes short to S ^ R(A)
    singular = SymMatrix(np.diag([1.0, 0.0]))
    off = np.array([1.0, eps]) / math.hypot(1.0, eps)
    off_line = Subspace.span(off)
    level = spectral_short_vector(singular, off)
    assert level == (1.0 if eps <= DEFAULT_TOL.meet_tol else 0.0)
    for value in (
        spectral_short_vector_power(singular, off).value,
        spectral_short_closed(singular, off_line).scalar(),
        short_at(singular, off_line).scalar(),
        short_schur(singular, off_line).scalar(),
    ):
        assert abs(value - level) <= 1e-12


def test_closed_is_orthogonally_and_basis_invariant():
    # rho(U A U^T, U S) = U rho(A, S) U^T, and every orthonormal basis of S
    # gives the same rho with the same level ranks
    kinds = ("well_separated", "clustered", "with_zeros", "projection")
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        A = gen_psd(SpectrumSpec(kinds[seed % len(kinds)], n), seed)
        S = gen_subspace(n, int(rng.integers(1, n + 1)), seed)
        rho = spectral_short_closed(A, S)
        bound = 1e-12 * max(1.0, A.spectral_norm())
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rotated = spectral_short_closed(SymMatrix(u @ A.entries @ u.T), Subspace(u @ S.basis))
        assert max_abs(rotated.value.entries - u @ rho.value.entries @ u.T) <= bound
        q, _ = np.linalg.qr(rng.standard_normal((S.dim, S.dim)))
        rebased = spectral_short_closed(A, Subspace(S.basis @ q))
        assert max_abs(rebased.value.entries - rho.value.entries) <= bound
        ranks = [rank for _, rank in rho.levels]
        assert [rank for _, rank in rotated.levels] == ranks
        assert [rank for _, rank in rebased.levels] == ranks
        # no output reads a column sign: flipping columns of S's basis and
        # of A's attached eigenvectors changes no bit of a closed route
        d = eig_sym(A)
        flipped_A = SymMatrix.from_eigens(d.eigenvalues, d.vectors * rng.choice([-1.0, 1.0], n))
        flipped_S = Subspace(S.basis * rng.choice([-1.0, 1.0], S.dim))
        for route in (spectral_short_closed, short_at, short_schur):
            got = route(flipped_A, flipped_S).value.entries
            assert got.tobytes() == route(A, S).value.entries.tobytes(), route
        xi = rng.standard_normal(n)
        assert spectral_short_vector(flipped_A, xi) == spectral_short_vector(A, xi)
        assert kolmogorov_closed(flipped_A, xi).value == kolmogorov_closed(A, xi).value
        iterative = spectral_short_iterative(flipped_A, flipped_S).value.entries
        assert max_abs(iterative - spectral_short_iterative(A, S).value.entries) <= 1e-14 * max(1.0, d.norm2)


def test_closed_range_inside_subspace():
    for seed in range(4):
        A = gen_psd(SpectrumSpec("with_zeros", 5), seed)
        S = gen_subspace(5, 2, seed)
        r = spectral_short_closed(A, S)
        outside = r.value.entries - S.projection() @ r.value.entries
        assert max_abs(outside) <= 1e-9


def test_every_operator_route_returns_one_result_type():
    A = gen_psd(SpectrumSpec("with_zeros", 6), 2)
    S = gen_subspace(6, 3, 2)
    assert shorted.ShortedResult is ShortedResult
    for route in (short_at, short_schur, spectral_short_closed, spectral_short_iterative):
        r = route(A, S)
        assert type(r) is ShortedResult and r.subspace is S, route
        # only the closed form reads A's levels, only the iterative route iterates
        assert bool(r.levels) == (route is spectral_short_closed), route
        assert (r.trace is not None) == (route is spectral_short_iterative), route


@pytest.mark.parametrize("n", [4, 12, 60, 200])
def test_rho_range_residual_is_rounding(n):
    # rho acts on S: both routes build it from S's own basis, so what lies
    # outside S is the rounding of one product
    for seed, kind in enumerate(("well_separated", "clustered", "with_zeros", "projection")):
        A = gen_psd(SpectrumSpec(kind, n), seed)
        bound = n * np.finfo(float).eps * max(1.0, eig_sym(A).norm2)
        for k in (1, n // 2, n - 1):
            S = gen_subspace(n, k, seed)
            for route in (spectral_short_closed, spectral_short_iterative):
                assert route(A, S).range_residual <= bound, (kind, k, route)


def test_iterative_projection_converges_immediately():
    A = SymMatrix(np.diag([1.0, 1.0, 0.0]))
    S = gen_subspace(3, 2, 3)
    r = spectral_short_iterative(A, S)
    assert r.trace.converged
    assert len(r.trace.iterates) <= 2
    closed = spectral_short_closed(A, S)
    assert max_abs(r.value.entries - closed.value.entries) <= 1e-10


def test_iterative_scaled_identity():
    c = 2.5
    S = gen_subspace(4, 2, 9)
    r = spectral_short_iterative(SymMatrix(c * np.eye(4)), S)
    assert r.trace.converged
    assert max_abs(r.value.entries - c * S.projection()) <= 1e-10


def test_iterative_trace_hand_values():
    # iterates for diag(1,2) against the tilted line are
    # ((1 + 2^{-m})/2)^{-1/m}: 4/3, sqrt(8/5), ... decreasing to 1
    A = SymMatrix(np.diag([1.0, 2.0]))
    S = Subspace.span([[1.0], [1.0]])
    r = spectral_short_iterative(A, S)
    scalars = [float((S.basis.T @ np.asarray(st.value) @ S.basis)[0, 0]) for st in r.trace.iterates]
    assert abs(scalars[0] - 4.0 / 3.0) < 1e-12
    assert abs(scalars[1] - math.sqrt(8.0 / 5.0)) < 1e-12
    expected = [((1.0 + 2.0 ** (-m)) / 2.0) ** (-1.0 / m) for m in (1, 2, 4, 8, 16)]
    np.testing.assert_allclose(scalars, expected, atol=1e-9)
    # strictly decreasing toward the limit 1, stopped at the precision wall
    assert all(b < a for a, b in zip(scalars, scalars[1:]))
    assert not r.trace.converged
    assert r.trace.stop_reason == "power_limit"


def test_iterative_trace_monotone_and_dominates_limit():
    for seed in range(5):
        n = 5
        A = gen_psd(SpectrumSpec("well_separated", n), seed)
        S = gen_subspace(n, 2, seed + 3)
        closed = spectral_short_closed(A, S)
        it = spectral_short_iterative(A, S)
        nrm = eig_sym(A).norm2
        vals = [np.asarray(st.value) for st in it.trace.iterates]
        for prev, nxt in zip(vals, vals[1:]):
            assert min_eig(prev - nxt) >= -1e-9 * max(1.0, nrm)
        for v in vals:
            assert min_eig(v - closed.value.entries) >= -1e-9 * max(1.0, nrm)


def test_iterative_zero_matrix_and_zero_subspace():
    for A, S in ((np.zeros((3, 3)), Subspace.full(3)), (np.eye(3), Subspace.zero(3))):
        z = spectral_short_iterative(SymMatrix(A), S)
        assert z.trace == ConvergenceTrace((), "exact")
        assert max_abs(z.value.entries) == 0.0


@pytest.mark.parametrize("spectrum", [[0.0, 0.0, 0.0], [0.0, 1.0, 2.0]], ids=["zero", "kernel"])
def test_limit_routes_report_an_exact_zero_off_the_range(spectrum):
    # xi = e_0 lies in the kernel of A, so S ^ R(A) = 0 for its line and
    # every limit route knows its value, 0, before any iterate
    A, xi = SymMatrix(np.diag(spectrum)), np.eye(3)[0]
    rho = spectral_short_iterative(A, Subspace.span(xi[:, None]))
    assert rho.trace == ConvergenceTrace((), "exact")
    assert max_abs(rho.value.entries) == 0.0
    for scalar in (kolmogorov_power(A, xi), spectral_short_vector_power(A, xi)):
        assert scalar.trace == ConvergenceTrace((), "exact")
        assert scalar.value == 0.0


def test_iterative_without_positive_level():
    # the positivity bound and the rank cut are both relative, so the only
    # matrix with no positive level that passes is the zero matrix (the test
    # above): diag(-1e-9, 0) is indefinite at its own scale, and rejected
    with pytest.raises(DomainError, match="not positive semidefinite"):
        spectral_short_iterative(SymMatrix(np.diag([-1e-9, 0.0])), Subspace.full(2))


def test_power_routes_reject_empty_iterations():
    A = SymMatrix(np.diag([1.0, 2.0]))
    with pytest.raises(DomainError, match="m_max"):
        spectral_short_vector_power(A, [1.0, 0.0], m_max=0)


def _dense_iterates(A, S, powers, tol=DEFAULT_TOL):
    # reference: each power shorted as a dense matrix in the standard
    # basis, sqrt(A^m) (I - P) sqrt(A^m) with P the projection onto the
    # image of S-perp under sqrt(A^m), then its rank-aware root
    d = eig_sym(A, tol)
    scale = d.norm2
    lam = d.values / scale
    rank = _range_meet(d, S, tol).dim
    iterates = []
    for m in powers:
        root_values = lam ** (m / 2.0)
        root = SymMatrix.from_eigens(root_values, d.vectors).entries
        u, s, _ = np.linalg.svd(root @ S.complement().basis, full_matrices=False)
        image = u[:, s > tol.rank_tol * root_values.max()]
        raw = root @ (np.eye(A.n) - image @ image.T) @ root
        w, v = np.linalg.eigh((raw + raw.T) / 2.0)
        vals = np.zeros_like(w)
        vals[w.size - rank :] = np.maximum(w[w.size - rank :], 0.0) ** (1.0 / m)
        iterates.append(scale * (v * vals) @ v.T)
    return iterates


def test_iterates_match_the_dense_construction():
    cases = [(SymMatrix(np.diag([-1e-12, 5e-9, 1.0])), Subspace(np.eye(3)[:, [0, 2]]))]
    kinds = ("well_separated", "clustered", "with_zeros", "projection")
    for seed in range(24):
        n = 2 + seed % 11
        A = gen_psd(SpectrumSpec(kinds[seed % 4], n), seed)
        cases.append((A, gen_subspace(n, 1 + seed % n, seed)))
    A, _, rng = _generic(60, np.linspace(1.0, 2.0, 60), 5)
    cases.append((A, Subspace.span(rng.standard_normal((60, 30)))))
    # S meets the kernel: S ^ R(A) is a proper part of S, or 0
    meets = set()
    for seed in range(6):
        A = gen_psd(SpectrumSpec("with_zeros", 8, zero_count=3), seed)
        for k in (2, 6, 7):
            S = gen_subspace(8, k, seed)
            t = _range_meet(eig_sym(A), S, DEFAULT_TOL).dim
            meets.add("zero" if t == 0 else "proper" if t < k else "all")
            cases.append((A, S))
    assert meets == {"zero", "proper"}
    for A, S in cases:
        trace = spectral_short_iterative(A, S).trace
        reference = _dense_iterates(A, S, [st.power for st in trace.iterates])
        for step, want in zip(trace.iterates, reference):
            assert max_abs(step.value - want) <= 1e-8 * max(1.0, A.spectral_norm())


def test_iterative_factors_have_one_column_per_meet_direction(monkeypatch):
    # every SVD and eigh the oracle takes acts on the coordinates of
    # S ^ R(A) alone: no n x n decomposition and no basis of S-perp
    n = 200
    A, _, rng = _generic(n, np.linspace(1.0, 2.0, n), 13)
    S = Subspace.span(rng.standard_normal((n, n // 2)))
    eig_sym(A)
    with linalg_calls(monkeypatch, "svd", "eigh") as calls:
        r = spectral_short_iterative(A, S)
    shapes = [call.shape for call in calls]
    assert len(shapes) == len(r.trace.iterates) > 1
    assert max(cols for _, cols in shapes) <= _range_meet(eig_sym(A), S, DEFAULT_TOL).dim == n // 2


def test_iterative_powers_level_values_not_members():
    # 1e-9 and 6e-9 cluster into one positive level of value 3.5e-9: the
    # iterates power that value, never a member.  Both subspaces meet that
    # level in one direction and e3 in one, so the first iterate already is
    # the limit.
    A = SymMatrix(np.diag([1e-9, 6e-9, 1.0]))
    for S in (Subspace(np.eye(3)[:, [0, 2]]), Subspace.span([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])):
        r = spectral_short_iterative(A, S)
        closed = spectral_short_closed(A, S)
        assert all(np.isfinite(st.value).all() for st in r.trace.iterates)
        assert closed.levels[-1] == (pytest.approx(3.5e-9, rel=1e-12, abs=0.0), 1)
        assert max_abs(r.value.entries - closed.value.entries) <= 1e-9 * closed.levels[-1][0]


def test_vector_value_examples():
    A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
    d = eig_sym(A)
    for j, lam in enumerate([1.0, 2.0, 3.0]):
        assert spectral_short_vector(A, d.vectors[:, j]) == lam
    assert spectral_short_vector(A, np.ones(3) / math.sqrt(3.0)) == 1.0
    assert spectral_short_vector(SymMatrix(np.diag([1.0, 0.0])), [0.0, 1.0]) == 0.0


def test_vector_value_matches_closed_scalar():
    rng = np.random.default_rng(2)
    for seed in range(5):
        A = gen_psd(SpectrumSpec("with_zeros", 5), seed)
        xi = rng.standard_normal(5)
        xi /= np.linalg.norm(xi)
        r = spectral_short_closed(A, Subspace.span(xi))
        assert abs(spectral_short_vector(A, xi) - r.scalar()) <= 1e-9


def test_vector_power_first_step_hand_value():
    A = SymMatrix(np.diag([1.0, 2.0]))
    xi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    result = spectral_short_vector_power(A, xi)
    trace = result.trace
    assert abs(float(trace.iterates[0].value) - 4.0 / 3.0) < 1e-12
    assert abs(float(trace.iterates[1].value) - math.sqrt(8.0 / 5.0)) < 1e-12
    assert trace.converged
    assert abs(result.value - 1.0) <= 1e-8
    # the root sequence is non-increasing
    ss = [float(st.value) for st in trace.iterates]
    assert all(b <= a + 1e-12 for a, b in zip(ss, ss[1:]))


def test_vector_power_eigenvector_constant():
    A = gen_psd(SpectrumSpec("well_separated", 4), 6)
    d = eig_sym(A)
    lam = float(d.level_values[2])
    result = spectral_short_vector_power(A, d.vectors[:, list(d.levels[2])[0]])
    assert abs(result.value - lam) <= 1e-9
    for st in result.trace.iterates:
        assert abs(float(st.value) - lam) <= 1e-9


def test_vector_power_stops_at_the_wall_once_the_pairing_is_rounding():
    # x lies on the level 2 and, by 1e-3, on the level 1, so rho is 1; the
    # powered pinv(B) carries the iterate off both toward its top level
    # 1 / 1e-3, seeded by rounding, which it would otherwise converge to
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    B = SymMatrix((q * [1e-3, 0.5, 1.0, 2.0]) @ q.T)
    x = q[:, 3] + 1e-3 * q[:, 2]
    x /= np.linalg.norm(x)
    assert spectral_short_vector(B, x) == pytest.approx(1.0, rel=1e-12)
    trace = spectral_short_vector_power(B, x).trace
    assert trace.stop_reason == "power_limit" and not trace.converged


def test_vector_power_off_range_is_exact_zero():
    A = SymMatrix(np.diag([1.0, 0.0]))
    result = spectral_short_vector_power(A, [0.0, 1.0])
    assert result.value == 0.0
    assert result.trace.stop_reason == "exact"
    assert result.trace.iterates == ()


def test_inverse_norm_identity_small_powers():
    # scalar shorted value of A^n equals <pinv(A)^n xi, xi>^{-1}, per n
    rng = np.random.default_rng(40)
    for seed in range(4):
        n = 4
        lam = rng.uniform(0.7, 1.4, size=n)
        g = rng.standard_normal((n, n))
        q, rr = np.linalg.qr(g)
        A = SymMatrix.from_eigens(lam, q * np.sign(np.diag(rr)))
        xi = rng.standard_normal(n)
        xi /= np.linalg.norm(xi)
        no_stop = replace(DEFAULT_TOL, conv_tol=0.0)
        trace = spectral_short_vector_power(A, xi, m_max=16, tol=no_stop).trace
        assert len(trace.iterates) == 16
        for st in trace.iterates:
            m = int(st.power)
            sigma = short_schur(matrix_power(A, float(m)), Subspace.span(xi)).scalar()
            assert abs(max(sigma, 0.0) ** (1.0 / m) - float(st.value)) <= 1e-9


def test_min_spectrum_examples():
    A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
    assert spectral_short_min(A, Subspace.span(np.eye(3)[:, 1:3])) == 2.0
    # subspace inside an eigenspace
    assert spectral_short_min(A, Subspace.span(np.eye(3)[:, 2:3])) == 3.0
    # invertible matrix: strictly positive on any subspace
    B = gen_psd(SpectrumSpec("well_separated", 5), 4)
    S = gen_subspace(5, 2, 4)
    assert spectral_short_min(B, S) > 0.0
    with pytest.raises(DomainError):
        spectral_short_min(A, Subspace.zero(3))


def test_min_spectrum_matches_compressed_minimum():
    for seed in range(6):
        n = 5
        A = gen_psd(SpectrumSpec(("well_separated", "with_zeros")[seed % 2], n), seed)
        S = gen_subspace(n, 2, seed + 31)
        grid = spectral_short_min(A, S)
        comp = spectral_short_closed(A, S).compressed()
        assert abs(grid - float(np.linalg.eigvalsh(comp).min())) <= 1e-8
        # bounded below by the smallest eigenvalue of A
        assert grid >= eig_sym(A).lambda_min - 1e-8


def test_monotone_calculus_cases():
    def gap(A, S, f):
        # f(rho(S, A)) against rho(S, f(A)), as harness theorem T8 reads it
        rho = spectral_short_closed(A, S).value
        lhs = matrix_function(rho, lambda x: max(f(x), 0.0))
        rhs = spectral_short_closed(matrix_function(A, f), S).value
        return float(np.abs(lhs.entries - rhs.entries).max())

    for seed in range(4):
        A = gen_psd(SpectrumSpec("well_separated", 5), seed)
        S = gen_subspace(5, 2, seed + 11)
        lam_max = eig_sym(A).lambda_max
        assert gap(A, S, lambda x: x * x) <= 1e-8 * max(1.0, lam_max**2)
        assert gap(A, S, lambda x: math.sqrt(max(x, 0.0))) <= 1e-8
        levels = eig_sym(A).level_values
        c = float((levels[-1] + levels[-2]) / 2.0)
        assert gap(A, S, lambda x: 1.0 if x >= c else 0.0) <= 1e-8
        assert gap(A, S, lambda x: 0.0) == 0.0


def test_power_identity_property():
    for seed in range(4):
        n = 5
        A = gen_psd(SpectrumSpec("well_separated", n), seed)
        S = gen_subspace(n, 2, seed + 3)
        assert IDENTITIES["T4"](A, S, DEFAULT_TOL) <= 1
        # and at t = 2.5, which the harness does not take
        lhs = spectral_short_closed(matrix_power(A, 2.5), S).value.entries
        rhs = matrix_power(spectral_short_closed(A, S).value, 2.5).entries
        assert max_abs(lhs - rhs) <= 1e-7 * max(1.0, eig_sym(A).norm2**2.5)


def test_composition_property():
    for seed in range(5):
        n = 6
        A = gen_psd(SpectrumSpec("clustered", n), seed)
        S = gen_subspace(n, 4, seed + 1)
        T = gen_subspace(n, 3, seed + 2)
        assert IDENTITIES["T5"](A, S, T, DEFAULT_TOL) <= 1


def test_max_characterization_membership():
    # the result itself satisfies the defining constraints: every power
    # bounded by the same power of A, and range inside S
    for seed in range(4):
        n = 5
        A = gen_psd(SpectrumSpec("well_separated", n), seed)
        S = gen_subspace(n, 3, seed + 8)
        rho = spectral_short_closed(A, S)
        nrm = eig_sym(A).norm2
        rm, am = np.eye(n), np.eye(n)
        for m in range(1, 7):
            rm = rm @ rho.value.entries
            am = am @ A.entries
            assert min_eig(am - rm) >= -1e-8 * max(1.0, nrm**m)
        assert spectral_leq(rho.value, A).holds
        # scaled-down copies stay below the maximum
        for theta in (0.25, 0.5, 0.9):
            assert min_eig(rho.value.entries - theta * rho.value.entries) >= -1e-12


def test_order_monotonicity_of_spectral_short():
    for seed in range(4):
        n = 5
        A, B = gen_psd(SpectrumSpec("commuting_pair", n), seed)
        big = gen_subspace(n, 3, seed)
        small = Subspace(big.basis[:, :2])
        ra = spectral_short_closed(A, small)
        rb = spectral_short_closed(B, big)
        assert spectral_leq(ra.value, rb.value).holds


def test_intersection_bounded_by_short_then_spectral_short():
    # one-sided comparison only; the two sides genuinely differ in general
    widest_gap = 0.0
    for seed in range(5):
        n = 5
        A = gen_psd(SpectrumSpec("well_separated", n), seed)
        S = gen_subspace(n, 3, seed + 41)
        T = gen_subspace(n, 3, seed + 42)
        lhs = spectral_short_closed(A, projection_meet(S, T)).value.entries
        rhs = spectral_short_closed(short_at(A, S).value, T).value.entries
        assert min_eig(rhs - lhs) >= -1e-8 * max(1.0, eig_sym(A).norm2)
        widest_gap = max(widest_gap, max_abs(rhs - lhs))
    print(f"largest observed one-sided gap: {widest_gap:.3e}")


def test_scalar_spectrum_is_level_set():
    # the scalar spectral short over unit vectors takes every level value,
    # each at one of its eigenvectors
    assert eig_sym(SymMatrix(np.diag([1.0, 2.0, 3.0]))).level_values.tolist() == [1.0, 2.0, 3.0]
    assert eig_sym(SymMatrix(2.0 * np.eye(3))).level_values.tolist() == [2.0]
    for seed in range(4):
        A = gen_psd(SpectrumSpec("clustered", 6), seed)
        d = eig_sym(A)
        cut = 1e-10 * d.norm2
        for group, rep in zip(d.levels, d.level_values):
            v = d.vectors[:, group[0]]
            expected = float(rep) if rep > cut else 0.0
            assert abs(spectral_short_vector(A, v) - expected) <= 1e-12
