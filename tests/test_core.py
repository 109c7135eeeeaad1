import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specshort import (
    DEFAULT_TOL,
    DimensionMismatchError,
    DomainError,
    Subspace,
    SymMatrix,
    Tolerances,
    eig_sym,
    matrix_function,
    matrix_power,
    projection_meet,
    pseudo_inverse,
    short_at,
    short_schur,
    spectral_projection,
    spectral_short_closed,
)

from specshort.core import _ORTH_TOL, _SYM_TOL, _finite_scale, _partition, _range_meet, _smallest_sv_above
from specshort.harness import SpectrumSpec, _KINDS, gen_psd, gen_subspace

from conftest import containment_residual, linalg_calls, max_abs, peak_alloc, same_subspace


# ---- SymMatrix ----


def test_symmetrization_and_readonly():
    A = SymMatrix([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
    assert A.entries[0, 1] == A.entries[1, 0]
    with pytest.raises(ValueError):
        A.entries[0, 0] = 5.0


def test_rejects_asymmetric():
    # the bound is relative at every scale, so neither a tiny asymmetric
    # matrix nor a tiny antisymmetric one passes
    for a in ([[1.0, 0.5], [0.4, 1.0]], 2.0**-30 * np.array([[1.0, 0.5], [0.0, 1.0]]),
              4.9e-9 * np.array([[0.0, 1.0], [-1.0, 0.0]])):
        with pytest.raises(DomainError, match="not symmetric"):
            SymMatrix(a)


def test_constructor_contract():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((7, 7))
    for scale in 10.0 ** np.arange(-12, 13, 3):
        a = scale * (g + g.T + 1e-12 * rng.standard_normal((7, 7)))
        before = a.copy()
        A = SymMatrix(a)
        # stored bit for bit as (a + a^T) / 2, from an input left as it was
        assert A.entries.tobytes() == ((a + a.T) / 2.0).tobytes(), scale
        assert a.tobytes() == before.tobytes() and a.flags.writeable
        assert not np.shares_memory(A.entries, a)
    sym = g + g.T
    assert not np.shares_memory(SymMatrix(sym).entries, sym)
    # finiteness is decided first, whatever the asymmetry
    for bad in ([[1.0, np.nan], [0.0, 1.0]], [[np.inf, 0.0], [5.0, 1.0]],
                [[1.0, -np.inf], [-np.inf, 1.0]], [[1.0, 3.0], [-np.inf, np.nan]]):
        with pytest.raises(DomainError, match="must be finite"):
            SymMatrix(bad)
    # the bound is _SYM_TOL * max|a| at every scale, and an asymmetry at it passes
    for top in (4.0, 0.5):
        bound = _SYM_TOL * top
        for asym in (np.nextafter(bound, 0.0), bound):
            SymMatrix([[top, asym], [0.0, 0.25]])
        with pytest.raises(DomainError, match="not symmetric"):
            SymMatrix([[top, np.nextafter(bound, 1.0)], [0.0, 0.25]])


def test_constructor_peak_allocation():
    # one difference array, reused for the stored entries, and no |a|
    # temporary before it: the peak stays below 1.5 arrays of doubles
    n = 200
    a = np.random.default_rng(12).standard_normal((n, n))
    a += a.T
    peak = peak_alloc(lambda: SymMatrix(a), n)
    assert peak < 1.5, peak


@pytest.mark.parametrize(
    "route, kernel, ceiling",
    # what each returns (rho's value and its attached eigenvectors; Sigma's
    # value) and less than one n x n temporary beyond it: rho's factor
    # F = V sqrt(w) over the positive values, or the n x n/2 products the
    # shorted routes read their value from.  With one kernel direction
    # S ^ R(A) is a new basis whose complement comes from a complete QR,
    # and short_schur's lift is one more n x n product: held at 3.95
    [(spectral_short_closed, 0, 2.75), (short_schur, 0, 2.75), (short_at, 0, 2.5), (short_schur, 1, 3.95)],
    ids=["spectral_short_closed", "short_schur", "short_at", "short_schur-kernel"],
)
def test_route_peak_allocation(route, kernel, ceiling):
    # 4 levels of 50 in a random basis, the lowest `kernel` eigenvalues set
    # to 0, and a generic S of dimension 100, with A's decomposition and
    # S's complement cached first, as an op that reads both routes has them
    n = 200
    rng = np.random.default_rng(29)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.repeat(np.linspace(1.0, 2.0, 4), n // 4)
    w[:kernel] = 0.0
    A = SymMatrix((q * w) @ q.T)
    S = Subspace.span(rng.standard_normal((n, n // 2)))
    eig_sym(A)
    S.complement()
    peak = peak_alloc(lambda: route(A, S), n)
    assert peak <= ceiling, peak


def test_rejects_non_square_and_non_finite():
    with pytest.raises(DomainError):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        SymMatrix([[np.nan, 0.0], [0.0, 1.0]])


def test_symmetric_takes_a_bit_symmetric_array_as_it_is():
    # for arrays the library builds symmetric to the bit: no copy and no
    # symmetrization, but a non-finite entry still raises, and past
    # _HALF_MAX, where the constructor's halving rounds a subnormal entry,
    # the constructor decides
    a = np.array([[2.0, 5e-324], [5e-324, 1.0]])
    A = SymMatrix._symmetric(a)
    assert A.entries is a and not a.flags.writeable
    assert A.entries.tobytes() == SymMatrix(a).entries.tobytes()
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="must be finite"):
            SymMatrix._symmetric(np.array([[bad, 0.0], [0.0, 1.0]]))
    huge = np.array([[1.5e308, 5e-324], [5e-324, 1.0]])
    assert SymMatrix(huge).entries[0, 1] == 0.0
    assert SymMatrix._symmetric(huge.copy()).entries.tobytes() == SymMatrix(huge).entries.tobytes()


def test_symmetrizes_near_the_largest_float_without_overflow():
    A = SymMatrix([[1.5e308, 0.0], [0.0, 1.0]])
    assert A.entries[0, 0] == 1.5e308
    assert np.isfinite(A.entries).all()


def test_rejects_asymmetry_near_the_largest_float_without_overflow():
    # a - a^T would overflow here; the suite turns its warning into an error
    with pytest.raises(DomainError, match="not symmetric"):
        SymMatrix([[0.0, 1e308], [-1e308, 0.0]])
    with pytest.raises(DomainError, match="not symmetric"):
        SymMatrix([[1.5e308, 1e308], [0.0, 1.0]])
    A = SymMatrix([[1.5e308, 1e300], [1e300 * (1 + 1e-12), 1.0]])
    assert A.entries[0, 1] == A.entries[1, 0]


def test_rejects_empty_matrix():
    with pytest.raises(DomainError, match="0 x 0"):
        SymMatrix(np.zeros((0, 0)))
    with pytest.raises(DomainError, match="0 x 0"):
        SymMatrix.from_eigens(np.zeros(0), np.zeros((0, 0)))


def test_from_eigens_needs_n_values_and_n_x_n_vectors():
    with pytest.raises(DomainError, match="n x n"):
        SymMatrix.from_eigens([1.0, 2.0], np.ones((3, 2)) / 3**0.5)
    with pytest.raises(DomainError, match="n x n"):
        SymMatrix.from_eigens([1.0, 2.0, 3.0], np.eye(2))


def test_from_eigens_needs_orthonormal_vectors():
    # V diag(1, 2) V^T has eigenvalues 0.44 and 4.56, not (1, 2)
    with pytest.raises(DomainError, match="orthonormal"):
        SymMatrix.from_eigens([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0]])


def test_assert_psd_names_eigenvalue():
    A = SymMatrix([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(DomainError, match="-5"):
        A.assert_psd()


def test_assert_psd_returns_the_decomposition_it_checked():
    # a second set of tolerances, so a second decomposition cache key
    tighter = Tolerances(cluster_tol=1e-10, rank_tol=1e-12, meet_tol=1e-10, conv_tol=1e-11)
    for tol in (DEFAULT_TOL, tighter):
        for seed, kind in enumerate(("well_separated", "with_zeros", "projection")):
            A = gen_psd(SpectrumSpec(kind, 6), seed)
            assert A.assert_psd(tol) is eig_sym(A, tol)
            fresh = SymMatrix(A.entries)  # no eigenpairs attached or cached
            assert fresh.assert_psd(tol) is eig_sym(fresh, tol)
        with pytest.raises(DomainError, match="not positive semidefinite"):
            SymMatrix(np.diag([1.0, -1e-3, 2.0])).assert_psd(tol)


def test_tolerances_must_be_nonnegative():
    with pytest.raises(DomainError):
        Tolerances(rank_tol=-1e-3)
    # a NaN sine cutoff would put every direction in every meet, and an
    # infinite clustering width would make every pair of matrices ordered
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            Tolerances(meet_tol=bad)
        with pytest.raises(DomainError, match="finite"):
            Tolerances(cluster_tol=bad)


# ---- eig_sym ----


def test_eig_diagonal_permutation():
    d = eig_sym(SymMatrix(np.diag([3.0, 1.0, 2.0])))
    np.testing.assert_allclose(d.eigenvalues, [1.0, 2.0, 3.0])
    # eigenvectors are signed coordinate vectors
    assert max_abs(np.abs(d.vectors) - np.eye(3)[:, [1, 2, 0]]) < 1e-14


def test_eig_identity_single_level():
    d = eig_sym(SymMatrix(np.eye(4)))
    np.testing.assert_allclose(d.eigenvalues, np.ones(4))
    assert len(d.levels) == 1
    assert d.levels[0] == (0, 1, 2, 3)


def test_eig_2x2_hand_values():
    # characteristic polynomial x^2 - 4x + 3 = (x - 1)(x - 3)
    A = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    d = eig_sym(A)
    np.testing.assert_allclose(d.eigenvalues, [1.0, 3.0], atol=1e-14)
    s = 1.0 / math.sqrt(2.0)
    # eig_sym keeps eigh's column signs, so each column is compared up to sign
    for col, expected in zip(d.vectors.T, ([s, -s], [s, s])):
        np.testing.assert_allclose(col * np.sign(col[0]), expected, atol=1e-14)
    # residual oracle: ||A v - lambda v||
    for j in range(2):
        r = A.entries @ d.vectors[:, j] - d.eigenvalues[j] * d.vectors[:, j]
        assert np.linalg.norm(r) < 1e-14


def test_eig_deterministic_and_cached():
    A = gen_psd(SpectrumSpec("clustered", 5), 3)
    d1 = eig_sym(A)
    d2 = eig_sym(A)
    assert d1 is d2
    # same dense input, fresh objects: bitwise-identical decompositions
    B1 = SymMatrix(np.array(A.entries))
    B2 = SymMatrix(np.array(A.entries))
    np.testing.assert_array_equal(eig_sym(B1).eigenvalues, eig_sym(B2).eigenvalues)
    np.testing.assert_array_equal(eig_sym(B1).vectors, eig_sym(B2).vectors)
    # tolerances that differ only in rank_tol: the kernel follows each
    # rank_tol, and the same tolerances return the cached decomposition
    C = SymMatrix.from_eigens([1e-9, 1e-6, 1.0], np.eye(3))
    for rank_tol, k in ((1e-10, 0), (1e-8, 1), (1e-5, 2), (1e-10, 0)):
        tol = Tolerances(rank_tol=rank_tol)
        d = eig_sym(C, tol)
        assert d is eig_sym(C, tol)
        assert d.blocks[0] == (0.0, slice(0, k))
        assert len(d.blocks) == 4 - k
        assert not d.values[:k].any() and d.values[k:].all()


def test_eig_reconstruction_random_psd():
    for seed in range(8):
        n = 2 + seed % 15
        A = gen_psd(SpectrumSpec("clustered" if seed % 2 else "well_separated", max(n, 2)), seed)
        d = eig_sym(A)
        nrm = d.norm2
        recon = (d.vectors * d.eigenvalues) @ d.vectors.T
        assert max_abs(recon - A.entries) <= 1e-10 * max(1.0, nrm)
        assert max_abs(d.vectors.T @ d.vectors - np.eye(A.n)) <= 1e-10


def test_clustering_exact_duplicates():
    d = eig_sym(SymMatrix(np.diag([1.0, 1.0, 2.0, 2.0, 2.0])))
    assert len(d.levels) == 2
    assert d.levels[0] == (0, 1) and d.levels[1] == (2, 3, 4)
    np.testing.assert_allclose(d.level_values, [1.0, 2.0])


def test_a_level_of_equal_members_is_valued_exactly():
    # np.mean of three 0.1s is 0.10000000000000002
    assert _partition([0.1, 0.1, 0.1, 1.0], 1.0, DEFAULT_TOL) == (0, [slice(0, 3), slice(3, 4)])
    d = eig_sym(SymMatrix.from_eigens([0.1, 0.1, 0.1, 1.0], np.eye(4)))
    assert d.level_values.tolist() == [0.1, 1.0]


def test_partition_folds_every_run_at_or_below_the_cut_into_the_kernel():
    # width 1e-3, cut 0.1: three runs start below the cut, the last of them
    # reaching past it, and all three are the kernel
    tol = Tolerances(cluster_tol=1e-3, rank_tol=0.1)
    values = [-1e-4, 0.002, 0.0995, 0.1004, 0.5, 1.0]
    assert _partition(values, 1.0, tol) == (4, [slice(4, 5), slice(5, 6)])
    d = eig_sym(SymMatrix.from_eigens(values, np.eye(6)), tol)
    assert d.blocks == ((0.0, slice(0, 4)), (0.5, slice(4, 5)), (1.0, slice(5, 6)))
    # a run whose first member is exactly at the cut is the kernel too
    assert _partition([0.002, 0.05, 0.5], 0.5, tol) == (2, [slice(2, 3)])


def test_partition_anchors_each_run_at_its_first_member():
    # a chain with steps of 0.6 widths: its third member lies 1.2 widths
    # from the first, so it starts a run of its own
    w = DEFAULT_TOL.cluster_tol
    assert _partition([1.0, 1.0 + 0.6 * w, 1.0 + 1.2 * w], 1.0, DEFAULT_TOL) == (0, [slice(0, 2), slice(2, 3)])


@pytest.mark.parametrize(
    "values, scale, expected",
    [
        ([1.0, 2.0], 2.0, (0, [slice(0, 1), slice(1, 2)])),
        ([0.0, 1e-12, 2e-12], 1.0, (3, [])),
        ([0.0, 0.0], 0.0, (2, [])),
    ],
    ids=["empty-kernel", "all-kernel", "zero-scale"],
)
def test_partition_kernel_extremes(values, scale, expected):
    assert _partition(values, scale, DEFAULT_TOL) == expected


def test_clustering_near_duplicates_merge():
    eps = 1e-12
    d = eig_sym(SymMatrix(np.diag([1.0, 1.0 + eps, 2.0])))
    assert len(d.levels) == 2
    # strictly increasing level representatives
    assert d.level_values[0] < d.level_values[1]


# ---- spectral_projection ----


def test_projection_examples_diag123():
    d = eig_sym(SymMatrix(np.diag([1.0, 2.0, 3.0])))
    p2 = spectral_projection(d, 2.0)
    assert same_subspace(p2, Subspace.span(np.eye(3)[:, 1:3]))
    assert spectral_projection(d, 0.0).dim == 3
    assert spectral_projection(d, 3.5).dim == 0


def test_projection_keeps_the_kernel_block_whole():
    # -9.96e-9 and 5e-11 are two levels, both at or below the rank cut, so
    # they fold into one kernel block that no threshold splits
    d = eig_sym(SymMatrix.from_eigens([-9.96e-9, 5e-11, 1.0], np.eye(3)))
    assert d.levels == ((0, 1), (2,))
    dims = [spectral_projection(d, lam).dim for lam in np.linspace(-3e-8, 3e-8, 121)]
    assert 2 not in dims and set(dims) == {3, 1}
    assert spectral_projection(d, 5e-9).dim == 3
    assert spectral_projection(d, 1.5e-8).dim == 1


def test_projection_at_a_level_takes_that_level_and_above():
    # levels 0.2, 0.5 + 0.45e-8 (a run of two), 0.5 + 1.05e-8 and 1: the two
    # middle levels are 0.6e-8 apart, inside the cluster width 1e-8, yet A's
    # partition holds them apart, so at 0.5 + 1.05e-8 it gives dimension 2
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 5)))
    d = eig_sym(SymMatrix((q * [0.2, 0.5, 0.5 + 0.9e-8, 0.5 + 1.05e-8, 1.0]) @ q.T))
    assert d.levels == ((0,), (1, 2), (3,), (4,))
    assert [spectral_projection(d, mu).dim for mu, _ in d.blocks[1:]] == [5, 4, 2, 1]


def test_projection_reads_infinite_thresholds_and_rejects_nan():
    d = eig_sym(SymMatrix(np.diag([0.0, 1.0, 2.0])))
    assert spectral_projection(d, math.inf).dim == 0
    assert spectral_projection(d, -math.inf).dim == 3
    with pytest.raises(DomainError, match="^threshold must not be NaN, got nan$"):
        spectral_projection(d, math.nan)


def test_projection_monotone_in_threshold():
    for seed in range(6):
        A = gen_psd(SpectrumSpec("clustered", 7), seed)
        d = eig_sym(A)
        grid = sorted(set([0.0, *map(float, d.level_values), d.lambda_max + 1.0]))
        prev_dim = 8
        for lam in grid:
            q = spectral_projection(d, lam)
            bigger = spectral_projection(d, lam - 0.05)
            assert q.dim <= prev_dim or q.dim == prev_dim
            # containment of index sets shows up as exact subspace containment
            assert containment_residual(q, bigger) <= 1e-10
            prev_dim = q.dim


# ---- matrix_function / matrix_power / pseudo_inverse ----


def test_matrix_function_identity_reconstructs():
    A = gen_psd(SpectrumSpec("well_separated", 5), 11)
    B = matrix_function(A, lambda x: x)
    assert max_abs(B.entries - A.entries) <= 1e-10 * max(1.0, eig_sym(A).norm2)


def test_matrix_function_diagonal_sqrt_and_step():
    assert max_abs(matrix_function(SymMatrix(np.diag([1.0, 4.0])), math.sqrt).entries - np.diag([1.0, 2.0])) < 1e-14
    step = matrix_function(SymMatrix(np.diag([1.0, 2.0, 3.0])), lambda x: 1.0 if x >= 2 else 0.0)
    assert max_abs(step.entries - np.diag([0.0, 1.0, 1.0])) < 1e-14


def test_matrix_function_constant_per_level():
    A = SymMatrix(np.diag([2.0, 2.0 + 1e-12, 5.0]))
    calls = []

    def f(x):
        calls.append(x)
        return x * x

    matrix_function(A, f)
    assert len(calls) == 2  # one evaluation per level, not per eigenvalue


def test_matrix_function_domain_error():
    A = SymMatrix(np.diag([1.0, 0.0]))
    with pytest.raises(DomainError, match="not finite|undefined"):
        matrix_function(A, lambda x: math.log(x))


def test_matrix_function_rejects_indefinite_input():
    # the kernel block would fold the level -1 into f(0)
    with pytest.raises(DomainError, match="not positive semidefinite"):
        matrix_function(SymMatrix(np.diag([-1.0, 1.0])), abs)


def test_matrix_power_examples():
    assert max_abs(matrix_power(SymMatrix(np.diag([4.0, 9.0])), 0.5).entries - np.diag([2.0, 3.0])) < 1e-14
    assert max_abs(matrix_power(SymMatrix(np.eye(3)), 2.7).entries - np.eye(3)) < 1e-14
    A = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(matrix_power(A, 2.0).entries, A.entries @ A.entries, atol=1e-13)


def test_matrix_power_rejects_nonpositive_exponent():
    A = SymMatrix(np.eye(2))
    for t in (0.0, -1.0):
        with pytest.raises(DomainError):
            matrix_power(A, t)


def test_matrix_power_zeroes_null_levels():
    A = SymMatrix(np.diag([2.0, 0.0]))
    half = matrix_power(A, 0.5)
    assert max_abs(half.entries - np.diag([math.sqrt(2.0), 0.0])) < 1e-14


def test_pseudo_inverse_examples():
    assert max_abs(pseudo_inverse(SymMatrix(np.diag([2.0, 0.0]))).entries - np.diag([0.5, 0.0])) < 1e-14
    assert max_abs(pseudo_inverse(SymMatrix(np.eye(3))).entries - np.eye(3)) < 1e-14
    P = gen_psd(SpectrumSpec("projection", 5), 2)
    assert max_abs(pseudo_inverse(P).entries - P.entries) < 1e-12


def test_pseudo_inverse_moore_penrose_identities():
    for seed in range(8):
        A = gen_psd(SpectrumSpec("with_zeros", 6, zero_count=2), seed)
        a = A.entries
        p = pseudo_inverse(A).entries
        for lhs, rhs in [
            (a @ p @ a, a),
            (p @ a @ p, p),
            ((a @ p).T, a @ p),
            ((p @ a).T, p @ a),
        ]:
            assert max_abs(lhs - rhs) <= 1e-9


# ---- projection_meet ----


def test_meet_coordinate_subspaces():
    P = Subspace.span(np.eye(3)[:, :2])
    Q = Subspace.span(np.eye(3)[:, 1:3])
    assert same_subspace(projection_meet(P, Q), Subspace.span(np.eye(3)[:, 1:2]))


def test_meet_idempotent():
    P = gen_subspace(5, 3, 9)
    assert same_subspace(projection_meet(P, P), P)


def test_meet_transversal_lines_is_zero():
    P = Subspace.span([[1.0], [0.0]])
    Q = Subspace.span([[1.0], [1.0]])
    # oracle: the eigenvalues of the projector sum are 1 +- 1/sqrt(2) < 2
    w = np.linalg.eigvalsh(P.projection() + Q.projection())
    assert w.max() < 2.0 - 0.29
    assert projection_meet(P, Q).dim == 0


def test_meet_is_lattice_meet_on_constructed_triples():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = 7
        core = gen_subspace(n, 2, int(rng.integers(1 << 30)))
        extra1 = rng.standard_normal((n, 2))
        extra2 = rng.standard_normal((n, 2))
        P = Subspace.span(np.column_stack([core.basis, extra1]))
        Q = Subspace.span(np.column_stack([core.basis, extra2]))
        meet = projection_meet(P, Q)
        assert containment_residual(meet, P) <= 1e-8
        assert containment_residual(meet, Q) <= 1e-8
        # any subspace inside both is inside the meet
        R = Subspace(core.basis[:, :1])
        assert containment_residual(R, meet) <= 1e-8


def test_range_meet_is_meet_with_positive_blocks():
    # the shorted routes share this decision, so it is checked here on its
    # own: S ^ R(A) is the meet of S with the span of A's positive blocks
    for seed in range(20):
        n = 3 + seed % 8
        A = gen_psd(SpectrumSpec("with_zeros", n), seed)
        S = gen_subspace(n, 1 + seed % (n - 1), seed + 1)
        d = eig_sym(A)
        positive = Subspace(d.vectors[:, d.blocks[0][1].stop :])
        got = _range_meet(d, S, DEFAULT_TOL)
        assert same_subspace(got, projection_meet(S, positive))


def test_meet_and_containment_agree_on_a_small_angle():
    # both decide on the principal-angle sine, so a line 1e-4 rad off
    # span(e1) is neither inside it nor part of a meet with it
    t = 1e-4
    line = Subspace.span([[math.cos(t)], [math.sin(t)], [0.0]])
    e1 = Subspace.span([[1.0], [0.0], [0.0]])
    assert abs(containment_residual(line, e1) - math.sin(t)) <= 1e-12
    assert projection_meet(line, e1).dim == 0
    assert projection_meet(e1, line).dim == 0


def _attach_inputs(monkeypatch, build):
    """(made, w, v): build()'s result, which attaches one matrix, and the
    arrays it handed to _attach (which reorders neither in place)."""
    given = []
    attach = SymMatrix._attach.__func__

    def recording(cls, w, v, tol=None):
        given.append((w, v))
        return attach(cls, w, v, tol)

    with monkeypatch.context() as m:
        m.setattr(SymMatrix, "_attach", classmethod(recording))
        made = build()
    assert len(given) == 1
    return made, *given[0]


def _attached_matches_its_product(monkeypatch, build):
    """Run build(), which attaches one matrix, and check it: its entries
    match V diag(w) V^T over all n columns within n eps ||w||_inf, and its
    attached eigenpairs are all n of them, sorted, with the signs they were
    given.  Returns the eigenvalues handed to attach, in their given order."""
    made, w, v = _attach_inputs(monkeypatch, build)
    n = made.n
    order = np.argsort(w, kind="stable")
    w_sorted, v_sorted = w[order], v[:, order]
    assert made._eigens[0].tobytes() == w_sorted.tobytes()
    assert made._eigens[1].tobytes() == v_sorted.tobytes()
    full = (v_sorted * w_sorted) @ v_sorted.T
    bound = n * np.finfo(float).eps * float(np.abs(w).max(initial=0.0))
    assert max_abs(made.entries - full) <= bound
    return w


def test_attach_skips_zero_eigenvalues_in_its_product(monkeypatch):
    rng = np.random.default_rng(21)
    n = 8
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = SymMatrix((q * [0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0]) @ q.T)
    # S holds a kernel direction, so rho's kernel-block directions (value
    # 0) come first, S's complement follows, and its positive ones last
    S = Subspace.span(np.column_stack([q[:, 0], q[:, 2] + q[:, 5], q[:, 3] - q[:, 6]]))
    w = _attached_matches_its_product(monkeypatch, lambda: spectral_short_closed(A, S).value)
    assert w[0] == 0.0 and min(w[-2:]) > 0.0 and np.count_nonzero(w == 0.0) == n - 2
    # a level mapped to 0, and every level mapped to 0
    w = _attached_matches_its_product(
        monkeypatch, lambda: matrix_function(A, lambda mu: 0.0 if mu < 2.5 else mu)
    )
    assert np.count_nonzero(w == 0.0) == 5
    zero = _attached_matches_its_product(monkeypatch, lambda: matrix_function(A, lambda mu: 0.0))
    assert not np.any(zero)
    assert not np.any(matrix_function(A, lambda mu: 0.0).entries)
    # the pseudo-inverse of a singular matrix zeroes its kernel
    w = _attached_matches_its_product(monkeypatch, lambda: pseudo_inverse(A))
    assert np.count_nonzero(w == 0.0) == 2
    # zeros between negative and positive values, -0.0 among them
    given = [2.0, -0.0, -1.5, 0.0, 3.0, -0.5, 0.0, 1.0]
    _attached_matches_its_product(monkeypatch, lambda: SymMatrix.from_eigens(given, q))


def _sort_and_gather(w, v):
    """(entries, w, v) by _attach's full path: a stable sort and a gather of
    every pair, then F+ F+^T - F- F-^T over masks of the positive and the
    negative values, F+- = V sqrt(|w|)."""
    order = np.argsort(w, kind="stable")
    w, v = w[order], v[:, order]
    fp = v[:, w > 0] * np.sqrt(w[w > 0])
    fn = v[:, w < 0] * np.sqrt(-w[w < 0])
    return fp @ fp.T - fn @ fn.T, w, v


def test_attach_stores_sorted_pairs_as_given_to_the_bit(monkeypatch):
    rng = np.random.default_rng(22)
    n = 12
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = SymMatrix((q * np.repeat([0.0, 1.0, 2.0, 3.0], 3)) @ q.T)
    S = Subspace.span(np.column_stack([q[:, 0], rng.standard_normal((n, 4))]))
    negatives = [-2.0, -1.0, -1.0, -0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 4.0]
    builds = {  # (build, whether _attach is handed nondecreasing values)
        "closed form": (lambda: spectral_short_closed(A, S).value, True),
        "power": (lambda: matrix_power(A, 0.5), True),
        "pseudo-inverse": (lambda: pseudo_inverse(A), False),
        "zeros inside the nonzero run": (lambda: matrix_function(A, lambda mu: 0.0 if 1.5 < mu < 2.5 else mu), False),
        "negatives": (lambda: SymMatrix.from_eigens(negatives, q), True),
        "negatives unsorted": (lambda: SymMatrix.from_eigens(negatives[::-1], q), True),
    }
    for name, (build, ascending) in builds.items():
        made, w, v = _attach_inputs(monkeypatch, build)
        entries, w_sorted, v_sorted = _sort_and_gather(w, v)
        assert made.entries.tobytes() == entries.tobytes(), name
        assert made._eigens[0].tobytes() == w_sorted.tobytes(), name
        assert made._eigens[1].tobytes() == v_sorted.tobytes(), name
        # nondecreasing pairs are stored with no copy
        assert (made._eigens[0] is w and made._eigens[1] is v) == ascending, name


def test_from_eigens_keeps_the_callers_arrays_apart():
    rng = np.random.default_rng(23)
    n = 6
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.array([0.0, 0.5, 1.0, 1.0, 2.0, 3.0])  # sorted: _attach stores what it gets
    M = SymMatrix.from_eigens(w, q)
    assert q.flags.writeable and w.flags.writeable
    assert not any(np.shares_memory(x, y) for x in (w, q) for y in M._eigens)
    entries = M.entries.tobytes()
    pairs = [x.tobytes() for x in M._eigens]
    q[:] = np.eye(n)
    w[:] = 7.0
    assert M.entries.tobytes() == entries
    # a decomposition built now, under other tolerances, reads the stored pairs
    d = eig_sym(M, Tolerances(cluster_tol=1e-6))
    assert [d.eigenvalues.tobytes(), d.vectors.tobytes()] == pairs


def test_finite_scale_is_the_largest_magnitude_to_the_bit():
    tiny = np.finfo(float).smallest_subnormal
    cases = {
        "all negative": [[-3.0, -1.0], [-2.0, -0.5]],
        "largest magnitude negative": [[1.0, -4.0], [2.0, 3.0]],
        "-0.0 only": [[-0.0, -0.0], [-0.0, -0.0]],
        "signed zeros": [[0.0, -0.0], [-0.0, 0.0]],
        "subnormals": [[tiny, -3 * tiny], [2 * tiny, -0.0]],
        "one negative subnormal": [[-tiny]],
    }
    for name, a in cases.items():
        a = np.array(a)
        assert np.float64(_finite_scale(a)).tobytes() == np.abs(a).max().tobytes(), name
    # a non-finite entry anywhere is refused, by the constructor and by
    # the unchecked path alike
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(9):
            a = np.eye(3)
            a.flat[i] = bad
            for make in (SymMatrix, SymMatrix._symmetric):
                with pytest.raises(DomainError, match="matrix entries must be finite"):
                    make(a.copy())


def test_inputs_stay_unchanged():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((6, 6))
    a += a.T
    m = rng.standard_normal((6, 3))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    q *= -np.sign(q[0])  # every column's lead negative: a sign flip in place would show
    w = np.array([3.0, 1.0, 2.0, 0.5, 4.0, 1.5])
    inputs = (a, m, q, w)
    before = [x.copy() for x in inputs]
    A = SymMatrix(a)
    d = eig_sym(A)
    S = Subspace.span(m)
    S.complement()
    B = Subspace(q[:, :4])
    M = SymMatrix.from_eigens(w, q)
    for x, y in zip(inputs, before):
        assert x.tobytes() == y.tobytes() and x.flags.writeable
    outputs = (A.entries, d.vectors, S.basis, S.complement().basis, B.basis, M.entries, *M._eigens)
    assert not any(np.shares_memory(x, y) for x in inputs for y in outputs)


def test_meet_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        projection_meet(Subspace.full(2), Subspace.full(3))


# ---- Subspace ----


def test_subspace_span_filters_rank():
    vecs = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])  # rank 1
    s = Subspace.span(vecs)
    assert s.dim == 1


def _svd_span(m, tol=DEFAULT_TOL):
    """Reference span: the left singular vectors of m above rank_tol times
    its largest singular value."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, s > tol.rank_tol * s[0]] if s.size else u


def test_full_rank_span_fills_its_complement_from_its_qr(monkeypatch):
    rng = np.random.default_rng(5)
    for n, c in ((1, 1), (6, 1), (6, 3), (6, 6), (40, 17)):
        m = rng.standard_normal((n, c))
        S = Subspace.span(m)
        assert S._complement is not None
        with linalg_calls(monkeypatch, "qr") as calls:
            C = S.complement()
        assert not calls
        assert (S.dim, C.dim) == (c, n - c)
        assert max_abs(S.basis.T @ S.basis - np.eye(c)) <= 1e-14
        assert max_abs(C.basis.T @ C.basis - np.eye(n - c)) <= 1e-14
        assert max_abs(S.basis.T @ C.basis) <= 1e-14
        ref = _svd_span(m)
        assert max_abs(S.projection() - ref @ ref.T) <= 1e-14


def test_rank_deficient_span_matches_the_svd_reference():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((8, 3))
    cases = {
        "repeated column": np.column_stack([m, m[:, 1]]),
        "column at 1e-12 relative scale": np.column_stack([m, 1e-12 * rng.standard_normal(8)]),
        "more vectors than n": rng.standard_normal((8, 11)),
        "more vectors than n, rank 3": m @ rng.standard_normal((3, 11)),
        "all zeros": np.zeros((8, 4)),
    }
    for name, vecs in cases.items():
        S = Subspace.span(vecs)
        ref = _svd_span(vecs)
        assert S.dim == ref.shape[1], name
        assert max_abs(S.projection() - ref @ ref.T) <= 1e-14, name
        C = S.complement()
        assert C.dim == 8 - S.dim and max_abs(S.basis.T @ C.basis) <= 1e-14, name


def test_span_certifies_full_rank_or_takes_the_svd(monkeypatch):
    rng = np.random.default_rng(7)
    # a generic draw at any scale: the Cholesky certificate settles full
    # rank, with no SVD
    for scale in (1e-12, 1.0, 1e12):
        with linalg_calls(monkeypatch, "svd", "cholesky") as calls:
            S = Subspace.span(scale * rng.standard_normal((40, 17)))
        assert [call.name for call in calls] == ["cholesky"] and S.dim == 17
    u, _ = np.linalg.qr(rng.standard_normal((40, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    # condition number 1e9: full rank, which the certificate cannot clear,
    # so R's values-only SVD decides and the QR's complement is kept
    m = (u * np.r_[np.ones(5), 1e-9]) @ v.T
    with linalg_calls(monkeypatch, "svd") as calls:
        S = Subspace.span(m)
    assert [call.kwargs.get("compute_uv") for call in calls] == [False]
    assert S.dim == 6 and S._complement is not None
    # rank_tol = 1e-3 at condition number 1e4 drops the small direction
    tol = Tolerances(rank_tol=1e-3)
    m = (u * np.r_[np.ones(5), 1e-4]) @ v.T
    S = Subspace.span(m, tol)
    ref = _svd_span(m, tol)
    assert S.dim == ref.shape[1] == 5
    assert max_abs(S.projection() - ref @ ref.T) <= 1e-14


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
@pytest.mark.parametrize("t", [1e-8, -3.0])
def test_smallest_sine_of_one_entry_is_decided_exactly(relative, t):
    # one entry is its own smallest and largest singular value: the rule is
    # |t| > floor, or |t| > floor |t| relative, exact at one ulp either side
    # of the boundary floor, |t| or 1
    boundary = 1.0 if relative else abs(t)
    for floor, above in ((1 - 2**-52, True), (1.0, False), (1 + 2**-52, False)):
        assert _smallest_sv_above(np.array([[t]]), boundary * floor, relative) is above


def _kind_draws(n):
    """(A, spanning set) over every gen_psd kind at dimension n, each A with
    a full-rank set, a rank-deficient one and one of n + 2 vectors."""
    rng = np.random.default_rng(n)
    k = 1 + n // 3
    for kind in _KINDS:
        drawn = gen_psd(SpectrumSpec(kind, n), n)
        for A in drawn if kind == "commuting_pair" else (drawn,):
            full = rng.standard_normal((n, k))
            for m in (full, full[:, [0, *range(k)]], rng.standard_normal((n, n + 2))):
                yield A, m


@pytest.mark.parametrize("n", [*range(2, 13), 200])
def test_library_built_values_pass_the_skipped_checks(monkeypatch, n):
    # Subspace._of takes the library's bases, and SymMatrix._symmetric the
    # shorted values, without the constructors' checks: each basis is
    # orthonormal within _ORTH_TOL and read-only, and each value is
    # symmetric to the bit, so the constructor would store it unchanged
    built = []
    of = Subspace._of.__func__

    def recording(cls, basis):
        built.append(basis)
        return of(cls, basis)

    monkeypatch.setattr(Subspace, "_of", classmethod(recording))
    spans = 0
    for A, m in _kind_draws(n):
        d = eig_sym(A)
        S = Subspace.span(m)
        spans += S._complement is None  # the rank-deficient and wide sets
        levels = d.level_values
        for lam in (0.0, *levels[:: max(1, len(levels) // 4)], 2 * d.norm2 + 1.0):
            P = spectral_projection(d, lam)
            projection_meet(S, P)
            projection_meet(P, S.complement())
        _range_meet(d, S, DEFAULT_TOL)
        spectral_short_closed(A, S)
        for route in (short_at, short_schur):
            value = route(A, S).value.entries
            bits = value.view(np.int64)
            assert np.array_equal(bits, bits.T)
            assert SymMatrix(value).entries.tobytes() == value.tobytes()
    assert spans == 2 * (len(_KINDS) + 1)
    for b in built:
        assert not b.flags.writeable
        assert max_abs(b.T @ b - np.eye(b.shape[1])) <= _ORTH_TOL


def test_complement_holds_only_its_own_columns():
    # a complement taken from a complete QR stores a copy of Q's last
    # columns, so Q is freed: a 100-dimensional complement at n = 200 holds
    # 0.5 n^2 doubles, where a view of Q held all of its 1.0 n^2
    n = 200
    q, _ = np.linalg.qr(np.random.default_rng(30).standard_normal((n, n // 2)))
    S = Subspace(q)
    tracemalloc.start()
    try:
        S.complement()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert S.complement().dim == n // 2
    assert held / (8 * n * n) <= 0.55, held / (8 * n * n)


def test_subspace_complement_roundtrip():
    s = gen_subspace(6, 2, 4)
    c = s.complement()
    assert c.dim == 4
    assert max_abs(s.basis.T @ c.basis) <= 1e-12
    assert same_subspace(c.complement(), s)


def test_subspace_rejects_bad_inputs():
    with pytest.raises(DomainError):
        Subspace(np.ones((2, 3)))  # more columns than rows
    with pytest.raises(DomainError):
        Subspace(np.array([[1.0], [1.0]]))  # not orthonormal
    with pytest.raises(DomainError):
        gen_subspace(3, 5, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Subspace.span([[np.inf], [1.0]]),
        lambda: Subspace.span([[np.nan], [1.0]]),
        lambda: Subspace([[np.nan], [0.0]]),  # its residual is NaN
    ],
    ids=["span inf", "span nan", "basis nan"],
)
def test_non_finite_subspaces_raise(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Subspace(np.ones(3)), DomainError, "basis must be a 2-d array, got shape (3,)"),
        (
            lambda: Subspace.span(np.ones((2, 2, 1))),
            DomainError,
            "spanning vectors must be a 1-d or 2-d array, got shape (2, 2, 1)",
        ),
        (
            lambda: projection_meet(Subspace.full(2), Subspace.full(3)),
            DimensionMismatchError,
            "ambient dimensions differ: 2 vs 3",
        ),
        (
            lambda: short_at(SymMatrix(np.eye(2)), Subspace.full(3)),
            DimensionMismatchError,
            "ambient dimensions differ: 2 vs 3",
        ),
        (
            lambda: matrix_function(SymMatrix(np.eye(2)), lambda mu: math.inf),
            DomainError,
            "function not finite at eigenvalue 1.0",
        ),
    ],
    ids=[
        "1-d basis",
        "3-d span",
        "meet across dimensions",
        "pair across dimensions",
        "inf image",
    ],
)
def test_each_input_check_names_its_fault(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda: Subspace.span(np.zeros((3, 0))),
        lambda: projection_meet(Subspace.full(3), Subspace.zero(3)),
        lambda: projection_meet(Subspace.zero(3), Subspace.full(3)),
        lambda: Subspace.full(3).complement(),
    ],
    ids=["span of no vectors", "meet with zero", "meet of zero", "complement of full"],
)
def test_empty_operands_give_the_zero_subspace(build):
    S = build()
    assert (S.n, S.dim) == (3, 0)


def test_the_complement_of_the_zero_subspace_is_exactly_the_identity():
    # the complete QR of a 3 x 0 basis returns Q = I to the bit
    np.testing.assert_array_equal(Subspace.zero(3).complement().basis, np.eye(3))


# ---- hypothesis properties ----


finite_entries = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@given(st.lists(st.lists(finite_entries, min_size=3, max_size=3), min_size=3, max_size=3))
def test_gram_matrices_are_psd_and_symmetric(rows):
    g = np.array(rows)
    A = SymMatrix(g @ g.T)
    A.assert_psd()
    d = eig_sym(A)
    assert d.lambda_min >= -1e-9 * max(1.0, d.norm2)


@given(
    st.lists(st.lists(finite_entries, min_size=3, max_size=3), min_size=3, max_size=3),
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=4.0),
)
def test_projection_monotone_property(rows, a, b):
    g = np.array(rows)
    d = eig_sym(SymMatrix(g @ g.T))
    lo, hi = min(a, b), max(a, b)
    q_hi = spectral_projection(d, hi)
    q_lo = spectral_projection(d, lo)
    assert containment_residual(q_hi, q_lo) <= 1e-9
