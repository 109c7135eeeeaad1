import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specshort import (
    DEFAULT_TOL,
    DimensionMismatchError,
    DomainError,
    SpectrumSpec,
    Subspace,
    SymMatrix,
    Tolerances,
    eig_sym,
    gen_psd,
    gen_subspace,
    image_subspace,
    matrix_function,
    matrix_power,
    projection_meet,
    pseudo_inverse,
    spectral_projection,
)

from specshort.core import _fix_signs, _range_meet

from conftest import max_abs, same_subspace


# ---- SymMatrix ----


def test_symmetrization_and_readonly():
    A = SymMatrix([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
    assert A.entries[0, 1] == A.entries[1, 0]
    with pytest.raises(ValueError):
        A.entries[0, 0] = 5.0


def test_rejects_asymmetric():
    with pytest.raises(DomainError, match="not symmetric"):
        SymMatrix([[1.0, 0.5], [0.4, 1.0]])


def test_rejects_non_square_and_non_finite():
    with pytest.raises(DomainError):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        SymMatrix([[np.nan, 0.0], [0.0, 1.0]])


def test_rejects_empty_matrix():
    with pytest.raises(DomainError, match="0 x 0"):
        SymMatrix(np.zeros((0, 0)))
    with pytest.raises(DomainError, match="0 x 0"):
        SymMatrix.from_eigens(np.zeros(0), np.zeros((0, 0)))


def test_assert_psd_names_eigenvalue():
    A = SymMatrix([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(DomainError, match="-5"):
        A.assert_psd()


def test_tolerances_must_be_nonnegative():
    with pytest.raises(DomainError):
        Tolerances(rank_tol=-1e-3)


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
    np.testing.assert_allclose(d.vectors[:, 0], [s, -s], atol=1e-14)
    np.testing.assert_allclose(d.vectors[:, 1], [s, s], atol=1e-14)
    # residual oracle: ||A v - lambda v||
    for j in range(2):
        r = A.entries @ d.vectors[:, j] - d.eigenvalues[j] * d.vectors[:, j]
        assert np.linalg.norm(r) < 1e-14


def test_eig_sign_convention_first_nonzero_positive():
    for seed in range(5):
        A = gen_psd(SpectrumSpec("well_separated", 6), seed)
        d = eig_sym(A)
        for j in range(6):
            col = d.vectors[:, j]
            lead = np.argmax(np.abs(col) > 1e-8 * np.abs(col).max())
            assert col[lead] > 0


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
            assert q.containment_residual(bigger) <= 1e-10
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
        assert meet.containment_residual(P) <= 1e-8
        assert meet.containment_residual(Q) <= 1e-8
        # any subspace inside both is inside the meet
        R = Subspace(core.basis[:, :1])
        assert R.containment_residual(meet) <= 1e-8


def test_range_meet_is_meet_with_positive_blocks():
    # the shorted routes share this decision, so it is checked here on its
    # own: S ^ R(A) is the meet of S with the span of A's positive blocks
    for seed in range(20):
        n = 3 + seed % 8
        A = gen_psd(SpectrumSpec("with_zeros", n), seed)
        S = gen_subspace(n, 1 + seed % (n - 1), seed + 1)
        d = eig_sym(A)
        positive = Subspace(d.vectors[:, d.blocks()[0][1].stop :])
        got = Subspace(_range_meet(d, S, DEFAULT_TOL))
        assert same_subspace(got, projection_meet(S, positive))


def test_meet_and_containment_agree_on_a_small_angle():
    # both decide on the principal-angle sine, so a line 1e-4 rad off
    # span(e1) is neither inside it nor part of a meet with it
    t = 1e-4
    line = Subspace.span([[math.cos(t)], [math.sin(t)], [0.0]])
    e1 = Subspace.span([[1.0], [0.0], [0.0]])
    assert abs(line.containment_residual(e1) - math.sin(t)) <= 1e-12
    assert projection_meet(line, e1).dim == 0
    assert projection_meet(e1, line).dim == 0


def test_fix_signs_matches_column_loop():
    def reference(vectors):
        out = np.array(vectors)
        absv = np.abs(out)
        for j in range(out.shape[1]):
            col_max = absv[:, j].max()
            if col_max == 0.0:
                continue
            lead = int(np.argmax(absv[:, j] > 1e-8 * col_max))
            if out[lead, j] < 0:
                out[:, j] = -out[:, j]
        return out

    rng = np.random.default_rng(3)
    m = rng.standard_normal((7, 9))
    m[:3, 1] = 0.0  # zero leading entries
    m[0, 2] = -1e-10 * np.abs(m[:, 2]).max()  # a lead below the relative floor
    m[:, 4] = 0.0  # a zero column
    m[:2, 5] = -0.0
    np.testing.assert_array_equal(_fix_signs(m), reference(m))


def test_meet_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        projection_meet(Subspace.full(2), Subspace.full(3))


# ---- image_subspace / Subspace ----


def test_image_identity_and_kernel():
    S = gen_subspace(4, 2, 1)
    assert same_subspace(image_subspace(SymMatrix(np.eye(4)), S), S)
    A = SymMatrix(np.diag([1.0, 0.0]))
    assert image_subspace(A, Subspace.span([[0.0], [1.0]])).dim == 0


def test_image_hand_example():
    A = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    img = image_subspace(A, Subspace.span([[1.0], [0.0]]))
    expected = Subspace.span(np.array([[2.0], [1.0]]) / math.sqrt(5.0))
    assert same_subspace(img, expected)


def test_subspace_span_filters_rank():
    vecs = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])  # rank 1
    s = Subspace.span(vecs)
    assert s.dim == 1


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


# ---- hypothesis properties ----


finite_entries = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.lists(finite_entries, min_size=3, max_size=3), min_size=3, max_size=3))
def test_gram_matrices_are_psd_and_symmetric(rows):
    g = np.array(rows)
    A = SymMatrix(g @ g.T)
    A.assert_psd()
    d = eig_sym(A)
    assert d.lambda_min >= -1e-9 * max(1.0, d.norm2)


@settings(max_examples=40, deadline=None, derandomize=True)
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
    assert q_hi.containment_residual(q_lo) <= 1e-9
