import numpy as np
import pytest

from specshort import (
    DEFAULT_TOL,
    DimensionMismatchError,
    SpectrumSpec,
    SymMatrix,
    eig_sym,
    gen_psd,
    gen_subspace,
    matrix_function,
    spectral_leq,
    spectral_projection,
    spectral_short_closed,
    spectral_short_vector,
)

from conftest import min_eig


CANONICAL_A = SymMatrix([[1.0, 1.0], [1.0, 1.0]])
CANONICAL_B = SymMatrix([[2.0, 1.0], [1.0, 1.0]])


def test_commuting_ordered_pair_holds():
    cert = spectral_leq(SymMatrix(np.diag([1.0, 2.0])), SymMatrix(np.diag([2.0, 3.0])))
    assert cert.holds
    assert cert.witness_lambda is None
    assert cert.worst_residual <= 1e-10


def test_reflexive():
    A = gen_psd(SpectrumSpec("clustered", 5), 8)
    assert spectral_leq(A, A).holds


def test_counterexample_rejected_with_witness():
    # Loewner-comparable but the squares are not: det(B^2 - A^2) = -1
    d = np.linalg.det(
        CANONICAL_B.entries @ CANONICAL_B.entries - CANONICAL_A.entries @ CANONICAL_A.entries
    )
    assert abs(d - (-1.0)) < 1e-12
    assert min_eig(CANONICAL_B.entries - CANONICAL_A.entries) >= -1e-12
    cert = spectral_leq(CANONICAL_A, CANONICAL_B)
    assert not cert.holds
    assert cert.witness_lambda is not None
    assert cert.worst_residual > 0.1


def test_witness_is_smallest_failing_threshold():
    # the witness is the first threshold of the grid at which half-line
    # inclusion fails, with the defects taken here by principal angles
    for seed in range(40):
        A = gen_psd(SpectrumSpec("clustered", 6), seed)
        rho = spectral_short_closed(A, gen_subspace(6, 3, seed)).value
        for low, high in ((A, rho), (rho, A), (CANONICAL_A, CANONICAL_B)):
            da, db = eig_sym(low), eig_sym(high)
            levels = sorted({mu for d in (da, db) for mu, _ in d.blocks()[1:]})
            grid = sorted(set(levels + [(a + b) / 2.0 for a, b in zip(levels, levels[1:])]))
            failing = [
                lam
                for lam in grid
                if spectral_projection(da, lam).containment_residual(spectral_projection(db, lam))
                > DEFAULT_TOL.meet_tol
            ]
            cert = spectral_leq(low, high)
            assert cert.holds == (not failing)
            assert cert.witness_lambda == (failing[0] if failing else None)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        spectral_leq(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)))


def test_holds_implies_ordered_powers():
    for seed in range(6):
        n = 3 + seed % 4
        A, B = gen_psd(SpectrumSpec("commuting_pair", n), seed)
        assert spectral_leq(A, B).holds
        nrm = float(np.linalg.eigvalsh(B.entries).max())
        am, bm = np.eye(n), np.eye(n)
        for m in range(1, 7):
            am = am @ A.entries
            bm = bm @ B.entries
            assert min_eig(bm - am) >= -1e-8 * max(1.0, nrm**m)


def test_holds_implies_monotone_functions_ordered():
    fs = [
        lambda x: x,
        lambda x: x * x,
        lambda x: np.sqrt(max(x, 0.0)),
        lambda x: 1.0 if x >= 0.5 else 0.0,
    ]
    for seed in range(4):
        A, B = gen_psd(SpectrumSpec("commuting_pair", 5), seed)
        for f in fs:
            fa = matrix_function(A, f).entries
            fb = matrix_function(B, f).entries
            assert min_eig(fb - fa) >= -1e-8


def test_scalar_comparison_forward_direction():
    rng = np.random.default_rng(31)
    A, B = gen_psd(SpectrumSpec("commuting_pair", 6), 12)
    assert spectral_leq(A, B).holds
    for _ in range(100):
        xi = rng.standard_normal(6)
        xi /= np.linalg.norm(xi)
        assert spectral_short_vector(A, xi) <= spectral_short_vector(B, xi) + 1e-9


def test_scalar_comparison_reverse_direction_witness():
    # when the order fails, some eigenvector of A exposes it
    cert = spectral_leq(CANONICAL_A, CANONICAL_B)
    assert not cert.holds
    w, v = np.linalg.eigh(CANONICAL_A.entries)
    found = any(
        spectral_short_vector(CANONICAL_A, v[:, j])
        > spectral_short_vector(CANONICAL_B, v[:, j]) + 1e-9
        for j in range(2)
    )
    assert found


def test_certificate_consistency_flag_vs_residual():
    for seed in range(5):
        A = gen_psd(SpectrumSpec("well_separated", 4), seed)
        B = gen_psd(SpectrumSpec("well_separated", 4), seed + 50)
        cert = spectral_leq(A, B)
        assert cert.holds == (cert.worst_residual <= 1e-8)
