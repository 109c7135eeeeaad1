import numpy as np
import pytest

from specshort import (
    DEFAULT_TOL,
    DimensionMismatchError,
    SpectrumSpec,
    Subspace,
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
from specshort.harness import _loewner_not_spectral

from conftest import linalg_calls, min_eig


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
            levels = sorted({mu for d in (da, db) for mu, _ in d.blocks[1:]})
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


def _threshold_loop(A, B, tol=DEFAULT_TOL, frobenius=True):
    # reference: one residual per threshold of the grid, as the order was
    # decided before repeated pairs of half-line starts were skipped.  A
    # block whose Frobenius norm is within meet_tol is certified by it;
    # every other residual is the block's largest sine (every residual is,
    # with frobenius=False).  Also returns the residual of each distinct
    # block in the order first tested.
    da, db = eig_sym(A, tol), eig_sym(B, tol)

    def start(d, lam):
        k = int(np.searchsorted(d.level_values, lam - tol.cluster_abs(d.norm2), side="left"))
        return d.levels[k][0] if k < len(d.levels) else d.n

    levels = sorted({mu for d in (da, db) for mu, _ in d.blocks[1:]})
    mids = [(a + b) / 2.0 for a, b in zip(levels, levels[1:])]
    w = db.vectors.T @ da.vectors
    worst, witness, blocks = 0.0, None, {}
    for lam in sorted(set(levels + mids)):
        a_start, b_start = start(da, lam), start(db, lam)
        if a_start == A.n or b_start == 0:
            continue
        block = w[:b_start, a_start:]
        residual = float(np.linalg.norm(block))
        if not frobenius or residual > tol.meet_tol:
            residual = min(1.0, float(np.linalg.norm(block, 2)))
        blocks.setdefault((a_start, b_start), residual)
        worst = max(worst, residual)
        if witness is None and residual > tol.meet_tol:
            witness = lam
    return (witness is None, witness, worst), list(blocks.values())


def _many_levels_pair(n):
    # L = n distinct levels, where most thresholds repeat a pair
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = SymMatrix.from_eigens(np.linspace(1.0, 2.0, n), q)
    return A, spectral_short_closed(A, Subspace.span(rng.standard_normal((n, n // 2)))).value


def _order_pairs():
    pairs = []
    for seed in range(12):
        n = 3 + seed % 8
        for kind in ("clustered", "with_zeros", "projection"):
            A = gen_psd(SpectrumSpec(kind, n), seed)
            rho = spectral_short_closed(A, gen_subspace(n, 1 + seed % n, seed)).value
            pairs += [(rho, A), (A, rho)]
        A, B = gen_psd(SpectrumSpec("commuting_pair", n), seed)
        pairs += [(A, B), (B, A)]
        pairs.append(_loewner_not_spectral(np.random.default_rng(seed), n, DEFAULT_TOL))
    A, rho = _many_levels_pair(200)
    return pairs + [(rho, A), (A, rho)]


def test_distinct_pairs_match_threshold_loop():
    outcomes = set()
    for low, high in _order_pairs():
        cert = spectral_leq(low, high)
        got = (cert.holds, cert.witness_lambda, cert.worst_residual)
        assert got == _threshold_loop(low, high)[0]
        outcomes.add(cert.holds)
    assert outcomes == {True, False}
    A, rho = _many_levels_pair(200)
    assert spectral_leq(rho, A).holds and not spectral_leq(A, rho).holds


def test_frobenius_certificate_keeps_the_sine_decision():
    # holds and the witness are those of the largest sines on every pair,
    # and so is worst_residual where the order fails; where it holds,
    # worst_residual bounds the largest sine and stays within meet_tol
    tol = DEFAULT_TOL
    for low, high in _order_pairs():
        cert = spectral_leq(low, high, tol)
        holds, witness, sine = _threshold_loop(low, high, tol, frobenius=False)[0]
        assert (cert.holds, cert.witness_lambda) == (holds, witness)
        if holds:
            assert sine * (1.0 - 1e-15) <= cert.worst_residual <= tol.meet_tol
        else:
            assert cert.worst_residual == sine


def _svd_calls(monkeypatch, fn, *args):
    with linalg_calls(monkeypatch, "svd") as calls:
        out = fn(*args)
    return out, len(calls)


def test_holding_order_takes_no_svd(monkeypatch):
    # every block of rho against A is rounding noise, certified by its
    # Frobenius norm
    A, rho = _many_levels_pair(200)
    cert, svds = _svd_calls(monkeypatch, spectral_leq, rho, A)
    assert cert.holds and cert.worst_residual <= DEFAULT_TOL.meet_tol
    assert svds == 0


def test_frobenius_norm_above_meet_tol_takes_the_svd(monkeypatch):
    # four sines of 0.8 meet_tol in the one block of the threshold between
    # the levels: its Frobenius norm, 1.6 meet_tol, cannot certify it, but
    # its largest sine does, so the order holds
    s = 0.8 * DEFAULT_TOL.meet_tol
    c = np.sqrt(1.0 - s * s)
    rot = np.eye(8)
    for i in range(4):
        rot[[i, i + 4], [i, i + 4]] = c
        rot[i + 4, i], rot[i, i + 4] = s, -s
    values = [1.0] * 4 + [2.0] * 4
    A = SymMatrix.from_eigens(values, np.eye(8))
    B = SymMatrix.from_eigens(values, rot)
    w = eig_sym(B).vectors.T @ eig_sym(A).vectors
    assert np.linalg.norm(w[:4, 4:]) > DEFAULT_TOL.meet_tol >= np.linalg.norm(w[:4, 4:], 2)
    cert, svds = _svd_calls(monkeypatch, spectral_leq, A, B)
    assert svds == 1
    assert cert.holds and cert.witness_lambda is None
    assert cert.worst_residual == pytest.approx(s, rel=1e-6)


def test_failing_order_stops_at_the_first_full_sine(monkeypatch):
    # A against its own rho: once a block's sine reaches 1 the witness is
    # set and no later block can raise the worst residual
    A, rho = _many_levels_pair(200)
    want, residuals = _threshold_loop(A, rho)
    cert, svds = _svd_calls(monkeypatch, spectral_leq, A, rho)
    assert (cert.holds, cert.witness_lambda, cert.worst_residual) == want
    assert not cert.holds and cert.worst_residual == 1.0
    assert svds <= residuals.index(1.0) + 1 < len(residuals)


def test_witness_at_midpoint_between_close_levels():
    # At the midpoint of A's levels 1 and 1 + 1.5c, A's half-line still holds
    # its level 1 while B's has dropped its level 1 - 0.9c: the first failing
    # threshold, which no level of either matrix carries.
    c = 3 * DEFAULT_TOL.cluster_tol
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    rest, _ = np.linalg.qr(q[:, 1:] @ rng.standard_normal((4, 4)))
    A = SymMatrix.from_eigens([0.4, 1.0, 1.0 + 1.5 * c, 2.0, 3.0], q)
    B = SymMatrix.from_eigens([0.5, 1.0 - 0.9 * c, 2.5, 2.8, 3.0], np.column_stack([q[:, 0], rest]))
    cert = spectral_leq(A, B)
    assert not cert.holds
    assert cert.witness_lambda == (1.0 + (1.0 + 1.5 * c)) / 2.0


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
