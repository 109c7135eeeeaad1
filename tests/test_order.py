import bisect

import numpy as np
import pytest

from specshort import (
    DEFAULT_TOL,
    DimensionMismatchError,
    SpectrumSpec,
    Subspace,
    SymMatrix,
    Tolerances,
    eig_sym,
    gen_psd,
    gen_subspace,
    matrix_function,
    spectral_leq,
    spectral_short_closed,
)
from specshort.harness import _loewner_not_spectral

from conftest import IDENTITIES, containment_residual, linalg_calls, min_eig


CANONICAL_A = SymMatrix([[1.0, 1.0], [1.0, 1.0]])
CANONICAL_B = SymMatrix([[2.0, 1.0], [1.0, 1.0]])


def test_commuting_ordered_pair_holds():
    cert = spectral_leq(SymMatrix(np.diag([1.0, 2.0])), SymMatrix(np.diag([2.0, 3.0])))
    assert cert.holds
    assert cert.witness_lambda is None
    assert cert.worst_residual <= 1e-10


_HOUSEHOLDER = np.eye(3) - 2.0 * np.ones((3, 3)) / 3.0  # I - 2 u u^T / 3, u = (1, 1, 1)


@pytest.mark.parametrize(
    "q",
    [
        pytest.param(np.eye(3), id="diagonal"),
        pytest.param(_HOUSEHOLDER, id="householder"),
    ],
)
def test_commuting_pair_with_a_gap_at_the_cluster_width_holds(q):
    # A = Q diag(0, 1, 1e-8) Q^T and B = (1 + 1e-9) A commute and are
    # ordered; the gap 1e-8 equals the cluster width, so rounding in Q
    # decides A's partition, and B's is decided on its own.  Where 1e-8
    # joins the cluster of 0, that cluster starts at the rank cut and is
    # the kernel, which no half-line above 0 reads
    a = (q * [0.0, 1.0, 1e-8]) @ q.T
    assert spectral_leq(SymMatrix(a), SymMatrix((1.0 + 1e-9) * a)).holds


@pytest.mark.parametrize(
    "a, b",
    [
        # same norm; A's block mean 1.5e-9 lifted e_0 above its value in B
        pytest.param([1e-9, 2e-9, 0.5], [1e-9, 3 * 2e-9, 0.5], id="equal-norms"),
        # B's kernel chain, at its wider cluster width, swallowed e_1, which
        # A's own partition kept positive
        pytest.param([0.0, 1e-8, 5e-9, 0.65], [0.0, 1.1e-8, 1.5e-8, 1.15], id="kernel-chain"),
    ],
)
def test_commuting_pair_near_the_cluster_width_is_ordered_one_way(a, b):
    # each matrix partitioned alone rejected A <= B; one partition of the
    # pair accepts it and rejects B <= A
    A, B = SymMatrix(np.diag(a)), SymMatrix(np.diag(b))
    assert spectral_leq(A, B).holds
    assert not spectral_leq(B, A).holds


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


def _joint_starts(A, B, tol=DEFAULT_TOL):
    # reference for the pair's one partition: the joint spectrum's runs at
    # cluster_tol * max(||A||, ||B||), each anchored at its first member,
    # and every eigenvalue of A and of B reading its run's first member.
    # The thresholds are the first members above rank_tol times that scale,
    # and a half-line starts at the first eigen index whose first member
    # reaches its threshold.  Returns both decompositions and one
    # (threshold, A-start, B-start) per threshold.
    da, db = eig_sym(A, tol), eig_sym(B, tol)
    scale = max(da.norm2, db.norm2)
    firsts = []
    for x in sorted(da.eigenvalues.tolist() + db.eigenvalues.tolist()):
        if not firsts or x - firsts[-1] > tol.cluster_tol * scale:
            firsts.append(x)

    def reads(d):
        return [firsts[bisect.bisect_right(firsts, x) - 1] for x in d.eigenvalues.tolist()]

    def start(read, lam):
        return next((i for i, first in enumerate(read) if first >= lam), len(read))

    read_a, read_b = reads(da), reads(db)
    lams = [lam for lam in firsts if lam > tol.rank_tol * scale]
    return da, db, [(lam, start(read_a, lam), start(read_b, lam)) for lam in lams]


def test_witness_is_smallest_failing_threshold():
    # the witness is the first threshold of the pair's partition at which
    # half-line inclusion fails, with the defects taken here by principal
    # angles
    for seed in range(40):
        A = gen_psd(SpectrumSpec("clustered", 6), seed)
        rho = spectral_short_closed(A, gen_subspace(6, 3, seed)).value
        for low, high in ((A, rho), (rho, A), (CANONICAL_A, CANONICAL_B)):
            da, db, starts = _joint_starts(low, high)
            failing = [
                lam
                for lam, a, b in starts
                if containment_residual(Subspace(da.vectors[:, a:]), Subspace(db.vectors[:, b:]))
                > DEFAULT_TOL.meet_tol
            ]
            cert = spectral_leq(low, high)
            assert cert.holds == (not failing)
            assert cert.witness_lambda == (failing[0] if failing else None)


def _threshold_loop(A, B, tol=DEFAULT_TOL, frobenius=True, full=False, stop=False):
    # reference: one residual per threshold of the pair's partition
    # (_joint_starts).  A block whose Frobenius norm is within meet_tol is
    # certified by it; every other residual is the block's largest sine
    # (every residual is, with frobenius=False).  The blocks are read from
    # the rows of W = V_B^T V_A below the last tested B-start and its
    # columns from the first tested A-start, formed alone as spectral_leq
    # forms them, or from all of W with full=True.  With stop=True the loop
    # ends once the worst residual is 1, as spectral_leq's does; that
    # changes the triple only when meet_tol exceeds 1.  Also returns the
    # residual of each distinct block in the order first tested.
    da, db, starts = _joint_starts(A, B, tol)
    tested = [(lam, a, b) for lam, a, b in starts if a < A.n and b > 0]
    a_lo = 0 if full or not tested else min(a for _, a, _ in tested)
    b_hi = B.n if full or not tested else max(b for _, _, b in tested)
    w = db.vectors[:, :b_hi].T @ da.vectors[:, a_lo:]
    worst, witness, blocks = 0.0, None, {}
    for lam, a_start, b_start in tested:
        block = w[:b_start, a_start - a_lo :]
        residual = float(np.linalg.norm(block))
        if not frobenius or residual > tol.meet_tol:
            residual = min(1.0, float(np.linalg.norm(block, 2)))
        blocks.setdefault((a_start, b_start), residual)
        worst = max(worst, residual)
        if witness is None and residual > tol.meet_tol:
            witness = lam
        if stop and worst == 1.0:
            break
    return (witness is None, witness, worst), list(blocks.values())


def _many_levels_pair(n):
    # L = n distinct levels, where most thresholds repeat a pair
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = SymMatrix.from_eigens(np.linspace(1.0, 2.0, n), q)
    return A, spectral_short_closed(A, Subspace.span(rng.standard_normal((n, n // 2)))).value


def _unrelated_pair(n):
    # A and C with the same L = n levels in independent eigenbases, so the
    # order fails either way and nearly every block takes an SVD
    rng = np.random.default_rng(n + 1)
    values = np.linspace(1.0, 2.0, n)
    A, C = (SymMatrix.from_eigens(values, np.linalg.qr(rng.standard_normal((n, n)))[0]) for _ in "AC")
    return A, C


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
    A48, C48 = _unrelated_pair(48)
    return pairs + [(rho, A), (A, rho), (A48, C48), (C48, A48)]


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


@pytest.mark.parametrize("meet_tol", [0.0, 1e-12, 1e-3, 0.5, 1.0])
def test_distinct_pairs_match_threshold_loop_at_other_meet_tols(meet_tol):
    # the table's band about meet_tol, and about 1 where meet_tol is 1
    tol = Tolerances(meet_tol=meet_tol)
    for low, high in _order_pairs():
        if low.n <= 48:
            cert = spectral_leq(low, high, tol)
            got = (cert.holds, cert.witness_lambda, cert.worst_residual)
            assert got == _threshold_loop(low, high, tol)[0]


@pytest.mark.parametrize("meet_tol", [1.5, 4.0])
def test_meet_tol_above_one_keeps_the_stop_at_one(meet_tol):
    # a certified block's Frobenius norm can then exceed 1, and after it a
    # sine of 1 no longer stops the test
    tol = Tolerances(meet_tol=meet_tol)
    for low, high in _order_pairs():
        cert = spectral_leq(low, high, tol)
        got = (cert.holds, cert.witness_lambda, cert.worst_residual)
        assert got == _threshold_loop(low, high, tol, stop=True)[0]


def test_tested_blocks_of_w_match_the_full_product():
    # the sub-block of W that the thresholds read, formed alone, may round
    # unlike the same entries of all of V_B^T V_A (on three holding pairs
    # here), but it decides alike, with worst_residual within 1e-14
    for low, high in _order_pairs():
        cert = spectral_leq(low, high)
        holds, witness, worst = _threshold_loop(low, high, full=True)[0]
        assert (cert.holds, cert.witness_lambda) == (holds, witness)
        assert abs(cert.worst_residual - worst) <= 1e-14


def test_no_nontrivial_threshold_holds_at_once():
    # A = 0 has an empty half-line at every positive threshold, and so does
    # a pair of zero matrices, whose grid is empty
    B = gen_psd(SpectrumSpec("clustered", 5), 3)
    zero = SymMatrix(np.zeros((5, 5)))
    for low, high in ((zero, B), (zero, zero)):
        cert = spectral_leq(low, high)
        assert (cert.holds, cert.witness_lambda, cert.worst_residual) == (True, None, 0.0)
    assert not spectral_leq(B, zero).holds


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


def test_holding_order_reads_its_norms_from_the_table(monkeypatch):
    # one table of W's squared entries bounds every block's Frobenius norm;
    # np.linalg.norm is taken only on the blocks that may be the largest
    A, rho = _many_levels_pair(200)
    with linalg_calls(monkeypatch, "norm", "svd") as calls:
        cert = spectral_leq(rho, A)
    names = [call.name for call in calls]
    assert cert.holds and names.count("svd") == 0 and names.count("norm") <= 2
    assert (cert.holds, cert.witness_lambda, cert.worst_residual) == _threshold_loop(rho, A)[0]


def _rotated_pair(sines):
    # eigenvectors I for A and, for B, I with plane i, i + 4 rotated by the
    # i-th sine, at levels 1 and 2: the one tested block of W holds the sines
    rot = np.eye(8)
    for i, s in enumerate(sines):
        c = np.sqrt(1.0 - s * s)
        rot[[i, i + 4], [i, i + 4]] = c
        rot[i + 4, i], rot[i, i + 4] = s, -s
    values = [1.0] * 4 + [2.0] * 4
    return SymMatrix.from_eigens(values, np.eye(8)), SymMatrix.from_eigens(values, rot)


@pytest.mark.parametrize("weights", [(1.0,), (0.6, 0.8), (0.5, 0.5, 0.5, 0.5)])
def test_frobenius_norm_at_meet_tol_keeps_the_reference_bits(weights):
    # the one block's Frobenius norm a few ulps either side of meet_tol,
    # inside the table's band: the norm decides, as the reference does
    tol = DEFAULT_TOL.meet_tol
    sides = set()
    for ulps in range(-4, 5):
        scale = tol + ulps * np.spacing(tol)
        A, B = _rotated_pair([w * scale for w in weights])
        w = eig_sym(B).vectors.T @ eig_sym(A).vectors
        norm = np.linalg.norm(w[:4, 4:])
        assert abs(norm - tol) <= 8 * np.spacing(tol)
        sides.add(bool(norm > tol))
        cert = spectral_leq(A, B)
        assert (cert.holds, cert.witness_lambda, cert.worst_residual) == _threshold_loop(A, B)[0]
    assert sides == {True, False}


def test_failing_order_stops_at_the_first_full_sine(monkeypatch):
    # A against its own rho: once a block's sine reaches 1 the witness is
    # set and no later block can raise the worst residual
    A, rho = _many_levels_pair(200)
    want, residuals = _threshold_loop(A, rho)
    cert, svds = _svd_calls(monkeypatch, spectral_leq, A, rho)
    assert (cert.holds, cert.witness_lambda, cert.worst_residual) == want
    assert not cert.holds and cert.worst_residual == 1.0
    assert svds <= residuals.index(1.0) + 1 < len(residuals)


def test_witness_at_a_level_between_close_levels():
    # The pair's partition puts B's level 1 - 0.9c and A's level 1 in one
    # run, with A's level 1 + 1.5c a run of its own.  At that run's first
    # member A's half-line keeps its level 1 + 1.5c while B's has dropped
    # its level 1 - 0.9c: the first failing threshold, A's level.
    c = 3 * DEFAULT_TOL.cluster_tol
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    rest, _ = np.linalg.qr(q[:, 1:] @ rng.standard_normal((4, 4)))
    A = SymMatrix.from_eigens([0.4, 1.0, 1.0 + 1.5 * c, 2.0, 3.0], q)
    B = SymMatrix.from_eigens([0.5, 1.0 - 0.9 * c, 2.5, 2.8, 3.0], np.column_stack([q[:, 0], rest]))
    cert = spectral_leq(A, B)
    assert not cert.holds
    assert cert.witness_lambda == 1.0 + 1.5 * c == 1.000000045


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
    # harness T12: rho(A, xi) <= rho(B, xi) on 100 lines, and the
    # canonical pair for the reverse direction
    rng = np.random.default_rng(31)
    A, B = gen_psd(SpectrumSpec("commuting_pair", 6), 12)
    assert spectral_leq(A, B).holds
    lines = [rng.standard_normal(6) for _ in range(100)]
    assert IDENTITIES["T12"](A, B, lines, CANONICAL_A, CANONICAL_B, DEFAULT_TOL) <= 1


def test_scalar_comparison_reverse_direction_witness():
    # when the order fails, some eigenvector of A exposes it: harness T12
    # with no lines reads only that direction
    assert not spectral_leq(CANONICAL_A, CANONICAL_B).holds
    assert IDENTITIES["T12"](CANONICAL_A, CANONICAL_A, [], CANONICAL_A, CANONICAL_B, DEFAULT_TOL) <= 1


def test_certificate_consistency_flag_vs_residual():
    for seed in range(5):
        A = gen_psd(SpectrumSpec("well_separated", 4), seed)
        B = gen_psd(SpectrumSpec("well_separated", 4), seed + 50)
        cert = spectral_leq(A, B)
        assert cert.holds == (cert.worst_residual <= 1e-8)
