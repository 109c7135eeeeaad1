"""Decision procedure for the spectral order on positive semidefinite
matrices: A precedes B when every power of A sits below the same power of B,
equivalently when the half-line spectral projections of A are contained in
those of B at every threshold.

Both half-lines are read off one partition of the pair: the joint spectrum
(the eigenvalues of A and of B together, sorted) is cut by core._partition,
the rule eig_sym applies to one matrix, at s = max(||A||_2, ||B||_2).  Its
runs are anchored at their first member, every eigenvalue of either matrix
reads its run's first member, and the runs whose first member is at or
below the rank cut are the pair's kernel.  The projections are then piecewise constant in the
threshold, with steps only at the first members of the positive runs
(the thresholds), so checking there decides the order exactly (up to
clustering tolerance); the half-line at a threshold holds every eigen
index whose run's first member reaches it.  Range inclusion is measured by
the operator norm of the excluded component, the largest principal-angle
sine, which stays robust near degenerate eigenvalues.  With
W = V_B^T V_A, that component at a threshold is the block of W pairing
B's eigenvectors below it with A's at or above it, selected by the pair
of half-line starts (the first eigen index of each matrix's half-line).
Every run moves at least one start, so each threshold selects its own
block.  A threshold whose half-line of A is empty or of B is everything
is included trivially and not tested.

Only the rows of W below the last tested start of B and its columns from the
first tested start of A are formed, in one product: they hold every tested
block.  A block's Frobenius norm bounds its largest singular value (Golub &
Van Loan, Matrix Computations, 2.3), so a block whose Frobenius norm is
within meet_tol is certified by it, without an SVD, and that bound is its
residual.  Any other block's residual is its largest sine, from one SVD; a
sine of a block of the orthogonal W is at most 1, so it is clamped to 1, and
the test stops at the first block whose residual reaches 1: the witness is
set by then and no later block can raise the worst residual.

Every block's Frobenius norm is read from one table, the row-prefix sums
of the column-suffix sums of W∘W, formed once over the product.  The
table and np.linalg.norm sum the same m nonnegative squares, m the
entries of the product, so they agree within g = 4 m eps relative (Higham,
Accuracy and Stability of Numerical Algorithms, 4.2; an absolute term
covers squares that underflow).  A block the table puts above meet_tol by
more than g takes its SVD with no norm, one it puts below both meet_tol
and 1 by more than g is certified, and only a block within g of meet_tol
(or of 1) takes np.linalg.norm to decide.  Of the certified blocks tested
before the stop, only those the table cannot put below the largest take
np.linalg.norm, for the exact worst residual.  So every output has the
bits the norm of each block would give, and a holding pair typically takes
one norm and no SVD.

So holds and witness_lambda are those of the largest sines, and so is
worst_residual when the order fails (its maximum lies at a block whose SVD
was taken); when the order holds, worst_residual is the largest per-block
bound, within meet_tol and at or above the largest sine up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    DimensionMismatchError,
    SymMatrix,
    Tolerances,
    _partition,
)

__all__ = ["OrderCertificate", "spectral_leq"]


@dataclass(frozen=True)
class OrderCertificate:
    """Outcome of a spectral-order comparison.

    worst_residual is the largest range-inclusion defect over the tested
    thresholds, at most 1; holds is true exactly when it stays within
    meet_tol.  When the order fails it is exactly the largest principal-
    angle sine; when it holds it is the largest per-block Frobenius bound
    on that sine, within meet_tol.
    witness_lambda is the smallest tested threshold where inclusion fails
    (its defect exceeds meet_tol), if any: the first member of a run of the
    pair's joint partition, so an eigenvalue of A or of B.
    """

    holds: bool
    witness_lambda: float | None
    worst_residual: float


def spectral_leq(
    A: SymMatrix, B: SymMatrix, tol: Tolerances = DEFAULT_TOL
) -> OrderCertificate:
    """Certify (or refute) that A precedes B in the spectral order."""
    if A.n != B.n:
        raise DimensionMismatchError(f"dimensions differ: {A.n} vs {B.n}")
    da = A.assert_psd(tol)
    db = B.assert_psd(tol)
    # One partition of the pair: the joint spectrum's runs at the pair's
    # scale (core._partition); the thresholds are the first members of its
    # positive runs.  An eigenvalue's run starts at or above a first member
    # exactly when the eigenvalue does, so each half-line start is a search
    # of the raw eigenvalues.
    joint = np.sort(np.concatenate([da.eigenvalues, db.eigenvalues])).tolist()
    _, runs = _partition(joint, max(da.norm2, db.norm2), tol)
    grid = np.array([joint[idx.start] for idx in runs])
    a_starts = np.searchsorted(da.eigenvalues, grid)
    b_starts = np.searchsorted(db.eigenvalues, grid)
    # an empty half-line of A or a full one of B is included trivially
    nontrivial = (a_starts < A.n) & (b_starts > 0)
    if not nontrivial.any():
        return OrderCertificate(holds=True, witness_lambda=None, worst_residual=0.0)
    lams, a_starts, b_starts = grid[nontrivial].tolist(), a_starts[nontrivial], b_starts[nontrivial]
    a_idx, b_idx = a_starts.tolist(), b_starts.tolist()
    # W's rows below the last B-start against its columns from the first
    # A-start: every tested block and no more
    a_lo = a_idx[0]
    w = db.vectors[:, : b_idx[-1]].T @ da.vectors[:, a_lo:]
    # ||W[:b, a:]||_F^2 for every b and a: the row-prefix sums of the
    # column-suffix sums of W∘W
    table = w * w
    np.cumsum(table[:, ::-1], axis=1, out=table[:, ::-1])
    np.cumsum(table, axis=0, out=table)
    est = np.sqrt(table[b_starts - 1, a_starts - a_lo])
    # The table and np.linalg.norm each sum the same m nonnegative squares,
    # so they agree within g relative, and within h absolute once squares
    # underflow: the norm lies in [lo, hi].
    g = 4 * w.size * np.finfo(float).eps
    h = math.sqrt(w.size) * 2.0**-536
    lo, hi = est * (1.0 - g) - h, est * (1.0 + g) + h
    # a bounded block is certified by its norm, below meet_tol and below 1,
    # and its residual is read only if it can be the largest
    bounded = hi < min(tol.meet_tol, 1.0)
    above = (lo > tol.meet_tol).tolist()

    def block(i: int) -> np.ndarray:
        return w[: b_idx[i], a_idx[i] - a_lo :]

    worst = 0.0
    witness: float | None = None
    stop = len(lams)
    for i in np.flatnonzero(~bounded).tolist():
        # the norm bounds the block's sines; a block the table puts above
        # meet_tol needs no norm to take its SVD
        residual = math.inf if above[i] else float(np.linalg.norm(block(i)))
        if residual > tol.meet_tol:
            # a sine of a block of the orthogonal W: at most 1 but for rounding
            residual = min(1.0, float(np.linalg.svd(block(i), compute_uv=False)[0]))
        worst = max(worst, residual)
        if witness is None and residual > tol.meet_tol:
            witness = lams[i]
        if worst == 1.0:
            stop = i  # the witness is set, and no later block can raise worst
            break
    # a bounded block tested before the stop can hold the largest residual
    # only if its hi reaches worst and the largest lo among them
    tested = np.flatnonzero(bounded[:stop])
    if tested.size:
        floor = max(float(lo[tested].max()), worst)
        for i in tested[hi[tested] >= floor].tolist():
            worst = max(worst, float(np.linalg.norm(block(i))))
    return OrderCertificate(holds=witness is None, witness_lambda=witness, worst_residual=worst)
