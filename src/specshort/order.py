"""Decision procedure for the spectral order on positive semidefinite
matrices: A precedes B when every power of A sits below the same power of B,
equivalently when the half-line spectral projections of A are contained in
those of B at every threshold.

The projections are piecewise constant in the threshold, so checking at the
merged distinct levels of both matrices plus the midpoints between
consecutive levels decides the order exactly (up to clustering tolerance).
Range inclusion is measured by the operator norm of the excluded component,
the largest principal-angle sine, which stays robust near degenerate
eigenvalues.  With W = V_B^T V_A formed once, that component at a threshold
is the block of W pairing B's eigenvectors below it with A's at or above it.
Each distinct pair of half-line starts (the first eigen index of each
matrix's half-line) is tested once: thresholds that share the pair share
the block, hence the residual.  A block's Frobenius norm bounds its largest
singular value (Golub & Van Loan, Matrix Computations, 2.3), so a block
whose Frobenius norm is within meet_tol is certified by it, without an
SVD, and that bound is its residual.  Any other block's residual is its
largest sine, from one SVD; a sine of a block of the orthogonal W is at
most 1, so it is clamped to 1, and the test stops at the first block whose
residual reaches 1: the witness is set by then and no later block can raise
the worst residual.

So holds and witness_lambda are those of the largest sines, and so is
worst_residual when the order fails (its maximum lies at a block whose SVD
was taken); when the order holds, worst_residual is the largest per-block
bound, within meet_tol and at or above the largest sine up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    DimensionMismatchError,
    SymMatrix,
    Tolerances,
    _half_line_start,
    eig_sym,
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
    (its defect exceeds meet_tol), if any.
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
    A.assert_psd(tol)
    B.assert_psd(tol)
    da = eig_sym(A, tol)
    db = eig_sym(B, tol)
    levels = sorted({mu for d in (da, db) for mu, _ in d.blocks[1:]})
    mids = [(a + b) / 2.0 for a, b in zip(levels, levels[1:])]
    grid = np.array(sorted(set(levels + mids)))
    a_starts = _half_line_start(da, grid, tol)
    b_starts = _half_line_start(db, grid, tol)
    # Both starts are nondecreasing in the threshold, so a repeated pair
    # follows its first threshold directly and selects the same block of W.
    new = np.ones(len(grid), dtype=bool)
    new[1:] = (a_starts[1:] != a_starts[:-1]) | (b_starts[1:] != b_starts[:-1])
    w = db.vectors.T @ da.vectors
    worst = 0.0
    witness: float | None = None
    for lam, a_start, b_start in zip(
        grid[new].tolist(), a_starts[new].tolist(), b_starts[new].tolist()
    ):
        if a_start == A.n or b_start == 0:
            continue
        block = w[:b_start, a_start:]
        residual = float(np.linalg.norm(block))  # bounds the block's sines
        if residual > tol.meet_tol:
            # a sine of a block of the orthogonal W: at most 1 but for rounding
            residual = min(1.0, float(np.linalg.svd(block, compute_uv=False)[0]))
        worst = max(worst, residual)
        if witness is None and residual > tol.meet_tol:
            witness = lam
        if worst == 1.0:
            break  # the witness is set, and no later block can raise worst
    return OrderCertificate(holds=witness is None, witness_lambda=witness, worst_residual=worst)
