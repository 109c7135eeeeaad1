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
    thresholds; holds is true exactly when it stays within meet_tol.
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
    levels = sorted({mu for d in (da, db) for mu, _ in d.blocks(tol)[1:]})
    mids = [(a + b) / 2.0 for a, b in zip(levels, levels[1:])]
    w = db.vectors.T @ da.vectors
    worst = 0.0
    witness: float | None = None
    for lam in sorted(set(levels + mids)):
        a_start = _half_line_start(da, lam, tol)
        b_start = _half_line_start(db, lam, tol)
        if a_start == A.n or b_start == 0:
            continue
        residual = float(np.linalg.norm(w[:b_start, a_start:], 2))
        worst = max(worst, residual)
        if witness is None and residual > tol.meet_tol:
            witness = lam
    return OrderCertificate(holds=witness is None, witness_lambda=witness, worst_residual=worst)
