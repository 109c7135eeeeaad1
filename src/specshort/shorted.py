"""The shorted operator of a positive semidefinite matrix to a subspace.

Two algorithms compute the same object and are kept permanently: their
agreement checks everything but the range decision.  Both short to
T = S ^ R(A), the part of S inside the range of A, since the shorted
operator's range is S intersect R(A) (Anderson & Trapp 1975).  T is decided
once, by core._range_meet on a principal-angle sine against meet_tol, and
both routes read it, so an error there shows up in both alike and their
comparison (harness T1) cannot see it; tests check _range_meet on its own
against projection_meet.

- short_at: the geometric route, sqrt(A) P_M sqrt(A) in A's eigen-
  coordinates, with M = Lambda^{-1/2} U^T T the preimage of T under the
  square root on the range of A (U, Lambda the eigenvectors and level
  values of A's positive blocks).
- short_schur: the block route.  In a basis adapted to T and its
  complement, the shorted operator is the generalized Schur complement
  A11 - A12 pinv(A22) A21, embedded back into the full space; the trailing
  block is inverted above the rank cutoff rank_tol * ||A||_2.  When A's
  smallest eigenvalue clears that cutoff by more than rounding, Cauchy
  interlacing puts every eigenvalue of A22 above it, so A22 is inverted
  whole by one solve; otherwise its eigh decides.

Results are embedded in the full n x n space (zero outside the subspace) so
compositions need no basis bookkeeping; use ShortedResult.compressed for the
action on the subspace itself, and ShortedResult.scalar for the shorted
value on a line, short_at(A, Subspace.span(xi)).scalar().  A result
(core.ShortedResult, which rho shares) stores only its value and
subspace: range_residual, which no route reads, is computed from them when
read.  Both values are symmetric to the bit, short_at's F F^T as numpy
forms it and short_schur's as (raw + raw^T) / 2, whose Schur blocks carry
a rounding asymmetry of order eps ||A||; so each enters SymMatrix by
SymMatrix._symmetric, which checks finiteness only.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOL,
    ShortedResult,
    Subspace,
    SymMatrix,
    Tolerances,
    _check_pair,
    _range_meet,
)

__all__ = ["short_at", "short_schur"]


def short_at(A: SymMatrix, S: Subspace, tol: Tolerances = DEFAULT_TOL) -> ShortedResult:
    """Shorted operator by the square-root / projection construction."""
    d = _check_pair(A, S, tol)
    if S.dim == A.n:
        return ShortedResult(A, S)
    k = d.blocks[0][1].stop
    u = d.vectors[:, k:]
    root = np.sqrt(d.values[k:])
    m, _ = np.linalg.qr((u.T @ _range_meet(d, S, tol).basis) / root[:, None])
    f = u @ (root[:, None] * m)
    # numpy forms f f^T by a symmetric rank-k update, symmetric to the bit
    return ShortedResult(SymMatrix._symmetric(f @ f.T), S)


def short_schur(A: SymMatrix, S: Subspace, tol: Tolerances = DEFAULT_TOL) -> ShortedResult:
    """Shorted operator as a generalized Schur complement relative to the
    complement of S ^ R(A).

    The trailing block A22 = Bc^T A Bc is positive semidefinite; its
    eigenvalues at or below rank_tol * ||A||_2 are its kernel, the rest are
    inverted.  Its eigenvalues are at least A's smallest (Cauchy
    interlacing; Golub & Van Loan, Matrix Computations, Thm 8.1.7), so when
    lambda_min(A) exceeds the cutoff by 8 n eps ||A||_2, more than the
    rounding of A22 and of eig_sym's lambda_min, nothing is cut and
    A11 - A12 A22^{-1} A21 is taken by one solve with no eigh.
    """
    d = _check_pair(A, S, tol)
    if S.dim == A.n:
        return ShortedResult(A, S)
    meet = _range_meet(d, S, tol)
    bs, bc = meet.basis, meet.complement().basis
    sa = bs.T @ A.entries
    a11, a12 = sa @ bs, sa @ bc
    a22 = bc.T @ A.entries @ bc
    if d.lambda_min > tol.rank_tol * d.norm2 + 8 * A.n * np.finfo(float).eps * d.norm2:
        inner = a11 - a12 @ np.linalg.solve(a22, a12.T)
    else:
        w, v = np.linalg.eigh(a22)
        keep = w > tol.rank_tol * d.norm2
        h = (a12 @ v[:, keep]) / np.sqrt(w[keep])
        inner = a11 - h @ h.T
    # Symmetrized here, to the bit: the Schur blocks carry a rounding
    # asymmetry of order eps ||A||, which can exceed _SYM_TOL relative to a
    # result much smaller than A.
    raw = bs @ inner @ bs.T
    sym = raw + raw.T
    sym *= 0.5
    return ShortedResult(SymMatrix._symmetric(sym), S)
