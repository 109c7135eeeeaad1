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
action on the subspace itself.  A result stores only its value, method and
subspace: ShortedResult.range_residual, which no route reads, is computed
from them when read.  short_at's F F^T goes to SymMatrix as it is; only
short_schur's blocks, whose rounding asymmetry is of order eps ||A||, are
symmetrized before SymMatrix checks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    Subspace,
    SymMatrix,
    Tolerances,
    _check_pair,
    _direction,
    _OnSubspace,
    _range_meet,
    eig_sym,
)

__all__ = ["ShortedResult", "short_at", "short_schur", "short_vector"]


@dataclass(frozen=True)
class ShortedResult(_OnSubspace):
    """A shorted operator together with the subspace it was shorted to."""

    value: SymMatrix
    method: str
    subspace: Subspace

    @property
    def range_residual(self) -> float:
        """The largest entry of the part of the value lying outside the
        subspace, max |(I - P_S) value|, computed when read (0 for the whole
        space): at rounding level when S meets the range of A cleanly, and
        up to about meet_tol * ||A||_2 on short_at's route when S meets R(A)
        only within meet_tol."""
        if self.subspace.dim == self.value.n:
            return 0.0
        b = self.subspace.basis
        outside = b @ (b.T @ self.value.entries)
        np.subtract(self.value.entries, outside, out=outside)
        return float(np.abs(outside, out=outside).max())


def short_at(A: SymMatrix, S: Subspace, tol: Tolerances = DEFAULT_TOL) -> ShortedResult:
    """Shorted operator by the square-root / projection construction."""
    _check_pair(A, S, tol)
    if S.dim == A.n:
        return ShortedResult(A, "anderson_trapp", S)
    d = eig_sym(A, tol)
    k = d.blocks[0][1].stop
    u = d.vectors[:, k:]
    root = np.sqrt(d.values[k:])
    m, _ = np.linalg.qr((u.T @ _range_meet(d, S, tol).basis) / root[:, None])
    f = u @ (root[:, None] * m)
    # numpy forms f f^T by a symmetric rank-k update, symmetric to the bit;
    # a plain product would be off by about eps ||Sigma||, inside sym_tol.
    return ShortedResult(SymMatrix(f @ f.T), "anderson_trapp", S)


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
    _check_pair(A, S, tol)
    if S.dim == A.n:
        return ShortedResult(A, "schur", S)
    d = eig_sym(A, tol)
    meet = _range_meet(d, S, tol)
    bs, bc = meet.basis, meet.complement().basis
    sa = bs.T @ A.entries
    a11, a12 = sa @ bs, sa @ bc
    a22 = bc.T @ A.entries @ bc
    if d.lambda_min > tol.rank_abs(d.norm2) + 8 * A.n * np.finfo(float).eps * d.norm2:
        inner = a11 - a12 @ np.linalg.solve(a22, a12.T)
    else:
        w, v = np.linalg.eigh(a22)
        keep = w > tol.rank_abs(d.norm2)
        h = (a12 @ v[:, keep]) / np.sqrt(w[keep])
        inner = a11 - h @ h.T
    # Symmetrized before the constructor's check: the Schur blocks carry a
    # rounding asymmetry of order eps ||A||, which can exceed sym_tol
    # relative to a result much smaller than A.
    raw = bs @ inner @ bs.T
    sym = raw + raw.T
    sym *= 0.5
    return ShortedResult(SymMatrix(sym), "schur", S)


def short_vector(A: SymMatrix, xi, tol: Tolerances = DEFAULT_TOL) -> float:
    """Scalar shorted value for a one-dimensional subspace: 0 when xi leans
    outside the range of A (kernel sine above meet_tol), otherwise
    1 / <pinv(A) xi, xi> on A's level values, as short_at takes them.
    Always lies in [0, <A xi, xi>] up to the clustering tolerance.
    """
    v = _direction(xi, tol)
    A.assert_psd(tol)
    d = eig_sym(A, tol)
    k = d.blocks[0][1].stop
    coeffs = d.vectors.T @ v
    if np.linalg.norm(coeffs[:k]) > tol.meet_tol:
        return 0.0
    return 1.0 / float(np.sum(coeffs[k:] ** 2 / d.values[k:]))
