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
  values of A's positive blocks).  Only M's triangle R is factored: the
  value is F F^T with F = U U^T T R^{-1}, and U U^T T is T when A has no
  kernel.
- short_schur: the block route.  In a basis adapted to T and its
  complement, the shorted operator is the generalized Schur complement
  A11 - A12 pinv(A22) A21, embedded back into the full space; the trailing
  block is inverted above the rank cutoff rank_tol * ||A||_2.  A is
  rotated once into that basis, complement first.  When A's smallest
  eigenvalue clears the cutoff by more than rounding, Cauchy interlacing
  puts every eigenvalue of A22 above it, so the rotated matrix takes one
  Cholesky, whose trailing factor L gives the complement as L L^T;
  otherwise A22's eigh decides.

Results are embedded in the full n x n space (zero outside the subspace) so
compositions need no basis bookkeeping; use ShortedResult.compressed for the
action on the subspace itself, and ShortedResult.scalar for the shorted
value on a line, short_at(A, Subspace.span(xi)).scalar().  A result
(core.ShortedResult, which rho shares) stores only its value and
subspace: range_residual, which no route reads, is computed from them when
read.  Both values are symmetric to the bit: F F^T and (Bs L)(Bs L)^T as
numpy forms them, by a symmetric rank-k update, and short_schur's eigh
branch as (raw + raw^T) / 2, whose Schur blocks carry a rounding asymmetry
of order eps ||A||; so each enters SymMatrix by SymMatrix._symmetric,
which checks finiteness only.
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
    """Shorted operator by the square-root / projection construction.

    With X = U^T T and M = Lambda^{-1/2} X = Q R, sqrt(A) P_M sqrt(A) is
    F F^T with F = U Lambda^{1/2} Q = U X R^{-1}, so only R is factored.
    U X is T itself when A has no kernel (U is then square and orthogonal).
    """
    d = _check_pair(A, S, tol)
    if S.dim == A.n:
        return ShortedResult(A, S)
    k = d.blocks[0][1].stop
    t = _range_meet(d, S, tol).basis
    u = d.vectors[:, k:]
    x = u.T @ t
    r = np.linalg.qr(x / np.sqrt(d.values[k:])[:, None], mode="r")
    f = (u @ x if k else t) @ _inv_upper(r)
    del x, r
    # numpy forms f f^T by a symmetric rank-k update, symmetric to the bit
    return ShortedResult(SymMatrix._symmetric(f @ f.T), S)


def _inv_upper(r: np.ndarray) -> np.ndarray:
    """Inverse of an upper triangular r, blocked once: the inverses a, b of
    its diagonal halves and the corner -a r12 b.  numpy has no triangular
    inverse, and its general one costs about 8 times a triangular one; on
    the halves it costs a quarter of that."""
    h = r.shape[0] // 2
    out = np.zeros_like(r)
    out[:h, :h] = a = np.linalg.inv(r[:h, :h])
    out[h:, h:] = b = np.linalg.inv(r[h:, h:])
    out[:h, h:] = -(a @ r[:h, h:]) @ b
    return out


def short_schur(A: SymMatrix, S: Subspace, tol: Tolerances = DEFAULT_TOL) -> ShortedResult:
    """Shorted operator as a generalized Schur complement relative to the
    complement of S ^ R(A).

    A is rotated to G = B^T A B, B = [Bc, Bs] with the complement first, so
    G11 = A22 = Bc^T A Bc, G21 = A12 = Bs^T A Bc and G22 = A11 = Bs^T A Bs.
    A22 is positive semidefinite; its eigenvalues at or below
    rank_tol * ||A||_2 are its kernel, the rest are inverted.  Its
    eigenvalues, and G's, are at least A's smallest (Cauchy interlacing;
    Golub & Van Loan, Matrix Computations, Thm 8.1.7), so when
    lambda_min(A) exceeds the cutoff by 8 n eps ||A||_2, more than the
    rounding of G and of eig_sym's lambda_min, nothing is cut and G takes
    one Cholesky with no eigh: the trailing diagonal block L of its factor
    has L L^T = A11 - A12 A22^{-1} A21, so the shorted operator is
    (Bs L)(Bs L)^T.
    """
    d = _check_pair(A, S, tol)
    if S.dim == A.n:
        return ShortedResult(A, S)
    meet = _range_meet(d, S, tol)
    bs, bc = meet.basis, meet.complement().basis
    c = bc.shape[1]
    # G = [Bc, Bs]^T A [Bc, Bs], every entry written: neither branch reads
    # the upper right block, which is copied from the lower left
    g = np.empty((A.n, A.n))
    ab = A.entries @ bc
    np.matmul(bc.T, ab, out=g[:c, :c])
    np.matmul(bs.T, ab, out=g[c:, :c])
    ab = A.entries @ bs
    np.matmul(bs.T, ab, out=g[c:, c:])
    del ab
    g[:c, c:] = g[c:, :c].T
    cut = tol.rank_tol * d.norm2
    if d.lambda_min > cut + 8 * A.n * np.finfo(float).eps * d.norm2:
        l22 = np.linalg.cholesky(g)[c:, c:]
        del g
        f = bs @ l22
        del l22
        # numpy forms f f^T by a symmetric rank-k update, symmetric to the bit
        return ShortedResult(SymMatrix._symmetric(f @ f.T), S)
    w, v = np.linalg.eigh(g[:c, :c])
    keep = w > cut
    h = (g[c:, :c] @ v[:, keep]) / np.sqrt(w[keep])
    inner = g[c:, c:] - h @ h.T
    # the rotated matrix goes before the n x n embedding
    del g, v, h
    # Symmetrized here, to the bit: the Schur blocks carry a rounding
    # asymmetry of order eps ||A||, which can exceed _SYM_TOL relative to a
    # result much smaller than A.
    raw = bs @ inner @ bs.T
    sym = raw + raw.T
    sym *= 0.5
    return ShortedResult(SymMatrix._symmetric(sym), S)
