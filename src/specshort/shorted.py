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
  A11 - A12 pinv(A22) A21, embedded back into the full space.  A's kernel
  block, the one short_at reads, is first lifted to ||A||_2, which moves
  the shorted operator to T by a relative meet_tol^2 at most and makes
  the lifted matrix definite whenever A's first eigenvalue past the block
  clears rounding.  So the lifted matrix, rotated once into that basis
  (complement first), takes one Cholesky on a singular and a definite A
  alike, and its trailing factor L gives the Schur complement as L L^T.
  When that eigenvalue lies within rounding of 0, a positive level only a
  rank cut below rounding leaves, A22's eigh keeps its positive
  eigenvalues and the Schur complement's eigh gives L.

Results are embedded in the full n x n space (zero outside the subspace) so
compositions need no basis bookkeeping; use ShortedResult.compressed for the
action on the subspace itself, and ShortedResult.scalar for the shorted
value on a line, short_at(A, Subspace.span(xi)).scalar().  A result
(core.ShortedResult, which rho shares) stores only its value and
subspace: range_residual, which no route reads, is computed from them when
read.  Every value is F F^T, F = U U^T T R^{-1} or Bs L, which numpy forms
by a symmetric rank-k update, symmetric to the bit; so each enters
SymMatrix by SymMatrix._symmetric, which checks finiteness only.
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
    complement of T = S ^ R(A).

    A's kernel block (eig_sym's, the one short_at reads), with
    eigenvectors Z, is lifted to ||A||_2: G = B^T (A + ||A||_2 Z Z^T) B,
    B = [Bc, Bs] with the complement first, so G11 = A22, G21 = A12 and
    G22 = A11 of the lifted matrix.  As T lies within meet_tol of R(A), the
    lift moves the shorted operator to T by a relative meet_tol^2 at most.
    G's eigenvalues are the lifted matrix's: A's past Z, and Z's lifted to
    about ||A||_2.  So when A's first eigenvalue past Z clears the rounding,
    8 n eps ||A||_2, G takes one Cholesky with no eigh: the trailing
    diagonal block L of its factor has L L^T = A11 - A12 A22^{-1} A21.
    Otherwise A22's eigh keeps its positive eigenvalues and the Schur
    complement's eigh gives L, its rounding-negative eigenvalues at 0.
    Either way the shorted operator is (Bs L)(Bs L)^T.
    """
    d = _check_pair(A, S, tol)
    if S.dim == A.n:
        return ShortedResult(A, S)
    k = d.blocks[0][1].stop
    meet = _range_meet(d, S, tol)
    bs, bc = meet.basis, meet.complement().basis
    c = bc.shape[1]
    # G = [Bc, Bs]^T A [Bc, Bs] before the lift, every entry written:
    # neither branch reads the upper right block, copied from the lower left
    g = np.empty((A.n, A.n))
    ab = A.entries @ bc
    np.matmul(bc.T, ab, out=g[:c, :c])
    np.matmul(bs.T, ab, out=g[c:, :c])
    ab = A.entries @ bs
    np.matmul(bs.T, ab, out=g[c:, c:])
    del ab
    g[:c, c:] = g[c:, :c].T
    if k:
        # the lift, ||A||_2 Y Y^T with Y = B^T Z, added in G's coordinates
        y = np.r_[bc.T @ d.vectors[:, :k], bs.T @ d.vectors[:, :k]]
        g += (y * d.norm2) @ y.T
    # the lifted matrix's smallest eigenvalue past Z, or ||A||_2 if Z is all
    if d.eigenvalues[k:].min(initial=d.norm2) > 8 * A.n * np.finfo(float).eps * d.norm2:
        l22 = np.linalg.cholesky(g)[c:, c:]
    else:
        w, v = np.linalg.eigh(g[:c, :c])
        keep = w > 0
        h = (g[c:, :c] @ v[:, keep]) / np.sqrt(w[keep])
        w, v = np.linalg.eigh(g[c:, c:] - h @ h.T)
        l22 = v * np.sqrt(np.maximum(w, 0.0))
    del g
    f = bs @ l22
    del l22
    # numpy forms f f^T by a symmetric rank-k update, symmetric to the bit
    return ShortedResult(SymMatrix._symmetric(f @ f.T), S)
