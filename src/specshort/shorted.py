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
- short_schur: the block route.  The shorted operator is the generalized
  Schur complement relative to a basis Bc of T's complement,
  A - A Bc pinv(Bc^T A Bc) Bc^T A, which reads S only through Bc.  A's
  kernel block, the one short_at reads, is first lifted to ||A||_2, which
  moves the shorted operator to T by a relative meet_tol^2 at most and
  makes K = Bc^T A' Bc of the lifted A' definite whenever A's first
  eigenvalue past the block clears rounding.  So K takes one Cholesky
  K = L L^T on a singular and a definite A alike, and the value is
  A' - H H^T with H = A' Bc L^-T.  When that eigenvalue lies within
  rounding of 0, a positive level only a rank cut below rounding leaves,
  K's eigh keeps its positive eigenvalues instead.

Results are embedded in the full n x n space (zero outside the subspace,
to rounding for short_schur) so
compositions need no basis bookkeeping; use ShortedResult.compressed for the
action on the subspace itself, and ShortedResult.scalar for the shorted
value on a line, short_at(A, Subspace.span(xi)).scalar().  A result
(core.ShortedResult, which rho shares) stores only its value and
subspace: range_residual, which no route reads, is computed from them when
read.  Every value is one symmetric rank-k update, symmetric to the bit:
short_at's F F^T, F = U U^T T R^{-1}, and short_schur's A' - H H^T, A'
symmetric to the bit too; so each enters SymMatrix by
SymMatrix._symmetric, which checks finiteness only.  short_schur's is a
difference, so its part off T is rounding of size eps ||A||_2.
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
    _pow2_scaled,
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
    complement Bc of T = S ^ R(A): A - A Bc (Bc^T A Bc)^+ Bc^T A (Anderson
    & Trapp, "Shorted operators II", 1975), which reads S only through Bc.

    A's kernel block (eig_sym's, the one short_at reads), with
    eigenvectors Z, is lifted to ||A||_2: A' = A + ||A||_2 Z Z^T, whose
    product A' Bc is formed as A Bc + ||A||_2 Z (Z^T Bc), with no n x n
    A'.  As T lies within meet_tol of R(A), the lift moves the shorted
    operator to T by a relative meet_tol^2 at most.  K = Bc^T A' Bc
    interlaces A''s eigenvalues: A's past Z, and Z's lifted to about
    ||A||_2.  So when A's first eigenvalue past Z clears the rounding,
    8 n eps ||A||_2, K takes one Cholesky K = L L^T with no eigh, and with
    H = (A' Bc) L^-T the shorted operator is A' - H H^T.  Otherwise K's
    eigh keeps its positive eigenvalues w, and H = (A' Bc) V_+ w^-1/2.
    """
    d = _check_pair(A, S, tol)
    if S.dim == A.n:
        return ShortedResult(A, S)
    k = d.blocks[0][1].stop
    meet = _range_meet(d, S, tol)
    if not meet.dim:
        return ShortedResult(SymMatrix._symmetric(np.zeros((A.n, A.n))), S)
    bc = meet.complement().basis
    # A' Bc and K in units of 2^e, e the exponent of ||A||_2, so 2^j A
    # gives the same factors and a value 2^j times as large to the bit
    ab, e = _pow2_scaled(A.entries @ bc, d.norm2)
    if k:
        z = d.vectors[:, :k] * np.sqrt(np.ldexp(d.norm2, -e))
        ab += z @ (z.T @ bc)
    g = bc.T @ ab
    del bc, meet
    # A''s smallest eigenvalue past Z, or ||A||_2 if Z is all
    if d.eigenvalues[k:].min(initial=d.norm2) > 8 * A.n * np.finfo(float).eps * d.norm2:
        h = ab @ _inv_upper(np.linalg.cholesky(g).T)
    else:
        w, v = np.linalg.eigh(g)
        keep = w > 0
        h = (ab @ v[:, keep]) / np.sqrt(w[keep])
    del ab, g
    # A - 2^e (h h^T - z z^T), formed in the buffer of h h^T: numpy forms
    # both products by a symmetric rank-k update, so every step is
    # symmetric to the bit
    out = h @ h.T
    del h
    if k:
        out -= z @ z.T
    np.ldexp(out, e, out=out)
    np.subtract(A.entries, out, out=out)
    return ShortedResult(SymMatrix._symmetric(out), S)
