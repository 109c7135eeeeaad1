"""The shorted operator of a positive semidefinite matrix to a subspace.

Two independent algorithms compute the same object and are kept permanently:
their agreement is the strongest correctness oracle available.

- short_at: the geometric route.  With M the preimage of the subspace under
  the square root (realized as the complement of sqrt(A) applied to the
  orthogonal complement), the shorted operator is sqrt(A) P_M sqrt(A).
- short_schur: the block route.  In a basis adapted to S and its complement,
  the shorted operator is the generalized Schur complement
  A11 - A12 pinv(A22) A21, embedded back into the full space.

Results are embedded in the full n x n space (zero outside the subspace) so
compositions need no basis bookkeeping; use ShortedResult.compressed for the
action on the subspace itself.
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
    eig_sym,
    image_subspace,
    matrix_power,
    pseudo_inverse,
)

__all__ = ["ShortedResult", "short_at", "short_schur", "short_vector"]


@dataclass(frozen=True)
class ShortedResult(_OnSubspace):
    """A shorted operator together with the subspace it was shorted to.

    range_residual is the largest entry of the part of the value lying
    outside the subspace; it should sit at rounding level.
    """

    value: SymMatrix
    method: str
    subspace: Subspace
    range_residual: float


def _range_residual(value: np.ndarray, S: Subspace) -> float:
    if value.size == 0:
        return 0.0
    outside = value - S.basis @ (S.basis.T @ value)
    return float(np.abs(outside).max())


def short_at(A: SymMatrix, S: Subspace, tol: Tolerances = DEFAULT_TOL) -> ShortedResult:
    """Shorted operator by the square-root / projection construction."""
    _check_pair(A, S, tol)
    if S.dim == 0:
        return ShortedResult(SymMatrix(np.zeros((A.n, A.n))), "anderson_trapp", S, 0.0)
    if S.dim == A.n:
        return ShortedResult(A, "anderson_trapp", S, 0.0)
    root = matrix_power(A, 0.5, tol)
    m = image_subspace(root, S.complement(), tol).complement()
    raw = root.entries @ m.projection() @ root.entries
    value = SymMatrix((raw + raw.T) / 2.0)
    return ShortedResult(
        value=value,
        method="anderson_trapp",
        subspace=S,
        range_residual=_range_residual(value.entries, S),
    )


def short_schur(A: SymMatrix, S: Subspace, tol: Tolerances = DEFAULT_TOL) -> ShortedResult:
    """Shorted operator as a generalized Schur complement.

    Singular trailing blocks go through the pseudo-inverse; for positive
    semidefinite matrices the usual range-inclusion condition between the
    off-diagonal and trailing blocks holds automatically.
    """
    _check_pair(A, S, tol)
    k = S.dim
    comp = S.complement()
    if k == 0:
        value = SymMatrix(np.zeros((A.n, A.n)))
        return ShortedResult(value, "schur", S, 0.0)
    if k == A.n:
        return ShortedResult(A, "schur", S, 0.0)
    bs, bc = S.basis, comp.basis
    a11 = bs.T @ A.entries @ bs
    a12 = bs.T @ A.entries @ bc
    a22 = bc.T @ A.entries @ bc
    a22_pinv = pseudo_inverse(SymMatrix(a22), tol).entries
    small = a11 - a12 @ a22_pinv @ a12.T
    raw = bs @ small @ bs.T
    value = SymMatrix((raw + raw.T) / 2.0)
    return ShortedResult(
        value=value,
        method="schur",
        subspace=S,
        range_residual=_range_residual(value.entries, S),
    )


def short_vector(A: SymMatrix, xi, tol: Tolerances = DEFAULT_TOL) -> float:
    """Scalar shorted value for a one-dimensional subspace.

    For invertible A this is 1 / <A^{-1} xi, xi>; for singular A it falls
    back to shorting onto span(xi).  Always lies in [0, <A xi, xi>].
    """
    v = _direction(xi, tol)
    A.assert_psd(tol)
    d = eig_sym(A, tol)
    cut = tol.rank_abs(d.norm2)
    if d.lambda_min > cut:
        coeffs = d.vectors.T @ v
        inv_quad = float(np.sum(coeffs**2 / d.eigenvalues))
        return 1.0 / inv_quad
    result = short_at(A, Subspace.span(v, tol), tol).scalar()
    return max(result, 0.0)
