"""Dense symmetric-matrix primitives.

Eigendecomposition with level clustering, spectral projections, functional
calculus, real matrix powers, Moore-Penrose pseudo-inverse, and the
projection-lattice operations (meet, image, complement) that the rest of the
package is built on.

All values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "DimensionMismatchError",
    "EigenConvergenceError",
    "Tolerances",
    "DEFAULT_TOL",
    "STRICT_TOL",
    "SymMatrix",
    "SpectralDecomposition",
    "Subspace",
    "eig_sym",
    "spectral_projection",
    "matrix_function",
    "matrix_power",
    "pseudo_inverse",
    "projection_meet",
    "image_subspace",
]


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain."""


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class EigenConvergenceError(RuntimeError):
    """The eigensolver did not converge; carries the off-diagonal residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by every operation.

    cluster_tol and rank_tol are relative to ||A||_2 at the point of use, so
    every result scales with A.  rank_tol fixes the kernel for every route:
    the levels at or below rank_tol * ||A||_2 form one block of value 0
    (SpectralDecomposition.blocks), which the functional calculus maps to
    f(0) and every shorted and spectral shorted route reads as the
    complement of the range.  meet_tol bounds a principal-angle sine and
    decides every membership question: a direction lies in a meet, one
    subspace inside another, and a vector or subspace inside a half-line
    (the range of A included), when the sine of its angle to the other
    subspace is at most meet_tol.  The others are absolute on quantities
    that are O(1) by construction (orthonormality residuals, unit vectors).
    """

    cluster_tol: float = 1e-8
    rank_tol: float = 1e-10
    meet_tol: float = 1e-8
    conv_tol: float = 1e-9
    orth_tol: float = 1e-10
    sym_tol: float = 1e-8
    psd_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise DomainError(f"tolerance {f.name} must be nonnegative")

    def cluster_abs(self, norm: float) -> float:
        return self.cluster_tol * norm

    def rank_abs(self, norm: float) -> float:
        return self.rank_tol * norm


DEFAULT_TOL = Tolerances()
STRICT_TOL = Tolerances(
    cluster_tol=1e-10,
    rank_tol=1e-12,
    meet_tol=1e-10,
    conv_tol=1e-11,
    orth_tol=1e-12,
    sym_tol=1e-10,
    psd_tol=1e-10,
)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's first nonzero entry is positive."""
    out = np.array(vectors)
    if out.size == 0:
        return out
    absv = np.abs(out)
    # A zero column has no entry above 0, so its lead is row 0 and it stays.
    lead = np.argmax(absv > 1e-8 * absv.max(axis=0), axis=0)
    flip = out[lead, np.arange(out.shape[1])] < 0
    out[:, flip] = -out[:, flip]
    return out


def _cluster(eigenvalues: np.ndarray, tol_abs: float) -> tuple[tuple[int, ...], ...]:
    """Partition sorted eigenvalue indices into maximal groups whose members
    pairwise differ by at most tol_abs."""
    groups: list[tuple[int, ...]] = []
    current = [0]
    for i in range(1, len(eigenvalues)):
        if eigenvalues[i] - eigenvalues[current[0]] <= tol_abs:
            current.append(i)
        else:
            groups.append(tuple(current))
            current = [i]
    groups.append(tuple(current))
    return tuple(groups)


class SymMatrix:
    """Real symmetric n x n matrix, stored canonically symmetrized.

    The entry array is made read-only on construction.  Construction rejects
    an empty (0 x 0) input and inputs whose asymmetry exceeds sym_tol
    relative to the largest entry.
    Matrices built from a known eigendecomposition (matrix_function,
    matrix_power, pseudo_inverse) keep the exact eigenvalue list attached so
    downstream spectral logic never re-diagonalizes a powered matrix; this is
    what keeps extreme powers accurate per eigenvalue.
    """

    __slots__ = ("entries", "_eigens", "_decomps")

    def __init__(self, entries, tol: Tolerances = DEFAULT_TOL):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise DomainError("expected a matrix of size at least 1 x 1, got 0 x 0")
        if not np.all(np.isfinite(arr)):
            raise DomainError("matrix entries must be finite")
        scale = max(1.0, float(np.abs(arr).max()))
        asym = float(np.abs(arr - arr.T).max())
        if asym > tol.sym_tol * scale:
            raise DomainError(f"matrix is not symmetric: max asymmetry {asym:.3e}")
        arr = (arr + arr.T) / 2.0
        arr.setflags(write=False)
        self.entries = arr
        self._eigens: tuple[np.ndarray, np.ndarray] | None = None
        self._decomps: dict[float, "SpectralDecomposition"] = {}

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_eigens(cls, eigenvalues, vectors) -> "SymMatrix":
        """Build V diag(w) V^T and attach (w, V) as the exact decomposition."""
        w = np.asarray(eigenvalues, dtype=float)
        v = np.asarray(vectors, dtype=float)
        order = np.argsort(w, kind="stable")
        w = w[order]
        v = _fix_signs(v[:, order])
        entries = (v * w) @ v.T
        out = cls((entries + entries.T) / 2.0)
        w.setflags(write=False)
        v.setflags(write=False)
        out._eigens = (w, v)
        return out

    def spectral_norm(self, tol: Tolerances = DEFAULT_TOL) -> float:
        return eig_sym(self, tol).norm2

    def assert_psd(self, tol: Tolerances = DEFAULT_TOL) -> None:
        # Scaled by max(1, norm) so matrices that are zero up to rounding
        # (e.g. shorted operators of disjoint ranges) count as positive.
        d = eig_sym(self, tol)
        if d.lambda_min < -tol.psd_tol * max(1.0, d.norm2):
            raise DomainError(
                f"matrix is not positive semidefinite: eigenvalue {d.lambda_min:.6e}"
            )

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues, orthonormal eigenvector columns, and the
    clustering of indices into distinct numerical levels."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    levels: tuple[tuple[int, ...], ...]
    level_values: np.ndarray
    lambda_min: float
    lambda_max: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def norm2(self) -> float:
        return max(abs(self.lambda_min), abs(self.lambda_max))

    def blocks(self, tol: Tolerances = DEFAULT_TOL) -> list[tuple[float, slice]]:
        """Level blocks, ascending, as (value, slice of eigen indices).

        The first block is the kernel: every level at or below the rank
        cutoff, merged into one block of value 0 (an empty slice when no
        level is that small).  Each further block is one positive level.
        """
        cut = tol.rank_abs(self.norm2)
        blocks = [(0.0, slice(0, 0))]
        for group, rep in zip(self.levels, self.level_values.tolist()):
            if rep > cut:
                blocks.append((rep, slice(group[0], group[-1] + 1)))
            else:
                blocks[0] = (0.0, slice(0, group[-1] + 1))
        return blocks


def eig_sym(A: SymMatrix, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Symmetric eigendecomposition with deterministic sign convention and
    one-shot eigenvalue clustering.

    Clustering happens here, once; every downstream notion of "distinct
    eigenvalue" reuses the same partition.  Results are cached per matrix
    and clustering tolerance.
    """
    cached = A._decomps.get(tol.cluster_tol)
    if cached is not None:
        return cached
    if A._eigens is not None:
        w, v = A._eigens
    else:
        try:
            w, v = np.linalg.eigh(A.entries)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh is robust
            off = A.entries - np.diag(np.diag(A.entries))
            residual = float(np.abs(off).max())
            raise EigenConvergenceError(
                f"eigendecomposition failed: {exc}", residual
            ) from exc
        v = _fix_signs(v)
        w = np.array(w)
        w.setflags(write=False)
        v.setflags(write=False)
        A._eigens = (w, v)
    norm = max(abs(float(w[0])), abs(float(w[-1])))
    groups = _cluster(w, tol.cluster_abs(norm))
    # A one-member level is its own mean, without np.mean's per-call cost.
    reps = np.array([float(w[g[0]]) if len(g) == 1 else float(np.mean(w[g[0] : g[-1] + 1])) for g in groups])
    reps.setflags(write=False)
    decomp = SpectralDecomposition(
        eigenvalues=w,
        vectors=v,
        levels=groups,
        level_values=reps,
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
    )
    A._decomps[tol.cluster_tol] = decomp
    return decomp


class Subspace:
    """Closed subspace of R^n carried as an orthonormal n x k basis.

    k may be zero (the zero subspace).  Construction validates orthonormality;
    use Subspace.span to orthonormalize an arbitrary spanning set.
    """

    __slots__ = ("basis",)

    def __init__(self, basis, tol: Tolerances = DEFAULT_TOL):
        b = np.array(basis, dtype=float)
        if b.ndim != 2:
            raise DomainError(f"basis must be a 2-d array, got shape {b.shape}")
        if b.shape[1] > b.shape[0]:
            raise DomainError(
                f"basis has {b.shape[1]} columns in dimension {b.shape[0]}"
            )
        if b.size:
            gram = b.T @ b
            resid = float(np.abs(gram - np.eye(b.shape[1])).max())
            if resid > max(tol.orth_tol, 1e-12):
                raise DomainError(
                    f"basis columns are not orthonormal (residual {resid:.3e}); "
                    "use Subspace.span to orthonormalize"
                )
        b.setflags(write=False)
        self.basis = b

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(np.zeros((n, 0)))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(np.eye(n))

    @classmethod
    def span(cls, vectors, tol: Tolerances = DEFAULT_TOL) -> "Subspace":
        """Orthonormal basis of the span of the given column vectors, with
        rank decided on the singular values."""
        m = np.asarray(vectors, dtype=float)
        if m.ndim == 1:
            m = m.reshape(-1, 1)
        if m.size == 0:
            return cls.zero(m.shape[0])
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        cut = max(tol.rank_tol * float(s[0]), 0.0) if len(s) else 0.0
        keep = s > cut
        return cls(_fix_signs(u[:, keep]))

    def projection(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def complement(self) -> "Subspace":
        """Orthogonal complement."""
        n, k = self.n, self.dim
        if k == 0:
            return Subspace.full(n)
        if k == n:
            return Subspace.zero(n)
        q, _ = np.linalg.qr(self.basis, mode="complete")
        return Subspace(_fix_signs(q[:, k:]))

    def containment_residual(self, other: "Subspace") -> float:
        """||(I - P_other) restricted to self||_2; 0 means self is inside other."""
        if self.n != other.n:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.n} vs {other.n}"
            )
        if self.dim == 0:
            return 0.0
        return float(_principal_sines(self, other)[0][0])

    def __repr__(self) -> str:
        return f"Subspace(n={self.n}, dim={self.dim})"


def _principal_sines(P: Subspace, Q: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """Sines of the principal angles from R(P) to R(Q), descending, with
    the matching directions as P-coordinate columns.

    Taken as the singular values of (I - P_Q) P.basis, which stay accurate
    for small angles where cosines lose them (Bjorck & Golub 1973; Knyazev
    & Argentati 2002).
    """
    rest = P.basis - Q.basis @ (Q.basis.T @ P.basis)
    _, sines, vt = np.linalg.svd(rest, full_matrices=False)
    return sines, vt.T


def _direction(xi, tol: Tolerances | None = None) -> np.ndarray:
    """xi scaled to unit length; given tol, xi must already be a unit
    vector."""
    v = np.asarray(xi, dtype=float).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise DomainError("xi must be a nonzero vector")
    if tol is not None and abs(nrm - 1.0) > max(tol.orth_tol, 1e-9):
        raise DomainError(f"xi must be a unit vector, got norm {nrm!r}")
    return v / nrm


def _check_pair(A: SymMatrix, S: Subspace, tol: Tolerances) -> None:
    if A.n != S.n:
        raise DimensionMismatchError(f"ambient dimensions differ: {A.n} vs {S.n}")
    A.assert_psd(tol)


class _OnSubspace:
    """compressed() and scalar() for a result whose `value` acts on its
    `subspace`."""

    def compressed(self) -> np.ndarray:
        """The value as an operator on the subspace (dim x dim array)."""
        b = self.subspace.basis
        return b.T @ self.value.entries @ b

    def scalar(self) -> float:
        """Compression to a one-dimensional subspace, as a number."""
        if self.subspace.dim != 1:
            raise DomainError(
                f"scalar() needs a one-dimensional subspace, got dim {self.subspace.dim}"
            )
        return float(self.compressed()[0, 0])


def _half_line_start(D: SpectralDecomposition, lam, tol: Tolerances):
    """First eigen index of the half-line E[lam, inf): whole levels from the
    first whose representative reaches lam, up to the clustering
    tolerance.  Given an array of thresholds, an array of the same shape."""
    cut = np.asarray(lam) - tol.cluster_abs(D.norm2)
    firsts = np.array([group[0] for group in D.levels] + [D.n])
    return firsts[np.searchsorted(D.level_values, cut, side="left")]


def _half_line_level(
    D: SpectralDecomposition, x: np.ndarray, tol: Tolerances, top_down: bool = False
) -> float:
    """Value of the first level block, walking from the bottom (or the top),
    at which the rows of V^T x seen so far reach a 2-norm above meet_tol;
    the kernel block's value is 0.

    For a unit vector or an orthonormal basis x, that 2-norm is the largest
    principal-angle sine of R(x) to the span of the blocks not yet walked,
    so bottom up this is the largest level whose half-line contains R(x),
    and top down the largest level whose half-line still sees x.
    """
    c = D.vectors.T @ x
    blocks = D.blocks(tol)
    mu = 0.0
    for mu, rows in reversed(blocks) if top_down else blocks:
        seen = c[rows.start :] if top_down else c[: rows.stop]
        if np.linalg.norm(seen, 2) > tol.meet_tol:
            break
    return mu


def spectral_projection(
    D: SpectralDecomposition, lam: float, tol: Tolerances = DEFAULT_TOL
) -> Subspace:
    """Projection onto the span of eigenvectors with eigenvalue >= lam,
    up to the clustering tolerance.

    Whole levels are kept or dropped together, so the result is monotone in
    lam exactly (as index sets).
    """
    return Subspace(D.vectors[:, _half_line_start(D, lam, tol) :])


def matrix_function(
    A: SymMatrix, f: Callable[[float], float], tol: Tolerances = DEFAULT_TOL
) -> SymMatrix:
    """Apply f through the spectral theorem: V diag(f(mu)) V^T over the
    level blocks of a positive semidefinite A.

    f is evaluated once per nonempty block, on its value, so all members of
    a level receive the same image and the kernel (every level at or below
    the rank cutoff) maps to f(0).
    """
    A.assert_psd(tol)
    d = eig_sym(A, tol)
    values = np.empty(d.n)
    for mu, idx in d.blocks(tol):
        if idx.stop == idx.start:
            continue
        try:
            y = float(f(mu))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"function undefined at eigenvalue {mu!r}: {exc}") from exc
        if not np.isfinite(y):
            raise DomainError(f"function not finite at eigenvalue {mu!r}")
        values[idx] = y
    return SymMatrix.from_eigens(values, d.vectors)


def matrix_power(
    A: SymMatrix, t: float, tol: Tolerances = DEFAULT_TOL
) -> SymMatrix:
    """A**t for t > 0 on a positive semidefinite matrix; the kernel maps to
    zero, so fractional powers of singular matrices stay meaningful.
    Inverse powers go through pseudo_inverse."""
    if not t > 0:
        raise DomainError(f"exponent must be positive, got {t}")
    return matrix_function(A, lambda mu: mu**t, tol)


def pseudo_inverse(A: SymMatrix, tol: Tolerances = DEFAULT_TOL) -> SymMatrix:
    """Moore-Penrose pseudo-inverse of a positive semidefinite matrix:
    levels above the rank cutoff are inverted, the kernel is zeroed."""
    return matrix_function(A, lambda mu: 1.0 / mu if mu else 0.0, tol)


def _block_values(D: SpectralDecomposition, tol: Tolerances) -> np.ndarray:
    """Each eigen index's level block value: 0 on the kernel block, the
    level value on every positive block.  The spectrum the shorted and
    iterative routes take A to have."""
    values = np.zeros(D.n)
    for mu, idx in D.blocks(tol):
        values[idx] = mu
    return values


def _range_meet(D: SpectralDecomposition, S: Subspace, tol: Tolerances) -> np.ndarray:
    """Orthonormal basis columns of S ^ R(A): the directions of S whose
    kernel-block component, the sine of their principal angle to the range
    of A, is at most meet_tol (S's own basis when A has no kernel).

    Both shorted routes and the iterative oracle read the part of a
    subspace inside the range of A here.
    """
    kernel = D.vectors[:, D.blocks(tol)[0][1]]
    if not kernel.shape[1]:
        return S.basis
    _, sines, vt = np.linalg.svd(kernel.T @ S.basis)
    return S.basis @ vt[np.count_nonzero(sines > tol.meet_tol) :].T


def projection_meet(
    P: Subspace, Q: Subspace, tol: Tolerances = DEFAULT_TOL
) -> Subspace:
    """Orthogonal projection onto R(P) intersect R(Q): the directions of P
    whose principal-angle sine to Q is at most meet_tol."""
    if P.n != Q.n:
        raise DimensionMismatchError(f"ambient dimensions differ: {P.n} vs {Q.n}")
    if P.dim == 0 or Q.dim == 0:
        return Subspace.zero(P.n)
    sines, directions = _principal_sines(P, Q)
    return Subspace(_fix_signs(P.basis @ directions[:, sines <= tol.meet_tol]))


def image_subspace(
    A: SymMatrix, S: Subspace, tol: Tolerances = DEFAULT_TOL
) -> Subspace:
    """Orthonormal basis of A(S); rank decided by rank_tol relative to
    ||A||_2 on the singular values of A times the basis of S."""
    if A.n != S.n:
        raise DimensionMismatchError(f"ambient dimensions differ: {A.n} vs {S.n}")
    if S.dim == 0:
        return Subspace.zero(A.n)
    g = A.entries @ S.basis
    u, s, _ = np.linalg.svd(g, full_matrices=False)
    cut = tol.rank_abs(A.spectral_norm(tol))
    keep = s > cut
    if not np.any(keep):
        return Subspace.zero(A.n)
    return Subspace(_fix_signs(u[:, keep]))
