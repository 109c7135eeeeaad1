"""Dense symmetric-matrix primitives.

Eigendecomposition with level clustering, spectral projections, functional
calculus, real matrix powers, Moore-Penrose pseudo-inverse, and the
projection-lattice operations (meet, complement) that the rest of the
package is built on.

Every value is immutable in what it means, and every operation is a pure
function of its inputs.  A few caches are filled once and never change
after: a SymMatrix's eigenpairs (_eigens: attached by from_eigens, else
filled by the first eig_sym) and its decompositions per (cluster_tol,
rank_tol) (_decomps), and a Subspace's orthogonal complement (_complement:
stored by Subspace.span from the QR that gives the basis when the spanning
set has full column rank, else filled on first use).
Two threads that fill one at once store equal values, so everything here is
safe to share across threads.

Each check reads an n x n array in one pass: SymMatrix's finiteness and
asymmetry, and its stored symmetrization, built in the array that held the
difference; and the orthonormality residual, which takes the identity off
B^T B in place.  Column signs are fixed in place, on arrays the library has
just made, never on one a caller holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "DimensionMismatchError",
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
]

# Above this largest magnitude, a + a^T can overflow.
_HALF_MAX = float(np.finfo(float).max) / 2


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain."""


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by every operation.

    cluster_tol and rank_tol are relative to ||A||_2 at the point of use, so
    every result scales with A.  eig_sym reads both and decides A's one
    level partition: it clusters the eigenvalues at cluster_tol * ||A||_2
    and folds every level at or below rank_tol * ||A||_2 into the kernel,
    one block of value 0 (SpectralDecomposition.blocks), which every route
    reads.  Past eig_sym, rank_tol is read only by short_schur's trailing
    block and by Subspace.span.  meet_tol bounds a principal-angle sine and
    decides every membership question: a direction lies in a meet, one
    subspace inside another, and a vector or subspace inside a half-line
    (the range of A included, so kolmogorov_power's "no positive support"
    too), when the sine of its angle to the other subspace is at most
    meet_tol.  The others are absolute on quantities that are O(1) by
    construction (orthonormality residuals, unit vectors).  Every field
    must be finite and nonnegative.
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
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise DomainError(f"tolerance {f.name} must be finite and nonnegative, got {value!r}")

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
    """Flip column signs in place so each column's first nonzero entry is
    positive, and return the array.  Every caller passes an array the
    library has just made (eigh's or QR's factor, a product or a fancy-
    indexed copy), never one a caller of the package holds."""
    if vectors.size == 0:
        return vectors
    absv = np.abs(vectors)
    floor = 1e-8 * absv.max(axis=0)
    # Row 0 leads almost every column; only the others are searched.  A
    # zero column has no entry above 0, so its lead is row 0 and it stays.
    lead = np.zeros(vectors.shape[1], dtype=np.intp)
    late = np.flatnonzero(absv[0] <= floor)
    if late.size:
        lead[late] = np.argmax(absv[:, late] > floor[late], axis=0)
    # Multiplying by -1 is an exact negation, -0.0 included.
    vectors *= np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    return vectors


def _check_orthonormal(b: np.ndarray, tol: Tolerances, what: str, hint: str = "") -> None:
    """Raise DomainError unless b's columns are orthonormal: max |B^T B - I|
    at most max(orth_tol, 1e-12)."""
    if not b.size:
        return
    gram = b.T @ b
    gram[np.diag_indices_from(gram)] -= 1.0
    resid = float(np.abs(gram, out=gram).max())
    if not resid <= max(tol.orth_tol, 1e-12):  # a NaN residual fails too
        raise DomainError(f"{what} are not orthonormal (residual {resid:.3e}){hint}")


def _smallest_sv_above(t: np.ndarray, floor: float, relative: bool = False) -> bool:
    """Whether t's smallest singular value exceeds floor (floor times the
    largest when relative), for a finite t with at least one entry.

    A Cholesky of t's smaller Gram matrix G, shifted down by
    2 (floor^2 (||t||_F^2 if relative else 1) + 64 m eps ||t||_F^2) I with m
    its order, certifies it when it completes: forming G and factoring it
    err by a small multiple of eps ||t||_F^2 (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3), which the second term
    covers, so s_min^2 = lambda_min(G) exceeds twice the first, and
    ||t||_F bounds s_max.  When the Cholesky fails, one values-only SVD
    decides by the exact rule.
    """
    gram = t @ t.T if t.shape[0] <= t.shape[1] else t.T @ t
    m = gram.shape[0]
    fro2 = float(np.trace(gram))
    shift = 2.0 * (floor**2 * (fro2 if relative else 1.0) + 64 * m * np.finfo(float).eps * fro2)
    try:
        np.linalg.cholesky(gram - shift * np.eye(m))
        return True
    except np.linalg.LinAlgError:
        s = np.linalg.svd(t, compute_uv=False)
        return bool(s[-1] > floor * (s[0] if relative else 1.0))


def _cluster(values: list[float], tol_abs: float) -> list[slice]:
    """Partition the indices of sorted values into maximal runs whose
    members lie within tol_abs of the run's first."""
    starts = [0]
    for i in range(1, len(values)):
        if values[i] - values[starts[-1]] > tol_abs:
            starts.append(i)
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [len(values)])]


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
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise DomainError("expected a matrix of size at least 1 x 1, got 0 x 0")
        # NaN and +-inf propagate through the largest magnitude.
        scale = float(np.abs(arr).max())
        if not math.isfinite(scale):
            raise DomainError("matrix entries must be finite")
        # a - a^T is antisymmetric to the bit, so its largest entry is its
        # largest magnitude; the array then holds (a + a^T) / 2, and x * 0.5
        # is x / 2 exactly.  Where a - a^T or a + a^T would overflow, each
        # half is taken first; below that bound the sum keeps the last bit
        # at subnormal scales.
        huge = scale > _HALF_MAX
        out = arr * 0.5 if huge else arr - arr.T
        asym = 2.0 * float((out - out.T).max()) if huge else float(out.max())
        if asym > tol.sym_tol * max(1.0, scale):
            raise DomainError(f"matrix is not symmetric: max asymmetry {asym:.3e}")
        if huge:
            out += out.T
        else:
            np.add(arr, arr.T, out=out)
            out *= 0.5
        out.setflags(write=False)
        self.entries = out
        self._eigens: tuple[np.ndarray, np.ndarray] | None = None
        self._decomps: dict[tuple[float, float], "SpectralDecomposition"] = {}

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_eigens(cls, eigenvalues, vectors) -> "SymMatrix":
        """Build V diag(w) V^T and attach (w, V) as the exact decomposition.

        V must be n x n with orthonormal columns (the residual bound
        Subspace applies, at DEFAULT_TOL) and w must hold n values, so the
        attached decomposition is the matrix's own.
        """
        w = np.asarray(eigenvalues, dtype=float)
        v = np.asarray(vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or w.shape != v.shape[1:]:
            raise DomainError(
                f"expected n eigenvalues and n x n eigenvectors, got {w.shape} and {v.shape}"
            )
        _check_orthonormal(v, DEFAULT_TOL, "eigenvectors")
        return cls._attach(w, v)

    @classmethod
    def _attach(cls, w: np.ndarray, v: np.ndarray) -> "SymMatrix":
        """from_eigens without its checks, for eigenvectors built here:
        eigh's, or a Subspace basis already checked at the caller's
        orth_tol.

        The product V diag(w) V^T is formed from the columns with w != 0
        only, since the others add exact zeros; every column stays in the
        attached decomposition."""
        order = np.argsort(w, kind="stable")
        w = w[order]
        v = _fix_signs(v[:, order])
        keep = w != 0.0
        vk = v[:, keep]
        out = cls((vk * w[keep]) @ vk.T)
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
    """Ascending eigenvalues, orthonormal eigenvector columns, and A's one
    partition of the eigen indices into level blocks.

    blocks lists (value, slice of eigen indices), ascending, and partitions
    the eigen indices in order.  The first block is the kernel: every level
    at or below the rank cut, folded into one block of value 0 (an empty
    slice when no level is that small).  Each further block is one positive
    level, valued at the mean of its members.  values holds each eigen
    index's block value, the spectrum every route takes A to have.  levels
    and level_values view the nonempty blocks.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    blocks: tuple[tuple[float, slice], ...]
    values: np.ndarray
    lambda_min: float
    lambda_max: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def norm2(self) -> float:
        return max(abs(self.lambda_min), abs(self.lambda_max))

    def _nonempty(self) -> tuple[tuple[float, slice], ...]:
        return self.blocks if self.blocks[0][1].stop else self.blocks[1:]

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """The eigen indices of each nonempty block, ascending."""
        return tuple(tuple(range(idx.start, idx.stop)) for _, idx in self._nonempty())

    @property
    def level_values(self) -> np.ndarray:
        """The value of each nonempty block, ascending."""
        out = np.array([mu for mu, _ in self._nonempty()])
        out.setflags(write=False)
        return out


def eig_sym(A: SymMatrix, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Symmetric eigendecomposition with a deterministic sign convention
    and A's one level partition.

    The partition is decided here, once: the eigenvalues are clustered at
    cluster_tol * ||A||_2, and every level at or below rank_tol * ||A||_2 is
    folded into the kernel block.  Every downstream notion of a level or of
    the kernel reads it.  Eigenpairs are cached per matrix, decompositions
    per matrix and (cluster_tol, rank_tol).
    """
    key = (tol.cluster_tol, tol.rank_tol)
    cached = A._decomps.get(key)
    if cached is not None:
        return cached
    if A._eigens is None:
        w, v = np.linalg.eigh(A.entries)
        v = _fix_signs(v)
        w.setflags(write=False)
        v.setflags(write=False)
        A._eigens = (w, v)
    w, v = A._eigens
    norm = max(abs(float(w[0])), abs(float(w[-1])))
    cut = tol.rank_abs(norm)
    blocks = [(0.0, slice(0, 0))]
    listed = w.tolist()  # Python floats index faster than numpy scalars
    for idx in _cluster(listed, tol.cluster_abs(norm)):
        # A one-member level is its own mean, without np.mean's per-call cost.
        mu = listed[idx.start] if idx.stop - idx.start == 1 else float(np.mean(w[idx]))
        if mu > cut:
            blocks.append((mu, idx))
        else:
            blocks[0] = (0.0, slice(0, idx.stop))
    values = np.repeat([mu for mu, _ in blocks], [idx.stop - idx.start for _, idx in blocks])
    values.setflags(write=False)
    decomp = SpectralDecomposition(
        eigenvalues=w,
        vectors=v,
        blocks=tuple(blocks),
        values=values,
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
    )
    A._decomps[key] = decomp
    return decomp


class Subspace:
    """Closed subspace of R^n carried as an orthonormal n x k basis.

    k may be zero (the zero subspace).  Construction validates orthonormality;
    use Subspace.span to orthonormalize an arbitrary spanning set.
    """

    __slots__ = ("basis", "_complement")

    def __init__(self, basis, tol: Tolerances = DEFAULT_TOL):
        b = np.array(basis, dtype=float)
        if b.ndim != 2:
            raise DomainError(f"basis must be a 2-d array, got shape {b.shape}")
        if b.shape[1] > b.shape[0]:
            raise DomainError(
                f"basis has {b.shape[1]} columns in dimension {b.shape[0]}"
            )
        _check_orthonormal(b, tol, "basis columns", "; use Subspace.span to orthonormalize")
        b.setflags(write=False)
        self.basis = b
        self._complement: Subspace | None = None

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
        """Orthonormal basis of the span of the given n x c column vectors,
        from one complete Householder QR, m = QR (Golub & Van Loan 5.2).

        Rank is decided on R's singular values, which are m's: a value at
        or below rank_tol times the largest is dropped.  Full column rank
        is certified by a Cholesky of R's shifted Gram matrix
        (_smallest_sv_above), so a well-conditioned set takes no SVD; a set
        the certificate cannot clear takes R's values-only SVD, under the
        same rule.  With full column rank and c <= n the basis is Q's first
        c columns, and the rest of Q is stored as the complement, so
        complement() takes no QR of its own.  Otherwise the basis is Q U_R
        restricted to the kept singular directions, U_R from the SVD of R's
        leading rows, and the complement is left to complement().
        Non-finite entries raise DomainError.
        """
        m = np.asarray(vectors, dtype=float)
        if m.ndim == 1:
            m = m.reshape(-1, 1)
        if m.size == 0:
            return cls.zero(m.shape[0])
        if not np.all(np.isfinite(m)):
            raise DomainError("spanning vectors must be finite")
        n, c = m.shape
        p = min(n, c)
        q, r = np.linalg.qr(m, mode="complete")
        if c <= n and _smallest_sv_above(r[:p], tol.rank_tol, relative=True):
            q = _fix_signs(q)
            out = cls(q[:, :c])
            out._complement = cls(q[:, c:])
            return out
        u, s, _ = np.linalg.svd(r[:p], full_matrices=False)
        return cls(_fix_signs(q[:, :p] @ u[:, s > tol.rank_tol * s[0]]))

    def projection(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def complement(self) -> "Subspace":
        """Orthogonal complement, computed once and cached: Subspace.span
        stores it from its own QR when the spanning set has full column
        rank, and otherwise it is taken here from a complete QR of the
        basis."""
        if self._complement is None:
            n, k = self.n, self.dim
            if k == 0:
                self._complement = Subspace.full(n)
            elif k == n:
                self._complement = Subspace.zero(n)
            else:
                q, _ = np.linalg.qr(self.basis, mode="complete")
                self._complement = Subspace(_fix_signs(q[:, k:]))
        return self._complement

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
    if not np.isfinite(v).all():
        raise DomainError("xi must be finite")
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
    """First eigen index of the half-line E[lam, inf): whole blocks from the
    first whose value reaches lam, up to the clustering tolerance.  Given an
    array of thresholds, an array of the same shape."""
    return np.searchsorted(D.values, np.asarray(lam) - tol.cluster_abs(D.norm2), side="left")


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
    mu = 0.0
    for mu, rows in reversed(D.blocks) if top_down else D.blocks:
        seen = c[rows.start :] if top_down else c[: rows.stop]
        if np.linalg.norm(seen, 2) > tol.meet_tol:
            break
    return mu


def spectral_projection(
    D: SpectralDecomposition, lam: float, tol: Tolerances = DEFAULT_TOL
) -> Subspace:
    """Projection onto the span of eigenvectors whose block value is >= lam,
    up to the clustering tolerance.

    Whole blocks are kept or dropped together, the kernel block (value 0)
    included, so the result is monotone in lam exactly (as index sets).
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
    for mu, idx in d.blocks:
        if idx.stop == idx.start:
            continue
        try:
            y = float(f(mu))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"function undefined at eigenvalue {mu!r}: {exc}") from exc
        if not np.isfinite(y):
            raise DomainError(f"function not finite at eigenvalue {mu!r}")
        values[idx] = y
    return SymMatrix._attach(values, d.vectors)


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


def _range_meet(D: SpectralDecomposition, S: Subspace, tol: Tolerances) -> Subspace:
    """S ^ R(A): the directions of S whose kernel-block component, the sine
    of their principal angle to the range of A, is at most meet_tol (S
    itself when A has no kernel, so its cached complement is shared).

    Both shorted routes and the iterative oracle read the part of a
    subspace inside the range of A here.
    """
    kernel = D.vectors[:, D.blocks[0][1]]
    if not kernel.shape[1]:
        return S
    _, sines, vt = np.linalg.svd(kernel.T @ S.basis)
    return Subspace(S.basis @ vt[np.count_nonzero(sines > tol.meet_tol) :].T)


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

