"""Dense symmetric-matrix primitives.

Eigendecomposition with level clustering, spectral projections, functional
calculus, real matrix powers, Moore-Penrose pseudo-inverse, and the
projection-lattice operations (meet, complement) that the rest of the
package is built on; ShortedResult, the one result type of the operator
routes; and ConvergenceTrace, the iterates of every limit route.
SymMatrix.assert_psd returns the decomposition it checked, so every route
reads A's eigenpairs from its positivity check.

Every value is immutable in what it means, and every operation is a pure
function of its inputs.  A few caches are filled once and never change
after: a SymMatrix's eigenpairs (_eigens: attached by from_eigens, else
filled by the first eig_sym) and its decompositions per (cluster_tol,
rank_tol) (_decomps; f(A) and rho(S, A) store theirs under the key that
built them), and a Subspace's orthogonal complement (_complement:
stored by Subspace.span from the QR that gives the basis when the spanning
set has full column rank, else filled on first use as a copy of a complete
Q's last columns).
Two threads that fill one at once store equal values, so everything here is
safe to share across threads.

Each check reads an n x n array with no n x n temporary of its own:
SymMatrix's finiteness, from the largest and smallest entries, and its
asymmetry, and its stored symmetrization, built in the array that held the
difference; and the orthonormality residual, which takes the identity off
B^T B in place.  Outside input is checked, and what is built here from a
checked factorization is not checked again: Subspace._of takes every basis
built from an orthogonal factor with no copy and no B^T B,
SymMatrix._attach a matrix from its eigenpairs without from_eigens' check,
and SymMatrix._symmetric a value built symmetric to the bit with its
finiteness check only.  Every matrix result is such a value, built by
symmetric rank-k updates: _attach forms V diag(w) V^T as
F+ F+^T - F- F-^T (one update for nonnegative values), and the shorted
and iterative routes form theirs likewise.  _attach stores eigenpairs
that arrive sorted as
given, with no copy, and sorts and gathers only unsorted ones; so
from_eigens hands on a sorted copy of the caller's arrays, and the closed
form builds rho's eigenpairs in the sorted order.
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
    "SymMatrix",
    "SpectralDecomposition",
    "Subspace",
    "ShortedResult",
    "TraceStep",
    "ConvergenceTrace",
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
    """The four numerical thresholds a caller sets, shared by every
    operation (the CLI's --tol-eig, --tol-rank, --tol-meet and --tol-conv).

    cluster_tol and rank_tol are relative to a scale at the point of use,
    so every result scales with its input.  Both are read together by one
    cut rule, _partition: runs of eigenvalues within cluster_tol * scale of
    their first (smallest) member, and every run whose first member is at
    or below rank_tol * scale is the kernel.  eig_sym applies it to A at
    ||A||_2, giving A's one level partition (SpectralDecomposition.blocks),
    which every route reads, and spectral_leq to a pair's joint spectrum
    at the pair's larger norm.  A function of A and rho(S, A) keep A's
    partition (SymMatrix._attach).  Past _partition, rank_tol is read only
    by Subspace.span.
    meet_tol bounds a principal-angle sine and decides every membership
    question: a direction lies in a meet, one subspace inside another, and
    a vector or subspace inside a half-line (the range of A included, so
    kolmogorov_power's "no positive support" too), when the sine of its
    angle to the other subspace is at most meet_tol.  conv_tol is relative too: spectral_short_iterative stops on
    a step of at most conv_tol * ||A||_2, kolmogorov_power (so
    spectral_short_vector_power too) on one of at most conv_tol times the
    current quotient.  So every threshold scales with its own input, and
    at scale 0 only exact values pass.  The input checks' bounds are not
    settable: _SYM_TOL, _PSD_TOL and _ORTH_TOL below.  Every field must be
    finite and nonnegative.
    """

    cluster_tol: float = 1e-8
    rank_tol: float = 1e-10
    meet_tol: float = 1e-8
    conv_tol: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise DomainError(f"tolerance {f.name} must be finite and nonnegative, got {value!r}")


DEFAULT_TOL = Tolerances()
# The partition matrix_function gives f(A): f's images of A's blocks,
# grouped by exact equality, with cut 0.
_EXACT = Tolerances(cluster_tol=0.0, rank_tol=0.0)

# The input checks' bounds, one value each.  SymMatrix rejects an asymmetry
# above _SYM_TOL * max |a_ij|, assert_psd an eigenvalue below
# -_PSD_TOL * ||A||_2: both relative at every scale, so a matrix that is
# zero up to rounding must arrive as exact zeros.  _ORTH_TOL is absolute and
# bounds orthonormality residuals only, since a vector xi is read as its
# line at any length.
_SYM_TOL = 1e-8
_PSD_TOL = 1e-8
_ORTH_TOL = 1e-10


def _check_orthonormal(b: np.ndarray, what: str, hint: str = "") -> None:
    """Raise DomainError unless b's columns are orthonormal: max |B^T B - I|
    at most _ORTH_TOL."""
    if not b.size:
        return
    gram = b.T @ b
    gram[np.diag_indices_from(gram)] -= 1.0
    resid = float(np.abs(gram, out=gram).max())
    if not resid <= _ORTH_TOL:  # a NaN residual fails too
        raise DomainError(f"{what} are not orthonormal (residual {resid:.3e}){hint}")


def _pow2_scaled(a: np.ndarray, top: float | None = None) -> tuple[np.ndarray, int]:
    """(a * 2^-e, e), e the exponent of top = max |a| (the default), so the
    largest magnitude lies in [1/2, 1): exact, and 2^k a gives the same
    array with e + k, so a step that reads it scales with a to the bit."""
    e = math.frexp(np.abs(a).max() if top is None else top)[1]
    return np.ldexp(a, -e), e


def _finite_scale(arr: np.ndarray) -> float:
    """The largest magnitude of a square arr, max(max a, -min a), read with
    no |a| array; DomainError unless arr has an entry and it is finite, so
    SymMatrix and SymMatrix._symmetric both reject a 0 x 0 array.  A NaN
    entry makes both reductions NaN, and max returns its first argument
    then, so NaN and +-inf reach the check; abs() gives a zero array +0.0,
    as max |a| does."""
    if not arr.size:
        raise DomainError("expected a matrix of size at least 1 x 1, got 0 x 0")
    scale = abs(max(float(arr.max()), -float(arr.min())))
    if not math.isfinite(scale):
        raise DomainError("matrix entries must be finite")
    return scale


def _smallest_sv_above(t: np.ndarray, floor: float, relative: bool = False) -> bool:
    """Whether t's smallest singular value exceeds floor (floor times the
    largest when relative), for a finite t with at least one entry.

    One entry is decided exactly, |t| > floor (times |t| when relative).
    For more, a Cholesky of t's smaller Gram matrix G, shifted down by
    2 (floor^2 (||t||_F^2 if relative else 1) + 64 m eps ||t||_F^2) I with m
    its order, certifies it when it completes: forming G and factoring it
    err by a small multiple of eps ||t||_F^2 (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3), which the second term
    covers, so s_min^2 = lambda_min(G) exceeds twice the first, and
    ||t||_F bounds s_max.  When the Cholesky fails, one values-only SVD
    decides by the exact rule.
    """
    if t.size == 1:
        x = abs(t.item())
        return x > floor * (x if relative else 1.0)
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


def _partition(values: list[float], scale: float, tol: Tolerances) -> tuple[int, list[slice]]:
    """The one cut rule: (kernel stop, positive runs) of sorted values.

    The indices are split into maximal runs whose members lie within
    cluster_tol * scale of the run's first (smallest) member.  Every run
    whose first member is at or below rank_tol * scale belongs to the
    kernel, values[:kernel stop]; the rest are listed in order.  So one
    number decides both a run's extent and whether it is the kernel.
    eig_sym partitions one spectrum at ||A||_2, spectral_leq a pair's joint
    spectrum at the larger norm.
    """
    width = tol.cluster_tol * scale
    starts = [0]
    for i in range(1, len(values)):
        if values[i] - values[starts[-1]] > width:
            starts.append(i)
    cut = tol.rank_tol * scale
    firsts = [i for i in starts if values[i] > cut]
    n = len(values)
    return (firsts[0] if firsts else n), [slice(a, b) for a, b in zip(firsts, firsts[1:] + [n])]


class SymMatrix:
    """Real symmetric n x n matrix, stored canonically symmetrized.

    The entry array is made read-only on construction.  Construction rejects
    an empty (0 x 0) input and inputs whose asymmetry exceeds
    _SYM_TOL * max |a_ij|, and keeps that largest magnitude (_top) for
    eig_sym's exact scaling.
    Matrices built from a known eigendecomposition (matrix_function,
    matrix_power, pseudo_inverse) keep the exact eigenvalue list attached so
    downstream spectral logic never re-diagonalizes a powered matrix; this is
    what keeps extreme powers accurate per eigenvalue.  A function of A,
    and rho(S, A), also keep A's partition, under the tolerances that
    built them.
    """

    __slots__ = ("entries", "_top", "_eigens", "_decomps")

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {arr.shape}")
        scale = _finite_scale(arr)
        # a - a^T is antisymmetric to the bit, so its largest entry is its
        # largest magnitude; the array then holds (a + a^T) / 2, and x * 0.5
        # is x / 2 exactly.  Where a - a^T or a + a^T would overflow, each
        # half is taken first; below that bound the sum keeps the last bit
        # at subnormal scales.
        huge = scale > _HALF_MAX
        out = arr * 0.5 if huge else arr - arr.T
        asym = 2.0 * float((out - out.T).max()) if huge else float(out.max())
        if asym > _SYM_TOL * scale:
            raise DomainError(f"matrix is not symmetric: max asymmetry {asym:.3e}")
        if huge:
            out += out.T
        else:
            np.add(arr, arr.T, out=out)
            out *= 0.5
        out.setflags(write=False)
        self.entries = out
        self._top = scale
        self._eigens: tuple[np.ndarray, np.ndarray] | None = None
        self._decomps: dict[tuple[float, float], "SpectralDecomposition"] = {}

    @classmethod
    def _symmetric(cls, arr: np.ndarray) -> "SymMatrix":
        """SymMatrix(arr) for an array built here symmetric to the bit,
        taken without a copy.  Finiteness is checked; the asymmetry pass
        and the symmetrization, which cannot change a bit of such an
        array, are skipped.  Past _HALF_MAX the constructor halves each
        entry first, which can round a subnormal one, so such an array
        takes the constructor."""
        top = _finite_scale(arr)
        if top > _HALF_MAX:
            return cls(arr)
        arr.setflags(write=False)
        out = cls.__new__(cls)
        out.entries = arr
        out._top = top
        out._eigens = None
        out._decomps = {}
        return out

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_eigens(cls, eigenvalues, vectors) -> "SymMatrix":
        """Build V diag(w) V^T and attach (w, V) as the exact decomposition.

        V must be n x n with orthonormal columns (the residual bound
        Subspace applies) and w must hold n values, so the
        attached decomposition is the matrix's own.  The pairs are sorted
        by a stable gather, which copies both: _attach stores sorted arrays
        as given and makes them read-only.
        """
        w = np.asarray(eigenvalues, dtype=float)
        v = np.asarray(vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or w.shape != v.shape[1:]:
            raise DomainError(
                f"expected n eigenvalues and n x n eigenvectors, got {w.shape} and {v.shape}"
            )
        _check_orthonormal(v, "eigenvectors")
        order = np.argsort(w, kind="stable")
        return cls._attach(w[order], v[:, order])

    @classmethod
    def _attach(cls, w: np.ndarray, v: np.ndarray, tol: Tolerances | None = None) -> "SymMatrix":
        """from_eigens without its checks, for eigenvectors built here:
        eigh's, or a Subspace basis, already checked.

        Given tol, the matrix keeps the partition its values came from: its
        decomposition under tol's key is eig_sym(out, _EXACT), the values
        grouped by exact equality with cut 0, so they are never merged or
        cut again at the new matrix's own scale.  matrix_function and the
        closed form pass theirs; from_eigens passes none, and caller values
        are clustered like any matrix's.

        The pairs are stored ascending, in a stable sort's order, and made
        read-only.  When w is already nondecreasing, w and v are stored as
        given, with no copy, so a caller hands over arrays it no longer
        writes (from_eigens hands on a sorted copy); otherwise they are
        sorted and gathered.  The product V diag(w) V^T is formed as
        F+ F+^T - F- F-^T, F+- = V sqrt(|w|) over the positive and the
        negative values, contiguous once sorted: a symmetric rank-k update
        each, symmetric to the bit, so the matrix enters by _symmetric.
        The columns with w = 0 add nothing and are not read; f(A) on a PSD
        A, rho and A^+ have no negative value and take one update.  Every
        column stays in the attached decomposition."""
        if np.any(w[1:] < w[:-1]):
            order = np.argsort(w, kind="stable")
            w = w[order]
            v = v[:, order]
        neg, pos = np.searchsorted(w, 0.0, side="left"), np.searchsorted(w, 0.0, side="right")
        f = v[:, pos:] * np.sqrt(w[pos:])
        entries = f @ f.T
        if neg:
            f = v[:, :neg] * np.sqrt(-w[:neg])
            entries -= f @ f.T
        out = cls._symmetric(entries)
        w.setflags(write=False)
        v.setflags(write=False)
        out._eigens = (w, v)
        if tol is not None:
            out._decomps[(tol.cluster_tol, tol.rank_tol)] = eig_sym(out, _EXACT)
        return out

    def spectral_norm(self) -> float:
        return eig_sym(self).norm2

    def assert_psd(self, tol: Tolerances = DEFAULT_TOL) -> "SpectralDecomposition":
        """Raise DomainError unless the matrix is positive semidefinite, and
        return the decomposition that decided it, eig_sym(self, tol).

        An eigenvalue below -_PSD_TOL * ||A||_2 rejects, relative at every
        scale, so only the zero matrix passes at scale 0."""
        d = eig_sym(self, tol)
        if d.lambda_min < -_PSD_TOL * d.norm2:
            raise DomainError(
                f"matrix is not positive semidefinite: eigenvalue {d.lambda_min:.6e}"
            )
        return d

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues, orthonormal eigenvector columns, and A's one
    partition of the eigen indices into level blocks.

    blocks lists (value, slice of eigen indices), ascending, and partitions
    the eigen indices in order.  The first block is the kernel: every
    cluster whose first member is at or below the rank cut, folded into one
    block of value 0 (an empty slice when no cluster starts that low).
    Each further block is one positive level, valued at the mean of its
    members (at the first, exactly, when all are equal), all of them above
    the rank cut.  values holds each eigen index's block value, the
    spectrum every route takes A to have.  levels and level_values view the
    nonempty blocks.
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
    """Symmetric eigendecomposition and A's one level partition.

    The eigenvectors carry eigh's signs, which no output reads; a matrix
    built from its eigenpairs (SymMatrix._attach) keeps the ones it was given.
    eigh is handed A * 2^-e (_pow2_scaled) and its eigenvalues are scaled
    back: LAPACK's own rescaling of a matrix outside about [2^-406, 2^485]
    is not by a power of two, and this one keeps eig_sym(2^k A) exact.

    The partition is decided here, once, by _partition at ||A||_2: the
    runs whose first (smallest) member is at or below the rank cut form
    the kernel block, of value 0, and every other run is a positive level.
    So no positive level holds an exact zero or a rounding-negative member.
    Every downstream notion of a level or of the kernel reads it.
    Eigenpairs are cached per matrix, decompositions per matrix and
    (cluster_tol, rank_tol); a matrix built from A's levels (f(A), and
    rho(S, A)) stores its own, A's levels grouped exactly (_attach).
    """
    key = (tol.cluster_tol, tol.rank_tol)
    cached = A._decomps.get(key)
    if cached is not None:
        return cached
    if A._eigens is None:
        scaled, e = _pow2_scaled(A.entries, A._top)
        w, v = np.linalg.eigh(scaled)
        w = np.ldexp(w, e)
        w.setflags(write=False)
        v.setflags(write=False)
        A._eigens = (w, v)
    w, v = A._eigens
    norm = max(abs(float(w[0])), abs(float(w[-1])))
    listed = w.tolist()  # Python floats index faster than numpy scalars
    kernel, runs = _partition(listed, norm, tol)
    blocks = [(0.0, slice(0, kernel))]
    for idx in runs:
        first = listed[idx.start]
        # A level of equal members is valued at its first, exactly (np.mean
        # can miss it by an ulp), without np.mean's per-call cost.
        blocks.append((first if listed[idx.stop - 1] == first else float(np.mean(w[idx])), idx))
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

    k may be zero (the zero subspace).  Subspace(basis) copies the caller's
    basis and checks its orthonormality; use Subspace.span to orthonormalize
    an arbitrary spanning set.  Every basis the library builds from an
    orthogonal factor (span, complement, the meets, spectral_projection,
    zero and full) is taken by Subspace._of, with no copy and no check.
    """

    __slots__ = ("basis", "_complement")

    def __init__(self, basis):
        b = np.array(basis, dtype=float)
        if b.ndim != 2:
            raise DomainError(f"basis must be a 2-d array, got shape {b.shape}")
        if b.shape[1] > b.shape[0]:
            raise DomainError(
                f"basis has {b.shape[1]} columns in dimension {b.shape[0]}"
            )
        _check_orthonormal(b, "basis columns", "; use Subspace.span to orthonormalize")
        b.setflags(write=False)
        self.basis = b
        self._complement: Subspace | None = None

    @classmethod
    def _of(cls, basis: np.ndarray) -> "Subspace":
        """Subspace(basis) without its copy and its check, for a basis
        built here from an orthogonal factor: a QR's Q, an SVD's singular
        vectors or eigh's eigenvectors, or a product of two of them, whose
        columns are orthonormal to rounding."""
        basis.setflags(write=False)
        out = cls.__new__(cls)
        out.basis = basis
        out._complement = None
        return out

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls._of(np.zeros((n, 0)))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls._of(np.eye(n))

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
        Non-finite entries, and an array of other than one or two
        dimensions, raise DomainError.
        """
        m = np.asarray(vectors, dtype=float)
        if m.ndim == 1:
            m = m.reshape(-1, 1)
        if m.ndim != 2:
            raise DomainError(f"spanning vectors must be a 1-d or 2-d array, got shape {m.shape}")
        if m.size == 0:
            return cls.zero(m.shape[0])
        if not np.all(np.isfinite(m)):
            raise DomainError("spanning vectors must be finite")
        n, c = m.shape
        p = min(n, c)
        q, r = np.linalg.qr(m, mode="complete")
        if c <= n and _smallest_sv_above(r[:p], tol.rank_tol, relative=True):
            out = cls._of(q[:, :c])
            out._complement = cls._of(q[:, c:])
            return out
        u, s, _ = np.linalg.svd(r[:p], full_matrices=False)
        return cls._of(q[:, :p] @ u[:, s > tol.rank_tol * s[0]])

    def projection(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def complement(self) -> "Subspace":
        """Orthogonal complement, computed once and cached: Subspace.span
        stores it from its own QR when the spanning set has full column
        rank, and otherwise it is taken here from a complete QR of the
        basis, as a copy of Q's last columns, so the cache does not keep
        the whole of Q alive."""
        if self._complement is None:
            n, k = self.n, self.dim
            if k == 0:
                self._complement = Subspace.full(n)
            elif k == n:
                self._complement = Subspace.zero(n)
            else:
                q, _ = np.linalg.qr(self.basis, mode="complete")
                self._complement = Subspace._of(q[:, k:].copy())
        return self._complement

    def __repr__(self) -> str:
        return f"Subspace(n={self.n}, dim={self.dim})"


def _split(m: np.ndarray, tol: Tolerances) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, sines, vt) of m's SVD: its singular values, descending, which
    every caller reads as principal-angle sines; its right singular vectors
    as the rows of vt; and how many sines exceed meet_tol, so vt[count:]
    spans the directions within meet_tol.

    A wide m takes the full SVD, so vt has a row for every column of m.
    """
    _, sines, vt = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    return int(np.count_nonzero(sines > tol.meet_tol)), sines, vt


def _check_line(A: SymMatrix, xi, tol: Tolerances) -> tuple[SpectralDecomposition, np.ndarray]:
    """A's checked decomposition and xi scaled to unit length, once xi is a
    finite, nonzero vector with A.n entries.  Every scalar route reads xi as
    its line, at any length."""
    v = np.asarray(xi, dtype=float).reshape(-1)
    if not np.isfinite(v).all():
        raise DomainError("xi must be finite")
    if v.size != A.n:
        raise DimensionMismatchError(f"xi has {v.size} entries in dimension {A.n}")
    v, _ = _pow2_scaled(v)  # so 2^k xi gives the same v / nrm at any k
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise DomainError("xi must be a nonzero vector")
    return A.assert_psd(tol), v / nrm


def _check_pair(A: SymMatrix, S: Subspace, tol: Tolerances) -> SpectralDecomposition:
    """A's checked decomposition, once A and S share their dimension."""
    if A.n != S.n:
        raise DimensionMismatchError(f"ambient dimensions differ: {A.n} vs {S.n}")
    return A.assert_psd(tol)


@dataclass(frozen=True)
class TraceStep:
    power: float
    value: object  # float for scalar iterations, ndarray for matrix ones
    delta: float | None


@dataclass(frozen=True)
class ConvergenceTrace:
    """Iterates of a limit-based algorithm with per-step deltas.

    Only the iterates and the stop reason are stored; converged and
    final_delta are derived from them.
    """

    iterates: tuple[TraceStep, ...]
    stop_reason: str  # "converged" | "max_iterations" | "power_limit" | "exact"

    @property
    def converged(self) -> bool:
        """The loop stopped on a small step or knew its value exactly."""
        return self.stop_reason in ("converged", "exact")

    @property
    def final_delta(self) -> float:
        """The size of the last step's delta, 0 when there is none."""
        delta = self.iterates[-1].delta if self.iterates else None
        return 0.0 if delta is None else abs(delta)


@dataclass(frozen=True)
class ShortedResult:
    """Sigma(S, A) or rho(S, A), embedded in the full space, with the
    subspace S it acts on.

    levels lists (level value, rank) per positive level of A, descending,
    for the closed-form rho: the rank is the value's multiplicity in the
    result, 0 where no direction of S settles.  trace holds the iterative
    rho route's iterates.  Every other route leaves both empty.
    """

    value: SymMatrix
    subspace: Subspace
    levels: tuple[tuple[float, int], ...] = ()
    trace: ConvergenceTrace | None = None

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
    up to the clustering tolerance: it starts at the nearest block whose
    value is at or below lam and within cluster_tol * ||A||_2 of it, and
    when no block is that close, at the first block above lam.  So at a
    block's own value it takes that block and those above, however close
    the block below.

    Whole blocks are kept or dropped together, the kernel block (value 0)
    included, so the result is monotone in lam exactly (as index sets).
    """
    # the largest block value at or below lam when it is that close, else
    # lam - cluster_tol * ||A||_2, below which no value then lies before lam
    i = np.searchsorted(D.values, lam, side="right")
    start = np.searchsorted(D.values, max(lam - tol.cluster_tol * D.norm2, D.values[i - 1] if i else lam))
    return Subspace._of(D.vectors[:, start:])


def matrix_function(
    A: SymMatrix, f: Callable[[float], float], tol: Tolerances = DEFAULT_TOL
) -> SymMatrix:
    """Apply f through the spectral theorem: V diag(f(mu)) V^T over the
    level blocks of a positive semidefinite A.

    f is evaluated once per nonempty block, on its value, so all members of
    a level receive the same image and the kernel maps to f(0).

    f(A) keeps A's partition: its decomposition under tol, the tolerances
    that built it, is f's images of A's blocks, grouped by exact equality,
    with cut 0 (SymMatrix._attach).  So A's levels are never merged or cut
    again at f(A)'s own scale.  Read under other tolerances, f(A) is
    clustered from its attached eigenpairs like any matrix.
    """
    d = A.assert_psd(tol)
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
    return SymMatrix._attach(values, d.vectors, tol)


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
    count, _, vt = _split(kernel.T @ S.basis, tol)
    return Subspace._of(S.basis @ vt[count:].T)


def projection_meet(
    P: Subspace, Q: Subspace, tol: Tolerances = DEFAULT_TOL
) -> Subspace:
    """Orthogonal projection onto R(P) intersect R(Q): the directions of P
    whose principal-angle sine to Q is at most meet_tol.

    The sines are the singular values of (I - P_Q) P.basis, which stay
    accurate for small angles where cosines lose them (Bjorck & Golub 1973;
    Knyazev & Argentati 2002).
    """
    if P.n != Q.n:
        raise DimensionMismatchError(f"ambient dimensions differ: {P.n} vs {Q.n}")
    if P.dim == 0 or Q.dim == 0:
        return Subspace.zero(P.n)
    count, _, vt = _split(P.basis - Q.basis @ (Q.basis.T @ P.basis), tol)
    return Subspace._of(P.basis @ vt[count:].T)

