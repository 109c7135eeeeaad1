"""The spectral shorted operator: the decreasing limit of rooted powers of
shorted operators, by two independent routes.

Closed form (the canonical algorithm): the half-line spectral projections of
the result are the meets of those of A with the target subspace.  They are
read off in one walk over the levels of A, bottom up, in A's eigen-
coordinates: at each level, the directions of S still in play whose weight
on the levels walked so far (a principal-angle sine to the half-line above)
exceeds meet_tol leave the next meet, and they are the result's
eigenvectors at that level.  The walk runs in the coordinates of one
Householder QR of C^T, C the coordinates of S in A's eigenbasis (Golub &
Van Loan, Matrix Computations, 5.2), where a coordinate enters at its own
row: each level's SVD sees only the directions that entered and stayed and
the coordinates entering there, and none is taken when nothing stays and
the level's triangle of R settles all of its coordinates, which a Cholesky
certificate on the triangle's Gram matrix shows for a generic S.

Iterative (kept as an oracle and for trace pedagogy): root-of-shorted-power
iterates B_k = (shorted(A^{2^k}, S))^{1/2^k}.  Each is formed in the
coordinates of T, the basis of S ^ R(A), as T (T^T pinv(A)^m T)^{-1/m} T^T
(Anderson & Trapp, "Shorted operators II", 1975), from one thin SVD of
pinv(A)^{m/2} T scaled by the smallest positive level to the power m/2, so
no power overflows and the one eigendecomposition of A is the only n x n
factorization.  The approach is still precision-limited: level content of
A^{m} below roughly 1e-8 of the top retained level is indistinguishable from
rounding noise, and the iteration refuses to power past that wall rather
than return noise dressed up as an iterate.  Convergence of the iterates
toward the limit is generally only O(1/m) in the power m, so slow runs stop
at the wall or at k_max with converged=False; that is a flagged outcome, not
an error.

The one-dimensional scalar has two more routes: the largest half-line
projection containing the vector (spectral_short_vector), and
spectral_short_vector_power, the reciprocal 1 / k(pinv(A), xi) of the
vector complexity under the pseudo-inverse by kolmogorov_power, the
package's one power loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    DomainError,
    Subspace,
    SymMatrix,
    Tolerances,
    _check_pair,
    _direction,
    _half_line_level,
    _OnSubspace,
    _range_meet,
    _smallest_sv_above,
    eig_sym,
    matrix_function,
    pseudo_inverse,
)

__all__ = [
    "TraceStep",
    "ConvergenceTrace",
    "SpectralShortResult",
    "spectral_short_closed",
    "spectral_short_iterative",
    "spectral_short_vector",
    "spectral_short_vector_power",
    "spectral_short_min",
    "monotone_calculus_residual",
]

# Relative level content below this floor picks up enough rounding noise,
# once a power is materialized as a matrix and re-rooted, to disturb
# the iterates beyond the 1e-9 monotonicity budget; the iterative route
# stops powering there.
_POWER_NOISE_FLOOR = 1e-8


@dataclass(frozen=True)
class TraceStep:
    power: float
    value: object  # float for scalar iterations, ndarray for matrix ones
    delta: float | None


@dataclass(frozen=True)
class ConvergenceTrace:
    """Iterates of a limit-based algorithm with per-step deltas."""

    iterates: tuple[TraceStep, ...]
    converged: bool
    final_delta: float
    stop_reason: str  # "converged" | "max_iterations" | "power_limit" | "exact"

    @classmethod
    def exact(cls, power: float, value) -> "ConvergenceTrace":
        """The one-step trace of a value known without iterating."""
        return cls((TraceStep(power, value, None),), True, 0.0, "exact")


@dataclass(frozen=True)
class SpectralShortResult(_OnSubspace):
    """A spectral shorted operator with its construction data.

    levels lists (level value, rank) pairs for the closed form, one per
    positive level of A in descending order: the rank is the multiplicity
    of that value in the result, 0 where no direction of S settles there
    (empty for the iterative route).  trace carries the iterates for the
    iterative route (None for the closed form).
    """

    value: SymMatrix
    levels: tuple[tuple[float, int], ...]
    method: str
    subspace: Subspace
    trace: ConvergenceTrace | None = None


def spectral_short_closed(
    A: SymMatrix, S: Subspace, tol: Tolerances = DEFAULT_TOL
) -> SpectralShortResult:
    """Closed-form spectral shorted operator by one level walk.

    With C = V^T B_S (S in A's eigen-coordinates) and W the S-coordinates
    of the current meet E_A[mu, inf) ^ S, starting from all of S: at each
    level block from the bottom up, the directions of W whose component on
    every block walked so far, C[:block end] W (a principal-angle sine),
    exceeds meet_tol are the result's eigenvectors at that level; the rest
    span the next meet.  The kernel block comes first, with value 0.

    With C^T = QR, row i of C is column i of R in Q's coordinates, so the
    coordinates past the rows walked so far are in W with sine 0, and W is
    the stays (directions that entered and did not leave, with their
    cumulative sines) plus the coordinates entering at this block.
    C[:block end] W has the Gram matrix of [[diag(sines), 0],
    [R[:j, block]^T stays, R[j:end, block]^T]], one small SVD per block; a
    block with no stays whose triangle R[j:end, block] has all its sines
    above meet_tol settles Q[:, j:end] with no SVD.  The triangle's
    smallest sine is |R_jj| for one row; for several rows a Cholesky of its
    shifted Gram matrix certifies it, and only a triangle the certificate
    cannot clear takes a values-only SVD (core._smallest_sv_above).
    Once every coordinate has entered and none stays, the later blocks
    settle nothing and the walk stops.  The result's kernel eigenvectors
    are S's cached complement.
    """
    _check_pair(A, S, tol)
    d = eig_sym(A, tol)
    blocks = d.blocks
    k = S.dim
    q, r = np.linalg.qr((d.vectors.T @ S.basis).T)
    j = 0  # coordinates entered: Q's first min(k, rows walked) columns
    # Q-coordinates of the stays (zero past j), their cumulative sines
    stays, sines = np.zeros((k, 0)), np.zeros(0)
    coords: list[np.ndarray] = [q[:, :0]]  # settled, in S-coordinates
    ranks = [0] * len(blocks)  # directions settled per block
    for i, (_, rows) in enumerate(blocks):
        e = min(k, rows.stop)
        rank = 0
        if not sines.size and e > j:
            tri = r[j:e, rows]
            if tri.size == 1:
                settles = abs(tri.item()) > tol.meet_tol
            else:
                settles = _smallest_sv_above(tri, tol.meet_tol)
            if settles:
                rank = e - j
                coords.append(q[:, j:e])
        if not rank and (sines.size or e > j):
            # The Gram matrix of C[:rows.stop] [stays, Q[:, j:e]]: the rows
            # walked before give the stays their sines and nothing else.
            t = sines.size
            m = np.block([[np.diag(sines), np.zeros((t, e - j))], [r[:, rows].T @ stays, r[j:e, rows].T]])
            _, s, vt = np.linalg.svd(m, full_matrices=False)
            rank = int(np.count_nonzero(s > tol.meet_tol))
            turned = stays @ vt[:, :t].T
            turned[j:e] += vt[:, t:].T
            coords.append(q @ turned[:, :rank])
            stays, sines = turned[:, rank:], s[rank:]
        j = e
        ranks[i] = rank
        if j == k and not sines.size:
            break  # every coordinate has entered and none stays
    # Every direction of S settles by the last block, whose sines are all
    # 1, so the settled directions span S and the kernel is its complement.
    vectors = np.hstack([S.basis @ np.hstack(coords), S.complement().basis])
    values = np.repeat([mu for mu, _ in blocks] + [0.0], ranks + [A.n - k])
    levels = [(mu, rank) for (mu, _), rank in zip(blocks, ranks) if mu > 0.0]
    return SpectralShortResult(
        value=SymMatrix._attach(values, vectors),
        levels=tuple(reversed(levels)),
        method="closed_form",
        subspace=S,
    )


def _power_limit(min_positive_ratio: float) -> float:
    """Largest power m such that min_positive_ratio**m stays above the
    dense-representation noise floor."""
    if min_positive_ratio >= 1.0:
        return math.inf
    return math.log(_POWER_NOISE_FLOOR) / math.log(min_positive_ratio)


def spectral_short_iterative(
    A: SymMatrix,
    S: Subspace,
    k_max: int = 20,
    tol: Tolerances = DEFAULT_TOL,
) -> SpectralShortResult:
    """Iterated root-of-shorted-power route to the spectral shorted operator.

    Iterates are non-increasing in the semidefinite order and bound the limit
    from above.  Stops on a small step (converged), at k_max, or at the
    precision wall described in the module docstring (power_limit).

    With T the basis of S ^ R(A), each iterate is shorted(A^m, S)^{1/m} =
    T (T^T pinv(A)^m T)^{-1/m} T^T (Anderson & Trapp 1975).  With mu the
    positive level values, mu_1 the smallest and V_+ their eigenvectors, the
    thin SVD W_m = diag((mu_1 / mu)^{m/2}) V_+^T T = U Sigma Z^T gives it as
    mu_1 (TZ) Sigma^{-2/m} (TZ)^T.  W_m's row scales are at most 1, and its
    SVD keeps the small singular values that its Gram matrix would square.
    """
    if k_max < 0:
        raise DomainError(f"k_max must be nonnegative, got {k_max}")
    _check_pair(A, S, tol)
    d = eig_sym(A, tol)
    blocks = d.blocks
    if len(blocks) == 1 or S.dim == 0:
        zero = SymMatrix(np.zeros((A.n, A.n)))
        return SpectralShortResult(zero, (), "iterative", S, ConvergenceTrace.exact(1, zero.entries))

    # A's positive level block values: no rounding-negative member reaches
    # the powers, and the power wall is read off the smallest of them.
    positive = slice(blocks[0][1].stop, None)
    mu_1 = blocks[1][0]
    ratios = mu_1 / d.values[positive]
    m_limit = _power_limit(mu_1 / d.norm2)
    t = _range_meet(d, S, tol).basis
    c = d.vectors[:, positive].T @ t

    steps: list[TraceStep] = []
    prev: np.ndarray | None = None
    converged = False
    reason = "max_iterations"
    for k in range(k_max + 1):
        m = 2.0**k
        if k > 0 and m > m_limit:
            reason = "power_limit"
            break
        _, s, zt = np.linalg.svd(ratios[:, None] ** (m / 2.0) * c, full_matrices=False)
        # The iterate's eigenvectors TZ, each scaled by the root of its value.
        f = (t @ zt.T) * np.sqrt(mu_1 * s ** (-2.0 / m))
        b = f @ f.T
        delta = None if prev is None else float(np.abs(b - prev).max())
        steps.append(TraceStep(m, b, delta))
        if delta is not None and delta <= tol.conv_tol * max(1.0, d.norm2):
            converged = True
            reason = "converged"
            break
        prev = b
    final = steps[-1]
    trace = ConvergenceTrace(
        iterates=tuple(steps),
        converged=converged,
        final_delta=0.0 if final.delta is None else final.delta,
        stop_reason=reason,
    )
    return SpectralShortResult(
        value=SymMatrix(final.value),
        levels=(),
        method="iterative",
        subspace=S,
        trace=trace,
    )


def spectral_short_vector(
    A: SymMatrix, xi, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Scalar spectral shorted value for a one-dimensional subspace: the
    largest level of A whose half-line projection contains the vector (so the
    smallest level carrying any of its spectral weight), and 0 if the vector
    leans outside the range of A."""
    v = _direction(xi, tol)
    A.assert_psd(tol)
    return _half_line_level(eig_sym(A, tol), v, tol)


def spectral_short_vector_power(
    A: SymMatrix,
    xi,
    m_max: int = 200,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[float, ConvergenceTrace]:
    """Scalar spectral shorted value by pseudo-inverse power iteration.

    Vectors off the range of A give exactly 0.  Otherwise the value is
    1 / k(pinv(A), xi), the reciprocal of kolmogorov_power on the
    pseudo-inverse, and the trace records the reciprocals of its root
    sequence: the non-increasing Sigma(xi, A^n)^{1/n} = <pinv(A)^n xi, xi>^{-1/n}
    at every power n (an infimum).
    """
    from .kolmogorov import kolmogorov_power  # kolmogorov imports this module

    if m_max < 1:
        raise DomainError(f"m_max must be at least 1, got {m_max}")
    v = _direction(xi, tol)
    A.assert_psd(tol)
    d = eig_sym(A, tol)
    kernel = d.vectors[:, d.blocks[0][1]]
    if np.linalg.norm(kernel.T @ v) > tol.meet_tol:
        return 0.0, ConvergenceTrace.exact(0, 0.0)

    complexity = kolmogorov_power(pseudo_inverse(A, tol), v, n_max=m_max, tol=tol)
    powers = [step.power for step in complexity.trace.iterates]
    roots = [1.0 / step.value for step in complexity.trace.iterates]
    deltas = [None] + [abs(b - a) for a, b in zip(roots, roots[1:])]
    trace = replace(
        complexity.trace,
        iterates=tuple(map(TraceStep, powers, roots, deltas)),
        final_delta=deltas[-1] or 0.0,
    )
    return (0.0 if complexity.value == 0.0 else 1.0 / complexity.value), trace


def spectral_short_min(
    A: SymMatrix, S: Subspace, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Smallest spectrum point of the spectral shorted operator viewed on S:
    the largest level of A whose half-line projection contains all of S
    (0 when only the trivial threshold works)."""
    _check_pair(A, S, tol)
    if S.dim == 0:
        raise DomainError("the zero subspace has no compressed spectrum")
    return _half_line_level(eig_sym(A, tol), S.basis, tol)


def monotone_calculus_residual(
    A: SymMatrix,
    S: Subspace,
    f: Callable[[float], float],
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Max-norm gap between f applied to the spectral shorted operator and
    the spectral shorted operator of f(A).

    f must be nondecreasing and nonnegative on the sampled eigenvalues
    (checked; right continuity cannot be checked pointwise and is assumed).
    """
    _check_pair(A, S, tol)
    d = eig_sym(A, tol)
    samples = [mu for mu, _ in d.blocks]
    images = []
    for x in samples:
        y = float(f(x))
        if not np.isfinite(y):
            raise DomainError(f"function not finite at {x!r}")
        if y < -tol.psd_tol:
            raise DomainError(f"function must be nonnegative, got f({x!r}) = {y!r}")
        images.append(y)
    for (x0, y0), (x1, y1) in zip(zip(samples, images), zip(samples[1:], images[1:])):
        if y1 < y0 - 1e-12 * max(1.0, abs(y0)):
            raise DomainError(
                f"function is not nondecreasing: f({x0!r}) = {y0!r} > f({x1!r}) = {y1!r}"
            )
    rho = spectral_short_closed(A, S, tol)
    lhs = matrix_function(rho.value, lambda x: max(float(f(x)), 0.0), tol)
    rhs = spectral_short_closed(matrix_function(A, f, tol), S, tol)
    return float(np.abs(lhs.entries - rhs.value.entries).max())

