"""The spectral shorted operator: the decreasing limit of rooted powers of
shorted operators, by two independent routes.

Closed form (the canonical algorithm): the half-line spectral projections of
the result are the meets of those of A with the target subspace.  They are
read off in one walk over the levels of A, bottom up, in A's eigen-
coordinates: at each level, the directions of S still in play whose weight
on the levels walked so far (a principal-angle sine to the half-line above)
exceeds meet_tol leave the next meet, and they are the result's
eigenvectors at that level.

Iterative (kept as an oracle and for trace pedagogy): root-of-shorted-power
iterates B_k = (shorted(A^{2^k}, S))^{1/2^k}.  A is normalized to unit
spectral norm before powering (the result scales linearly in A, so this is
exact) and powers reuse the one eigendecomposition of A, but the approach is
still precision-limited: level content of A^{m} below roughly 1e-8 of the
top retained level is indistinguishable from rounding noise, and the
iteration refuses to power past that wall rather than return noise dressed
up as an iterate.  Convergence of the iterates toward the limit is generally
only O(1/m) in the power m, so slow runs stop at the wall or at k_max with
converged=False; that is a flagged outcome, not an error.

The one-dimensional scalar admits additional formulas (largest half-line
projection containing the vector; inverse-power-norm limits through the
pseudo-inverse) implemented here as spectral_short_vector and
spectral_short_vector_power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    DomainError,
    Subspace,
    SymMatrix,
    Tolerances,
    _block_values,
    _check_pair,
    _direction,
    _half_line_level,
    _OnSubspace,
    _range_meet,
    eig_sym,
    image_subspace,
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
# once a power is materialized as a dense matrix and re-rooted, to disturb
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
    """
    _check_pair(A, S, tol)
    d = eig_sym(A, tol)
    c = d.vectors.T @ S.basis
    w = np.eye(S.dim)
    values: list[float] = []
    coords: list[np.ndarray] = []
    levels: list[tuple[float, int]] = []
    for mu, rows in d.blocks(tol):
        rank = 0
        if rows.stop > rows.start and w.shape[1]:
            _, sines, vt = np.linalg.svd(c[: rows.stop] @ w)
            rank = int(np.count_nonzero(sines > tol.meet_tol))
            w = w @ vt.T
            coords.append(w[:, :rank])
            values.extend([mu] * rank)
            w = w[:, rank:]
        if mu > 0.0:
            levels.append((mu, rank))
    placed = S.basis @ np.hstack(coords) if coords else np.zeros((A.n, 0))
    q, _ = np.linalg.qr(placed, mode="complete")
    vectors = np.hstack([placed, q[:, placed.shape[1] :]])
    values.extend([0.0] * (A.n - placed.shape[1]))
    return SpectralShortResult(
        value=SymMatrix.from_eigens(values, vectors),
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
    """
    _check_pair(A, S, tol)
    d = eig_sym(A, tol)
    scale = d.norm2
    n = A.n
    if scale <= 0.0 or S.dim == 0:
        zero = SymMatrix(np.zeros((n, n)))
        return SpectralShortResult(zero, (), "iterative", S, ConvergenceTrace.exact(1, zero.entries))

    # A's level block values, the kernel at 0: no rounding-negative member
    # reaches the fractional powers, and the power wall is read off the
    # smallest value actually powered.
    lam_pos = _block_values(d, tol) / scale
    m_limit = _power_limit(d.blocks(tol)[1][0] / scale)

    # Rank of every iterate and of the limit: dimension of S meet range(A).
    rank = _range_meet(d, S, tol).shape[1]

    comp = S.complement()
    steps: list[TraceStep] = []
    prev: np.ndarray | None = None
    converged = False
    reason = "max_iterations"
    for k in range(k_max + 1):
        m = 2.0**k
        if k > 0 and m > m_limit:
            reason = "power_limit"
            break
        # sqrt(A^m) from the one decomposition of A: exact per level.
        root_m = SymMatrix.from_eigens(lam_pos ** (m / 2.0), d.vectors)
        proj_m = np.eye(n) - image_subspace(root_m, comp, tol).projection()
        raw = root_m.entries @ proj_m @ root_m.entries
        raw = (raw + raw.T) / 2.0
        b_hat = _rank_aware_root(raw, rank, 1.0 / m)
        b = scale * b_hat
        delta = None if prev is None else float(np.abs(b - prev).max())
        steps.append(TraceStep(m, b, delta))
        if delta is not None and delta <= tol.conv_tol * max(1.0, scale):
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


def _rank_aware_root(sigma: np.ndarray, rank: int, exponent: float) -> np.ndarray:
    """sigma**exponent keeping exactly `rank` top eigenvalues.

    The rank of every iterate is known in advance (it equals the dimension
    of S meet range(A)), so eigenvalues outside the top block are structural
    zeros; zeroing them prevents tiny rounding noise from being amplified to
    order one by the small exponent.
    """
    w, v = np.linalg.eigh(sigma)
    vals = np.zeros_like(w)
    if rank > 0:
        top = w[-rank:]
        vals[-rank:] = np.where(top > 0.0, top**exponent, 0.0)
    out = (v * vals) @ v.T
    return (out + out.T) / 2.0


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


class _Plateau:
    """Stopping rule of the power routes' quotient estimates.

    A quotient that has stopped moving may still sit on the plateau of a
    neighbouring level when the coefficient of the limiting level is tiny,
    so a candidate is accepted only once it has held to about twice the step
    where it appeared.
    """

    def __init__(self, n_max: int):
        self.n_max = n_max
        self.value: float | None = None
        self.since = 0
        self.prev: float | None = None

    def settled(self, step: int, r: float, consistent: bool, band: float) -> bool:
        if self.value is not None and abs(r - self.value) > band:
            self.value = None  # plateau escaped; keep iterating
        if self.value is None and self.prev is not None and consistent and abs(r - self.prev) <= band:
            self.value, self.since = r, step
        self.prev = r
        return self.value is not None and step >= min(self.n_max, 2 * self.since + 10)


def spectral_short_vector_power(
    A: SymMatrix,
    xi,
    m_max: int = 200,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[float, ConvergenceTrace]:
    """Scalar spectral shorted value by pseudo-inverse power iteration.

    Vectors off the range of A give exactly 0.  Otherwise the iteration
    eta_m = pinv(A) eta_{m-1} is run with per-step renormalization; the trace
    records the non-increasing root sequence ||eta_m||^{-1/m} (an infimum),
    while the returned value is the Rayleigh-quotient estimate
    1 / <pinv(A) u, u>, whose convergence is geometric in the level gap and
    therefore reaches tight tolerances the slow root sequence cannot.
    """
    v = _direction(xi, tol)
    A.assert_psd(tol)
    d = eig_sym(A, tol)
    kernel = d.vectors[:, d.blocks(tol)[0][1]]
    if np.linalg.norm(kernel.T @ v) > tol.meet_tol:
        return 0.0, ConvergenceTrace.exact(0, 0.0)

    pinv = pseudo_inverse(A, tol).entries
    eta = v
    log_norm = 0.0
    steps: list[TraceStep] = []
    prev_s: float | None = None
    plateau = _Plateau(m_max)
    value = 0.0
    converged = False
    reason = "max_iterations"
    for m in range(1, m_max + 1):
        w = pinv @ eta
        rayleigh = float(w @ eta)
        growth = float(np.linalg.norm(w))
        if growth <= 0.0 or rayleigh <= 0.0:  # pragma: no cover - defensive
            reason = "exact"
            converged = True
            value = 0.0
            break
        log_norm += math.log(growth)
        s_m = math.exp(-log_norm / m)
        r_m = 1.0 / rayleigh
        delta_s = None if prev_s is None else abs(s_m - prev_s)
        steps.append(TraceStep(m, s_m, delta_s))
        # The root sequence decreases to the limit, so it bounds any honest
        # estimate from above; a quotient sitting beyond that bound is still
        # on a transient plateau of a higher level.
        consistent = r_m <= s_m + tol.conv_tol * max(1.0, s_m)
        if plateau.settled(m, r_m, consistent, tol.conv_tol * max(1.0, r_m)):
            value = plateau.value
            converged = True
            reason = "converged"
            break
        prev_s = s_m
        value = r_m
        eta = w / growth
    trace = ConvergenceTrace(
        iterates=tuple(steps),
        converged=converged,
        final_delta=0.0 if not steps or steps[-1].delta is None else steps[-1].delta,
        stop_reason=reason,
    )
    return value, trace


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
    samples = sorted({0.0, *(float(r) for r in d.level_values)})
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

