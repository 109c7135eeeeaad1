"""Vector complexity of a positive semidefinite matrix: the limit of
<A^n xi, xi>^(1/n), the top of the spectral support of xi under A.

Kept on the exponential scale so the value is always a nonnegative real (the
log scale would need -inf for vectors with no positive spectral support);
the CLI reports the log form beside it.

Two routes:

- kolmogorov_closed: the largest distinct level of A whose half-line
  spectral projection still sees a component of xi.
- kolmogorov_power: honest power iteration.  Magnitudes are tracked as
  accumulated logs with per-step renormalization (the raw inner products
  overflow for spectral norm above one near n = 700).  The trace records the
  nondecreasing root sequence <A^n xi, xi>^(1/n); the returned value is the
  successive-quotient estimate <A^n xi, xi> / <A^{n-1} xi, xi>, which
  converges geometrically in the level gap where the root sequence only
  converges like 1/n.

  A vector that kolmogorov_closed gives 0 (its component on A's positive
  blocks is within meet_tol) has no positive spectral support and gets the
  exact 0 without powering.  The eigen-part of A's kernel block is removed
  before powering, so a rounding-negative member cannot turn the pairings
  negative.  A normalized pairing <A^n xi, xi> / ||A^n xi|| at or below
  meet_tol means rounding has carried the iterate off every level xi is
  supported on, so the loop stops there ("power_limit", not converged)
  with its last quotient estimate, as the iterative route stops at its wall.
  Each iterate's norm is taken after an exact power-of-two scaling
  (core._pow2_scaled), so its squares neither overflow nor vanish and
  2^k A gives 2^k times the quotients at any k.  An iterate that vanishes
  stops there too, before dividing by its norm; since a cluster that
  reaches the rank cut is the kernel, no input found so far reaches it,
  and it stays as a division guard.

kolmogorov_power is the package's one power loop, and the scalar spectral
shorted value runs it too: rho(A, xi) = 1 / k(pinv(A), xi), so
spectral_short_vector_power is the reciprocal of kolmogorov_power on
pinv(A), and a vector that spectral_short_vector gives 0 (it leans off the
range of A) gets the exact 0 without powering.  So each power route decides
membership with its closed form's own half-line reader,
core._half_line_level.

kolmogorov_duality checks the reciprocal relation with the scalar spectral
shorted value of the pseudo-inverse at the range-projected vector, read by
the same half-line reader bottom up, as spectral_short_vector reads it.

kolmogorov_closed and both power routes return ScalarResult: the value,
and a power route's trace.  Each power route gives its exact 0 without
powering, as an empty trace stopped on "exact".

Every route reads xi as its line: any finite, nonzero vector with n entries,
scaled to unit length by core._check_line, which also checks A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    ConvergenceTrace,
    DomainError,
    SymMatrix,
    Tolerances,
    TraceStep,
    _check_line,
    _half_line_level,
    _pow2_scaled,
    pseudo_inverse,
)

__all__ = [
    "ScalarResult",
    "kolmogorov_closed",
    "kolmogorov_power",
    "kolmogorov_duality",
    "spectral_short_vector_power",
]


@dataclass(frozen=True)
class ScalarResult:
    """A scalar route's value, with a power route's trace."""

    value: float
    trace: ConvergenceTrace | None = None


def kolmogorov_closed(
    A: SymMatrix, xi, tol: Tolerances = DEFAULT_TOL
) -> ScalarResult:
    """Largest level of A whose half-line projection keeps a component of xi
    (0 when no positive level does).  Invariant under scaling of xi."""
    d, v = _check_line(A, xi, tol)
    return ScalarResult(_half_line_level(d, v, tol, top_down=True))


def kolmogorov_power(
    A: SymMatrix, xi, n_max: int = 200, tol: Tolerances = DEFAULT_TOL
) -> ScalarResult:
    """Power-iteration route; see the module docstring for the estimator."""
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max}")
    d, v = _check_line(A, xi, tol)
    if _half_line_level(d, v, tol, top_down=True) == 0.0:
        # xi has no positive spectral support; every power pairing is 0.
        return ScalarResult(0.0, ConvergenceTrace((), "exact"))
    # The kernel block's eigen-part is removed, so no rounding-negative
    # member is powered; without a kernel block A is powered as given.
    k = d.blocks[0][1].stop
    m = A.entries
    if k:
        z = d.vectors[:, :k]
        m = m - (z * d.eigenvalues[:k]) @ z.T
    u = v
    log_norm = 0.0  # log ||A^n xi|| for the current n
    prev_inner = 1.0  # <u_{n-1}, xi> with u the renormalized iterate
    prev_s: float | None = None
    steps: list[TraceStep] = []
    # A quotient that has stopped moving may still sit on the plateau of a
    # neighbouring level when the coefficient of the limiting level is tiny,
    # so a candidate is accepted only once it has held to about twice the
    # step where it appeared.
    plateau: float | None = None
    since = 0
    prev_r: float | None = None
    value = 0.0
    reason = "max_iterations"
    for n in range(1, n_max + 1):
        w, e = _pow2_scaled(m @ u)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:  # see the module docstring
            reason = "power_limit"
            break
        u = w / nrm
        growth = math.ldexp(nrm, e)
        log_norm += math.log(growth)
        inner = float(u @ v)
        if inner <= tol.meet_tol:  # the pairing is rounding: see the module docstring
            reason = "power_limit"
            break
        s_n = math.exp((log_norm + math.log(inner)) / n)
        r_n = growth * inner / prev_inner
        delta = None if prev_s is None else s_n - prev_s
        steps.append(TraceStep(n, s_n, delta))
        band = tol.conv_tol * r_n
        if plateau is not None and abs(r_n - plateau) > band:
            plateau = None  # plateau escaped; keep iterating
        # The root sequence bounds the limit from below.
        if plateau is None and prev_r is not None and r_n >= s_n - band and abs(r_n - prev_r) <= band:
            plateau, since = r_n, n
        if plateau is not None and n >= min(n_max, 2 * since + 10):
            value = plateau
            reason = "converged"
            break
        prev_r = r_n
        prev_s = s_n
        prev_inner = inner
        value = r_n
    return ScalarResult(value, ConvergenceTrace(tuple(steps), reason))


def kolmogorov_duality(
    A: SymMatrix, xi, tol: Tolerances = DEFAULT_TOL
) -> tuple[float, float]:
    """Return (complexity of xi, reciprocal of the scalar spectral shorted
    value of pinv(A) at the range-projected direction).

    The two agree for matrices (which always have closed range); when the
    range projection of xi vanishes both are 0 by convention.
    """
    d, v = _check_line(A, xi, tol)
    k_value = _half_line_level(d, v, tol, top_down=True)
    if k_value == 0.0:
        return 0.0, 0.0
    positive = d.vectors[:, d.blocks[0][1].stop :]
    rho = _half_line_level(*_check_line(pseudo_inverse(A, tol), positive @ (positive.T @ v), tol), tol)
    return k_value, (0.0 if rho == 0.0 else 1.0 / rho)


def spectral_short_vector_power(
    A: SymMatrix,
    xi,
    m_max: int = 200,
    tol: Tolerances = DEFAULT_TOL,
) -> ScalarResult:
    """Scalar spectral shorted value by pseudo-inverse power iteration.

    Vectors off the range of A give exactly 0.  Otherwise the value is
    1 / k(pinv(A), xi), the reciprocal of kolmogorov_power on the
    pseudo-inverse, and the trace records the reciprocals of its root
    sequence: the non-increasing Sigma(xi, A^n)^{1/n} = <pinv(A)^n xi, xi>^{-1/n}
    at every power n (an infimum).
    """
    if m_max < 1:
        raise DomainError(f"m_max must be at least 1, got {m_max}")
    d, v = _check_line(A, xi, tol)
    if _half_line_level(d, v, tol) == 0.0:
        return ScalarResult(0.0, ConvergenceTrace((), "exact"))

    complexity = kolmogorov_power(pseudo_inverse(A, tol), v, n_max=m_max, tol=tol)
    powers = [step.power for step in complexity.trace.iterates]
    roots = [1.0 / step.value for step in complexity.trace.iterates]
    deltas = [None] + [abs(b - a) for a, b in zip(roots, roots[1:])]
    trace = ConvergenceTrace(tuple(map(TraceStep, powers, roots, deltas)), complexity.trace.stop_reason)
    return ScalarResult(0.0 if complexity.value == 0.0 else 1.0 / complexity.value, trace)
