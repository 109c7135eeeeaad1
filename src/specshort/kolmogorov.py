"""Vector complexity of a positive semidefinite matrix: the limit of
<A^n xi, xi>^(1/n), the top of the spectral support of xi under A.

Kept on the exponential scale so the value is always a nonnegative real (the
log scale would need -inf for vectors with no positive spectral support);
the log form is exposed as KolmogorovResult.log_value.

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

  A vector whose component on A's positive blocks is within meet_tol has
  no positive spectral support, as for every other route, and gets the
  exact 0 without powering.  The eigen-part of A's kernel block is removed
  before powering, so a rounding-negative member cannot turn the pairings
  negative.  This is the package's one power loop:
  spectral_short_vector_power runs it on pinv(A), since the scalar spectral
  shorted value is rho(A, xi) = 1 / k(pinv(A), xi).

kolmogorov_duality checks the reciprocal relation with the scalar spectral
shorted value of the pseudo-inverse at the range-projected vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    DomainError,
    SymMatrix,
    Tolerances,
    _direction,
    _half_line_level,
    eig_sym,
    pseudo_inverse,
)
from .spectral_shorted import ConvergenceTrace, TraceStep, spectral_short_vector

__all__ = ["KolmogorovResult", "kolmogorov_closed", "kolmogorov_power", "kolmogorov_duality"]


@dataclass(frozen=True)
class KolmogorovResult:
    value: float
    method: str
    trace: ConvergenceTrace | None = None

    @property
    def log_value(self) -> float:
        """Log-scale complexity; -inf marks a vector with no positive
        spectral support."""
        return -math.inf if self.value == 0.0 else math.log(self.value)


def kolmogorov_closed(
    A: SymMatrix, xi, tol: Tolerances = DEFAULT_TOL
) -> KolmogorovResult:
    """Largest level of A whose half-line projection keeps a component of xi
    (0 when no positive level does).  Invariant under scaling of xi."""
    v = _direction(xi)
    A.assert_psd(tol)
    value = _half_line_level(eig_sym(A, tol), v, tol, top_down=True)
    return KolmogorovResult(value=value, method="closed_form")


class _Plateau:
    """Stopping rule of the power route's quotient estimate.

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


def kolmogorov_power(
    A: SymMatrix, xi, n_max: int = 200, tol: Tolerances = DEFAULT_TOL
) -> KolmogorovResult:
    """Power-iteration route; see the module docstring for the estimator."""
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max}")
    v = _direction(xi)
    A.assert_psd(tol)
    d = eig_sym(A, tol)
    k = d.blocks[0][1].stop
    if np.linalg.norm(d.vectors[:, k:].T @ v) <= tol.meet_tol:
        # xi has no positive spectral support; every power pairing is 0.
        return KolmogorovResult(0.0, "power", ConvergenceTrace((), True, 0.0, "exact"))
    # The kernel block's eigen-part is removed, so no rounding-negative
    # member is powered; without a kernel block A is powered as given.
    m = A.entries
    if k:
        z = d.vectors[:, :k]
        m = m - (z * d.eigenvalues[:k]) @ z.T
    u = v
    log_norm = 0.0  # log ||A^n xi|| for the current n
    prev_inner = 1.0  # <u_{n-1}, xi> with u the renormalized iterate
    prev_s: float | None = None
    steps: list[TraceStep] = []
    plateau = _Plateau(n_max)
    value = 0.0
    converged = False
    reason = "max_iterations"
    for n in range(1, n_max + 1):
        w = m @ u
        growth = float(np.linalg.norm(w))
        u = w / growth
        log_norm += math.log(growth)
        inner = float(u @ v)
        if inner <= 0.0:  # rounding can leave a vanishing pairing at or below 0
            value = 0.0
            converged = True
            reason = "exact"
            break
        s_n = math.exp((log_norm + math.log(inner)) / n)
        r_n = growth * inner / prev_inner
        delta = None if prev_s is None else s_n - prev_s
        steps.append(TraceStep(n, s_n, delta))
        band = tol.conv_tol * max(1.0, r_n)
        # The root sequence bounds the limit from below.
        if plateau.settled(n, r_n, r_n >= s_n - band, band):
            value = plateau.value
            converged = True
            reason = "converged"
            break
        prev_s = s_n
        prev_inner = inner
        value = r_n
    trace = ConvergenceTrace(
        iterates=tuple(steps),
        converged=converged,
        final_delta=0.0 if not steps or steps[-1].delta is None else abs(steps[-1].delta),
        stop_reason=reason,
    )
    return KolmogorovResult(value=value, method="power", trace=trace)


def kolmogorov_duality(
    A: SymMatrix, xi, tol: Tolerances = DEFAULT_TOL
) -> tuple[float, float]:
    """Return (complexity of xi, reciprocal of the scalar spectral shorted
    value of pinv(A) at the range-projected direction).

    The two agree for matrices (which always have closed range); when the
    range projection of xi vanishes both are 0 by convention.
    """
    v = _direction(xi)
    k_value = kolmogorov_closed(A, v, tol).value
    if k_value == 0.0:
        return 0.0, 0.0
    d = eig_sym(A, tol)
    positive = d.vectors[:, d.blocks[0][1].stop :]
    projected = positive @ (positive.T @ v)
    pnorm = float(np.linalg.norm(projected))
    rho = spectral_short_vector(pseudo_inverse(A, tol), projected / pnorm, tol)
    dual = 0.0 if rho == 0.0 else 1.0 / rho
    return k_value, dual
