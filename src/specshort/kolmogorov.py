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

kolmogorov_duality checks the reciprocal relation with the scalar spectral
shorted value of the pseudo-inverse at the range-projected vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    SymMatrix,
    Tolerances,
    _direction,
    _half_line_level,
    eig_sym,
    pseudo_inverse,
)
from .spectral_shorted import ConvergenceTrace, TraceStep, _Plateau, spectral_short_vector

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


def kolmogorov_power(
    A: SymMatrix, xi, n_max: int = 200, tol: Tolerances = DEFAULT_TOL
) -> KolmogorovResult:
    """Power-iteration route; see the module docstring for the estimator."""
    v = _direction(xi)
    A.assert_psd(tol)
    scale = A.spectral_norm(tol)
    floor = tol.rank_abs(scale)
    m = A.entries
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
        if growth <= floor:
            # xi has no positive spectral support; every power pairing is 0.
            value = 0.0
            converged = True
            reason = "exact"
            break
        u = w / growth
        log_norm += math.log(growth)
        inner = float(u @ v)
        if inner <= 0.0:  # pragma: no cover - defensive: pairing is nonnegative
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
    positive = d.vectors[:, d.blocks(tol)[0][1].stop :]
    projected = positive @ (positive.T @ v)
    pnorm = float(np.linalg.norm(projected))
    rho = spectral_short_vector(pseudo_inverse(A, tol), projected / pnorm, tol)
    dual = 0.0 if rho == 0.0 else 1.0 / rho
    return k_value, dual
