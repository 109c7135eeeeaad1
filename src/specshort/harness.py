"""Seeded random instance generation and the theorem verification suite.

Every cross-module identity the package claims is checked here, over seeded
random positive semidefinite matrices and subspaces, with residuals recorded.
Each theorem in THEOREMS is a draw and an identity.  The draw takes
(rng, n, tol) to the theorem's inputs; the identity takes (*inputs, tol) to
a residual as a fraction of its acceptance bound, so 1.0 is the pass/fail
boundary for every theorem.  An identity reads no generator, so a test that
checks one on inputs of its own calls it rather than restating it.

Trials are independent: trial t of theorem Ti derives its generator from
(seed, i, t), so failure counts and worst residuals do not depend on
execution order.  Reports serialize to canonical JSON; wall time is kept on
the report object but excluded from the serialized bytes so identical
configurations produce identical report files.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    DomainError,
    Subspace,
    SymMatrix,
    Tolerances,
    eig_sym,
    matrix_function,
    matrix_power,
    projection_meet,
    pseudo_inverse,
    spectral_projection,
)
from .kolmogorov import (
    kolmogorov_closed,
    kolmogorov_duality,
    kolmogorov_power,
    spectral_short_vector_power,
)
from .order import spectral_leq
from .shorted import short_at, short_schur
from .spectral_shorted import (
    spectral_short_closed,
    spectral_short_iterative,
    spectral_short_min,
    spectral_short_vector,
)

# The CLI's verify reads run_suite alone.  The generators, the theorem table
# and the report types stay module attributes, reached as
# specshort.harness.NAME, and are no part of the package's public names.
__all__ = ["run_suite"]

_KINDS = ("well_separated", "clustered", "with_zeros", "projection", "commuting_pair")


@dataclass(frozen=True)
class SpectrumSpec:
    """Recipe for a random spectrum.

    Consecutive distinct eigenvalues of well_separated, with_zeros and
    commuting_pair spectra differ by a relative gap of at least 0.2;
    zero_count fixes the kernel dimension for with_zeros and projection
    (None picks a kind-specific default).  with_zeros needs at least one
    zero and one positive eigenvalue, so n >= 2.
    """

    kind: str
    n: int
    zero_count: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown spectrum kind {self.kind!r}")
        if self.n < 1:
            raise DomainError("dimension must be at least 1")
        if self.zero_count is not None and not 0 <= self.zero_count < self.n:
            raise DomainError("zero_count must lie in [0, n)")
        if self.kind == "with_zeros" and (self.n < 2 or self.zero_count == 0):
            raise DomainError("with_zeros needs n >= 2 and at least one zero eigenvalue")


def _orthonormal(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k orthonormal columns in R^n: the Q of a Gaussian n x k matrix, with
    R's diagonal made positive so the draw is unique."""
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def _separated_values(rng: np.random.Generator, count: int, gap: float) -> np.ndarray:
    """Descending positive values with relative gaps of at least `gap`
    between consecutive entries."""
    top = float(np.exp(rng.uniform(-0.3, 0.7)))
    vals = [top]
    for _ in range(count - 1):
        ratio = rng.uniform(0.35, 1.0 - gap)
        vals.append(vals[-1] * ratio)
    return np.array(vals)


def _spectrum(rng: np.random.Generator, spec: SpectrumSpec) -> np.ndarray:
    n = spec.n
    if spec.kind == "well_separated":
        return _separated_values(rng, n, 0.2)
    if spec.kind == "clustered":
        groups = int(rng.integers(1, n)) if n > 1 else 1
        base = _separated_values(rng, groups, 0.3)
        sizes = np.ones(groups, dtype=int)
        for _ in range(n - groups):
            sizes[rng.integers(0, groups)] += 1
        return np.repeat(base, sizes)
    if spec.kind == "with_zeros":
        zeros = 1 if spec.zero_count is None else spec.zero_count
        vals = _separated_values(rng, n - zeros, 0.2)
        return np.concatenate([vals, np.zeros(zeros)])
    zeros = (n - max(1, n // 2)) if spec.zero_count is None else spec.zero_count
    return np.concatenate([np.ones(n - zeros), np.zeros(zeros)])  # projection


def _psd_from_rng(rng: np.random.Generator, spec: SpectrumSpec):
    if spec.kind == "commuting_pair":
        v = _orthonormal(rng, spec.n, spec.n)
        lam_b = _separated_values(rng, spec.n, 0.2)
        lam_a = lam_b * rng.uniform(0.3, 0.95, size=spec.n)
        return (
            SymMatrix.from_eigens(lam_a, v),
            SymMatrix.from_eigens(lam_b, v),
        )
    lam = _spectrum(rng, spec)
    v = _orthonormal(rng, spec.n, spec.n)
    return SymMatrix.from_eigens(lam, v)


def _seeded(seed: int, *keys: int) -> np.random.Generator:
    """The generator of (seed, *keys); the seed must be nonnegative."""
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


def gen_psd(spec: SpectrumSpec, seed: int):
    """Seeded random positive semidefinite matrix (or a commuting ordered
    pair for kind commuting_pair).  Same (spec, seed) gives bitwise-identical
    output."""
    return _psd_from_rng(_seeded(seed, spec.n, _KINDS.index(spec.kind)), spec)


def _subspace_from_rng(rng: np.random.Generator, n: int, k: int) -> Subspace:
    if not 0 <= k <= n:
        raise DomainError(f"subspace dimension {k} outside [0, {n}]")
    return Subspace(_orthonormal(rng, n, k))


def gen_subspace(n: int, k: int, seed: int) -> Subspace:
    """Seeded random k-dimensional subspace of R^n."""
    return _subspace_from_rng(_seeded(seed, n, k), n, k)


# ---------------------------------------------------------------------------
# Theorems: draws, (rng, n, tol) -> inputs, and identities, (*inputs, tol) ->
# residual as a fraction of the acceptance bound (pass iff <= 1).
# ---------------------------------------------------------------------------


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def _min_eig(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a).min()) if a.size else 0.0


def _frac(err: float, bound: float) -> float:
    """err as a fraction of its bound, which scales with the input, so a
    zero error reads 0 at bound 0 too."""
    return err / bound if err else 0.0


_MIXED = ("well_separated", "with_zeros", "clustered", "projection")


def _problem(kinds, low=1, subspaces=1):
    """The draw of (A, S, ...): A of a kind picked from kinds, then
    `subspaces` subspaces, each of a dimension picked in [low, n]."""

    def draw(rng, n, tol):
        A = _psd_from_rng(rng, SpectrumSpec(kinds[int(rng.integers(0, len(kinds)))], n))
        return (A, *(_subspace_from_rng(rng, n, int(rng.integers(low, n + 1))) for _ in range(subspaces)))

    return draw


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    xi = rng.standard_normal(n)
    return xi / np.linalg.norm(xi)


def _line(kinds):
    """The draw of A, of a kind picked from the two kinds, and a unit xi:
    (A, xi)."""

    def draw(rng, n, tol):
        return _psd_from_rng(rng, SpectrumSpec(kinds[int(rng.integers(0, 2))], n)), _unit(rng, n)

    return draw


def _pair(rng, n, tol):
    """A commuting pair (A, B) with A below B."""
    return _psd_from_rng(rng, SpectrumSpec("commuting_pair", n))


def _check_method_agreement(A, S, tol):
    gap = _max_abs(short_at(A, S, tol).value.entries - short_schur(A, S, tol).value.entries)
    return gap / (1e-8 * A.spectral_norm())


def _check_short_composition(A, S, T, tol):
    lhs = short_at(A, projection_meet(S, T, tol), tol).value.entries
    rhs = short_at(short_at(A, T, tol).value, S, tol).value.entries
    return _max_abs(lhs - rhs) / (1e-8 * A.spectral_norm())


def _draw_families(rng, n, tol):
    """(A, S, family): S spanned by eigenvectors of A (family 0), or a random
    S with A a projection (1) or well separated (2)."""
    family = int(rng.integers(0, 3))
    A = _psd_from_rng(rng, SpectrumSpec("projection" if family == 1 else "well_separated", n))
    k = int(rng.integers(1, n + 1))
    if family == 0:
        cols = rng.permutation(n)[:k]
        return A, Subspace(eig_sym(A, tol).vectors[:, np.sort(cols)]), family
    return A, _subspace_from_rng(rng, n, k), family


def _check_closed_vs_iterative(A, S, family, tol):
    closed = spectral_short_closed(A, S, tol)
    it = spectral_short_iterative(A, S, tol)
    nrm = A.spectral_norm()
    parts = [0.0]
    values = [np.asarray(step.value) for step in it.trace.iterates]
    for prev, nxt in zip(values, values[1:]):
        parts.append(_frac(max(0.0, -_min_eig(prev - nxt)), 1e-9 * nrm))
    for val in values:
        parts.append(_frac(max(0.0, -_min_eig(val - closed.value.entries)), 1e-9 * nrm))
    # With S spanned by eigenvectors every iterate is rho, so the commuting
    # family checks the value whatever the stop reason.
    if family == 1 and not it.trace.converged:
        return 2.0
    if family == 0 or it.trace.converged:
        parts.append(_max_abs(it.value.entries - closed.value.entries) / (1e-6 * nrm))
    return max(parts)


def _check_power_identity(A, S, tol):
    rho = spectral_short_closed(A, S, tol)
    nrm = A.spectral_norm()
    worst = 0.0
    for t in (0.5, 2.0, 3.0):
        lhs = spectral_short_closed(matrix_power(A, t, tol), S, tol).value.entries
        rhs = matrix_power(rho.value, t, tol).entries
        worst = max(worst, _frac(_max_abs(lhs - rhs), 1e-7 * nrm**t))
    return worst


def _check_rho_composition(A, S, T, tol):
    lhs = spectral_short_closed(A, projection_meet(S, T, tol), tol).value.entries
    rhs = spectral_short_closed(spectral_short_closed(A, S, tol).value, T, tol).value.entries
    return _max_abs(lhs - rhs) / (1e-7 * A.spectral_norm())


def _check_spectrum_inclusion(A, S, tol):
    rho = spectral_short_closed(A, S, tol)
    comp = rho.compressed()
    eigs = np.linalg.eigvalsh(comp) if comp.size else np.zeros(0)
    d = eig_sym(A, tol)
    targets = [mu for mu, _ in d.blocks]
    worst = 0.0
    for e in eigs:
        worst = max(worst, min(abs(float(e) - t) for t in targets))
    return _frac(worst, 1e-7 * d.norm2)


def _check_min_spectrum(A, S, tol):
    grid_value = spectral_short_min(A, S, tol)
    rho = spectral_short_closed(A, S, tol)
    comp_min = _min_eig(rho.compressed())
    d = eig_sym(A, tol)
    parts = [_frac(abs(grid_value - comp_min), 1e-7 * d.norm2)]
    floor = d.lambda_min * S.projection()
    parts.append(_frac(max(0.0, -_min_eig(rho.value.entries - floor)), 1e-9 * d.norm2))
    return max(parts)


def _check_monotone_calculus(A, S, tol):
    d = eig_sym(A, tol)
    lam_max = max(d.lambda_max, 0.0)
    positives = [mu for mu, _ in d.blocks[1:]]
    if len(positives) >= 2:
        step_at = (positives[-1] + positives[-2]) / 2.0
    else:
        step_at = (positives[0] / 2.0) if positives else 0.5
    cases = [
        (lambda x: x * x, lam_max**2),
        (lambda x: math.sqrt(max(x, 0.0)), math.sqrt(lam_max) if lam_max > 0 else 1.0),
        (lambda x: 1.0 if x >= step_at else 0.0, 1.0),
    ]
    rho = spectral_short_closed(A, S, tol).value
    worst = 0.0
    for f, f_top in cases:
        lhs = matrix_function(rho, lambda x: max(f(x), 0.0), tol)
        rhs = spectral_short_closed(matrix_function(A, f, tol), S, tol).value
        worst = max(worst, _frac(_max_abs(lhs.entries - rhs.entries), 1e-8 * f_top))
    return worst


def _draw_well_conditioned_line(rng, n, tol):
    # Condition kept near 2 so the 16th power stays far from the
    # cancellation floor of the block-elimination route.
    lam = rng.uniform(0.7, 1.4, size=n)
    return SymMatrix.from_eigens(lam, _orthonormal(rng, n, n)), _unit(rng, n)


def _check_inverse_norm_identity(A, xi, tol):
    no_stop = replace(tol, conv_tol=0.0)
    trace = spectral_short_vector_power(A, xi, m_max=16, tol=no_stop).trace
    worst = 0.0
    for step in trace.iterates[1::2]:  # the even powers 2, 4, ..., 16
        m = int(step.power)
        power = matrix_power(A, float(m), tol)
        sigma = short_schur(power, Subspace.span(xi, tol), tol).scalar()
        lhs = max(sigma, 0.0) ** (1.0 / m)
        worst = max(worst, abs(lhs - float(step.value)) / 1e-9)
    return worst


def _draw_range_line(rng, n, tol):
    """(A, xi, B): A invertible or with a kernel (a coin), xi a unit vector
    in A's range, and B with a kernel."""
    if rng.integers(0, 2):
        A = _psd_from_rng(rng, SpectrumSpec("well_separated", n))
        xi = _unit(rng, n)
    else:
        A = _psd_from_rng(rng, SpectrumSpec("with_zeros", n))
        d = eig_sym(A, tol)
        positive = d.vectors[:, d.blocks[0][1].stop :]
        x = positive @ rng.standard_normal(positive.shape[1])
        xi = x / np.linalg.norm(x)
    return A, xi, _psd_from_rng(rng, SpectrumSpec("with_zeros", n))


def _check_vector_power_limit(A, xi, B, tol):
    closed = spectral_short_vector(A, xi, tol)
    power = spectral_short_vector_power(A, xi, tol=tol)
    if not power.trace.converged:
        return 2.0
    parts = [_frac(abs(power.value - closed), 1e-6 * A.spectral_norm())]
    dB = eig_sym(B, tol)
    null = dB.vectors[:, dB.blocks[0][1]]
    if null.size:
        off = null[:, 0]
        off_value = spectral_short_vector_power(B, off, tol=tol).value
        parts.append(0.0 if off_value == 0.0 else 2.0)
    return max(parts)


_ORDER_COUNTEREXAMPLE = (SymMatrix([[1.0, 1.0], [1.0, 1.0]]), SymMatrix([[2.0, 1.0], [1.0, 1.0]]))


def _check_order_certificates(A, B, tol):
    cert = spectral_leq(A, B, tol)
    parts = [0.0 if cert.holds else 2.0]
    bad = spectral_leq(*_ORDER_COUNTEREXAMPLE, tol)
    parts.append(0.0 if (not bad.holds and bad.witness_lambda is not None) else 2.0)
    return max(parts)


def _loewner_not_spectral(rng, n, tol):
    """A pair with A <= B in the semidefinite order but clearly not in the
    spectral order (a marginal violation would carry too little spectral
    weight for an eigenvector witness); falls back to the canonical 2x2
    pair."""
    for _ in range(12):
        A = _psd_from_rng(rng, SpectrumSpec("well_separated", n))
        u = rng.standard_normal((n, 1))
        B = SymMatrix(A.entries + 0.5 * (u @ u.T))
        if spectral_leq(A, B, tol).worst_residual > 1e-3:
            return A, B
    return _ORDER_COUNTEREXAMPLE


def _draw_two_pairs(rng, n, tol):
    """(A, B, lines, A2, B2): a commuting ordered pair, 100 unit vectors,
    and a pair ordered in the semidefinite order only."""
    A, B = _pair(rng, n, tol)
    lines = [_unit(rng, n) for _ in range(100)]
    return A, B, lines, *_loewner_not_spectral(rng, n, tol)


def _check_dim1_characterization(A, B, lines, A2, B2, tol):
    worst = 0.0
    for xi in lines:
        va = spectral_short_vector(A, xi, tol)
        vb = spectral_short_vector(B, xi, tol)
        worst = max(worst, (va - vb) / 1e-9)
    parts = [worst]
    found = any(
        spectral_short_vector(A2, v, tol) > spectral_short_vector(B2, v, tol) + 1e-9
        for v in eig_sym(A2, tol).vectors.T
    )
    parts.append(0.0 if found else 2.0)
    return max(parts)


def _check_complexity_power(A, xi, tol):
    closed = kolmogorov_closed(A, xi, tol).value
    result = kolmogorov_power(A, xi, tol=tol)
    if not result.trace.converged:
        return 2.0
    nrm = A.spectral_norm()
    parts = [_frac(abs(result.value - closed), 1e-6 * nrm)]
    drop = 0.0
    for step in result.trace.iterates:
        if step.delta is not None and step.delta < -drop:
            drop = -step.delta
    parts.append(drop / tol.conv_tol)
    for a in (-1.0, 0.5, 10.0):
        parts.append(0.0 if kolmogorov_closed(A, a * np.asarray(xi), tol).value == closed else 2.0)
    d = eig_sym(A, tol)
    positives = d.blocks[1:]
    if positives and closed > 0.0:
        q = spectral_projection(d, positives[0][0], tol)
        truncated = q.projection() @ xi
        if np.linalg.norm(truncated) > 1e-10:
            parts.append(
                0.0 if kolmogorov_closed(A, truncated, tol).value == closed else 2.0
            )
    return max(parts)


def _check_levels_attained(A, tol):
    d = eig_sym(A, tol)
    worst = 0.0
    for expected, idx in d.blocks:
        if idx.stop > idx.start:
            v = d.vectors[:, idx.start]
            worst = max(worst, abs(spectral_short_vector(A, v, tol) - expected))
            worst = max(worst, abs(kolmogorov_closed(A, v, tol).value - expected))
    return _frac(worst, 1e-9 * d.norm2)


def _check_duality(A, xi, tol):
    k_value, dual = kolmogorov_duality(A, xi, tol)
    parts = []
    d = eig_sym(A, tol)
    kernel = d.blocks[0][1]
    positive = d.vectors[:, kernel.stop :]
    if k_value == 0.0 and dual == 0.0:
        proj = float(np.linalg.norm(positive.T @ xi))
        parts.append(0.0 if proj <= 1e-10 else 2.0)
    else:
        parts.append(abs(k_value - dual) / (1e-8 * max(abs(k_value), 1e-300)))
    # A's kernel block decides the branch: a kernel vector has k = dual = 0,
    # and on a definite A k is the reciprocal of rho(pinv(A), P xi)
    if kernel.stop:
        z_k, z_dual = kolmogorov_duality(A, d.vectors[:, 0], tol)
        parts.append(0.0 if (z_k == 0.0 and z_dual == 0.0) else 2.0)
    else:
        inv_rho = spectral_short_vector(pseudo_inverse(A, tol), positive @ (positive.T @ xi), tol)
        parts.append(abs(k_value * inv_rho - 1.0) / 1e-8)
    return max(parts)


@dataclass(frozen=True)
class TheoremCheck:
    theorem: str
    description: str
    draw: Callable[[np.random.Generator, int, Tolerances], tuple]
    identity: Callable[..., float]


THEOREMS: tuple[TheoremCheck, ...] = (
    TheoremCheck("T1", "shorted operator: geometric and block-elimination routes agree", _problem(_MIXED, low=0), _check_method_agreement),
    TheoremCheck("T2", "shorted operator: composition over intersecting subspaces", _problem(_MIXED[:2], subspaces=2), _check_short_composition),
    TheoremCheck("T3", "spectral short: iterated-power route matches closed form; iterates decrease", _draw_families, _check_closed_vs_iterative),
    TheoremCheck("T4", "spectral short commutes with matrix powers", _problem(_MIXED[:2]), _check_power_identity),
    TheoremCheck("T5", "spectral short: composition over intersecting subspaces", _problem(_MIXED[:3], subspaces=2), _check_rho_composition),
    TheoremCheck("T6", "spectrum of the compressed spectral short sits on the source levels", _problem(_MIXED), _check_spectrum_inclusion),
    TheoremCheck("T7", "smallest compressed eigenvalue equals the projection-inclusion grid value", _problem(_MIXED[:3]), _check_min_spectrum),
    TheoremCheck("T8", "spectral short commutes with nondecreasing right-continuous maps", _problem(_MIXED[:2]), _check_monotone_calculus),
    TheoremCheck("T9", "scalar shorted values of even powers equal inverse-power norms", _draw_well_conditioned_line, _check_inverse_norm_identity),
    TheoremCheck("T10", "scalar spectral short: pseudo-inverse power limit matches the level formula", _draw_range_line, _check_vector_power_limit),
    TheoremCheck("T11", "spectral order accepts commuting ordered pairs and rejects the counterexample", _pair, _check_order_certificates),
    TheoremCheck("T12", "spectral order matches scalar spectral-short comparison in both directions", _draw_two_pairs, _check_dim1_characterization),
    TheoremCheck("T13", "complexity power trace increases and matches the level formula; invariances", _line(("with_zeros", "well_separated")), _check_complexity_power),
    TheoremCheck("T14", "every level is attained by the scalar spectral short and by the complexity", _problem(("well_separated", "clustered", "with_zeros"), subspaces=0), _check_levels_attained),
    TheoremCheck("T15", "complexity agrees with the reciprocal pseudo-inverse spectral short", _line(("well_separated", "with_zeros")), _check_duality),
)


@dataclass(frozen=True)
class TheoremResult:
    theorem: str
    description: str
    trials: int
    failures: int
    worst_residual: float
    failing_trial: int | None


@dataclass(frozen=True)
class VerificationReport:
    schema: int
    seed: int
    dims: tuple[int, ...]
    trials: int
    theorems: tuple[TheoremResult, ...]
    wall_time_s: float

    @property
    def total_failures(self) -> int:
        return sum(t.failures for t in self.theorems)

    def to_json_dict(self) -> dict:
        """Canonical report content; excludes wall time so identical
        configurations serialize to identical bytes.  Every theorem passes
        at residual 1.0, its "bound"."""
        report = asdict(self)
        del report["wall_time_s"]
        report["failures_total"] = self.total_failures
        for t in report["theorems"]:
            t["id"] = t.pop("theorem")
            t["bound"] = 1.0
        return report


def _check_dims(dims: tuple[int, ...]) -> None:
    if any(d < 2 for d in dims):
        raise DomainError(f"every dimension must be at least 2, got {tuple(dims)}")


def run_trial(
    check: TheoremCheck,
    index: int,
    trial: int,
    dims: tuple[int, ...],
    seed: int,
    tol: Tolerances,
) -> float:
    """One trial of one theorem, with a generator derived from
    (seed, theorem index, trial) so results are order-independent.  Every
    dimension must be at least 2, as in run_suite."""
    if not dims:
        raise DomainError("need at least one dimension")
    _check_dims(dims)
    n = dims[trial % len(dims)]
    return float(check.identity(*check.draw(_seeded(seed, index, trial), n, tol), tol))


def run_suite(
    dims=tuple(range(2, 13)),
    trials: int = 50,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> VerificationReport:
    """Run every theorem check over seeded random instances; a trial fails
    when its residual exceeds 1.0, or is NaN.

    trials = 0 yields an empty report.  Every dimension must be at least 2,
    since the theorems draw matrices with a kernel and a positive level.
    """
    if trials < 0:
        raise DomainError(f"trials must be nonnegative, got {trials}")
    dims = tuple(int(d) for d in dims)
    _check_dims(dims)
    start = time.monotonic()
    results: list[TheoremResult] = []
    if trials > 0:
        for index, check in enumerate(THEOREMS):
            worst = 0.0
            failures = 0
            failing: int | None = None
            for trial in range(trials):
                residual = run_trial(check, index, trial, dims, seed, tol)
                # a NaN fails, and is reported as inf so the JSON report parses
                worst = max(worst, math.inf if math.isnan(residual) else residual)
                if not residual <= 1.0:
                    failures += 1
                    if failing is None:
                        failing = trial
            results.append(
                TheoremResult(
                    theorem=check.theorem,
                    description=check.description,
                    trials=trials,
                    failures=failures,
                    worst_residual=worst,
                    failing_trial=failing,
                )
            )
    return VerificationReport(
        schema=1,
        seed=int(seed),
        dims=dims,
        trials=int(trials),
        theorems=tuple(results),
        wall_time_s=time.monotonic() - start,
    )
