import math

import numpy as np
import pytest

from specshort import (
    DEFAULT_TOL,
    ConvergenceTrace,
    DimensionMismatchError,
    DomainError,
    SpectrumSpec,
    SymMatrix,
    eig_sym,
    gen_psd,
    kolmogorov_closed,
    kolmogorov_duality,
    kolmogorov_power,
    pseudo_inverse,
    spectral_projection,
    spectral_short_vector,
    spectral_short_vector_power,
)

from conftest import IDENTITIES


def test_closed_diag_examples():
    A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
    assert kolmogorov_closed(A, np.ones(3) / math.sqrt(3.0)).value == 3.0
    for j, lam in enumerate([1.0, 2.0, 3.0]):
        assert kolmogorov_closed(A, np.eye(3)[:, j]).value == lam
    assert kolmogorov_closed(SymMatrix(np.diag([2.0, 0.0])), [0.0, 1.0]).value == 0.0


def test_closed_rejects_zero_vector():
    with pytest.raises(DomainError):
        kolmogorov_closed(SymMatrix(np.eye(2)), [0.0, 0.0])


VECTOR_ROUTES = [
    spectral_short_vector,
    spectral_short_vector_power,
    kolmogorov_closed,
    kolmogorov_power,
    kolmogorov_duality,
]


@pytest.mark.parametrize(
    "xi, error, message",
    [
        ([math.nan, 0.0, 0.0], DomainError, "^xi must be finite$"),
        ([math.inf, 1.0, 0.0], DomainError, "^xi must be finite$"),
        ([1.0, 0.0], DimensionMismatchError, "^xi has 2 entries in dimension 3$"),
        ([1.0, 0.0, 0.0, 0.0], DimensionMismatchError, "^xi has 4 entries in dimension 3$"),
        ([0.0, 0.0, 0.0], DomainError, "^xi must be a nonzero vector$"),
    ],
    ids=["nan", "inf", "short", "long", "zero"],
)
@pytest.mark.parametrize("route", VECTOR_ROUTES)
def test_every_vector_route_rejects_a_non_finite_xi(route, xi, error, message):
    # every route reads xi through one front door, with one message per cause
    with pytest.raises(error, match=message):
        route(SymMatrix(np.diag([1.0, 2.0, 3.0])), xi)


def test_power_hand_sequence():
    # <A^n xi, xi> = (1 + 2^n + 3^n) / 3 for the uniform direction
    A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
    xi = np.ones(3) / math.sqrt(3.0)
    r = kolmogorov_power(A, xi)
    s = [float(st.value) for st in r.trace.iterates]
    assert abs(s[0] - 2.0) < 1e-12
    assert abs(s[1] - math.sqrt(14.0 / 3.0)) < 1e-12
    assert r.trace.converged
    assert abs(r.value - 3.0) < 1e-6
    # increasing sequence
    assert all(b >= a - 1e-12 for a, b in zip(s, s[1:]))


def test_power_scalar_matrix():
    c = 1.7
    r = kolmogorov_power(SymMatrix(c * np.eye(4)), np.ones(4) / 2.0)
    assert abs(r.value - c) < 1e-9
    for st in r.trace.iterates:
        assert abs(float(st.value) - c) < 1e-12


def test_power_rejects_no_iterations():
    # with no power taken there is no estimate, not a complexity of 0
    with pytest.raises(DomainError, match="n_max"):
        kolmogorov_power(SymMatrix(np.eye(2)), [1.0, 0.0], n_max=0)


def test_power_zero_support():
    r = kolmogorov_power(SymMatrix(np.diag([2.0, 0.0])), [0.0, 1.0])
    assert r.value == 0.0
    assert r.trace.stop_reason == "exact"


def test_power_removes_a_rounding_negative_kernel_member():
    # -1e-9 is at or below the rank cut, so it is kernel: xi sees the level
    # 1, and powering the negative member would make the pairings negative
    A = SymMatrix(np.diag([-1e-9, 1.0]))
    xi = np.array([1.0, 1e-5])
    r = kolmogorov_power(A, xi)
    assert r.trace.converged and r.trace.stop_reason == "converged"
    assert abs(r.value - 1.0) <= 1e-9
    assert kolmogorov_closed(A, xi).value == kolmogorov_duality(A, xi)[0] == 1.0
    # the kernel direction itself still has no positive support
    assert kolmogorov_power(A, [1.0, 0.0]).value == 0.0


def test_power_decides_support_on_the_meet_sine():
    # xi = (1, eps) under diag(0, 1): every route decides whether xi has
    # positive support on the same sine, eps / |xi|, against meet_tol
    A = SymMatrix(np.diag([0.0, 1.0]))
    for eps in (1e-12, 1e-9, 5e-9, 9e-9, 2e-8, 1e-6, 1e-3):
        xi = np.array([1.0, eps])
        closed = kolmogorov_closed(A, xi).value
        assert closed == kolmogorov_duality(A, xi)[0] == (1.0 if eps > 1e-8 else 0.0)
        r = kolmogorov_power(A, xi)
        assert r.value == pytest.approx(closed, abs=1e-12)
        if closed == 0.0:
            assert r.trace == ConvergenceTrace((), "exact")


def test_power_stops_at_the_wall_once_the_pairing_is_rounding():
    # xi lies on the kernel and, by 1e-3, on the level 1e-3: the iterate
    # leaves that level within a few steps, and rounding in the powered
    # matrix seeds the top level, which it would otherwise converge to
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    A = SymMatrix((q * [0.0, 1e-3, 0.5, 1.0]) @ q.T)
    xi = q[:, 0] + 1e-3 * q[:, 1]
    assert kolmogorov_closed(A, xi).value == pytest.approx(1e-3, rel=1e-12)
    r = kolmogorov_power(A, xi)
    assert r.trace.stop_reason == "power_limit" and not r.trace.converged
    assert r.value == pytest.approx(1e-3, rel=1e-6)


@pytest.mark.filterwarnings("error")
def test_power_stops_when_the_iterate_vanishes():
    # 0 and 1e-8 form one cluster that starts at the rank cut, so e0 lies
    # in the kernel: A e0 = 0, and the route gives the exact 0 without
    # powering
    A = SymMatrix(np.diag([0.0, 1e-8, 1.0, 2.0]))
    r = kolmogorov_power(A, [1.0, 0.0, 0.0, 0.0])
    assert r.value == 0.0
    assert r.trace == ConvergenceTrace((), "exact")


def test_power_wall_on_a_large_kernel():
    # a 5-dimensional kernel with xi 1e-5 off it, on the level 1e-3: every
    # draw stops at the wall, its last quotient estimate on the level
    for seed in range(20):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((8, 8)))
        A = SymMatrix((q * [0.0, 0.0, 0.0, 0.0, 0.0, 1e-3, 0.5, 1.0]) @ q.T)
        xi = q[:, 0] + 1e-5 * q[:, 5]
        r = kolmogorov_power(A, xi)
        assert r.trace.stop_reason == "power_limit", seed
        assert abs(r.value - kolmogorov_closed(A, xi).value) <= 1e-6, seed


def test_scaling_invariance_exact():
    # every route reads xi as its line: scaling by a power of two or by -1
    # is exact, so it gives the same unit vector up to sign, and results
    # (values and trace steps, compared as dataclasses) equal to the bit,
    # out to scales where the squares of xi's entries overflow or vanish
    rng = np.random.default_rng(8)
    A = gen_psd(SpectrumSpec("with_zeros", 5), 3)
    xi = rng.standard_normal(5)
    for route in VECTOR_ROUTES:
        for line in (xi, A.entries @ xi):
            base = route(A, line)
            for a in (-1.0, 0.5, 2.0**-40, 2.0**40, 2.0**-600, 2.0**600):
                assert route(A, a * line) == base, (route.__name__, a)
    assert kolmogorov_closed(A, 10.0 * xi).value == kolmogorov_closed(A, xi).value


def test_truncation_invariance():
    rng = np.random.default_rng(9)
    for seed in range(4):
        A = gen_psd(SpectrumSpec("well_separated", 5), seed)
        d = eig_sym(A)
        xi = rng.standard_normal(5)
        xi /= np.linalg.norm(xi)
        base = kolmogorov_closed(A, xi).value
        lam = float(d.level_values[0])  # smallest positive level
        q = spectral_projection(d, lam)
        truncated = q.projection() @ xi
        assert np.linalg.norm(truncated) > 0
        assert kolmogorov_closed(A, truncated).value == base


def test_range_criterion():
    # nonzero complexity exactly when the range projection of xi keeps a
    # positive-level component
    A = SymMatrix(np.diag([3.0, 1.0, 0.0]))
    assert kolmogorov_closed(A, [0.0, 1e-3, 1.0]).value == 1.0
    assert kolmogorov_closed(A, [0.0, 0.0, 1.0]).value == 0.0


def test_attained_set_covers_levels():
    for seed in range(4):
        A = gen_psd(SpectrumSpec("clustered", 6), seed)
        d = eig_sym(A)
        cut = 1e-10 * d.norm2
        for group, rep in zip(d.levels, d.level_values):
            v = d.vectors[:, group[0]]
            expected = float(rep) if rep > cut else 0.0
            assert kolmogorov_closed(A, v).value == expected


def test_triple_characterization_consistency():
    # three level-grid formulas for the same quantity agree exactly:
    # (1) the smallest level whose lower half-line contains xi,
    # (2) the largest level with per-level component,
    # (3) the largest level whose upper half-line still sees xi.
    rng = np.random.default_rng(10)
    for seed in range(5):
        n = 6
        A = gen_psd(SpectrumSpec(("well_separated", "with_zeros")[seed % 2], n), seed)
        d = eig_sym(A)
        xi = rng.standard_normal(n)
        xi /= np.linalg.norm(xi)
        coeffs = d.vectors.T @ xi
        weights = [float(np.sum(coeffs[list(g)] ** 2)) for g in d.levels]
        tol = 1e-10
        # (1) min level with no weight strictly above it (fresh suffix sums,
        # so the empty sum at the top level is exactly zero)
        lower = 0.0
        for i, rep in enumerate(d.level_values):
            above = float(sum(weights[i + 1 :]))
            if math.sqrt(above) <= tol:
                lower = float(rep)
                break
        # (2) max level whose own weight is nonzero
        per_level = 0.0
        for rep, w in zip(d.level_values, weights):
            if math.sqrt(w) > tol:
                per_level = float(rep)
        # (3) the packaged closed form
        upper = kolmogorov_closed(A, xi).value
        cut = 1e-10 * d.norm2
        lower = lower if lower > cut else 0.0
        per_level = per_level if per_level > cut else 0.0
        assert lower == per_level == upper


def test_power_matches_closed_on_gapped_spectra():
    rng = np.random.default_rng(11)
    for seed in range(5):
        A = gen_psd(SpectrumSpec("well_separated", 6), seed)
        xi = rng.standard_normal(6)
        xi /= np.linalg.norm(xi)
        closed = kolmogorov_closed(A, xi).value
        power = kolmogorov_power(A, xi)
        assert power.trace.converged
        assert abs(power.value - closed) <= 1e-6 * max(1.0, closed)


def test_duality_invertible_reciprocal():
    rng = np.random.default_rng(12)
    for seed in range(4):
        A = gen_psd(SpectrumSpec("well_separated", 5), seed)
        xi = rng.standard_normal(5)
        xi /= np.linalg.norm(xi)
        # harness T15's invertible branch: k = dual = 1 / rho(pinv(A), xi)
        assert IDENTITIES["T15"](A, xi, DEFAULT_TOL) <= 1


@pytest.mark.parametrize("j", [0, 1])
def test_duality_beside_a_tiny_level(j):
    # A = diag(1, 2, 1e-8) is well separated in its own partition.  pinv(A)'s
    # levels 1 and 0.5 lie within its own cluster width 1e-8 * ||pinv(A)|| =
    # 1, so only A's partition, which pinv(A) keeps, holds them apart
    A = SymMatrix(np.diag([1.0, 2.0, 1e-8]))
    k, dual = kolmogorov_duality(A, np.eye(3)[j])
    assert k == j + 1.0
    assert abs(k - dual) <= 1e-8 * k


def test_duality_singular_hand_case():
    A = SymMatrix(np.diag([2.0, 0.0]))
    xi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    k, dual = kolmogorov_duality(A, xi)
    assert k == 2.0 and dual == 2.0
    # the projected direction is e1 and the pseudo-inverse level there is 1/2
    assert spectral_short_vector(pseudo_inverse(A), [1.0, 0.0]) == 0.5


def test_duality_null_vector_convention():
    A = SymMatrix(np.diag([2.0, 0.0]))
    assert kolmogorov_duality(A, [0.0, 1.0]) == (0.0, 0.0)


@pytest.mark.parametrize("lean", [0.0, 1e-12], ids=["in", "beside"])
def test_duality_identity_reads_the_kernel_from_a(lean):
    # harness T15 on a singular A and a xi in its kernel, or 1e-12 from
    # it: the identity takes its kernel branch from A's kernel block, so
    # no caller can send such a xi down the reciprocal branch, where
    # pinv(A) P xi is 0 (or 1e-12) and rho of it is undefined
    A = SymMatrix(np.diag([2.0, 1.0, 0.0]))
    xi = np.array([lean, 0.0, 1.0])
    assert IDENTITIES["T15"](A, xi / np.linalg.norm(xi), DEFAULT_TOL) <= 1


def _first_above(weights, floor):
    """The first index whose weight exceeds floor, and the weights on either
    side of that cut (0 below index 0)."""
    j = int(np.argmax(weights > floor))
    return j, (weights[j - 1] if j else 0.0, weights[j])


@pytest.mark.parametrize("alpha", [1, 3, 8])
@pytest.mark.parametrize("n, by_eigens", [(200, True), (1000, True), (200, False)], ids=["200-eigens", "1000-eigens", "200-entries"])
def test_a_section_of_the_multiplication_operator(n, by_eigens, alpha):
    # a finite section of M_x on L^2[0, 1], where 0 is in the spectrum but
    # is no eigenvalue: A = H diag(x) H on the n midpoints x, xi = H f with
    # f = x^alpha.  rho is the first grid point where the cumulative weight
    # of f passes meet_tol, and k the last where the tail weight does, read
    # off f alone; the weights beside each cut stay 1% clear of meet_tol so
    # that rounding cannot move it
    x = (np.arange(n) + 0.5) / n
    u = np.cos(np.arange(n))
    h = np.eye(n) - 2.0 * np.outer(u, u) / (u @ u)
    A = SymMatrix.from_eigens(x, h) if by_eigens else SymMatrix((h * x) @ h.T)
    f = x**alpha
    weight = np.sqrt(np.cumsum(f**2)) / np.linalg.norm(f)
    tail = np.sqrt(np.cumsum(f[::-1] ** 2)) / np.linalg.norm(f)
    meet = DEFAULT_TOL.meet_tol
    first, first_beside = _first_above(weight, meet)
    from_top, last_beside = _first_above(tail, meet)
    assert abs(spectral_short_vector(A, h @ f) - x[first]) <= 1e-15
    assert abs(kolmogorov_closed(A, h @ f).value - x[n - 1 - from_top]) <= 1e-15
    for w in (*first_beside, *last_beside):
        assert abs(w - meet) >= 0.01 * meet
