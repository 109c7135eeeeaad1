import math
from dataclasses import replace

import numpy as np
import pytest

from specshort import (
    DEFAULT_TOL,
    DomainError,
    SpectrumSpec,
    Subspace,
    SymMatrix,
    eig_sym,
    gen_nested_subspaces,
    gen_psd,
    gen_subspace,
    kolmogorov_closed,
    matrix_power,
    monotone_calculus_residual,
    projection_meet,
    scalar_short_spectrum,
    short_at,
    short_schur,
    spectral_leq,
    spectral_short_closed,
    spectral_short_iterative,
    spectral_short_min,
    spectral_short_vector,
    spectral_short_vector_power,
    spectral_projection,
)

from conftest import max_abs, min_eig


def test_closed_projection_case():
    # the spectral short of a projection is the projection onto the meet
    A = SymMatrix(np.diag([1.0, 1.0, 0.0]))
    S = Subspace.span(np.eye(3)[:, 1:3])
    r = spectral_short_closed(A, S)
    assert max_abs(r.value.entries - np.diag([0.0, 1.0, 0.0])) < 1e-12


def test_closed_commuting_case():
    A = SymMatrix(np.diag([1.0, 2.0]))
    S = Subspace.span([[0.0], [1.0]])
    r = spectral_short_closed(A, S)
    assert max_abs(r.value.entries - S.projection() @ A.entries) < 1e-12


def test_closed_diagonal_with_tilted_line():
    # the meet at the top level vanishes, so the whole line sits at level 1
    A = SymMatrix(np.diag([1.0, 2.0]))
    S = Subspace.span([[1.0], [1.0]])
    r = spectral_short_closed(A, S)
    assert max_abs(r.value.entries - S.projection()) < 1e-12
    # cross-check by the independent iterative route, extrapolated
    it = spectral_short_iterative(A, S, k_max=20)
    ext = it.trace.extrapolated()
    assert max_abs(ext - r.value.entries) < 5e-3


def test_closed_levels_are_nested_and_spectrum_sits_on_levels():
    for seed in range(6):
        n = 6
        A = gen_psd(SpectrumSpec("clustered", n), seed)
        S = gen_subspace(n, 3, seed + 5)
        r = spectral_short_closed(A, S)
        d = eig_sym(A)
        cut = 1e-10 * d.norm2
        positives = [float(v) for v in d.level_values if v > cut]
        assert [mu for mu, _ in r.levels] == positives[::-1]
        eigs = np.linalg.eigvalsh(r.value.entries)
        cumulative = 0
        for mu, rank in r.levels:
            # the ranks add up to the dimensions of the meets E_A[mu, inf) ^ S
            cumulative += rank
            assert cumulative == projection_meet(spectral_projection(d, mu), S).dim
            # and each is the multiplicity of its value in rho
            assert np.count_nonzero(np.abs(eigs - mu) <= 1e-8 * max(1.0, d.norm2)) == rank
        targets = [0.0] + positives
        for eig in eigs:
            assert min(abs(eig - t) for t in targets) <= 1e-8 * max(1.0, d.norm2)


def test_closed_and_complexity_scale_with_the_matrix():
    # rho(cA, S) = c rho(A, S) at every scale: distinct levels of a small
    # matrix must not merge
    S = Subspace.span([[1.0], [1.0]])
    for c in (1e-12, 1e-9, 1.0, 1e3, 1e12):
        A = SymMatrix(c * np.diag([1.0, 2.0]))
        rho = spectral_short_closed(A, S).value.entries
        assert max_abs(rho - 0.5 * c * np.ones((2, 2))) <= 1e-12 * c
        assert abs(kolmogorov_closed(A, [1.0, 1.0]).value - 2.0 * c) <= 1e-12 * c


def test_closed_on_generic_draw_with_small_angles():
    # a generic draw whose subspace makes small principal angles with some
    # half-line projections of A (the benchmark's many-levels instance 57)
    rng = np.random.default_rng([0, 57])
    n, k = 96, 48
    w = np.linspace(1.0, 2.0, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    basis = rng.standard_normal((n, k))
    a = (q * w) @ q.T
    A = SymMatrix((a + a.T) / 2.0)
    rho = spectral_short_closed(A, Subspace.span(basis)).value
    assert spectral_leq(rho, A).holds
    want = np.concatenate([np.zeros(n - k), w[:k]])
    assert max_abs(np.linalg.eigvalsh(rho.entries) - want) <= 1e-8


def test_closed_range_inside_subspace():
    for seed in range(4):
        A = gen_psd(SpectrumSpec("with_zeros", 5), seed)
        S = gen_subspace(5, 2, seed)
        r = spectral_short_closed(A, S)
        outside = r.value.entries - S.projection() @ r.value.entries
        assert max_abs(outside) <= 1e-9


def test_iterative_projection_converges_immediately():
    A = SymMatrix(np.diag([1.0, 1.0, 0.0]))
    S = gen_subspace(3, 2, 3)
    r = spectral_short_iterative(A, S)
    assert r.trace.converged
    assert len(r.trace.iterates) <= 2
    closed = spectral_short_closed(A, S)
    assert max_abs(r.value.entries - closed.value.entries) <= 1e-10


def test_iterative_scaled_identity():
    c = 2.5
    S = gen_subspace(4, 2, 9)
    r = spectral_short_iterative(SymMatrix(c * np.eye(4)), S)
    assert r.trace.converged
    assert max_abs(r.value.entries - c * S.projection()) <= 1e-10


def test_iterative_trace_hand_values():
    # iterates for diag(1,2) against the tilted line are
    # ((1 + 2^{-m})/2)^{-1/m}: 4/3, sqrt(8/5), ... decreasing to 1
    A = SymMatrix(np.diag([1.0, 2.0]))
    S = Subspace.span([[1.0], [1.0]])
    r = spectral_short_iterative(A, S, k_max=20)
    scalars = [float((S.basis.T @ np.asarray(st.value) @ S.basis)[0, 0]) for st in r.trace.iterates]
    assert abs(scalars[0] - 4.0 / 3.0) < 1e-12
    assert abs(scalars[1] - math.sqrt(8.0 / 5.0)) < 1e-12
    expected = [((1.0 + 2.0 ** (-m)) / 2.0) ** (-1.0 / m) for m in (1, 2, 4, 8, 16)]
    np.testing.assert_allclose(scalars, expected, atol=1e-9)
    # strictly decreasing toward the limit 1, stopped at the precision wall
    assert all(b < a for a, b in zip(scalars, scalars[1:]))
    assert not r.trace.converged
    assert r.trace.stop_reason == "power_limit"


def test_iterative_trace_monotone_and_dominates_limit():
    for seed in range(5):
        n = 5
        A = gen_psd(SpectrumSpec("well_separated", n), seed)
        S = gen_subspace(n, 2, seed + 3)
        closed = spectral_short_closed(A, S)
        it = spectral_short_iterative(A, S, k_max=20)
        nrm = eig_sym(A).norm2
        vals = [np.asarray(st.value) for st in it.trace.iterates]
        for prev, nxt in zip(vals, vals[1:]):
            assert min_eig(prev - nxt) >= -1e-9 * max(1.0, nrm)
        for v in vals:
            assert min_eig(v - closed.value.entries) >= -1e-9 * max(1.0, nrm)


def test_iterative_zero_matrix_and_zero_subspace():
    z = spectral_short_iterative(SymMatrix(np.zeros((3, 3))), Subspace.full(3))
    assert z.trace.stop_reason == "exact"
    assert max_abs(z.value.entries) == 0.0
    z2 = spectral_short_iterative(SymMatrix(np.eye(3)), Subspace.zero(3))
    assert max_abs(z2.value.entries) == 0.0


def test_vector_value_examples():
    A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
    d = eig_sym(A)
    for j, lam in enumerate([1.0, 2.0, 3.0]):
        assert spectral_short_vector(A, d.vectors[:, j]) == lam
    assert spectral_short_vector(A, np.ones(3) / math.sqrt(3.0)) == 1.0
    assert spectral_short_vector(SymMatrix(np.diag([1.0, 0.0])), [0.0, 1.0]) == 0.0


def test_vector_value_matches_closed_scalar():
    rng = np.random.default_rng(2)
    for seed in range(5):
        A = gen_psd(SpectrumSpec("with_zeros", 5), seed)
        xi = rng.standard_normal(5)
        xi /= np.linalg.norm(xi)
        r = spectral_short_closed(A, Subspace.span(xi))
        assert abs(spectral_short_vector(A, xi) - r.scalar()) <= 1e-9


def test_vector_power_first_step_hand_value():
    A = SymMatrix(np.diag([1.0, 2.0]))
    xi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    value, trace = spectral_short_vector_power(A, xi)
    assert abs(float(trace.iterates[0].value) - math.sqrt(8.0 / 5.0)) < 1e-12
    assert trace.converged
    assert abs(value - 1.0) <= 1e-8
    # the root sequence is non-increasing
    ss = [float(st.value) for st in trace.iterates]
    assert all(b <= a + 1e-12 for a, b in zip(ss, ss[1:]))


def test_vector_power_eigenvector_constant():
    A = gen_psd(SpectrumSpec("well_separated", 4), 6)
    d = eig_sym(A)
    lam = float(d.level_values[2])
    value, trace = spectral_short_vector_power(A, d.vectors[:, list(d.levels[2])[0]])
    assert abs(value - lam) <= 1e-9
    for st in trace.iterates:
        assert abs(float(st.value) - lam) <= 1e-9


def test_vector_power_off_range_is_exact_zero():
    A = SymMatrix(np.diag([1.0, 0.0]))
    value, trace = spectral_short_vector_power(A, [0.0, 1.0])
    assert value == 0.0
    assert trace.stop_reason == "exact"


def test_inverse_norm_identity_small_powers():
    # scalar shorted value of A^{2m} equals the inverse-power norm, per m
    rng = np.random.default_rng(40)
    for seed in range(4):
        n = 4
        lam = rng.uniform(0.7, 1.4, size=n)
        g = rng.standard_normal((n, n))
        q, rr = np.linalg.qr(g)
        A = SymMatrix.from_eigens(lam, q * np.sign(np.diag(rr)))
        xi = rng.standard_normal(n)
        xi /= np.linalg.norm(xi)
        no_stop = replace(DEFAULT_TOL, conv_tol=0.0)
        _, trace = spectral_short_vector_power(A, xi, m_max=8, tol=no_stop)
        assert len(trace.iterates) == 8
        for st in trace.iterates:
            m = int(st.power)
            sigma = short_schur(matrix_power(A, 2.0 * m), Subspace.span(xi)).scalar()
            assert abs(max(sigma, 0.0) ** (1.0 / (2.0 * m)) - float(st.value)) <= 1e-9


def test_min_spectrum_examples():
    A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
    assert spectral_short_min(A, Subspace.span(np.eye(3)[:, 1:3])) == 2.0
    # subspace inside an eigenspace
    assert spectral_short_min(A, Subspace.span(np.eye(3)[:, 2:3])) == 3.0
    # invertible matrix: strictly positive on any subspace
    B = gen_psd(SpectrumSpec("well_separated", 5), 4)
    S = gen_subspace(5, 2, 4)
    assert spectral_short_min(B, S) > 0.0
    with pytest.raises(DomainError):
        spectral_short_min(A, Subspace.zero(3))


def test_min_spectrum_matches_compressed_minimum():
    for seed in range(6):
        n = 5
        A = gen_psd(SpectrumSpec(("well_separated", "with_zeros")[seed % 2], n), seed)
        S = gen_subspace(n, 2, seed + 31)
        grid = spectral_short_min(A, S)
        comp = spectral_short_closed(A, S).compressed()
        assert abs(grid - float(np.linalg.eigvalsh(comp).min())) <= 1e-8
        # bounded below by the smallest eigenvalue of A
        assert grid >= eig_sym(A).lambda_min - 1e-8


def test_monotone_calculus_cases():
    for seed in range(4):
        A = gen_psd(SpectrumSpec("well_separated", 5), seed)
        S = gen_subspace(5, 2, seed + 11)
        lam_max = eig_sym(A).lambda_max
        assert monotone_calculus_residual(A, S, lambda x: x * x) <= 1e-8 * max(1.0, lam_max**2)
        assert monotone_calculus_residual(A, S, lambda x: math.sqrt(max(x, 0.0))) <= 1e-8
        levels = eig_sym(A).level_values
        c = float((levels[-1] + levels[-2]) / 2.0)
        assert monotone_calculus_residual(A, S, lambda x: 1.0 if x >= c else 0.0) <= 1e-8
        assert monotone_calculus_residual(A, S, lambda x: 0.0) == 0.0


def test_monotone_calculus_rejects_bad_functions():
    A = SymMatrix(np.diag([1.0, 2.0]))
    S = Subspace.span([[1.0], [0.0]])
    with pytest.raises(DomainError, match="nondecreasing"):
        monotone_calculus_residual(A, S, lambda x: -x + 3.0)
    with pytest.raises(DomainError, match="nonnegative"):
        monotone_calculus_residual(A, S, lambda x: x - 10.0)


def test_power_identity_property():
    for seed in range(4):
        n = 5
        A = gen_psd(SpectrumSpec("well_separated", n), seed)
        S = gen_subspace(n, 2, seed + 3)
        rho = spectral_short_closed(A, S)
        nrm = eig_sym(A).norm2
        for t in (0.5, 2.0, 3.0, 2.5):
            lhs = spectral_short_closed(matrix_power(A, t), S).value.entries
            rhs = matrix_power(rho.value, t).entries
            assert max_abs(lhs - rhs) <= 1e-7 * max(1.0, nrm**t)


def test_composition_property():
    for seed in range(5):
        n = 6
        A = gen_psd(SpectrumSpec("clustered", n), seed)
        S = gen_subspace(n, 4, seed + 1)
        T = gen_subspace(n, 3, seed + 2)
        lhs = spectral_short_closed(A, projection_meet(S, T)).value.entries
        rhs = spectral_short_closed(spectral_short_closed(A, S).value, T).value.entries
        assert max_abs(lhs - rhs) <= 1e-7 * eig_sym(A).norm2


def test_max_characterization_membership():
    # the result itself satisfies the defining constraints: every power
    # bounded by the same power of A, and range inside S
    for seed in range(4):
        n = 5
        A = gen_psd(SpectrumSpec("well_separated", n), seed)
        S = gen_subspace(n, 3, seed + 8)
        rho = spectral_short_closed(A, S)
        nrm = eig_sym(A).norm2
        rm, am = np.eye(n), np.eye(n)
        for m in range(1, 7):
            rm = rm @ rho.value.entries
            am = am @ A.entries
            assert min_eig(am - rm) >= -1e-8 * max(1.0, nrm**m)
        assert spectral_leq(rho.value, A).holds
        # scaled-down copies stay below the maximum
        for theta in (0.25, 0.5, 0.9):
            assert min_eig(rho.value.entries - theta * rho.value.entries) >= -1e-12


def test_order_monotonicity_of_spectral_short():
    for seed in range(4):
        n = 5
        A, B = gen_psd(SpectrumSpec("commuting_pair", n), seed)
        small, big = gen_nested_subspaces(n, 2, 3, seed)
        ra = spectral_short_closed(A, small)
        rb = spectral_short_closed(B, big)
        assert spectral_leq(ra.value, rb.value).holds


def test_intersection_bounded_by_short_then_spectral_short():
    # one-sided comparison only; the two sides genuinely differ in general
    widest_gap = 0.0
    for seed in range(5):
        n = 5
        A = gen_psd(SpectrumSpec("well_separated", n), seed)
        S = gen_subspace(n, 3, seed + 41)
        T = gen_subspace(n, 3, seed + 42)
        lhs = spectral_short_closed(A, projection_meet(S, T)).value.entries
        rhs = spectral_short_closed(short_at(A, S).value, T).value.entries
        assert min_eig(rhs - lhs) >= -1e-8 * max(1.0, eig_sym(A).norm2)
        widest_gap = max(widest_gap, max_abs(rhs - lhs))
    print(f"largest observed one-sided gap: {widest_gap:.3e}")


def test_scalar_spectrum_is_level_set():
    assert scalar_short_spectrum(SymMatrix(np.diag([1.0, 2.0, 3.0]))) == [1.0, 2.0, 3.0]
    assert scalar_short_spectrum(SymMatrix(2.0 * np.eye(3))) == [2.0]
    for seed in range(4):
        A = gen_psd(SpectrumSpec("clustered", 6), seed)
        d = eig_sym(A)
        cut = 1e-10 * d.norm2
        for group, rep, listed in zip(d.levels, d.level_values, scalar_short_spectrum(A)):
            assert listed == float(rep)
            v = d.vectors[:, group[0]]
            expected = float(rep) if rep > cut else 0.0
            assert abs(spectral_short_vector(A, v) - expected) <= 1e-12
