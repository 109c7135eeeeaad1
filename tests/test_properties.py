"""The paper's identities as properties, searched over small exact inputs,
and the homogeneity of every public route.

The searched inputs: n <= 6, eigenvalues from {0, 10^-k, 1 + 10^-k} with
k <= 14, the eigenbasis turned by one Householder reflection with a
small-integer vector, and S spanned by small-integer vectors.  Ordered
pairs take their eigenvalues from levels about the cluster width and the
rank cut instead, each lifted by a factor of at least 1.  A property the
harness checks as a theorem calls that theorem's identity.  A property
that fails goes in as a strict xfail naming its FOUND line in CHANGES.md;
no tolerance is widened to make one pass.  The example budget is the conftest profile's.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from specshort import (
    DEFAULT_TOL,
    DomainError,
    SpectrumSpec,
    Subspace,
    SymMatrix,
    eig_sym,
    gen_psd,
    gen_subspace,
    kolmogorov_closed,
    kolmogorov_duality,
    kolmogorov_power,
    matrix_function,
    matrix_power,
    pseudo_inverse,
    short_at,
    short_schur,
    spectral_leq,
    spectral_short_closed,
    spectral_short_iterative,
    spectral_short_min,
    spectral_short_vector,
    spectral_short_vector_power,
)

from conftest import IDENTITIES, max_abs, min_eig

_VALUES = [0.0] + [10.0**-k for k in range(15)] + [1.0 + 10.0**-k for k in range(15)]
_SMALL = st.integers(-2, 2)
# levels about the default cluster width and rank cut, and the factors
# that lift them to an ordered partner
_PAIR_VALUES = [0.0, 1e-9, 2e-9, 4e-9, 5e-9, 7e-9, 8e-9, 1e-8, 1.1e-8, 1.2e-8, 1.5e-8, 2e-8, 0.5, 0.65, 1.0, 1.15, 2.0]
_FACTORS = [1.0, 1.25, 2.0, 3.0]


@st.composite
def spectra(draw, kernel=False, values=_VALUES):
    """(w, H): the eigenvalues, one of them 0 when kernel is set, and
    H = I - 2 u u^T / u^T u (I for u = 0), so A = H diag(w) H."""
    n = draw(st.integers(2, 6))
    w = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    if kernel:
        w[draw(st.integers(0, n - 1))] = 0.0
    u = np.array(draw(st.lists(_SMALL, min_size=n, max_size=n)), dtype=float)
    h = np.eye(n) - 2.0 * np.outer(u, u) / (u @ u) if u.any() else np.eye(n)
    return w, h


@st.composite
def problems(draw):
    """(A, S), S spanned by small-integer vectors."""
    w, h = draw(spectra())
    n = len(w)
    spanning = draw(st.lists(st.lists(_SMALL, min_size=n, max_size=n), min_size=1, max_size=n))
    return SymMatrix((h * w) @ h.T), Subspace.span(np.array(spanning, dtype=float).T)


@st.composite
def ordered_pairs(draw):
    """(A, B) = (H diag(w) H, H diag(w f) H) by from_eigens, w from
    _PAIR_VALUES and every f from _FACTORS, so A precedes B."""
    w, h = draw(spectra(values=_PAIR_VALUES))
    f = draw(st.lists(st.sampled_from(_FACTORS), min_size=len(w), max_size=len(w)))
    return SymMatrix.from_eigens(w, h), SymMatrix.from_eigens(w * np.array(f), h)


@st.composite
def lines(draw, kernel=False):
    """(A, w, H, xi), xi a nonzero small-integer vector."""
    w, h = draw(spectra(kernel))
    xi = draw(st.lists(_SMALL, min_size=len(w), max_size=len(w)).filter(any))
    return SymMatrix((h * w) @ h.T), w, h, np.array(xi, dtype=float)


@given(lines(kernel=True))
def test_a_line_on_the_null_space_gives_zero(line):
    # a line that leans into A's exact null space by more than meet_tol
    # lies in no half-line above 0 and meets R(A) only in 0, so rho and
    # Sigma are exactly 0
    A, w, h, xi = line
    assume(np.linalg.norm(h[:, w == 0.0].T @ xi) > 1e-6 * np.linalg.norm(xi))
    S = Subspace.span(xi)
    assert spectral_short_vector(A, xi) == 0.0
    assert spectral_short_closed(A, S).scalar() == 0.0
    assert short_at(A, S).scalar() == 0.0


@given(lines())
def test_complexity_is_the_reciprocal_of_rho_of_the_pseudo_inverse(line):
    # k(A, xi) = 1 / rho(pinv(A), P xi), P the range projection.  The
    # partition decides both sides, so inputs with an eigenvalue gap near
    # the cluster width, where rounding decides it, are skipped
    A, w, _, xi = line
    gaps, width = np.diff(np.sort(w)), DEFAULT_TOL.cluster_tol * max(w)
    assume(not np.any((gaps >= width / 2) & (gaps <= 2 * width)))
    # harness T15, whose kernel branch runs where A has a kernel
    assert IDENTITIES["T15"](A, xi, DEFAULT_TOL) <= 1


def _slack(A):
    """The cluster width, since levels are block means, and n ulps of
    ||A||_2 for the rounding of A's eigenvalues and of a quotient: a
    cluster's members lie within the width of its first member, which is
    computed."""
    return (DEFAULT_TOL.cluster_tol + A.n * np.finfo(float).eps) * eig_sym(A).norm2


@given(problems())
def test_rho_below_sigma_below_a(problem):
    # in the Loewner order, for both Sigma routes, within _slack
    A, S = problem
    slack = _slack(A)
    rho = spectral_short_closed(A, S).value.entries
    for route in (short_at, short_schur):
        sigma = route(A, S).value.entries
        assert min_eig(sigma - rho) >= -slack, route.__name__
        assert min_eig(A.entries - sigma) >= -slack, route.__name__


@given(lines())
def test_rho_below_the_rayleigh_quotient_below_k(line):
    # on a line, within _slack
    A, _, _, xi = line
    v = xi / np.linalg.norm(xi)
    rayleigh = float(v @ A.entries @ v)
    assert spectral_short_vector(A, xi) <= rayleigh + _slack(A)
    assert rayleigh <= kolmogorov_closed(A, xi).value + _slack(A)


@given(problems())
def test_rho_precedes_a_in_the_spectral_order(problem):
    A, S = problem
    assert spectral_leq(spectral_short_closed(A, S).value, A).holds


@given(ordered_pairs())
def test_a_commuting_ordered_pair_precedes(pair):
    # harness T11, which also rejects its counterexample
    assert IDENTITIES["T11"](*pair, DEFAULT_TOL) <= 1


@given(problems())
def test_a_precedes_a_plus_its_square(problem):
    # x + x^2 is nondecreasing and at least x on A's spectrum
    A, _ = problem
    assert spectral_leq(A, matrix_function(A, lambda x: x + x * x)).holds


@given(problems())
def test_rho_of_the_square_is_the_square_of_rho(problem):
    # harness T4: rho(S, A^t) = rho(S, A)^t at t = 0.5, 2 and 3
    assert IDENTITIES["T4"](*problem, DEFAULT_TOL) <= 1


@pytest.mark.parametrize("spanning", [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], ids=["zero", "e2"])
def test_rho_of_the_square_keeps_the_level_ranks(spanning):
    # the search's shrunk input, with S = {0} and with S on the level 1e-5:
    # A's positive levels are 1 and 1e-5, and A^2's 1e-10 lies at its own
    # rank cut 1e-10 * ||A^2||, so only A's partition keeps it a level
    A, S = SymMatrix(np.diag([0.0, 1.0, 1e-5])), Subspace.span(spanning)
    rho, of_square = spectral_short_closed(A, S), spectral_short_closed(matrix_power(A, 2.0), S)
    assert [rank for _, rank in of_square.levels] == [rank for _, rank in rho.levels]


def test_a_failing_property_reports_its_example(tmp_path):
    # hypothesis imports libcst to report a failing property, and that
    # import warns; under the repo's warning filters the run must still end
    # in a failure report, not in INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings, strategies as st

            @settings(derandomize=True, database=None)
            @given(st.integers(0, 10))
            def test_fails(x):
                assert x < 0
            """
        )
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    args = [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", "test_fails.py"]
    run = subprocess.run(args, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


# ---- homogeneity: f(2^k A) = 2^k f(A) on every public route ----

_POWER_ROUTES = {"kolmogorov_power": kolmogorov_power, "spectral_short_vector_power": spectral_short_vector_power}


@pytest.mark.parametrize("k", [0, -30])
def test_an_indefinite_matrix_is_rejected_at_every_scale(k):
    # the positivity bound is relative, so scale does not hide an eigenvalue
    # of -0.5 ||A||_2 / 2
    A = SymMatrix(2.0**k * np.diag([1.0, -0.5, 2.0]))
    S, xi, eye = Subspace.span([1.0, 1.0, 1.0]), [1.0, 1.0, 1.0], SymMatrix(np.eye(3))
    calls = [A.assert_psd, lambda: pseudo_inverse(A), lambda: matrix_power(A, 2.0)]
    calls += [lambda route=route: route(A, S) for route in (short_at, short_schur, spectral_short_closed, spectral_short_iterative, spectral_short_min)]
    calls += [lambda route=route: route(A, xi) for route in (spectral_short_vector, kolmogorov_closed, kolmogorov_duality, *_POWER_ROUTES.values())]
    calls += [lambda: spectral_leq(A, eye), lambda: spectral_leq(eye, A)]
    for call in calls:
        with pytest.raises(DomainError, match="not positive semidefinite"):
            call()


def _roots(A, xi):
    return [[step.value for step in route(A, xi).trace.iterates] for route in _POWER_ROUTES.values()]


def _outputs(A, S, xi):
    """Every public route on (A, S, xi), by name: (the values that scale
    with A, the decisions that do not).  pseudo_inverse scales with 1/A and
    is checked on its own, and the power routes' root sequences, which
    _roots gives, apart."""
    d = eig_sym(A)
    rho = spectral_short_closed(A, S)
    iterative = spectral_short_iterative(A, S)
    out = {
        "eig_sym": ([d.eigenvalues, d.values], [d.vectors.tobytes(), [(b.start, b.stop) for _, b in d.blocks]]),
        "short_at": ([short_at(A, S).value.entries], []),
        "short_schur": ([short_schur(A, S).value.entries], []),
        "spectral_short_closed": ([rho.value.entries, [mu for mu, _ in rho.levels]], [r for _, r in rho.levels]),
        "spectral_short_iterative": (
            [step.value for step in iterative.trace.iterates],
            [iterative.trace.stop_reason, len(iterative.trace.iterates)],
        ),
        "spectral_short_vector": ([spectral_short_vector(A, xi)], []),
        "spectral_short_min": ([spectral_short_min(A, S)], []),
        "kolmogorov_closed": ([kolmogorov_closed(A, xi).value], []),
        "kolmogorov_duality": (list(kolmogorov_duality(A, xi)), []),
    }
    for name, route in _POWER_ROUTES.items():
        result = route(A, xi)
        out[name] = ([result.value], [result.trace.stop_reason, len(result.trace.iterates)])
    for name, (low, high) in (("spectral_leq(rho, A)", (rho.value, A)), ("spectral_leq(A, rho)", (A, rho.value))):
        cert = spectral_leq(low, high)
        witness = [] if cert.witness_lambda is None else [cert.witness_lambda]
        out[name] = (witness, [cert.holds, cert.worst_residual])
    return out


def _draw(kind, seed):
    A = gen_psd(SpectrumSpec(kind, 5, zero_count=2 if kind == "with_zeros" else None), seed)
    xi = np.random.default_rng(seed).standard_normal(5)
    # a fresh matrix, so eig_sym takes eigh rather than the attached pairs
    return A.entries, gen_subspace(5, 2, seed), xi


_INPUTS = {
    "no kernel": _draw("well_separated", 3),
    "kernel": _draw("with_zeros", 4),
    # the limit routes stopped on the wrong plateau here at 2^-30 and 2^30
    "diag(1, 2, 0)": (np.diag([1.0, 2.0, 0.0]), Subspace.span([1.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0])),
}


def _assert_scaled(got, want, c, ulps=4):
    """got = c want within some ulps of want's largest magnitude."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert max_abs(got / c - want) <= ulps * np.finfo(float).eps * max_abs(want)


@pytest.mark.parametrize("k", [1, -1, 40, -40, 600, -600])
@pytest.mark.parametrize("case", list(_INPUTS))
def test_every_route_scales_with_the_matrix(case, k):
    a, S, xi = _INPUTS[case]
    c = 2.0**k
    want = _outputs(SymMatrix(a), S, xi)
    got = _outputs(SymMatrix(c * a), S, xi)
    for name, (values, decisions) in want.items():
        assert got[name][1] == decisions, name
        assert len(got[name][0]) == len(values), name
        for g, w in zip(got[name][0], values):
            _assert_scaled(g, w, c)
    _assert_scaled(pseudo_inverse(SymMatrix(c * a)).entries, pseudo_inverse(SymMatrix(a)).entries, 1.0 / c)
    # a root is the exp of a mean of logs of the iterate norms, and the
    # log of 2^k rounds, so the roots hold to about |k| ulps
    for got, want in zip(_roots(SymMatrix(c * a), xi), _roots(SymMatrix(a), xi)):
        _assert_scaled(got, want, c, ulps=16 * (1 + abs(k)))
