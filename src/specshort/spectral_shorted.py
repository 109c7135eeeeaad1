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
certificate on the triangle's Gram matrix shows for a generic S.  Every
coordinate has entered by the end of the first level to reach row dim S,
so the QR factors C's rows up to there, and a walk whose stays outlive
them extends R through Q^T.

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
at the wall or after _MAX_DOUBLINGS doublings with converged=False; that is a
flagged outcome, not an error.  When S ^ R(A) is zero every iterate is
exactly 0, and the route returns 0 with no iterates and stop reason "exact",
as the scalar power routes do for a vector off the range.

Both routes return core.ShortedResult, as the shorted routes do, since rho
is an operator on S just as Sigma is; the closed form also fills levels and
the iterative route trace.

For a one-dimensional subspace the scalar is also read off directly: the
largest half-line projection containing the vector (spectral_short_vector).
Its power route, spectral_short_vector_power, lives in the kolmogorov
module beside the loop it runs.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DEFAULT_TOL,
    ConvergenceTrace,
    DomainError,
    ShortedResult,
    Subspace,
    SymMatrix,
    Tolerances,
    TraceStep,
    _check_pair,
    _check_line,
    _half_line_level,
    _range_meet,
    _smallest_sv_above,
    _split,
)

__all__ = [
    "spectral_short_closed",
    "spectral_short_iterative",
    "spectral_short_vector",
    "spectral_short_min",
]

# Relative level content below this floor picks up enough rounding noise,
# once a power is materialized as a matrix and re-rooted, to disturb
# the iterates beyond the 1e-9 monotonicity budget; the iterative route
# stops powering there.
_POWER_NOISE_FLOOR = 1e-8
# The iterative route's last power is 2**_MAX_DOUBLINGS.  The power wall
# stops it sooner unless every positive level of A is above
# (1 - 1.8e-5) ||A||.
_MAX_DOUBLINGS = 20


def spectral_short_closed(
    A: SymMatrix, S: Subspace, tol: Tolerances = DEFAULT_TOL
) -> ShortedResult:
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
    smallest sine is decided by core._smallest_sv_above, the rule
    Subspace.span applies to its own triangle: exactly for one entry,
    |R_jj| > meet_tol; for more by a Cholesky of its shifted Gram matrix,
    and only a triangle the certificate cannot clear takes a values-only SVD.
    Once every coordinate has entered and none stays, the later blocks
    settle nothing and the walk stops.  Every coordinate has entered by
    the stop c of the first block to reach row k = dim S, so the QR is of
    (C[:c])^T, k x c; stays that outlive row c take R's other columns,
    Q^T C[c:]^T, from one product.  The result's kernel eigenvectors are
    S's cached complement.
    """
    d = _check_pair(A, S, tol)
    blocks = d.blocks
    k = S.dim
    c = next(rows.stop for _, rows in blocks if rows.stop >= k)
    q, r = np.linalg.qr((d.vectors[:, :c].T @ S.basis).T)
    j = 0  # coordinates entered: Q's first min(k, rows walked) columns
    # Q-coordinates of the stays (zero past j), their cumulative sines
    stays, sines = np.zeros((k, 0)), np.zeros(0)
    coords: list[np.ndarray] = [q[:, :0]]  # settled, in S-coordinates
    ranks = [0] * len(blocks)  # directions settled per block
    for i, (_, rows) in enumerate(blocks):
        if rows.stop > r.shape[1]:
            # stays outlive row c: R's other columns are Q^T C[c:]^T
            r = np.hstack([r, q.T @ (d.vectors[:, c:].T @ S.basis).T])
        e = min(k, rows.stop)
        rank = 0
        if not sines.size and e > j and _smallest_sv_above(r[j:e, rows], tol.meet_tol):
            rank = e - j
            coords.append(q[:, j:e])
        if not rank and (sines.size or e > j):
            # The Gram matrix of C[:rows.stop] [stays, Q[:, j:e]]: the rows
            # walked before give the stays their sines and nothing else.
            t = sines.size
            m = np.block([[np.diag(sines), np.zeros((t, e - j))], [r[:, rows].T @ stays, r[j:e, rows].T]])
            rank, s, vt = _split(m, tol)
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
    # The columns go in _attach's order, so it neither sorts nor copies:
    # every value 0 first (the kernel block's settled directions, then S's
    # complement), then the positive levels ascending.  The settled
    # directions are formed in place in the last k columns, and the kernel
    # block's are moved to the front.
    n, kernel = A.n, ranks[0]
    vectors = np.empty((n, n))
    np.matmul(S.basis, np.hstack(coords), out=vectors[:, n - k :])
    vectors[:, :kernel] = vectors[:, n - k : n - k + kernel]
    vectors[:, kernel : kernel + n - k] = S.complement().basis
    # the walk's factors go before rho's product is formed
    del q, r, stays, sines, coords
    mus = [mu for mu, _ in blocks[1:]]
    values = np.repeat([0.0] + mus, [kernel + n - k] + ranks[1:])
    levels = list(zip(mus, ranks[1:]))
    return ShortedResult(
        value=SymMatrix._attach(values, vectors, tol),
        subspace=S,
        levels=tuple(reversed(levels)),
    )


def spectral_short_iterative(
    A: SymMatrix, S: Subspace, tol: Tolerances = DEFAULT_TOL
) -> ShortedResult:
    """Iterated root-of-shorted-power route to the spectral shorted operator.

    Iterates are non-increasing in the semidefinite order and bound the limit
    from above.  Stops on a small step (converged), after _MAX_DOUBLINGS
    doublings of the power, or at the precision wall described in the module
    docstring (power_limit); with S ^ R(A) = 0 it returns exactly 0 (exact).

    With T the basis of S ^ R(A), each iterate is shorted(A^m, S)^{1/m} =
    T (T^T pinv(A)^m T)^{-1/m} T^T (Anderson & Trapp 1975).  With mu the
    positive level values, mu_1 the smallest and V_+ their eigenvectors, the
    thin SVD W_m = diag((mu_1 / mu)^{m/2}) V_+^T T = U Sigma Z^T gives it as
    mu_1 (TZ) Sigma^{-2/m} (TZ)^T.  W_m's row scales are at most 1, and its
    SVD keeps the small singular values that its Gram matrix would square.
    """
    d = _check_pair(A, S, tol)
    t = _range_meet(d, S, tol).basis
    if not t.shape[1]:  # S = 0, A = 0, or S inside the kernel of A
        zero = SymMatrix._symmetric(np.zeros((A.n, A.n)))
        return ShortedResult(zero, S, trace=ConvergenceTrace((), "exact"))

    # A's positive level block values: no rounding-negative member reaches
    # the powers, and the power wall is read off the smallest of them: the
    # largest m at which (mu_1 / ||A||)^m stays above _POWER_NOISE_FLOOR.
    blocks = d.blocks
    positive = slice(blocks[0][1].stop, None)
    mu_1 = blocks[1][0]
    ratios = mu_1 / d.values[positive]
    low = mu_1 / d.norm2
    m_limit = math.inf if low >= 1.0 else math.log(_POWER_NOISE_FLOOR) / math.log(low)
    c = d.vectors[:, positive].T @ t

    steps: list[TraceStep] = []
    prev: np.ndarray | None = None
    reason = "max_iterations"
    for k in range(_MAX_DOUBLINGS + 1):
        m = 2.0**k
        if k > 0 and m > m_limit:
            reason = "power_limit"
            break
        _, s, zt = np.linalg.svd(ratios[:, None] ** (m / 2.0) * c, full_matrices=False)
        # The iterate's eigenvectors TZ, each scaled by the root of its value;
        # numpy forms f f^T by a symmetric rank-k update, symmetric to the bit.
        f = (t @ zt.T) * np.sqrt(mu_1 * s ** (-2.0 / m))
        b = f @ f.T
        delta = None if prev is None else float(np.abs(b - prev).max())
        steps.append(TraceStep(m, b, delta))
        if delta is not None and delta <= tol.conv_tol * d.norm2:
            reason = "converged"
            break
        prev = b
    return ShortedResult(
        value=SymMatrix._symmetric(steps[-1].value),
        subspace=S,
        trace=ConvergenceTrace(tuple(steps), reason),
    )


def spectral_short_vector(
    A: SymMatrix, xi, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Scalar spectral shorted value for a one-dimensional subspace: the
    largest level of A whose half-line projection contains the vector (so the
    smallest level carrying any of its spectral weight), and 0 if the vector
    leans outside the range of A.  xi is read as its line (core._check_line)."""
    d, v = _check_line(A, xi, tol)
    return _half_line_level(d, v, tol)


def spectral_short_min(
    A: SymMatrix, S: Subspace, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Smallest spectrum point of the spectral shorted operator viewed on S:
    the largest level of A whose half-line projection contains all of S
    (0 when only the trivial threshold works)."""
    d = _check_pair(A, S, tol)
    if S.dim == 0:
        raise DomainError("the zero subspace has no compressed spectrum")
    return _half_line_level(d, S.basis, tol)

