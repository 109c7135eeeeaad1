"""Command-line front end.

Subcommands: short | spectral-short | kolmogorov | order | verify.
All I/O is UTF-8 JSON; matrices are {"n": int, "data": [n*n row-major]},
subspaces are {"n": int, "basis": [[...], ...]} or {"n": int, "xi": [...]}.
Numeric output uses shortest round-trip decimal formatting, so emitting and
re-reading a matrix reproduces it bitwise.

Exit codes: 0 success (for `order`: the relation holds), 1 relation fails /
verification failures, 2 malformed input (matrices of different sizes and
out-of-range flag values included), 3 symmetry or positivity violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .core import (
    DEFAULT_TOL,
    STRICT_TOL,
    DimensionMismatchError,
    DomainError,
    Subspace,
    SymMatrix,
    Tolerances,
)
from .kolmogorov import kolmogorov_closed, kolmogorov_duality, kolmogorov_power
from .order import spectral_leq
from .shorted import short_at, short_schur
from .spectral_shorted import spectral_short_closed, spectral_short_iterative

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_MATRIX = 3


class CliInputError(Exception):
    """Malformed input file or schema violation (exit 2)."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc


# JSON numbers load as int or float; true and false load as bool, a
# subclass of int, so number checks match the type exactly.
_NUMBER_TYPES = {int, float}


def _floats(values: list, what: str, path: str) -> np.ndarray:
    """A JSON list of numbers as a float array, each entry finite."""
    if not set(map(type, values)) <= _NUMBER_TYPES:
        raise CliInputError(f"{path}: {what} must be numbers")
    try:
        arr = np.array(values, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise CliInputError(f"{path}: {what} must be finite") from exc
    if not np.all(np.isfinite(arr)):
        raise CliInputError(f"{path}: {what} must be finite")
    return arr


def load_matrix(path: str, tol: Tolerances) -> SymMatrix:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "n" not in obj or "data" not in obj:
        raise CliInputError(f'{path}: expected an object with "n" and "data"')
    n = obj["n"]
    data = obj["data"]
    if type(n) is not int or n < 1:
        raise CliInputError(f'{path}: "n" must be a positive integer')
    if not isinstance(data, list) or len(data) != n * n:
        raise CliInputError(f'{path}: "data" must hold exactly n*n = {n * n} numbers')
    arr = _floats(data, "matrix entries", path).reshape(n, n)
    return SymMatrix(arr, tol)  # DomainError here surfaces as exit 3


def load_subspace(path: str, n: int, tol: Tolerances) -> Subspace:
    obj = _load_json(path)
    if not isinstance(obj, dict) or type(obj.get("n")) is not int or obj["n"] != n:
        raise CliInputError(f'{path}: expected an object with "n" equal to {n}')
    if "xi" in obj:
        vecs = [obj["xi"]]
    elif "basis" in obj:
        vecs = obj["basis"]
    else:
        raise CliInputError(f'{path}: expected a "basis" or "xi" field')
    if not isinstance(vecs, list) or not vecs:
        raise CliInputError(f"{path}: basis must be a nonempty list of vectors")
    rows = []
    for v in vecs:
        if not isinstance(v, list) or len(v) != n:
            raise CliInputError(f"{path}: each vector must have length {n}")
        arr = _floats(v, "vector entries", path)
        if float(np.linalg.norm(arr)) == 0.0:
            raise CliInputError(f"{path}: vectors must be nonzero")
        rows.append(arr)
    return Subspace.span(np.column_stack(rows), tol)


def load_vector(path: str, n: int) -> np.ndarray:
    obj = _load_json(path)
    if not isinstance(obj, dict) or type(obj.get("n")) is not int or obj["n"] != n or "xi" not in obj:
        raise CliInputError(f'{path}: expected an object with "n" = {n} and "xi"')
    v = obj["xi"]
    if not isinstance(v, list) or len(v) != n:
        raise CliInputError(f'{path}: "xi" must have length {n}')
    arr = _floats(v, "xi entries", path)
    if float(np.linalg.norm(arr)) == 0.0:
        raise CliInputError(f"{path}: xi must be nonzero")
    return arr


def matrix_payload(M: SymMatrix) -> dict:
    return {"n": M.n, "data": [float(x) for x in M.entries.reshape(-1)]}


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _base_tolerances() -> Tolerances:
    profile = os.environ.get("SPECSHORT_TOL_PROFILE", "default")
    if profile == "strict":
        return STRICT_TOL
    if profile == "default":
        return DEFAULT_TOL
    raise CliInputError(
        f"SPECSHORT_TOL_PROFILE must be 'strict' or 'default', got {profile!r}"
    )


_TOL_FLAGS = ("cluster_tol", "rank_tol", "meet_tol", "conv_tol")


def _tolerances(args: argparse.Namespace) -> Tolerances:
    updates = {f: getattr(args, f) for f in _TOL_FLAGS if getattr(args, f) is not None}
    return replace(_base_tolerances(), **updates)


def _at_least(low, kind=int):
    """argparse type: a finite number of the given kind, at least low; any
    other value exits 2 with argparse's message."""

    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"expected a finite number >= {low}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type on a ValueError
    return parse


_TOLERANCE = _at_least(0.0, float)


def _add_common(parser: argparse.ArgumentParser) -> None:
    # dest names are the Tolerances fields the flags override (_TOL_FLAGS).
    parser.add_argument("--tol-eig", dest="cluster_tol", type=_TOLERANCE, help="eigenvalue clustering tolerance")
    parser.add_argument("--tol-rank", dest="rank_tol", type=_TOLERANCE, help="rank cutoff, relative to the spectral norm")
    parser.add_argument("--tol-meet", dest="meet_tol", type=_TOLERANCE, help="principal-angle sine cutoff")
    parser.add_argument("--tol-conv", dest="conv_tol", type=_TOLERANCE, help="iterative stopping threshold")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _trace_payload(trace) -> dict:
    steps = []
    for st in trace.iterates:
        entry: dict = {"power": float(st.power)}
        if np.isscalar(st.value) or isinstance(st.value, float):
            entry["value"] = float(st.value)
        if st.delta is not None:
            entry["delta"] = float(st.delta)
        steps.append(entry)
    return {
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "final_delta": float(trace.final_delta),
        "steps": steps,
    }


def _cmd_short(args) -> int:
    tol = _tolerances(args)
    A = load_matrix(args.matrix, tol)
    S = load_subspace(args.subspace, A.n, tol)
    report: dict = {"method": args.method}
    if args.method in ("at", "both"):
        r_at = short_at(A, S, tol)
        report["sigma"] = matrix_payload(r_at.value)
        report["range_residual"] = float(r_at.range_residual)
    if args.method in ("schur", "both"):
        r_schur = short_schur(A, S, tol)
        if args.method == "schur":
            report["sigma"] = matrix_payload(r_schur.value)
            report["range_residual"] = float(r_schur.range_residual)
    report["cross_residual"] = (
        float(np.abs(r_at.value.entries - r_schur.value.entries).max())
        if args.method == "both"
        else None
    )
    _emit(report, args.out)
    return EXIT_OK


def _cmd_spectral_short(args) -> int:
    tol = _tolerances(args)
    A = load_matrix(args.matrix, tol)
    S = load_subspace(args.subspace, A.n, tol)
    report: dict = {"method": args.method}
    closed = iterative = None
    if args.method in ("closed", "both"):
        closed = spectral_short_closed(A, S, tol)
        report["rho"] = matrix_payload(closed.value)
        report["levels"] = [{"value": mu, "rank": rank} for mu, rank in closed.levels]
    if args.method in ("iterative", "both"):
        iterative = spectral_short_iterative(A, S, k_max=args.k_max, tol=tol)
        if args.method == "iterative":
            report["rho"] = matrix_payload(iterative.value)
        report["trace"] = _trace_payload(iterative.trace)
    report["cross_residual"] = (
        float(np.abs(closed.value.entries - iterative.value.entries).max())
        if args.method == "both"
        else None
    )
    _emit(report, args.out)
    return EXIT_OK


def _cmd_kolmogorov(args) -> int:
    tol = _tolerances(args)
    A = load_matrix(args.matrix, tol)
    xi = load_vector(args.vector, A.n)
    report: dict = {"method": args.method}
    if args.method == "closed":
        value = kolmogorov_closed(A, xi, tol).value
    elif args.method == "power":
        res = kolmogorov_power(A, xi, n_max=args.n_max, tol=tol)
        value = res.value
        report["trace"] = _trace_payload(res.trace)
    else:
        value, dual = kolmogorov_duality(A, xi, tol)
        report["duality"] = {"k": float(value), "dual": float(dual)}
    report["value"] = float(value)
    report["K"] = "-inf" if value == 0.0 else float(math.log(value))
    _emit(report, args.out)
    return EXIT_OK


def _cmd_order(args) -> int:
    tol = _tolerances(args)
    A = load_matrix(args.matrix_a, tol)
    B = load_matrix(args.matrix_b, tol)
    A.assert_psd(tol)
    B.assert_psd(tol)
    cert = spectral_leq(A, B, tol)
    _emit(
        {
            "holds": cert.holds,
            "witness_lambda": None if cert.witness_lambda is None else float(cert.witness_lambda),
            "worst_residual": float(cert.worst_residual),
        },
        args.out,
    )
    return EXIT_OK if cert.holds else EXIT_FAIL


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise CliInputError(f"--dims must be a comma-separated list of integers: {exc}") from exc
    if not dims or any(d < 2 for d in dims):
        raise CliInputError("--dims needs at least one dimension, each at least 2")
    return dims


def _cmd_verify(args) -> int:
    from .harness import run_suite  # only verify pays for the harness import

    tol = _tolerances(args)
    report = run_suite(
        dims=_parse_dims(args.dims),
        trials=args.trials,
        seed=args.seed,
        tol=tol,
    )
    _emit(report.to_json_dict(), args.out)
    print(
        f"verify: {report.total_failures} failures over {report.trials} trials/theorem "
        f"({report.wall_time_s:.2f}s)",
        file=sys.stderr,
    )
    return EXIT_OK if report.total_failures == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specshort",
        description="Shorted operators, spectral order, and spectral shorted operators for dense symmetric matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("short", help="shorted operator of a matrix to a subspace")
    p.add_argument("matrix")
    p.add_argument("subspace")
    p.add_argument("--method", choices=("at", "schur", "both"), default="both")
    _add_common(p)
    p.set_defaults(func=_cmd_short)

    p = sub.add_parser("spectral-short", help="spectral shorted operator")
    p.add_argument("matrix")
    p.add_argument("subspace")
    p.add_argument("--method", choices=("closed", "iterative", "both"), default="both")
    p.add_argument("--k-max", type=_at_least(0), default=20)
    _add_common(p)
    p.set_defaults(func=_cmd_spectral_short)

    p = sub.add_parser("kolmogorov", help="vector complexity under a matrix")
    p.add_argument("matrix")
    p.add_argument("vector")
    p.add_argument("--method", choices=("closed", "power", "duality"), default="closed")
    p.add_argument("--n-max", type=_at_least(1), default=200)
    _add_common(p)
    p.set_defaults(func=_cmd_kolmogorov)

    p = sub.add_parser("order", help="decide the spectral order between two matrices")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    _add_common(p)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("verify", help="run the theorem verification suite")
    p.add_argument("--dims", default="2,3,4,5,6,7,8,9,10,11,12")
    p.add_argument("--trials", type=_at_least(0), default=50)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliInputError, DimensionMismatchError) as exc:
        print(f"specshort: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except DomainError as exc:
        print(f"specshort: {exc}", file=sys.stderr)
        return EXIT_BAD_MATRIX


if __name__ == "__main__":
    sys.exit(main())
