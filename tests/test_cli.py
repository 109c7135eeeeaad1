import argparse
import ast
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import specshort
from specshort.cli import build_parser, main, matrix_payload
from specshort.core import SymMatrix, Tolerances


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "diag12": write_json(tmp_path / "diag12.json", {"n": 2, "data": [1.0, 0.0, 0.0, 2.0]}),
        "proj3": write_json(
            tmp_path / "proj3.json",
            {"n": 3, "data": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 0.0]},
        ),
        "line": write_json(tmp_path / "line.json", {"n": 2, "basis": [[1.0, 1.0]]}),
        "e1": write_json(tmp_path / "e1.json", {"n": 2, "basis": [[1.0, 0.0]]}),
        "s23": write_json(tmp_path / "s23.json", {"n": 3, "basis": [[0, 1.0, 0], [0, 0, 1.0]]}),
        "xi": write_json(tmp_path / "xi.json", {"n": 2, "xi": [1.0, 1.0]}),
        "low": write_json(tmp_path / "low.json", {"n": 2, "data": [1.0, 1.0, 1.0, 1.0]}),
        "high": write_json(tmp_path / "high.json", {"n": 2, "data": [2.0, 1.0, 1.0, 1.0]}),
        "tmp": tmp_path,
    }


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_short_identity_and_tilted_line(files, capsys):
    ident = write_json(files["tmp"] / "eye2.json", {"n": 2, "data": [1.0, 0, 0, 1.0]})
    code, out, _ = run_cli(["short", ident, files["e1"]], capsys)
    assert code == 0
    rep = json.loads(out)
    np.testing.assert_allclose(np.array(rep["sigma"]["data"]).reshape(2, 2), np.diag([1.0, 0.0]), atol=1e-12)

    code, out, _ = run_cli(["short", files["diag12"], files["line"], "--method", "both"], capsys)
    rep = json.loads(out)
    got = np.array(rep["sigma"]["data"]).reshape(2, 2)
    np.testing.assert_allclose(got, (2.0 / 3.0) * np.ones((2, 2)), atol=1e-12)
    assert rep["cross_residual"] <= 1e-12

    code, out, _ = run_cli(["short", files["diag12"], files["line"], "--method", "schur"], capsys)
    assert code == 0
    rep = json.loads(out)
    np.testing.assert_allclose(
        np.array(rep["sigma"]["data"]).reshape(2, 2), (2.0 / 3.0) * np.ones((2, 2)), atol=1e-12
    )
    assert rep["cross_residual"] is None


def test_short_projection_case(files, capsys):
    code, out, _ = run_cli(["short", files["proj3"], files["s23"]], capsys)
    assert code == 0
    got = np.array(json.loads(out)["sigma"]["data"]).reshape(3, 3)
    np.testing.assert_allclose(got, np.diag([0.0, 1.0, 0.0]), atol=1e-12)


def test_spectral_short_report(files, capsys):
    code, out, _ = run_cli(
        ["spectral-short", files["diag12"], files["line"], "--method", "both"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    got = np.array(rep["rho"]["data"]).reshape(2, 2)
    np.testing.assert_allclose(got, 0.5 * np.ones((2, 2)), atol=1e-12)
    assert rep["levels"] == [{"rank": 0, "value": 2.0}, {"rank": 1, "value": 1.0}]
    assert rep["trace"]["steps"][0]["power"] == 1.0
    assert not rep["trace"]["converged"]


def test_spectral_short_line_and_iterative_rho(files, capsys):
    # a subspace given as {"n", "xi"} is the line through xi
    line = write_json(files["tmp"] / "xi_line.json", {"n": 2, "xi": [1.0, 1.0]})
    code, out, _ = run_cli(["spectral-short", files["diag12"], line, "--method", "closed"], capsys)
    assert code == 0
    got = np.array(json.loads(out)["rho"]["data"]).reshape(2, 2)
    np.testing.assert_allclose(got, 0.5 * np.ones((2, 2)), atol=1e-12)
    # the iterative route reports its own rho, here the exact limit
    code, out, _ = run_cli(["spectral-short", files["proj3"], files["s23"], "--method", "iterative"], capsys)
    assert code == 0
    rep = json.loads(out)
    np.testing.assert_allclose(np.array(rep["rho"]["data"]).reshape(3, 3), np.diag([0.0, 1.0, 0.0]), atol=1e-12)
    assert rep["trace"]["converged"] and rep["cross_residual"] is None
    assert "levels" not in rep


def test_a_two_route_report_shows_the_first_route(files, capsys):
    # at and schur differ in the last bits here, and closed and iterative
    # (20 powers, not converged) by 0.13, so each field pins its route
    rng = np.random.default_rng(5)
    v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    A = SymMatrix((v * [0.3, 0.7, 1.1, 1.9, 2.5]) @ v.T)
    matrix = write_json(files["tmp"] / "a5.json", matrix_payload(A))
    subspace = write_json(files["tmp"] / "s5.json", {"n": 5, "basis": rng.standard_normal((2, 5)).tolist()})

    def report(command, method):
        code, out, _ = run_cli([command, matrix, subspace, "--method", method], capsys)
        assert code == 0
        return json.loads(out)

    both, at, schur = (report("short", m) for m in ("both", "at", "schur"))
    assert both["cross_residual"] > 0.0 and schur["sigma"] != at["sigma"]
    assert (both["sigma"], both["range_residual"]) == (at["sigma"], at["range_residual"])
    both, closed, iterative = (report("spectral-short", m) for m in ("both", "closed", "iterative"))
    assert both["cross_residual"] > 0.1
    assert (both["rho"], both["levels"]) == (closed["rho"], closed["levels"])
    assert both["trace"] == iterative["trace"]


def test_kolmogorov_methods(files, capsys):
    code, out, _ = run_cli(["kolmogorov", files["diag12"], files["xi"]], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == 2.0
    assert abs(rep["K"] - math.log(2.0)) < 1e-12

    code, out, _ = run_cli(
        ["kolmogorov", files["diag12"], files["xi"], "--method", "power"], capsys
    )
    rep = json.loads(out)
    assert abs(rep["value"] - 2.0) < 1e-6
    assert rep["trace"]["converged"]

    code, out, _ = run_cli(
        ["kolmogorov", files["diag12"], files["xi"], "--method", "duality"], capsys
    )
    rep = json.loads(out)
    assert rep["duality"] == {"k": 2.0, "dual": 2.0}

    # xi is read as its line at any length: its squares vanish here
    tiny = write_json(files["tmp"] / "tiny.json", {"n": 2, "xi": [1e-170, 1e-170]})
    code, out, _ = run_cli(["kolmogorov", files["diag12"], tiny], capsys)
    assert code == 0 and json.loads(out)["value"] == 2.0


def test_matrix_payload_lists_each_entry_as_a_float():
    entries = np.array([[-0.0, 5e-324, 1.0 / 3.0], [5e-324, 1e300, -2.5], [1.0 / 3.0, -2.5, 7.0]])
    M = SymMatrix(entries)
    payload = matrix_payload(M)
    assert all(type(x) is float for x in payload["data"])
    per_entry = {"n": 3, "data": [float(x) for x in M.entries.reshape(-1)]}
    assert json.dumps(payload, indent=2, sort_keys=True) == json.dumps(per_entry, indent=2, sort_keys=True)


def test_kolmogorov_power_reports_the_wall_as_not_converged(files, capsys):
    # xi on the kernel and, by 1e-3, on the level 1e-3 of A: the power
    # route stops at the wall rather than converge to the top level 1
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    entries = (q * [0.0, 1e-3, 0.5, 1.0]) @ q.T
    a = write_json(files["tmp"] / "wall.json", {"n": 4, "data": entries.reshape(-1).tolist()})
    v = write_json(files["tmp"] / "wall_xi.json", {"n": 4, "xi": (q[:, 0] + 1e-3 * q[:, 1]).tolist()})
    code, out, _ = run_cli(["kolmogorov", a, v, "--method", "power"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["trace"]["converged"] is False and rep["trace"]["stop_reason"] == "power_limit"
    assert abs(rep["value"] - 1e-3) <= 1e-9


def test_kolmogorov_power_stops_when_the_iterate_vanishes(files, capsys):
    # 0 and 1e-8 form one cluster that starts at the rank cut, so e0 lies
    # in the kernel: the report is the exact 0, with no iterate and exit 0
    entries = np.diag([0.0, 1e-8, 1.0, 2.0])
    a = write_json(files["tmp"] / "tiny_level.json", {"n": 4, "data": entries.reshape(-1).tolist()})
    v = write_json(files["tmp"] / "e0.json", {"n": 4, "xi": [1.0, 0.0, 0.0, 0.0]})
    code, out, _ = run_cli(["kolmogorov", a, v, "--method", "power"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == 0.0 and rep["K"] == "-inf"
    assert rep["trace"]["converged"] is True and rep["trace"]["stop_reason"] == "exact"
    assert rep["trace"]["steps"] == []


def test_kolmogorov_minus_inf_marker(files, capsys):
    a = write_json(files["tmp"] / "a20.json", {"n": 2, "data": [2.0, 0, 0, 0.0]})
    v = write_json(files["tmp"] / "e2.json", {"n": 2, "xi": [0.0, 1.0]})
    code, out, _ = run_cli(["kolmogorov", a, v], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == 0.0
    assert rep["K"] == "-inf"


def test_order_exit_codes(files, capsys):
    code, out, _ = run_cli(["order", files["low"], files["high"]], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["holds"] is False
    assert rep["witness_lambda"] is not None

    ident = write_json(files["tmp"] / "eye.json", {"n": 2, "data": [1.0, 0, 0, 1.0]})
    two = write_json(files["tmp"] / "two.json", {"n": 2, "data": [2.0, 0, 0, 2.0]})
    code, out, _ = run_cli(["order", ident, two], capsys)
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_order_size_mismatch_is_malformed_input(files, capsys):
    # exit 1 would claim the relation fails; matrices of different sizes
    # are malformed input
    code, out, err = run_cli(["order", files["diag12"], files["proj3"]], capsys)
    assert code == 2
    assert out == ""
    assert "dimensions differ: 2 vs 3" in err
    # spectral_leq checks the sizes before positivity: an indefinite matrix
    # of the wrong size is malformed input, one of the right size exit 3
    neg = write_json(files["tmp"] / "neg.json", {"n": 2, "data": [1.0, 0.0, 0.0, -0.5]})
    code, out, err = run_cli(["order", neg, files["proj3"]], capsys)
    assert (code, out) == (2, "")
    assert "dimensions differ: 2 vs 3" in err
    code, out, err = run_cli(["order", files["proj3"], neg], capsys)
    assert (code, out) == (2, "")
    code, out, err = run_cli(["order", neg, files["diag12"]], capsys)
    assert (code, out) == (3, "")
    assert "not positive semidefinite" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["spectral-short", "A", "S", "--tol-meet", "nan"],
        ["order", "A", "B", "--tol-eig", "inf"],
        ["short", "A", "S", "--tol-rank", "-0.001"],
        ["kolmogorov", "A", "xi", "--tol-conv", "-1"],
        ["spectral-short", "A", "S", "--tol-conv", "inf"],
        ["verify", "--trials", "-1"],
        ["verify", "--seed", "-1"],
    ],
)
def test_out_of_range_flags_exit_2(flags, capsys):
    # argparse rejects the value before any file is read
    with pytest.raises(SystemExit) as exc:
        main(flags)
    assert exc.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err


def test_matrix_roundtrip_bitwise(files, capsys, tmp_path):
    from specshort.cli import load_matrix, matrix_payload
    from specshort.core import DEFAULT_TOL

    vals = [1.0 / 3.0, 0.1234567890123456, 0.1234567890123456, 2.0 / 7.0]
    src = write_json(tmp_path / "m.json", {"n": 2, "data": vals})
    loaded = load_matrix(src, DEFAULT_TOL)
    emitted = write_json(tmp_path / "emitted.json", matrix_payload(loaded))
    reloaded = load_matrix(emitted, DEFAULT_TOL)
    # emit followed by re-read reproduces the matrix bit for bit
    np.testing.assert_array_equal(loaded.entries, reloaded.entries)

    # shorting to the full space returns the matrix itself, bit for bit
    out_path = tmp_path / "sigma.json"
    full = write_json(tmp_path / "full.json", {"n": 2, "basis": [[1.0, 0.0], [0.0, 1.0]]})
    code = main(["short", src, full, "--method", "at", "--out", str(out_path)])
    assert code == 0
    got = json.loads(out_path.read_text())["sigma"]["data"]
    sym = [(vals[0]), (vals[1] + vals[2]) / 2.0, (vals[1] + vals[2]) / 2.0, vals[3]]
    assert got == sym
    # a second emit of the same input is byte-identical
    out2 = tmp_path / "sigma2.json"
    main(["short", src, full, "--method", "at", "--out", str(out2)])
    assert out_path.read_bytes() == out2.read_bytes()


def test_exit_code_2_on_malformed(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["short", str(bad), files["line"]]) == 2

    short_data = write_json(tmp_path / "short.json", {"n": 2, "data": [1.0, 2.0]})
    assert main(["short", short_data, files["line"]]) == 2

    zero_vec = write_json(tmp_path / "zv.json", {"n": 2, "basis": [[0.0, 0.0]]})
    assert main(["short", files["diag12"], zero_vec]) == 2

    missing = str(tmp_path / "nope.json")
    assert main(["short", missing, files["line"]]) == 2


_MATRIX = {"n": 2, "data": [1.0, 0.0, 0.0, 1.0]}
_LINE = {"n": 2, "basis": [[1.0, 0.0]]}


@pytest.mark.parametrize(
    "command, payloads, message",
    [
        # load_matrix
        ("short", ([1.0], _LINE), 'expected an object with "n" and "data"'),
        ("short", ({"n": 0, "data": []}, _LINE), '"n" must be a positive integer'),
        ("short", ({"n": True, "data": [1.0]}, _LINE), '"n" must be a positive integer'),
        ("short", ({"n": 2, "data": [1.0, 0.0, 1.0]}, _LINE), '"data" must hold exactly n*n = 4 numbers'),
        ("short", ({"n": 2, "data": [1.0, 0.0, 0.0, "1"]}, _LINE), "matrix entries must be numbers"),
        ("short", ({"n": 2, "data": [1, 0, 0, True]}, _LINE), "matrix entries must be numbers"),
        ("short", ({"n": 2, "data": [1.0, 0.0, 0.0, 1e999]}, _LINE), "matrix entries must be finite"),
        ("short", ({"n": 2, "data": [1.0, 0.0, 0.0, 10**400]}, _LINE), "matrix entries must be finite"),
        # load_subspace
        ("short", (_MATRIX, {"n": 3, "basis": [[1.0, 0.0, 0.0]]}), 'expected an object with "n" equal to 2'),
        ("short", (_MATRIX, {"n": 2}), 'expected a "basis" or "xi" field'),
        ("short", (_MATRIX, {"n": 2, "basis": []}), "basis must be a nonempty list of vectors"),
        ("short", (_MATRIX, {"n": 2, "basis": [[1.0, 0.0, 0.0]]}), "each vector must have length 2"),
        ("short", (_MATRIX, {"n": 2, "basis": [[True, 0.0]]}), "vector entries must be numbers"),
        ("short", (_MATRIX, {"n": 2, "xi": [1e999, 0.0]}), "vector entries must be finite"),
        ("short", (_MATRIX, {"n": 2, "basis": [[0.0, 0.0]]}), "vectors must be nonzero"),
        # load_vector
        ("kolmogorov", (_MATRIX, {"n": 2, "basis": [[1.0, 0.0]]}), 'expected an object with "n" = 2 and "xi"'),
        ("kolmogorov", (_MATRIX, {"n": 2, "xi": [1.0]}), '"xi" must have length 2'),
        ("kolmogorov", (_MATRIX, {"n": 2, "xi": ["1", 0.0]}), "xi entries must be numbers"),
        ("kolmogorov", (_MATRIX, {"n": 2, "xi": [float("nan"), 0.0]}), "xi entries must be finite"),
        ("kolmogorov", (_MATRIX, {"n": 2, "xi": [0.0, 0.0]}), "xi must be nonzero"),
        # load_subspace reads one of its two fields, never picks between them
        ("spectral-short", (_MATRIX, {"n": 2, "basis": [[1.0, 0.0]], "xi": [0.0, 1.0]}),
         'expected a "basis" or "xi" field, not both'),
    ],
)
def test_loader_rejections_name_the_file(command, payloads, message, tmp_path, capsys):
    paths = [write_json(tmp_path / f"in{i}.json", obj) for i, obj in enumerate(payloads)]
    code, out, err = run_cli([command, *paths], capsys)
    assert code == 2 and out == ""
    bad = next(p for p, obj in zip(paths, payloads) if obj is not _MATRIX and obj is not _LINE)
    assert f"{bad}: {message}" in err


def test_loaders_require_an_integer_n(tmp_path, capsys):
    # "n": 2.0 is a JSON number but not a dimension, in every loader
    matrix = write_json(tmp_path / "m.json", _MATRIX)
    line = write_json(tmp_path / "s.json", _LINE)
    bad_matrix = write_json(tmp_path / "m2.json", {**_MATRIX, "n": 2.0})
    bad_line = write_json(tmp_path / "s2.json", {**_LINE, "n": 2.0})
    bad_xi = write_json(tmp_path / "x2.json", {"n": 2.0, "xi": [1.0, 0.0]})
    for command, paths, bad in (
        ("short", (bad_matrix, line), bad_matrix),
        ("short", (matrix, bad_line), bad_line),
        ("kolmogorov", (matrix, bad_xi), bad_xi),
    ):
        code, out, err = run_cli([command, *paths], capsys)
        assert code == 2 and out == "" and f"{bad}: " in err


def test_unreadable_files_name_the_file(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")  # a UTF-16 byte order mark: not UTF-8
    missing = str(tmp_path / "nope.json")
    cases = ((str(bad), "is not valid JSON"), (str(utf16), "is not valid JSON"), (missing, "cannot read"))
    for path, message in cases:
        code, _, err = run_cli(["order", path, files["diag12"]], capsys)
        assert code == 2 and path in err and message in err


def test_exit_code_3_on_bad_matrices(files, capsys, tmp_path):
    asym = write_json(tmp_path / "asym.json", {"n": 2, "data": [1.0, 0.5, 0.4, 1.0]})
    code, _, err = run_cli(["short", asym, files["line"]], capsys)
    assert code == 3
    assert "not symmetric" in err

    neg = write_json(tmp_path / "neg.json", {"n": 2, "data": [1.0, 0.0, 0.0, -0.5]})
    runs = [["short", neg, files["line"], "--method", m] for m in ("at", "schur", "both")]
    runs += [["spectral-short", neg, files["line"], "--method", m] for m in ("closed", "iterative", "both")]
    runs += [["kolmogorov", neg, files["xi"], "--method", m] for m in ("closed", "power", "duality")]
    runs += [["order", neg, files["diag12"]], ["order", files["diag12"], neg]]
    for argv in runs:
        code, _, err = run_cli(argv, capsys)
        assert code == 3, argv
        assert "eigenvalue" in err and "-5" in err, argv


@pytest.mark.parametrize(
    "entries, message",
    [
        (2.0**-30 * np.diag([1.0, -0.5, 2.0]), "not positive semidefinite"),
        (4.9e-9 * np.array([[0.0, 1.0], [-1.0, 0.0]]), "not symmetric"),
        (2.0**-30 * np.array([[1.0, 0.5], [0.0, 1.0]]), "not symmetric"),
    ],
    ids=["indefinite", "antisymmetric", "asymmetric"],
)
def test_exit_code_3_on_bad_matrices_at_small_scale(entries, message, tmp_path, capsys):
    # the symmetry and positivity bounds are relative at every scale, so a
    # tiny bad matrix fails as loudly as a unit one
    n = len(entries)
    bad = write_json(tmp_path / "bad.json", {"n": n, "data": entries.reshape(-1).tolist()})
    eye = write_json(tmp_path / "eye.json", {"n": n, "data": np.eye(n).reshape(-1).tolist()})
    line = write_json(tmp_path / "line.json", {"n": n, "basis": [[1.0] * n]})
    xi = write_json(tmp_path / "xi.json", {"n": n, "xi": [1.0] * n})
    for argv in (["short", bad, line], ["spectral-short", bad, line], ["kolmogorov", bad, xi], ["order", bad, eye]):
        code, _, err = run_cli(argv, capsys)
        assert code == 3, argv
        assert message in err, argv


def test_verify_deterministic_and_exit(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["verify", "--dims", "2,3", "--trials", "2", "--seed", "42", "--out", str(out1)])
    code2 = main(["verify", "--dims", "2,3", "--trials", "2", "--seed", "42", "--out", str(out2)])
    capsys.readouterr()
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["schema"] == 1
    assert rep["failures_total"] == 0


def test_verify_trials_zero_empty(tmp_path, capsys):
    out = tmp_path / "empty.json"
    assert main(["verify", "--trials", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["theorems"] == []


def test_verify_rejects_bad_dims(capsys):
    assert main(["verify", "--dims", "2,x", "--trials", "1"]) == 2
    assert main(["verify", "--dims", "", "--trials", "1"]) == 2
    for dims in ("1", "2,1"):
        code, _, err = run_cli(["verify", "--dims", dims, "--trials", "1"], capsys)
        assert code == 2 and "at least 2" in err
    capsys.readouterr()


def test_unwritable_out_is_malformed_input(files, capsys, tmp_path):
    # exit 1 would read as "relation fails" or "verification failures"
    missing = str(tmp_path / "missing" / "r.json")
    for argv, path in (
        (["order", files["diag12"], files["diag12"], "--out", str(tmp_path)], str(tmp_path)),
        (["verify", "--dims", "2", "--trials", "1", "--out", missing], missing),
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and f"cannot write {path}" in err


def _spy(monkeypatch, module, name, calls):
    def spy(*args, **kwargs):
        calls.append(name)
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(importlib.import_module(f"specshort.{module}"), name, spy)


def test_unwritable_out_fails_before_any_work(files, capsys, tmp_path, monkeypatch):
    calls = []
    for module, name in (
        ("harness", "run_suite"),
        ("order", "spectral_leq"),
        ("shorted", "short_at"),
        ("shorted", "short_schur"),
        ("spectral_shorted", "spectral_short_closed"),
        ("spectral_shorted", "spectral_short_iterative"),
        ("kolmogorov", "kolmogorov_closed"),
    ):
        _spy(monkeypatch, module, name, calls)
    missing = str(tmp_path / "missing" / "r.json")
    for argv in (
        ["verify", "--out", missing],
        ["order", files["low"], files["high"], "--out", missing],
        ["short", files["diag12"], files["line"], "--out", str(tmp_path)],
        ["spectral-short", files["diag12"], files["line"], "--out", missing],
        ["kolmogorov", files["diag12"], files["xi"], "--out", missing],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and f"cannot write {argv[-1]}" in err
    assert calls == [] and not os.path.exists(tmp_path / "missing")


def test_failing_command_leaves_out_as_it_was(files, capsys, tmp_path):
    # the --out check before the work creates no file and changes none
    indefinite = write_json(tmp_path / "indef.json", {"n": 2, "data": [1.0, 0.0, 0.0, -1.0]})
    kept = tmp_path / "kept.json"
    kept.write_text("earlier report\n", encoding="utf-8")
    fresh = tmp_path / "fresh.json"
    for out in (kept, fresh):
        code, _, err = run_cli(["short", indefinite, files["line"], "--out", str(out)], capsys)
        assert code == 3 and "positive semidefinite" in err
    assert kept.read_text(encoding="utf-8") == "earlier report\n"
    assert not fresh.exists()
    assert run_cli(["short", files["diag12"], files["line"], "--out", str(kept)], capsys)[0] == 0
    assert json.loads(kept.read_text(encoding="utf-8"))["method"] == "both"


def test_tolerance_profile_env_is_not_read(files, capsys, monkeypatch):
    argv = ["kolmogorov", files["diag12"], files["xi"]]
    _, want, _ = run_cli(argv, capsys)
    for profile in ("strict", "bogus"):
        monkeypatch.setenv("SPECSHORT_TOL_PROFILE", profile)
        assert run_cli(argv, capsys) == (0, want, "")


def test_tolerance_flags_are_the_tolerance_fields():
    names = [f.name for f in fields(Tolerances)]
    assert names == ["cluster_tol", "rank_tol", "meet_tol", "conv_tol"]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        dests = [a.dest for a in parser._actions if any(o.startswith("--tol-") for o in a.option_strings)]
        assert dests == names, command


def _readme_section(title):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as f:
        text = f.read()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_names_the_parser_flags():
    # a flag the parser drops, or gains, must leave or enter the docs too
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {o for parser in sub.choices.values() for a in parser._actions for o in a.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*", _readme_section("Command line"))) == flags - {"-h", "--help"}


def test_readme_lists_the_public_names_by_module():
    listed = dict(re.findall(r"^- `(\w+)`: (.*)$", _readme_section("Public names"), re.M))
    for module, names in listed.items():
        assert re.findall(r"`(\w+)`", names) == importlib.import_module(f"specshort.{module}").__all__, module
    assert list(listed) == list(specshort._ORDER)
    assert len(specshort.__all__) == 30


def test_tolerance_flags(files, capsys):
    code, out, _ = run_cli(
        ["short", files["diag12"], files["line"], "--tol-eig", "1e-6", "--tol-rank", "1e-8",
         "--tol-meet", "1e-6", "--tol-conv", "1e-7"],
        capsys,
    )
    assert code == 0


def run_child(*args):
    """A fresh interpreter on this checkout's specshort."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(specshort.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point(files):
    proc = run_child("-m", "specshort", "order", files["low"], files["high"])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["holds"] is False


def test_harness_is_imported_on_first_use(tmp_path, capsys):
    probe = (
        "import sys, specshort.cli; "
        "assert 'specshort.harness' not in sys.modules; "
        "from specshort import run_suite; "
        "assert 'specshort.harness' in sys.modules"
    )
    assert run_child("-c", probe).returncode == 0
    # a fresh verify, which imports the harness itself, writes the bytes of
    # one run where the harness was already loaded
    fresh, loaded = tmp_path / "fresh.json", tmp_path / "loaded.json"
    assert run_child("-m", "specshort", "verify", "--seed", "0", "--out", str(fresh)).returncode == 0
    assert main(["verify", "--seed", "0", "--out", str(loaded)]) == 0
    capsys.readouterr()
    assert fresh.read_bytes() == loaded.read_bytes()


def test_every_exported_name_resolves_from_the_package():
    for info in pkgutil.iter_modules(specshort.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"specshort.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert getattr(specshort, name) is getattr(module, name), f"{info.name}.{name}"
            assert name in specshort.__all__, f"{info.name}.{name}"


def test_a_fresh_package_resolves_every_submodule_and_name():
    probe = (
        "import pkgutil, sys, specshort; "
        "assert sys.modules.keys() & {f'specshort.{m.name}' for m in pkgutil.iter_modules(specshort.__path__)} == set(); "
        "[getattr(specshort, m.name) for m in pkgutil.iter_modules(specshort.__path__) if m.name != '__main__']; "
        "[getattr(specshort, name) for name in specshort.__all__]; "
        "from specshort import *"
    )
    proc = run_child("-c", probe)
    assert proc.returncode == 0, proc.stderr


def test_no_module_but_the_cli_imports_a_sibling_inside_a_function():
    # the CLI's per-subcommand imports are deliberate; anywhere else a
    # function-level import would hide a cycle in the module graph
    package = os.path.dirname(specshort.__file__)
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py") or filename == "cli.py":
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    sibling = node.level > 0 or node.module.split(".")[0] == "specshort"
                elif isinstance(node, ast.Import):
                    sibling = any(a.name.split(".")[0] == "specshort" for a in node.names)
                else:
                    continue
                assert not sibling, f"{filename}:{node.lineno} imports a sibling inside {fn.name}"


@pytest.mark.parametrize(
    "statement, modules",
    [
        ("import specshort.spectral_shorted", {"core", "spectral_shorted"}),
        ("specshort.SymMatrix", {"core"}),
    ],
)
def test_the_module_graph_runs_one_way(statement, modules):
    probe = (
        "import json, sys, specshort\n"
        f"{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('specshort.'))))"
    )
    proc = run_child("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == {f"specshort.{m}" for m in modules}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["short", "diag12", "line"], {"core", "shorted"}),
        (["spectral-short", "diag12", "line"], {"core", "spectral_shorted"}),
        (["kolmogorov", "diag12", "xi"], {"core", "kolmogorov"}),
        (["order", "low", "high"], {"core", "order"}),
    ],
)
def test_each_subcommand_loads_only_its_modules(files, argv, modules):
    args = [argv[0], *(files[name] for name in argv[1:])]
    # runpy runs specshort/__main__.py as `python -m specshort` does
    probe = (
        "import json, runpy, sys\n"
        f"sys.argv = ['specshort', *{args!r}]\n"
        "try: runpy.run_module('specshort', run_name='__main__')\n"
        "except SystemExit as exc: code = exc.code\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('specshort.')),"
        " 'numpy.ma' in sys.modules]))"
    )
    proc = run_child("-c", probe)
    code, loaded, masked = json.loads(proc.stdout.splitlines()[-1])
    assert code in (0, 1), proc.stderr
    assert set(loaded) == {"specshort.cli", *(f"specshort.{m}" for m in modules)}
    # numpy.ma, which np.unique imports, adds 13-18 ms and about 1 MB of
    # peak RSS to each child (numpy 2.4, one x86-64 Xeon core)
    assert not masked
