import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import specshort
from specshort.cli import main


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


@pytest.mark.parametrize(
    "flags",
    [
        ["spectral-short", "A", "S", "--tol-meet", "nan"],
        ["order", "A", "B", "--tol-eig", "inf"],
        ["short", "A", "S", "--tol-rank", "-0.001"],
        ["kolmogorov", "A", "xi", "--n-max", "0"],
        ["spectral-short", "A", "S", "--k-max", "-1"],
        ["verify", "--trials", "-1"],
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
    missing = str(tmp_path / "nope.json")
    for path, message in ((str(bad), "is not valid JSON"), (missing, "cannot read")):
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


def test_tolerance_profile_env(files, capsys, monkeypatch):
    monkeypatch.setenv("SPECSHORT_TOL_PROFILE", "strict")
    code, out, _ = run_cli(["kolmogorov", files["diag12"], files["xi"]], capsys)
    assert code == 0
    monkeypatch.setenv("SPECSHORT_TOL_PROFILE", "bogus")
    code, _, err = run_cli(["kolmogorov", files["diag12"], files["xi"]], capsys)
    assert code == 2
    assert "SPECSHORT_TOL_PROFILE" in err


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
        "from specshort import gen_psd; "
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
