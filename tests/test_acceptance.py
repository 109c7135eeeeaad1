"""Acceptance suite: every criterion at its stated tolerance, one line each.

Each theorem check runs 50 seeded trials over dimensions 2 through 12.
Residuals are fractions of the criterion's acceptance bound (tolerances are
baked into the checks; see specshort.harness), so the pass condition is
residual <= 1 on every trial.
"""

import json

import numpy as np
import pytest

from specshort.cli import main
from specshort.core import DEFAULT_TOL
from specshort.harness import THEOREMS, run_trial

DIMS = tuple(range(2, 13))
TRIALS = 50
SEED = 1234


@pytest.mark.parametrize("index", range(len(THEOREMS)), ids=[t.theorem for t in THEOREMS])
def test_theorem_criterion(index):
    check = THEOREMS[index]
    worst = 0.0
    failures = 0
    for trial in range(TRIALS):
        residual = run_trial(check, index, trial, DIMS, SEED, DEFAULT_TOL)
        worst = max(worst, residual)
        if not residual <= 1.0:  # a NaN residual fails too
            failures += 1
    status = "PASS" if failures == 0 else "FAIL"
    print(
        f"{check.theorem} {check.description}: {status} "
        f"({failures} failures / {TRIALS} trials, worst residual {worst:.3e} of bound)"
    )
    assert failures == 0, f"{check.theorem}: {failures} failing trials, worst {worst:.3e}"


def test_cli_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["verify", "--seed", "42", "--dims", "2,3,4", "--trials", "3"]
    code1 = main(argv + ["--out", str(out1)])
    code2 = main(argv + ["--out", str(out2)])
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    status = "PASS" if (code1 == 0 and code2 == 0 and identical) else "FAIL"
    print(f"CLI determinism (seeded verify twice, byte-identical reports): {status}")
    assert code1 == 0 and code2 == 0
    assert identical


def test_cli_matrix_roundtrip_bitwise(tmp_path, capsys):
    from specshort.cli import load_matrix, matrix_payload

    rng = np.random.default_rng(42)
    g = rng.standard_normal((5, 5))
    entries = (g @ g.T).reshape(-1)
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"n": 5, "data": [float(x) for x in entries]}), encoding="utf-8")
    first = load_matrix(str(src), DEFAULT_TOL)
    emitted = tmp_path / "emitted.json"
    emitted.write_text(json.dumps(matrix_payload(first)), encoding="utf-8")
    second = load_matrix(str(emitted), DEFAULT_TOL)
    identical = bool(np.array_equal(first.entries, second.entries))
    print(f"CLI matrix JSON round-trip bitwise: {'PASS' if identical else 'FAIL'}")
    assert identical
