"""Tests of the benchmark itself: its checkers reject wrong answers, every
workload runs end to end, and a tree without the library refuses to run.

    python3 -m pytest bench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    ROOT,
    SRC,
    Workload,
    check_op,
    check_session,
    child_env,
    make_instance,
    round_order,
    run_op,
    run_session,
    write_fixtures,
)

sys.path.insert(0, SRC)
import specshort  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

SMALL = Workload("small", 16, None, True, 1, 1)


def compressed(inst):
    b, _ = np.linalg.qr(inst.basis)
    p = b @ b.T
    return p @ inst.a @ p


@pytest.fixture(scope="module")
def op_output():
    inst = make_instance(SMALL, 7)
    return inst, run_op(specshort, inst)


def test_checker_accepts_the_library(op_output):
    inst, out = op_output
    assert check_op(inst, out) == []


@pytest.mark.parametrize(
    "field, wrong",
    [
        ("rho", lambda inst, out: compressed(inst)),
        ("rho", lambda inst, out: out["rho"] * (1 + 1e-6)),
        ("sigma_at", lambda inst, out: out["sigma_at"] * (1 + 1e-6)),
        ("sigma_schur", lambda inst, out: compressed(inst)),
        ("leq_holds", lambda inst, out: False),
        ("kolmogorov", lambda inst, out: out["kolmogorov"] * (1 + 1e-6)),
        ("vector", lambda inst, out: inst.spectrum[1]),
    ],
)
def test_checker_rejects_a_wrong_answer(op_output, field, wrong):
    inst, out = op_output
    assert check_op(inst, {**out, field: wrong(inst, out)})


def test_session_checker_rejects_a_wrong_rho(tmp_path):
    wl = Workload("small-cli", 12, None, False, 1, 1)
    inst = make_instance(wl, 7)
    write_fixtures(inst, str(tmp_path))
    results = run_session(inst, str(tmp_path), child_env())
    assert check_session(inst, results) == []
    report = json.loads(results["spectral-short"].stdout)
    report["rho"]["data"] = [x * (1 + 1e-6) for x in report["rho"]["data"]]
    tampered = dataclasses.replace(results["spectral-short"], stdout=json.dumps(report))
    assert check_session(inst, {**results, "spectral-short": tampered})
    failed = dataclasses.replace(results["order"], code=1)
    assert check_session(inst, {**results, "order": failed})


@pytest.mark.parametrize("seed", [1, 2, 12345])
def test_every_round_attempts_the_whole_pool(seed):
    wl = Workload("small", 16, None, True, 10, 1)
    for r in range(3):
        assert sorted(round_order(wl, seed, r)) == list(range(wl.pool))


def test_an_instance_is_fixed_by_its_pool_index():
    a, b = make_instance(SMALL, 3), make_instance(SMALL, 3)
    assert np.array_equal(a.a, b.a) and a.verify_seed == b.verify_seed
    assert not np.array_equal(a.a, make_instance(SMALL, 4).a)


def test_an_op_that_raises_counts_as_failed_and_the_run_goes_on(tmp_path):
    import run

    class Broken:
        def SymMatrix(self, a):
            raise ValueError("broken")

    loop = run.Loop(Broken(), SMALL, str(tmp_path), child_env())
    loop.op(0)
    loop.op(1)
    assert (loop.attempted, loop.failed, loop.records, loop.problems) == (2, 2, [], [])


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload, ops", [("many-levels", 2), ("few-levels", 2), ("cli-session", 1)])
def test_smoke_untraced(workload, ops):
    proc = run_bench("--workload", workload, "--seed", "3", "--ops", str(ops), "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == ops
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced():
    proc = run_bench("--workload", "few-levels", "--seed", "3", "--ops", "4", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "few-levels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
