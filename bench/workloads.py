"""Seeded inputs, the timed operation of each workload, its reference
operation, and the checks that the outputs are right.

The checks use only numpy computations made apart from specshort, or
properties every correct answer has, so a wrong value from the library is
reported instead of timed.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Relative tolerance of every output check, on the scale of ||A|| = 2.
CHECK_TOL = 1e-8
# Trials per theorem of the verify child of a cli-session; its seed is the
# session instance's own.
VERIFY_TRIALS = 2
# Each in-process op is timed against the best of this many eigh calls.
REF_EIGH_REPS = 5
# Each cli-session op is timed against the best of this many bare children.
REF_PROC_REPS = 3
# Instance i of every workload comes from default_rng([POOL_SEED, i]).  The
# pool does not depend on --seed, which only orders it: a fault of the
# library that fails on some generic instances then fails on the same share
# of the ops of every run.
POOL_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    levels: int | None  # distinct eigenvalues of A; None means L = n
    in_process: bool
    pool: int  # instances in one round; a run attempts whole rounds
    setup_probes: int  # fresh processes timed for setup_s in one run

    def spectrum(self) -> np.ndarray:
        if self.levels is None:
            return np.linspace(1.0, 2.0, self.n)
        return np.repeat(np.linspace(1.0, 2.0, self.levels), self.n // self.levels)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("many-levels", 96, None, True, 100, 15),
        Workload("few-levels", 200, 4, True, 150, 15),
        Workload("cli-session", 60, None, False, 14, 9),
    )
}


@dataclass(frozen=True)
class Instance:
    """Raw inputs of one op: the program sees a, basis, xi and verify_seed."""

    a: np.ndarray  # n x n, A = Q diag(spectrum) Q^T
    basis: np.ndarray  # n x k spanning set of S, not orthonormal
    xi: np.ndarray  # unit vector
    spectrum: np.ndarray  # ascending eigenvalues of A, from the generator
    verify_seed: int  # seed of a cli-session's verify child

    @property
    def k(self) -> int:
        return self.basis.shape[1]


def make_instance(wl: Workload, index: int) -> Instance:
    """Instance `index` of the workload's pool: a generic draw, kept whatever
    the library makes of it."""
    rng = np.random.default_rng([POOL_SEED, index])
    n = wl.n
    w = wl.spectrum()
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    basis = rng.standard_normal((n, n // 2))
    a = (q * w) @ q.T
    a = (a + a.T) / 2.0
    xi = rng.standard_normal(n)
    xi /= np.linalg.norm(xi)
    return Instance(a, basis, xi, np.sort(w), int(rng.integers(2**31)))


def round_order(wl: Workload, seed: int, round_index: int) -> np.ndarray:
    """The pool indices of one round, in the order --seed gives them."""
    return np.random.default_rng([seed, round_index]).permutation(wl.pool)


def ref_matrix(n: int) -> np.ndarray:
    """The one fixed matrix whose eigh is the in-process reference."""
    m = np.random.default_rng(12345).standard_normal((n, n))
    return m + m.T


def ref_eigh(m: np.ndarray, reps: int = REF_EIGH_REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.linalg.eigh(m)
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------- in-process


def no_span(name: str):
    """The span of an untraced op: records nothing."""
    return contextlib.nullcontext()


def run_op(lib, inst: Instance, span=no_span) -> dict:
    """The in-process op: build the inputs, then every closed-form quantity.

    eig_sym is called first on the fresh matrix so the traced run can time
    it alone; every later call would have computed and cached it anyway.
    """
    with span("core.build"):
        A = lib.SymMatrix(inst.a)
        S = lib.Subspace.span(inst.basis)
    with span("core.eig_sym"):
        lib.eig_sym(A)
    with span("shorted.short_at"):
        at = lib.short_at(A, S)
    with span("shorted.short_schur"):
        schur = lib.short_schur(A, S)
    with span("spectral_shorted.closed"):
        rho = lib.spectral_short_closed(A, S)
    with span("order.spectral_leq"):
        cert = lib.spectral_leq(rho.value, A)
    with span("kolmogorov.closed"):
        kol = lib.kolmogorov_closed(A, inst.xi)
    with span("spectral_shorted.vector"):
        vec = lib.spectral_short_vector(A, inst.xi)
    return {
        "sigma_at": at.value.entries,
        "sigma_schur": schur.value.entries,
        "rho": rho.value.entries,
        "leq_holds": cert.holds,
        "kolmogorov": kol.value,
        "vector": vec,
    }


def reference_short(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """(orthonormal basis of S, B (B^T A^-1 B)^-1 B^T), by plain numpy."""
    b, _ = np.linalg.qr(inst.basis)
    inner = b.T @ np.linalg.solve(inst.a, b)
    sigma = b @ np.linalg.solve(inner, b.T)
    return b, (sigma + sigma.T) / 2.0


def check_rho(inst: Instance, rho: np.ndarray, b: np.ndarray, sigma: np.ndarray) -> list[str]:
    """The spectral short of a generic S of dimension k has the k smallest
    eigenvalues of A as its nonzero spectrum, lives on S and sits below the
    shorted operator."""
    tol = CHECK_TOL * float(inst.spectrum[-1])
    n, k = rho.shape[0], inst.k
    problems = []
    got = np.linalg.eigvalsh(rho)
    want = np.sort(np.concatenate([np.zeros(n - k), inst.spectrum[:k]]))
    if float(np.abs(got - want).max()) > tol:
        problems.append(f"rho spectrum off by {np.abs(got - want).max():.3e}")
    p = b @ b.T
    if float(np.abs(p @ rho @ p - rho).max()) > tol:
        problems.append("rho is not supported on S")
    if float(np.linalg.eigvalsh(sigma - rho).min()) < -tol:
        problems.append("rho is not below the shorted operator")
    return problems


def check_sigma(inst: Instance, name: str, got: np.ndarray, sigma: np.ndarray) -> list[str]:
    err = float(np.abs(got - sigma).max())
    if err > CHECK_TOL * float(inst.spectrum[-1]):
        return [f"{name} differs from B(B^T A^-1 B)^-1 B^T by {err:.3e}"]
    return []


def check_value(inst: Instance, name: str, got: float, want: float) -> list[str]:
    if abs(got - want) > CHECK_TOL * float(inst.spectrum[-1]):
        return [f"{name} = {got!r}, expected {want!r}"]
    return []


def check_op(inst: Instance, out: dict) -> list[str]:
    """Every problem with one in-process op's outputs; empty when right."""
    b, sigma = reference_short(inst)
    problems = check_sigma(inst, "short_at", out["sigma_at"], sigma)
    problems += check_sigma(inst, "short_schur", out["sigma_schur"], sigma)
    problems += check_rho(inst, out["rho"], b, sigma)
    if not out["leq_holds"]:
        problems.append("spectral_leq(rho, A) does not hold")
    problems += check_value(inst, "kolmogorov_closed", out["kolmogorov"], inst.spectrum[-1])
    problems += check_value(inst, "spectral_short_vector", out["vector"], inst.spectrum[0])
    return problems


# ---------------------------------------------------------------- cli-session


def child_env() -> dict:
    """Environment of every child: one BLAS thread, this checkout's source."""
    env = dict(os.environ)
    env.pop("SPECSHORT_TOL_PROFILE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    return env


@dataclass(frozen=True)
class ChildResult:
    seconds: float
    code: int
    maxrss_kb: int
    stdout: str


def run_child(args: list[str], workdir: str, env: dict) -> ChildResult:
    """Run one child to its end; time it and read its own peak RSS."""
    out_path = os.path.join(workdir, "child.out")
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        text = fh.read()
    return ChildResult(seconds, proc.returncode, usage.ru_maxrss, text)


def ref_proc(workdir: str, env: dict, reps: int = REF_PROC_REPS) -> float:
    return min(run_child(["-c", "import numpy"], workdir, env).seconds for _ in range(reps))


def write_fixtures(inst: Instance, workdir: str) -> None:
    n = inst.a.shape[0]
    files = {
        "A.json": {"n": n, "data": inst.a.reshape(-1).tolist()},
        "S.json": {"n": n, "basis": inst.basis.T.tolist()},
        "xi.json": {"n": n, "xi": inst.xi.tolist()},
    }
    for name, obj in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


SUBCOMMANDS = ("spectral-short", "order", "short", "kolmogorov", "verify")


def run_session(inst: Instance, workdir: str, env: dict, span=no_span) -> dict:
    """One cli-session op on fixtures already written to workdir.

    Returns each child's result by subcommand; the op's cost is the sum of
    the children's wall times, so the glue between them is not counted.
    """
    f = lambda name: os.path.join(workdir, name)  # noqa: E731
    results: dict[str, ChildResult] = {}

    def child(sub: str, *args: str) -> ChildResult:
        with span(f"cli.proc.{sub}"):
            results[sub] = run_child(["-m", "specshort", sub, *args], workdir, env)
        return results[sub]

    ss = child("spectral-short", f("A.json"), f("S.json"), "--method", "both")
    rho = json.loads(ss.stdout)["rho"] if ss.code == 0 else {"n": 0, "data": []}
    with open(f("rho.json"), "w", encoding="utf-8") as fh:
        json.dump(rho, fh)
    child("order", f("rho.json"), f("A.json"))
    child("short", f("A.json"), f("S.json"))
    child("kolmogorov", f("A.json"), f("xi.json"))
    child("verify", "--trials", str(VERIFY_TRIALS), "--seed", str(inst.verify_seed))
    return results


def session_seconds(results: dict) -> float:
    return sum(r.seconds for r in results.values())


def failed_children(results: dict) -> list[str]:
    return [f"{sub} exited {r.code}" for sub, r in results.items() if r.code != 0]


def check_session(inst: Instance, results: dict) -> list[str]:
    """Every problem with one cli-session's outputs; empty when right."""
    problems = failed_children(results)
    if problems:
        return problems
    n = inst.a.shape[0]
    b, sigma = reference_short(inst)
    ss = json.loads(results["spectral-short"].stdout)
    rho = np.array(ss["rho"]["data"], dtype=float).reshape(n, n)
    problems += check_rho(inst, rho, b, sigma)
    if sum(level["rank"] for level in ss["levels"]) != inst.k:
        problems.append("spectral-short level ranks do not add up to dim S")
    if not ss["trace"]["steps"]:
        problems.append("spectral-short iterative trace is empty")
    if json.loads(results["order"].stdout)["holds"] is not True:
        problems.append("order rho A does not hold")
    short = json.loads(results["short"].stdout)
    got = np.array(short["sigma"]["data"], dtype=float).reshape(n, n)
    problems += check_sigma(inst, "short", got, sigma)
    problems += check_value(inst, "short cross_residual", short["cross_residual"], 0.0)
    kol = json.loads(results["kolmogorov"].stdout)
    problems += check_value(inst, "kolmogorov", kol["value"], inst.spectrum[-1])
    if json.loads(results["verify"].stdout)["failures_total"] != 0:
        problems.append("verify reports failures")
    return problems
