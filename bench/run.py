"""Benchmark of specshort: op costs in multiples of a same-process reference.

    python3 bench/run.py --workload many-levels --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --table [--blas-threads 2]

A run is a single-client closed loop: the next op starts when the last one
has finished.  It attempts whole rounds over the workload's fixed pool of
generic instances, each round in an order drawn from --seed, so a fault that
fails on some instances fails on the same share of every run.  Each op is
divided by the median of the references taken nearest to it, three before
and three after (each the best of a few np.linalg.eigh calls on one fixed
matrix of the workload's size, or the best of a few bare
`python -c "import numpy"` children for cli-session).
Every op's outputs are checked.  The last line of stdout is one JSON object: correct, attempted,
failed and the metrics; with --trace 1 the metrics are the per-layer ones,
from spans recorded around each public call.  See bench/README.md.
"""

from __future__ import annotations

import os
import sys


def _blas_threads(argv: list[str]) -> str:
    for i, arg in enumerate(argv):
        if arg == "--blas-threads" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--blas-threads="):
            return arg.partition("=")[2]
    return "1"


# Pinned before numpy is first imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _blas_threads(sys.argv)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ROOT,
    SRC,
    VERIFY_TRIALS,
    WORKLOADS,
    Workload,
    check_op,
    check_rho,
    check_session,
    child_env,
    failed_children,
    no_span,
    make_instance,
    reference_short,
    ref_eigh,
    ref_matrix,
    ref_proc,
    round_order,
    run_child,
    run_op,
    run_session,
    session_seconds,
    write_fixtures,
)

SWEEP_REPS = 3  # calls per layer in the traced run's layer sweep
HARNESS_SEED = 0  # seed of the traced run's harness sweep
# An op is divided by the median of the REF_WINDOW references taken before
# it and the REF_WINDOW taken after it (fewer at the ends of a run).
REF_WINDOW = 3
OUT_DIR = os.path.join(ROOT, "bench", "out")
LAYERS = ("bench", "core", "shorted", "spectral_shorted", "order", "kolmogorov", "cli")
THEOREM_IDS = tuple(f"T{i}" for i in range(1, 16))
HARNESS_DIMS = tuple(range(2, 13))


def load_library():
    """Import specshort from this checkout's src, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import specshort
        import specshort.cli
        import specshort.harness
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import specshort from {SRC}: {exc}")
    where = os.path.dirname(os.path.realpath(specshort.__file__))
    if os.path.dirname(where) != os.path.realpath(SRC):
        raise SystemExit(f"bench: specshort was imported from {where}, not from {SRC}")
    return specshort


def environment() -> dict:
    """What a run's figures depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_thread_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(),
    }


def blas_thread_count() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ------------------------------------------------------------------ set-up


def setup(lib, wl: Workload, workdir: str, env: dict) -> None:
    """Instance or fixture generation and one warm-up op on pool instance 0.

    The warm-up is not checked or counted; the run's own ops are."""
    inst = make_instance(wl, 0)
    ref_eigh(ref_matrix(wl.n))
    if wl.in_process:
        with contextlib.suppress(Exception):
            run_op(lib, inst)
    else:
        write_fixtures(inst, workdir)
        run_session(inst, workdir, env)


def setup_seconds(wl: Workload, workdir: str, env: dict) -> float:
    """Wall time of a fresh process that imports, sets up and exits."""
    script = os.path.join(ROOT, "bench", "run.py")
    r = run_child([script, "--workload", wl.name, "--setup-probe"], workdir, env)
    if r.code != 0:
        raise SystemExit(f"bench: set-up probe exited {r.code}")
    return r.seconds


# ----------------------------------------------------------------- op loop


class ChildFailed(Exception):
    """A specshort child of a cli-session exited non-zero."""


class Loop:
    """Runs timed ops and keeps, per op, its cost, references and outcome.

    A reference is taken before every op and once after the last, and each
    op is divided by the median of the references nearest to it: that
    cancels host speed drift on the scale of a few ops, while one slow or
    fast reference does not move the op's ratio.  An op that raises, or
    whose session has a child that exits non-zero, is counted as failed; a
    wrong output from an op that did not fail is a problem, which makes the
    run incorrect.
    """

    def __init__(self, lib, wl: Workload, workdir: str, env: dict):
        self.lib, self.wl, self.workdir, self.env = lib, wl, workdir, env
        self.ref_m = ref_matrix(wl.n)
        self.refs: list[float] = []  # one per timed attempt, then the closing one
        self.records: list[tuple[int, float, bool]] = []  # (attempt, seconds, traced)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_child_kb = 0

    def reference(self, tracer: Tracer | None = None) -> None:
        if self.wl.in_process:
            ref, name = ref_eigh(self.ref_m), "ref.eigh"
        else:
            ref, name = ref_proc(self.workdir, self.env), "ref.proc"
        self.refs.append(ref)
        if tracer:
            tracer.note(name, ref)

    def fail(self, index: int, exc: Exception) -> None:
        self.failed += 1
        print(f"bench: instance {index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    def op(self, index: int, tracer: Tracer | None = None) -> None:
        attempt = len(self.refs)
        self.attempted += 1
        inst = make_instance(self.wl, index)
        span = tracer.span if tracer else no_span
        if tracer:
            tracer.op = attempt
        if not self.wl.in_process:
            write_fixtures(inst, self.workdir)
        self.reference(tracer)
        try:
            if self.wl.in_process:
                t0 = time.perf_counter()
                with span("op"):
                    out = run_op(self.lib, inst, span)
                seconds = time.perf_counter() - t0
                problems = check_op(inst, out)
            else:
                with span("op"):
                    results = run_session(inst, self.workdir, self.env, span)
                seconds = session_seconds(results)
                self.peak_child_kb = max([self.peak_child_kb] + [r.maxrss_kb for r in results.values()])
                if failed_children(results):
                    raise ChildFailed(", ".join(failed_children(results)))
                problems = check_session(inst, results)
        except Exception as exc:  # one failed op must not end the run
            self.fail(index, exc)
            return
        self.records.append((attempt, seconds, tracer is not None))
        self.problems += [f"instance {index}: {p}" for p in problems]

    def close(self) -> None:
        self.reference()

    def ratios(self, traced: bool) -> list[float]:
        refs, w = self.refs, REF_WINDOW
        return [s / statistics.median(refs[max(0, i - w + 1):i + w + 1])
                for i, s, t in self.records if t == traced]

    def raw(self, traced: bool) -> list[float]:
        return [s for _, s, t in self.records if t == traced]


def run_rounds(loop: Loop, seed: int, deadline: float, ops: int | None = None,
               tracer: Tracer | None = None, between=None) -> None:
    """Attempt whole rounds over the pool, at least one, and stop when the
    next round would end past the deadline; with `ops`, stop after exactly
    that many ops.  With a tracer every other op of a round is traced,
    shifted by one each round.  `between(r, j)` runs untimed before op j of
    round r."""
    for r in itertools.count():
        started = time.perf_counter()
        for j, index in enumerate(round_order(loop.wl, seed, r)):
            if ops is not None and loop.attempted == ops:
                return
            if between:
                between(r, j)
            loop.op(int(index), tracer if tracer and (j + r) % 2 else None)
        now = time.perf_counter()
        if ops is None and now + (now - started) > deadline:
            return


# ------------------------------------------------------------ traced sweep


def threshold_count(*spectra: np.ndarray) -> int:
    """Size of spectral_leq's threshold grid: the distinct positive levels of
    both matrices plus the midpoints between neighbours."""
    scale = max(float(np.abs(s).max()) for s in spectra)
    vals = np.sort(np.concatenate([s[s > 1e-10 * scale] for s in spectra]))
    distinct = 1 + int(np.count_nonzero(np.diff(vals) > 1e-8 * scale))
    return 2 * distinct - 1


def sweep_instance(lib, inst, tracer: Tracer, ref_m: np.ndarray) -> list[str]:
    """Time every layer's public calls once on one instance."""
    span, note = tracer.span, tracer.note
    note("ref.eigh", ref_eigh(ref_m))
    A = lib.SymMatrix(inst.a)
    S = lib.Subspace.span(inst.basis)
    with span("core.eig_sym"):
        d = lib.eig_sym(A)
    for j in np.linspace(0, len(d.levels) - 1, min(4, len(d.levels))).astype(int):
        half_line = lib.spectral_projection(d, float(d.level_values[j]))
        with span("core.projection_meet"):
            lib.projection_meet(half_line, S)
    with span("shorted.short_at"):
        lib.short_at(A, S)
    with span("shorted.short_schur"):
        lib.short_schur(A, S)
    with span("spectral_shorted.closed"):
        rho = lib.spectral_short_closed(A, S)
    note("spectral_shorted.closed.levels", len(rho.levels))
    with span("order.spectral_leq"):
        cert = lib.spectral_leq(rho.value, A)
    note("order.spectral_leq.thresholds",
         threshold_count(inst.spectrum, np.linalg.eigvalsh(rho.value.entries)))
    with span("kolmogorov.closed"):
        lib.kolmogorov_closed(A, inst.xi)
    with span("spectral_shorted.vector"):
        lib.spectral_short_vector(A, inst.xi)
    with span("spectral_shorted.iterative"):
        it = lib.spectral_short_iterative(A, S)
    note("spectral_shorted.iterative.iterates", len(it.trace.iterates))
    with span("kolmogorov.power"):
        kp = lib.kolmogorov_power(A, inst.xi)
    note("kolmogorov.power.iterations", len(kp.trace.iterates))
    b, sigma = reference_short(inst)
    problems = check_rho(inst, rho.value.entries, b, sigma)
    if not cert.holds:
        problems.append("spectral_leq(rho, A) does not hold")
    return problems


def sweep(lib, wl: Workload, tracer: Tracer, loop: Loop, workdir: str, env: dict) -> None:
    """Time every layer's public calls on the first pool instances, plus the
    harness, the CLI helpers and each CLI subcommand.  Each instance swept
    counts as an attempted op, and fails as one."""
    span, note = tracer.span, tracer.note
    tracer.op = None
    ref_m = ref_matrix(wl.n)
    for index in range(SWEEP_REPS):
        loop.attempted += 1
        try:
            problems = sweep_instance(lib, make_instance(wl, index), tracer, ref_m)
        except Exception as exc:
            loop.fail(index, exc)
            continue
        loop.problems += [f"sweep instance {index}: {p}" for p in problems]

    inst = make_instance(wl, SWEEP_REPS)
    A, S = lib.SymMatrix(inst.a), lib.Subspace.span(inst.basis)
    tracemalloc.start()
    try:
        lib.spectral_short_closed(A, S)
        note("spectral_shorted.closed.peak_alloc_mb", tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()

    harness = lib.harness
    for index, check in enumerate(harness.THEOREMS):
        for trial in range(len(HARNESS_DIMS)):
            with span(f"harness.{check.theorem}"):
                residual = harness.run_trial(check, index, trial, HARNESS_DIMS, HARNESS_SEED, lib.DEFAULT_TOL)
            if residual > 1.0:
                loop.problems.append(f"sweep: harness {check.theorem} trial {trial} fails")
    with span("harness.suite"):
        report = harness.run_suite(dims=HARNESS_DIMS, trials=VERIFY_TRIALS, seed=HARNESS_SEED)
    if report.total_failures:
        loop.problems.append("sweep: run_suite reports failures")

    probe = "import time; t = time.perf_counter(); import specshort.cli; print(time.perf_counter() - t)"
    for _ in range(SWEEP_REPS):
        note("cli.import", float(run_child(["-c", probe], workdir, env).stdout))
        note("ref.proc", ref_proc(workdir, env))
    index = SWEEP_REPS + 1
    inst = make_instance(wl, index)
    write_fixtures(inst, workdir)
    for _ in range(SWEEP_REPS):
        with span("cli.load_matrix"):
            M = lib.cli.load_matrix(os.path.join(workdir, "A.json"), lib.DEFAULT_TOL)
        with span("cli.matrix_payload"):
            lib.cli.matrix_payload(M)
    for _ in range(2):
        loop.attempted += 1
        results = run_session(inst, workdir, env, span)
        if failed_children(results):
            loop.fail(index, ChildFailed(", ".join(failed_children(results))))
        else:
            loop.problems += [f"sweep session {index}: {p}" for p in check_session(inst, results)]


def layer_metrics(tracer: Tracer, loop: Loop) -> dict:
    """Per-layer metrics: median self seconds per call, the same over the
    reference, counts, and the layers' shares of the traced ops."""
    times = tracer.by_name()
    notes = tracer.notes
    eigh_s = statistics.median(notes["ref.eigh"])
    proc_s = statistics.median(notes["ref.proc"])
    m: dict[str, tuple[float, str]] = {}

    def timed(metric: str, ratio: str | None = None) -> None:
        s = statistics.median(times[metric])
        m[f"{metric}.s"] = (s, "s")
        if ratio == "xeigh":
            m[f"{metric}.xeigh"] = (s / eigh_s, "xeigh")
        elif ratio == "xproc":
            m[f"{metric}.xproc"] = (s / proc_s, "xproc")

    def counted(metric: str, unit: str = "count") -> None:
        m[metric] = (statistics.median(notes[metric]), unit)

    timed("core.eig_sym", "xeigh")
    timed("core.projection_meet")
    timed("shorted.short_at", "xeigh")
    timed("shorted.short_schur", "xeigh")
    timed("spectral_shorted.closed", "xeigh")
    counted("spectral_shorted.closed.levels")
    counted("spectral_shorted.closed.peak_alloc_mb", "MB")
    timed("order.spectral_leq", "xeigh")
    counted("order.spectral_leq.thresholds")
    timed("spectral_shorted.vector")
    timed("kolmogorov.closed")
    timed("spectral_shorted.iterative", "xeigh")
    counted("spectral_shorted.iterative.iterates")
    timed("kolmogorov.power")
    counted("kolmogorov.power.iterations")
    for t in THEOREM_IDS:
        timed(f"harness.{t}")
    timed("harness.suite")
    m["cli.import.s"] = (statistics.median(notes["cli.import"]), "s")
    timed("cli.load_matrix")
    timed("cli.matrix_payload")
    for sub in ("spectral-short", "order", "short", "kolmogorov", "verify"):
        timed(f"cli.proc.{sub}", "xproc")
    m["ref.eigh.s"] = (eigh_s, "s")
    m["ref.proc.s"] = (proc_s, "s")
    m["trace.overhead_xref"] = (
        statistics.median(loop.ratios(True)) - statistics.median(loop.ratios(False)), "xref")
    shares = tracer.layer_shares("op")
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (shares.get(layer, 0.0), "fraction")
    return m


# -------------------------------------------------------------------- runs


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def run(lib, args) -> dict:
    wl = WORKLOADS[args.workload]
    env = child_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR)
    try:
        if args.trace:
            tracer = Tracer()
            setup(lib, wl, workdir, env)
            loop = Loop(lib, wl, workdir, env)
            run_rounds(loop, args.seed, time.perf_counter() + args.seconds / 2, args.ops, tracer)
            loop.close()
            sweep(lib, wl, tracer, loop, workdir, env)
            tracer.write(os.path.join(OUT_DIR, f"trace-{wl.name}-{args.seed}.json"))
            metrics = layer_metrics(tracer, loop)
        else:
            # Set-up probes are spread over the first round, so that their
            # median does not hang on one burst of host load.
            setup_times: list[float] = []
            spacing = max(1, wl.pool // wl.setup_probes)

            def probe(r: int, j: int) -> None:
                if r == 0 and j % spacing == 0 and len(setup_times) < wl.setup_probes:
                    setup_times.append(setup_seconds(wl, workdir, env))

            setup(lib, wl, workdir, env)
            loop = Loop(lib, wl, workdir, env)
            run_rounds(loop, args.seed, time.perf_counter() + args.seconds, args.ops, between=probe)
            loop.close()
            setup_s = statistics.median(setup_times)
            ratios, raw = loop.ratios(False), loop.raw(False)
            if wl.in_process:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            else:
                peak_kb = loop.peak_child_kb
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_p50_xref": (statistics.median(ratios), "xref"),
                "op_p90_xref": (percentile(ratios, 90), "xref"),
                "peak_rss_mb": (peak_kb / 1024, "MB"),
            }
            refs = loop.refs
            with open(os.path.join(OUT_DIR, f"ops-{wl.name}-{args.seed}.json"), "w", encoding="utf-8") as fh:
                json.dump({"seconds": raw, "ref": refs}, fh)
            print(json.dumps({"reference_figures": {
                "ops": len(raw),
                "op_p50_s": statistics.median(raw),
                "op_p90_s": percentile(raw, 90),
                "ref_p50_s": statistics.median(refs),
                "ref": "eigh" if wl.in_process else "proc",
                "pool": wl.pool,
            }}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in loop.problems[:20]:
        print(f"bench: {p}", file=sys.stderr)
    return {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def table(lib) -> str:
    """The ROADMAP baseline: raw seconds and multiples of eigh at L = n, the
    best of 3 calls at n = 100 and 200 and one call at n = 400."""
    cols = ("eigh", "short_at", "spectral_short_closed", "spectral_leq",
            "spectral_short_iterative", "many-levels op")
    lines = ["| n | " + " | ".join(cols) + " |", "|---" * (len(cols) + 1) + "|"]
    for n in (100, 200, 400):
        wl = Workload(f"table-{n}", n, None, True, 1, 1)
        inst = make_instance(wl, 0)
        eigh = ref_eigh(ref_matrix(n), reps=5)
        fresh = lambda: lib.SymMatrix(inst.a)  # noqa: E731
        S = lib.Subspace.span(inst.basis)
        rho = lib.spectral_short_closed(fresh(), S).value
        calls = (
            lambda: lib.short_at(fresh(), S),
            lambda: lib.spectral_short_closed(fresh(), S),
            lambda: lib.spectral_leq(rho, fresh()),
            lambda: lib.spectral_short_iterative(fresh(), S),
            lambda: run_op(lib, inst),
        )
        cells = [f"{eigh:.4f} s"]
        for call in calls:
            best = float("inf")
            for _ in range(3 if n < 400 else 1):
                t0 = time.perf_counter()
                call()
                best = min(best, time.perf_counter() - t0)
            s = best
            cells.append(f"{s:.4g} s ({s / eigh:.0f}x)")
        lines.append(f"| {n} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None, help="run exactly this many ops (smoke tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--table", action="store_true", help="print the baseline table and exit")
    p.add_argument("--blas-threads", type=int, default=1, help="BLAS threads, with --table only")
    args = p.parse_args(argv)
    if args.blas_threads != 1 and not args.table:
        p.error("--blas-threads is only for --table; benchmark runs use one thread")
    if not args.table and args.workload is None:
        p.error("--workload is required")
    if os.environ["OPENBLAS_NUM_THREADS"] != str(args.blas_threads):
        p.error("--blas-threads must be given as --blas-threads N or --blas-threads=N")
    lib = load_library()
    if args.table:
        print(json.dumps({"environment": environment()}))
        print(table(lib))
        return 0
    if args.setup_probe:
        os.makedirs(OUT_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR)
        try:
            setup(lib, WORKLOADS[args.workload], workdir, child_env())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    print(json.dumps({"environment": environment()}))
    result = run(lib, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
