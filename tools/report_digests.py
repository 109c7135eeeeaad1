"""Print SHA-256 digests of what the benchmark and the CLI produce for one
tree, so two trees can be compared output for output:

    python3 tools/report_digests.py BASE > base.txt
    python3 tools/report_digests.py . > change.txt
    diff base.txt change.txt

Run it once per tree, each in its own process: a process that has imported
one tree's specshort cannot load another's cleanly.  The library and the CLI
children come from TREE/src, the inputs from TREE/bench/workloads.py, with
one BLAS thread throughout.  One line per digest:

- run_op WORKLOAD I: every output of the in-process op on pool instance I
  of many-levels and of few-levels;
- cli WORKLOAD I SUBCOMMAND...: the exit code and stdout of one CLI report
  on pool instances 0-2 of each workload: spectral-short and short by each
  method, kolmogorov by each method, and order on rho A, A rho and A A,
  with rho the one spectral-short --method both prints;
- verify SEED: the default verify report at seeds 0 and 1234.

Nothing is written to the tree but Python's bytecode caches.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

CLI_INSTANCES = 3
CLI_REPORTS = (
    ("spectral-short", "A", "S", "--method", "closed"),
    ("spectral-short", "A", "S", "--method", "iterative"),
    ("spectral-short", "A", "S", "--method", "both"),
    ("short", "A", "S", "--method", "at"),
    ("short", "A", "S", "--method", "schur"),
    ("short", "A", "S", "--method", "both"),
    ("kolmogorov", "A", "xi", "--method", "closed"),
    ("kolmogorov", "A", "xi", "--method", "power"),
    ("kolmogorov", "A", "xi", "--method", "duality"),
    ("order", "rho", "A"),
    ("order", "A", "rho"),
    ("order", "A", "A"),
)
# the report whose rho the order reports read; it runs before them
RHO_REPORT = CLI_REPORTS[2]
VERIFY_SEEDS = (0, 1234)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def main(tree: str) -> None:
    tree = os.path.abspath(tree)
    sys.path.insert(0, os.path.join(tree, "bench"))
    import workloads as wk

    sys.path.insert(0, wk.SRC)
    import specshort as lib

    for wl in wk.WORKLOADS.values():
        if not wl.in_process:
            continue
        for i in range(wl.pool):
            out = wk.run_op(lib, wk.make_instance(wl, i))
            print("run_op", wl.name, i, digest(*(x for item in sorted(out.items()) for x in item)))

    env = wk.child_env()
    with tempfile.TemporaryDirectory() as workdir:

        def child(*args: str) -> wk.ChildResult:
            return wk.run_child(["-m", "specshort", *args], workdir, env)

        for wl in wk.WORKLOADS.values():
            for i in range(CLI_INSTANCES):
                wk.write_fixtures(wk.make_instance(wl, i), workdir)
                files = {name: os.path.join(workdir, f"{name}.json") for name in ("A", "S", "xi", "rho")}
                for report in CLI_REPORTS:
                    res = child(*(files.get(arg, arg) for arg in report))
                    print("cli", wl.name, i, *report, digest(res.code, res.stdout))
                    if report == RHO_REPORT:
                        rho = json.loads(res.stdout)["rho"] if res.code == 0 else {"n": 0, "data": []}
                        with open(files["rho"], "w", encoding="utf-8") as fh:
                            json.dump(rho, fh)
        for seed in VERIFY_SEEDS:
            res = child("verify", "--seed", str(seed))
            print("verify", seed, digest(res.code, res.stdout))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: report_digests.py TREE")
    main(sys.argv[1])
