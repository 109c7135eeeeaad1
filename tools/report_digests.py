"""Print SHA-256 digests of what the benchmark and the CLI produce for one
tree, so two trees can be compared output for output:

    python3 tools/report_digests.py BASE --dump base.npz > base.txt
    python3 tools/report_digests.py . --dump change.npz > change.txt
    diff base.txt change.txt
    python3 tools/report_digests.py --compare base.npz change.npz

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

With --dump PATH the outputs themselves are also saved, as one .npz of
float arrays: each run_op output, and the numbers of each CLI report in the
order its JSON lists them, and each verify theorem's (failures,
worst_residual, failing_trial), under the kind "verify Tk" (-1 for no
failing trial).  --compare BASE CHANGE reads two such files and prints,
per output kind (a run_op output, one of the CLI reports above, verify,
or one verify theorem), how many outputs there are, how many moved by any
bit, and the largest |change| of one number relative to ||A||_2 of its
instance (to 1 for verify, whose numbers are fractions of their bounds).

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


def numbers(obj) -> list[float]:
    """The numbers of a parsed JSON report, depth first in its own order
    (booleans as 0 and 1; strings and nulls are left to the digest)."""
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in numbers(v)]
    if isinstance(obj, list):
        return [x for v in obj for x in numbers(v)]
    if isinstance(obj, (bool, int, float)):
        return [float(obj)]
    return []


def report_numbers(stdout: str) -> np.ndarray:
    try:
        return np.array(numbers(json.loads(stdout)), dtype=float)
    except ValueError:
        return np.zeros(0)


def report_theorems(stdout: str) -> list[dict]:
    """The theorem entries of a verify report (none if it is not JSON)."""
    try:
        return json.loads(stdout)["theorems"]
    except (ValueError, KeyError, TypeError):
        return []


def main(tree: str, dump: str | None) -> None:
    tree = os.path.abspath(tree)
    sys.path.insert(0, os.path.join(tree, "bench"))
    import workloads as wk

    sys.path.insert(0, wk.SRC)
    import specshort as lib

    # one float array per output, keyed "kind|instance"; its last entry is
    # the scale that --compare reads its changes at
    saved: dict[str, np.ndarray] = {}

    def save(kind: str, label: str, values, scale: float) -> None:
        saved[f"{kind}|{label}"] = np.append(np.asarray(values, dtype=float).reshape(-1), scale)

    for wl in wk.WORKLOADS.values():
        if not wl.in_process:
            continue
        for i in range(wl.pool):
            inst = wk.make_instance(wl, i)
            out = wk.run_op(lib, inst)
            print("run_op", wl.name, i, digest(*(x for item in sorted(out.items()) for x in item)))
            for name, value in out.items():
                save(f"run_op {name}", f"{wl.name} {i}", value, inst.spectrum[-1])

    env = wk.child_env()
    with tempfile.TemporaryDirectory() as workdir:

        def child(*args: str) -> wk.ChildResult:
            return wk.run_child(["-m", "specshort", *args], workdir, env)

        for wl in wk.WORKLOADS.values():
            for i in range(CLI_INSTANCES):
                inst = wk.make_instance(wl, i)
                wk.write_fixtures(inst, workdir)
                files = {name: os.path.join(workdir, f"{name}.json") for name in ("A", "S", "xi", "rho")}
                for report in CLI_REPORTS:
                    res = child(*(files.get(arg, arg) for arg in report))
                    print("cli", wl.name, i, *report, digest(res.code, res.stdout))
                    values = [res.code, *report_numbers(res.stdout)]
                    save(" ".join(["cli", *report]), f"{wl.name} {i}", values, inst.spectrum[-1])
                    if report == RHO_REPORT:
                        rho = json.loads(res.stdout)["rho"] if res.code == 0 else {"n": 0, "data": []}
                        with open(files["rho"], "w", encoding="utf-8") as fh:
                            json.dump(rho, fh)
        for seed in VERIFY_SEEDS:
            res = child("verify", "--seed", str(seed))
            print("verify", seed, digest(res.code, res.stdout))
            save("verify", str(seed), [res.code, *report_numbers(res.stdout)], 1.0)
            for t in report_theorems(res.stdout):
                trial = -1 if t["failing_trial"] is None else t["failing_trial"]
                save(f"verify {t['id']}", str(seed), [t["failures"], t["worst_residual"], trial], 1.0)
    if dump is not None:
        np.savez(dump, **saved)


def compare(base: str, change: str) -> None:
    """Print, per kind, the outputs, how many moved and the largest
    relative change; an output whose count of numbers differs is counted
    as moved and reported as such."""
    with np.load(base) as fb, np.load(change) as fc:
        old, new = dict(fb), dict(fc)
    if old.keys() != new.keys():
        print("outputs differ:", *sorted(old.keys() ^ new.keys()))
    rows: dict[str, list] = {}
    for key in sorted(old.keys() & new.keys()):
        kind = key.split("|")[0]
        row = rows.setdefault(kind, [0, 0, 0.0, 0])
        a, b = old[key], new[key]
        row[0] += 1
        if a.tobytes() == b.tobytes():
            continue
        row[1] += 1
        if a.shape != b.shape:
            row[3] += 1
            continue
        row[2] = max(row[2], float(np.abs(a[:-1] - b[:-1]).max() / a[-1]))
    print(f"{'kind':48} {'outputs':>7} {'moved':>5} {'max |d|/||A||':>13}")
    for kind, (count, moved, worst, reshaped) in rows.items():
        note = f"  ({reshaped} changed shape)" if reshaped else ""
        print(f"{kind:48} {count:7d} {moved:5d} {worst:13.3e}{note}")


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--compare":
        compare(args[1], args[2])
    elif len(args) == 1:
        main(args[0], None)
    elif len(args) == 3 and args[1] == "--dump":
        main(args[0], args[2])
    else:
        raise SystemExit("usage: report_digests.py TREE [--dump PATH] | --compare BASE CHANGE")
