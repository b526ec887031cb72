"""Run one hodlrpeel benchmark workload and print its metrics.

From the root of a source checkout:

    python3 perfbench/run.py --workload poisson-16k --seed 1 --seconds 30 --trace 0

The package is imported from ``./src``; the command fails with exit code 2 if
it is not there.  Stdout carries a fingerprint line, one line per metric and,
last, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.
"""

import os

# BLAS and OpenMP pools read these once, when numpy loads: one thread keeps
# timings steady on a small shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import sys

sys.dont_write_bytecode = True

NOTE = (
    "shared machine: other tenants' load makes timings noisy; "
    "BLAS pinned to 1 thread for this process"
)


def _blas_threads():
    """Thread count reported by the OpenBLAS library mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root):
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fingerprint(root, seed, peel_seeds):
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
        "seed": seed,
        "peel_seeds": peel_seeds,
        "note": NOTE,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hodlrpeel", "__init__.py")):
        print(f"perfbench: no hodlrpeel sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import hodlrpeel

    if os.path.dirname(os.path.abspath(hodlrpeel.__file__)) != os.path.join(src, "hodlrpeel"):
        print(f"perfbench: imported {hodlrpeel.__file__}, not the checkout's sources",
              file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                         trace=bool(args.trace))

    print(json.dumps({"fingerprint": fingerprint(root, args.seed, result["seeds"])}))
    for name in result["absent"]:
        print(f"trace: {name} is absent; its layer reads 0")
    for warning in result["warnings"]:
        print(f"trace: warning: {warning}")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    if args.trace:
        for name, unit in harness.END_TO_END:
            print(f"{args.workload} {name} = {result['end_to_end'][name]} {unit} "
                  "(untraced repetitions)")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
