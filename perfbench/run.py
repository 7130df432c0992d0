"""fgpan benchmark entry point.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}; the line before it
and .perfbench/results/ hold the full record (environment, samples, checks,
per-layer self times, spans). Without the library sources beside this
directory it exits with status 2 and prints no result.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_blas_threads() -> str:
    """Cap every BLAS pool at the CPUs this process may use; must run
    before numpy is imported. Returns the cap."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        os.environ[var] = str(current if 0 < current < cap else cap)
    return os.environ["OPENBLAS_NUM_THREADS"]


def bootstrap() -> str | None:
    """Cap BLAS threads and put this checkout's library sources first on the
    import path. Returns the BLAS thread cap, or None (with a message on
    stderr) when the sources are missing."""
    if not os.path.isfile(os.path.join(SRC, "fgpan", "__init__.py")):
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return None
    blas_threads = cap_blas_threads()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import fgpan

    if os.path.dirname(os.path.abspath(fgpan.__file__)) != os.path.join(SRC, "fgpan"):
        print(f"error: fgpan imported from {fgpan.__file__}, not {SRC}", file=sys.stderr)
        return None
    return blas_threads


def main() -> int:
    blas_threads = bootstrap()
    if blas_threads is None:
        return 2
    from fgbench.runner import main as run_main

    return run_main(sys.argv[1:], ROOT, blas_threads)

if __name__ == "__main__":
    sys.exit(main())
