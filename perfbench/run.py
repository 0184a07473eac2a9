"""Benchmark entry point.

    python3 perfbench/run.py --workload fedml-synthetic --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; nothing needs building.  It
caps the BLAS thread pools before NumPy loads, puts ``src`` on the path
and hands over to :func:`perfbench.bench.main`.  The last line of
standard output is the JSON result.  Outside a checkout (no
``src/repro``) it exits 2 without a result.
"""

import os
import sys
from pathlib import Path

#: BLAS thread cap (at most ``nproc``); recorded with every result.
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {root / 'src'}", file=sys.stderr)
        return 2
    for var in _BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
