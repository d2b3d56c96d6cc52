"""Benchmark entry point: ``python3 benchmarks/run.py --workload NAME
--seed N --seconds S --trace 0|1`` from the root of an awekit checkout.

OpenBLAS (and any other BLAS) is pinned to one thread before numpy is
imported, so the only parallelism is awekit's own ``run.threads``. The
program under test is imported from ``src/`` of the checkout this file
sits in; without it the benchmark exits with code 2 and prints no result.
"""

import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "awekit", "__init__.py")):
        print(f"benchmark: no awekit sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    from awebench.runner import main

    sys.exit(main())
