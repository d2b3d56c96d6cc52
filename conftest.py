"""Test-session setup shared by tests/ and benchmarks/tests/.

BLAS is pinned to one thread before numpy loads, as benchmarks/run.py
does, so the only parallelism in a test run is awekit's own
``run.threads``. A variable already set in the environment wins.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
