"""Test-session setup, run before any test module imports numpy."""

import os

# OpenBLAS otherwise starts one thread per core, and those threads spin against
# any other busy process on the host; the suite's matrices are small enough
# that one thread loses nothing.  An explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
