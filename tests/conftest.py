"""Test-suite set-up: BLAS runs single-threaded, as in `bench/run.py` and the
bench scripts.

OpenBLAS reads its thread count once, when numpy loads it, so this module
sets the variables before the tests import numpy; subprocesses that the
tests start inherit them.  With two BLAS threads on a machine whose other
CPU is busy, one float32 product of the sampled verifier has been seen to
stall for half a second.
"""

import os
import sys

BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_LOADED_FIRST = "numpy" in sys.modules  # too late to pin BLAS if so

for _var in BLAS_THREAD_VARIABLES:
    os.environ[_var] = "1"
