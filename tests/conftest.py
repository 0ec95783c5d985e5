"""Test-session set-up: one BLAS thread for the dense linear algebra.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, and this file
loads before any test module imports numpy.  The spectrum tests run faster on
one thread than on OpenBLAS's default of one per CPU; a value already set in
the environment is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
