"""Pin BLAS to one thread for the test run.

OpenBLAS starts one thread per core by default, and with another process
busy on the machine the small float rank matrices of the tests then run
orders of magnitude slower. The thread count is read when numpy is first
imported, so it is set here, before any test module imports numpy. A value
already set in the environment wins.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
