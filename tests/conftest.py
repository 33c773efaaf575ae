"""Pin BLAS to one thread for the suite, before numpy loads.

OpenBLAS and MKL read their thread counts once, when the library is loaded;
on a small host their default thread pools make the many small products of
this suite slower, not faster.  setdefault keeps a value set by the caller.
The demo subprocesses inherit the pin through the environment.
NUMPY_WAS_LOADED records whether numpy had been imported before the pin, in
which case the pin did not reach it (tests/test_package.py checks this).
"""

import os
import sys

NUMPY_WAS_LOADED = "numpy" in sys.modules

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
