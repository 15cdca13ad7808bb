"""The package's one ``import numpy``, made without OpenBLAS's thread pool.

:mod:`repro.net.soa` and :mod:`repro.mobility.bulk` take ``np`` from here.
Nothing in the package calls a BLAS routine (``tests/test_no_blas.py``
holds that), yet OpenBLAS starts a worker thread as the library loads,
and that start-up is about half of numpy's import.  So when none of the
variables OpenBLAS sizes its pool from is set, ``OPENBLAS_NUM_THREADS=1``
is set around the import statement alone and removed right after:
OpenBLAS reads it once, as it loads, and ``os.environ`` (which child
processes inherit) is left exactly as it was.  A pool size the caller
set, or a numpy imported before the package, is left alone.  Why, and
what it measured: ``docs/decisions/15-no-blas-pool.md``.
"""

import os
import sys

#: The variables OpenBLAS reads for its pool size; one set means the
#: caller chose.
_POOL_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" in sys.modules or any(name in os.environ for name in _POOL_VARIABLES):
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

__all__ = ["np"]
