"""Pin BLAS to one thread before any test imports numpy.

Small matrix products are what the simulator does; under OpenBLAS's default
thread count they contend with the test process itself on a busy host.
Settings already in the environment win.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
