"""Run the layer benchmarks with BLAS on one thread, as the stage commands do.

The variable is read once, when numpy loads, so this holds only when `bench`
is collected before anything imports numpy: `pytest bench` alone. A caller
that sets `OPENBLAS_NUM_THREADS` keeps its value.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
