"""Run every test and layer benchmark with BLAS on one thread, as the stage
commands do.

The variable is read once, when numpy loads; pytest loads this file before
any test module or the conftest files below it, so the pin holds for
`pytest`, `pytest tests` and `pytest bench` alike. A caller that sets
`OPENBLAS_NUM_THREADS` keeps its value.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
