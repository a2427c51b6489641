"""The base classes of the module errors the command line maps to exit
codes: input the configuration cannot process (exit 2) and external backend
failures (exit 5), plus `RasterError`, which both `raster` and the PGM codec
`pgm` raise. The module imports nothing, so any module can subclass them at
no start-up cost, and the command line can catch them without importing the
modules that raise them.
"""


class InputError(ValueError):
    """Input data or a request that the configuration cannot process."""


class RasterError(InputError):
    """Bad image data or an invalid geometry request."""


class BackendError(RuntimeError):
    """Base class for external backend failures."""
