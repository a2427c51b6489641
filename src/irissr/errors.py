"""The two errors every module raises, one per exit code of the command line:
`InputError` for input data or a request the configuration cannot process
(exit 2), and `BackendError` for an external backend failure (exit 5). The
message says what went wrong; callers tell failures apart by it, not by
class. The module imports nothing, so any module can raise them at no
start-up cost, and the command line can catch them without importing the
modules that raise them.
"""


class InputError(ValueError):
    """Input data or a request that the configuration cannot process."""


class BackendError(RuntimeError):
    """An external backend failed, hung or wrote an unusable output."""
