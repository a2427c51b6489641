"""The base class of every module error for input the configuration cannot
process. It imports nothing, so any module can subclass it at no start-up
cost; the command line maps all of them to exit code 2 through this one class.
"""


class InputError(ValueError):
    """Input data or a request that the configuration cannot process."""
