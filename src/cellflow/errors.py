class CellflowError(Exception):
    """Base class for all cellflow errors."""


class InputError(CellflowError):
    """Bad user-supplied input (out-of-range index, malformed config, ...)."""


class IntegrityError(CellflowError):
    """A simulation invariant was violated; indicates a bug upstream."""


class NoPathError(IntegrityError):
    """The flow-paths band repair found no path while slack was still owed."""


class SolverError(CellflowError):
    """An iterative solver failed to converge within its budget."""
