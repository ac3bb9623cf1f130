"""cellflow: hybrid grid/particle fluid simulation with exact per-cell
incompressibility, solved per step as an integral min-cost flow."""

__version__ = "0.1.0"

from .errors import CellflowError, InputError, IntegrityError, SolverError  # noqa: F401
