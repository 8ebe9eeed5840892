"""Exception hierarchy shared by all solvers and the CLI.

The CLI maps these onto exit codes: UsageError -> 1, NumericsError -> 2.
"""


class RemestError(Exception):
    """Base class for all package errors."""


class UsageError(RemestError):
    """Invalid arguments or out-of-domain parameters."""


class NumericsError(RemestError):
    """A numerical computation failed or cannot be carried out."""


class CapacityError(NumericsError):
    """A configured dimension cap would be exceeded."""


class SingularSystemError(NumericsError):
    """A linear system is singular (silent chain cannot escape)."""


class DivergenceError(NumericsError):
    """The requested quantity is provably infinite."""


class BracketError(NumericsError):
    """The threshold search could not bracket the target value."""


class ConvergenceError(NumericsError):
    """Iteration budget exhausted before reaching tolerance."""
