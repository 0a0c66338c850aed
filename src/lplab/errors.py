"""Exception types shared across the laboratory.

Everything derives from ValueError so callers who do not care about the
fine-grained category can catch one thing.
"""


class GridMismatchError(ValueError):
    """An array or function does not live on the grid it is being used with."""


class ZeroModeSingularityError(ValueError):
    """A negative Laplacian power was applied to a function with mass at frequency zero."""


class ConfigurationError(ValueError):
    """A structurally invalid configuration (grid too coarse, setting out of range)."""


class UnsupportedFamilyError(ValueError):
    """The requested operation is not defined for this block family."""


class ContractViolationError(ValueError):
    """An operator failed the contract validation required by a checker."""


class DegenerateInputError(ValueError):
    """The input makes the requested ratio meaningless (zero function, constant input, ...)."""
