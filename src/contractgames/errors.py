"""Exception and warning types shared across the package."""


class ContractGameError(Exception):
    """Base class for domain errors raised by this package."""


class BudgetExceeded(ContractGameError):
    """A contract's shares sum to more than the budget on some outcome."""


class DegenerateProfile(ContractGameError):
    """An operation requiring a strictly interior profile got a boundary one."""


class NotAdmissible(ContractGameError):
    """Marginal gain reaches c'(1): the small-budget regime is violated."""


class NotAnEquilibrium(ContractGameError):
    """A profile failed the equilibrium residual check."""


class NoConvergence(ContractGameError):
    """An iteration exceeded its step budget without meeting tolerance."""

    def __init__(self, message: str, best_residual: float = float("inf")):
        super().__init__(message)
        self.best_residual = best_residual


class InconsistentTightSets(ContractGameError):
    """Tight subsets are not totally ordered by inclusion."""


class NotLuceImplementable(ContractGameError):
    """The subset inequality fails: no Luce contract implements the profile."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ParameterOutOfRange(ContractGameError):
    """A closed-form routine received a parameter outside its valid range."""


class GridTooCoarse(UserWarning):
    """Dominance verification needed more slack than two grid steps."""


class ObjectiveNotIncreasing(UserWarning):
    """A user-supplied objective decreased along a coordinate probe."""
