"""Exception types, and the thresholds and step check shared across the library."""

# |denominator| below this counts as a true blow-up rather than underflow noise
POLE_EPS = 1e-300
# |state| above this counts as an orbit or integrator that ran away
ESCAPE_BOUND = 1e100


def check_steps(n) -> None:
    """Refuse a step count ``n`` that is not a non-negative integer."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a non-negative integer")


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the requested formula."""


class PoleError(ArithmeticError):
    """A denominator vanished: the evaluated solution blows up there.

    ``where`` identifies the offending time or step index when known.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class EscapeError(ArithmeticError):
    """A map orbit or an integrator's state left the guarded range.

    ``index`` is the first offending step.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DegeneracyError(RuntimeError):
    """An orbit collapsed onto a fixed point, so no useful bits can be produced."""
