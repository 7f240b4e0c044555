"""Exception types and the pole threshold shared across the library."""

# |denominator| below this counts as a true blow-up rather than underflow noise
POLE_EPS = 1e-300


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
    """A trajectory or accumulator left the guarded range.

    ``index`` is the first offending step.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DegeneracyError(RuntimeError):
    """An orbit collapsed onto a fixed point, so no useful bits can be produced."""
