"""Exception types shared across the package."""


class CompletenessError(ValueError):
    """A measurement basis does not resolve the span of the ensemble."""


class BracketingError(RuntimeError):
    """The crossover search has no sign-change bracket of rate - c1 to keep:
    the same sign at both ends, or a NaN value."""
