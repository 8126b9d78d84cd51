"""Exception types shared across the package."""


class CompletenessError(ValueError):
    """A measurement basis does not resolve the span of the ensemble."""


class BracketingError(RuntimeError):
    """A sign-change bracket required by bisection does not exist."""
