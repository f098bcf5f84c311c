"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter lies outside the admissible domain of an operation."""


class BracketError(ValueError):
    """A root bracket does not exhibit the required sign change."""


class NonUniqueRootError(ValueError):
    """Uniqueness not proven: Descartes' rule of signs leaves room for a second root."""


class ResidualError(ArithmeticError):
    """A computed root failed its polynomial-residual certification gate."""


class NotApplicableError(ValueError):
    """The requested operation has no meaning for this radius family."""


class PreconditionError(ValueError):
    """A caller-supplied argument violates an operation precondition."""


class UncertifiedFunctionError(ValueError):
    """A test function could not be certified as a self-map of the unit disk."""
