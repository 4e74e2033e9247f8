"""Exception types shared across the package."""


class DomainError(ValueError):
    """Evaluation point outside the admissible domain (branch cut, non-finite input)."""


class ParameterError(ValueError):
    """Constructor parameter outside its admissible range."""


class SingularityError(ArithmeticError):
    """A derivative or tangent fell below the configured floor."""


class QuadratureError(RuntimeError):
    """Numerical integration did not reach the requested tolerance."""


class EmptyInteriorError(RuntimeError):
    """A stencil operation found no interior nodes to work on."""
