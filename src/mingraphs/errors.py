"""Exception types shared across the package.  The boundary's angles at infinity
are exact (in verify), so no exception reports a limit that did not settle."""


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
