"""Exception hierarchy and warning classes shared by all hoferlab modules."""


class HoferLabError(Exception):
    """Base class for every error raised by this package."""


class ExprSyntaxError(HoferLabError):
    """Malformed expression source; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(HoferLabError):
    """An identifier that is neither a variable x<i>/y<i>/t nor a known function."""


class DomainError(HoferLabError):
    """Evaluation left the declared domain (division by zero, sqrt of a negative)."""


class GeometryError(HoferLabError):
    """Operation requires a different grid geometry (box vs torus)."""


class NotMonotone(HoferLabError):
    """Reparametrization map has negative derivative somewhere."""


class SupportOverlap(HoferLabError):
    """Declared-disjoint supports fail the sampling validation."""


class GradientUnavailable(HoferLabError):
    """An expression node without a spatial derivative rule reached the flow."""


class BlowUp(HoferLabError):
    """A tracer left the integrator's safety box or became NaN."""


class CloudMismatch(HoferLabError):
    """Two flow maps do not share the same initial tracer cloud."""


class InputNotQuasiSubadditive(HoferLabError):
    """No finite constant C satisfies psi(a*b) <= C(psi(a)+psi(b))."""


class BudgetExceeded(HoferLabError):
    """Brute-force enumeration would exceed the configured work budget."""


class QuasiTriangleViolated(HoferLabError):
    """Weight fails the required relaxed triangle inequality."""


class ConjugationUnsupported(HoferLabError):
    """Conjugation requested by a map that is not affine symplectic."""


class ParameterOutOfRange(HoferLabError, ValueError):
    """A numeric argument lies outside its range; ``name`` is the parameter's name."""

    def __init__(self, name, message):
        super().__init__(message)
        self.name = name


class ConfigInvalid(HoferLabError):
    """Experiment configuration does not validate against the schema."""

    def __init__(self, message, key_path="$"):
        super().__init__(f"{message} (at {key_path})")
        self.key_path = key_path


class SupportMarginWarning(UserWarning):
    """Field does not vanish in the outermost cell layer of a box grid."""


class StepErrorWarning(UserWarning):
    """A flow's step-error estimate still misses the requested tolerance."""
