"""Exception types shared across the library."""


class ArithCurvesError(Exception):
    """Base class for all library errors."""


class UnsupportedType(ArithCurvesError):
    """Cartan type outside the supported A1-A4, B2-B4, C2-C4, D3-D4, G2 list."""


class MalformedInput(ArithCurvesError):
    """Input of the wrong shape or literal syntax; a `key` attribute, if set, names its field."""


class NotARoot(ArithCurvesError):
    """A vector that was required to be a root is not one."""


class ProportionalRoots(ArithCurvesError):
    """Root-string endpoints requested for beta = +-alpha."""


class DimensionMismatch(ArithCurvesError):
    """Coordinate vectors of incompatible lengths."""


class NonSquare(ArithCurvesError):
    """A square matrix was required."""


class ZeroIdeal(ArithCurvesError):
    """The zero module is not a fractional ideal."""


class SingularForm(ArithCurvesError):
    """A bilinear form that must be invertible is singular."""


class SingularMatrix(ArithCurvesError):
    """A group element must be invertible."""


class MembershipFailure(ArithCurvesError):
    """An element does not lie in the ideal it was claimed to."""


class DegenerateCurve(ArithCurvesError):
    """Fiber analysis refused: the discriminant vanishes identically."""


class UnsupportedBase(ArithCurvesError):
    """Operation restricted to base field Q."""
