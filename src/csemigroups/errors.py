"""Typed errors raised by the library."""


class SemigroupError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(SemigroupError):
    """Operands live in ambient lattices of different dimensions."""


class ZeroCone(SemigroupError):
    """Cone construction received no nonzero generator."""


class NonSimplicialCone(SemigroupError):
    """The operation supports only cones with linearly independent rays."""


class RayNotMet(SemigroupError):
    """No semigroup element lies on the given extremal ray."""

    def __init__(self, ray):
        self.ray = ray
        super().__init__(f"no semigroup element on the extremal ray {ray}")


class NotCSemigroup(SemigroupError):
    """The complement of the semigroup in its cone is provably infinite.

    The proof is one of three facts.  ``gcd`` > 1: the semigroup meets the
    extremal ray ``ray`` only in multiples of ``gcd``.  ``residue`` and
    ``ray`` set: the points ``residue + k·n`` (n the multiplicity on
    ``ray``, k ≥ 0) are all gaps.  ``residue`` set, ``ray`` None: the class
    of ``residue`` modulo the lattice of the multiplicities holds no element
    at all.
    """

    def __init__(self, message, ray=None, gcd=None, residue=None):
        self.ray = ray
        self.gcd = gcd
        self.residue = residue
        super().__init__(message)


class BudgetExceeded(SemigroupError):
    """A bounded search ran out of budget before reaching a certificate.

    This outcome is inconclusive, unlike :class:`NotCSemigroup` which is a
    proof of failure.  ``unit`` names what the search counted, ``limit``
    is the bound it was given and ``count`` the tally that passed it when
    the search stopped, a lower bound on what finishing would have taken.
    """

    def __init__(self, message, limit=None, count=None, unit=None):
        self.limit = limit
        self.count = count
        self.unit = unit
        super().__init__(message)


class EmptyGaps(SemigroupError):
    """The Frobenius element is undefined when the gap set is empty."""


class NotOnRays(SemigroupError):
    """Ray elements must contain exactly one nonzero point on each extremal ray."""


class NotInSemigroup(SemigroupError):
    """A point required to belong to the semigroup does not."""

    def __init__(self, point, message=None):
        self.point = point
        super().__init__(message or f"{point} is not an element of the semigroup")


class ConeMismatch(SemigroupError):
    """Operands are defined over different cones."""


class NotDegreeCompatible(SemigroupError):
    """The operation needs a degree-compatible monomial order."""


class InvalidSemigroupFile(SemigroupError):
    """An input document violates the file schema.

    ``invariant`` names the violated rule so callers can report it.
    """

    def __init__(self, message, invariant):
        self.invariant = invariant
        super().__init__(message)
