"""Exception types shared across the package."""


class NilconjError(Exception):
    """Base class for every error raised by this package."""


class ParseError(NilconjError, ValueError):
    """Input malformed or out of range."""


class DegenerateCenterError(NilconjError):
    """Gram matrix restricted to the center block is singular."""


class DegenerateComplementError(NilconjError):
    """Gram matrix restricted to the complement block is singular."""


class NonOrthogonalSplitError(NilconjError):
    """Center and complement are coupled by off-diagonal Gram entries."""


class AsymmetricBracketError(NilconjError):
    """Bracket table violates antisymmetric storage (a < b, no duplicates)."""


class InsufficientSamplesError(NilconjError):
    """Sampled field is too sparse for finite-difference estimates."""


class UnsupportedCaseError(NilconjError):
    """No closed form covers this geodesic; fall back to the numerical oracle."""


class PoleError(NilconjError):
    """Conjugacy function evaluated at one of its poles."""


class NotInImageError(NilconjError):
    """Requested preimage does not exist for this operator and time."""


class NotDiagonalizableError(NilconjError):
    """J lacks the eigenbasis an operation needs (a real one for eigen_components)."""


class CenterNotLineError(NilconjError):
    """Operation requires a one-dimensional center."""


class RootLostError(NilconjError):
    """Continuation step left the basin of the tracked root."""


class NoConjugateError(NilconjError):
    """No conjugate point exists for the requested data."""
