"""Exception hierarchy shared by every isoact module.

All failures raised on purpose by the library derive from :class:`IsoactError`,
so callers (and the CLI driver) can distinguish contract violations from
genuine bugs.  Each class name states the broken precondition; messages carry
the offending value.
"""

from __future__ import annotations


class IsoactError(Exception):
    """Base class for all errors raised deliberately by isoact."""


class ConstraintViolation(IsoactError):
    """A structural matrix or weight constraint does not hold."""


class BadGeneratorIndex(IsoactError):
    """A free-group letter refers to a generator outside 1..n."""


class GroupMismatch(IsoactError):
    """Two measures (or group values) live over incompatible groups."""


class VertexNotFound(IsoactError):
    """A vertex label is not present in the tree ball."""


class Unresolvable(IsoactError):
    """The finite window is too small to decide the requested limit."""


class SingularLattice(IsoactError):
    """A lattice generator matrix has zero determinant."""


class BallTooSmall(IsoactError):
    """The tree ball radius does not meet an operation's precondition."""


class NotZeroMean(IsoactError):
    """A boundary function required to integrate to zero does not."""


class SolveFailure(IsoactError):
    """A linear solve that should be nonsingular failed; internal error."""


class InvalidCoordinate(IsoactError):
    """A strip-space point lies outside its declared segment."""


class PreconditionViolation(IsoactError):
    """A sampled-function precondition (symmetry, base value) fails."""


class TruncationOverflow(IsoactError):
    """Requested truncation degrees exceed the supported desk scale."""


class PartitionOverflow(IsoactError):
    """A dyadic partition refinement exceeds the supported cell count."""


class IllConditionedPhi(IsoactError):
    """The half-sum block of a symplectic matrix is numerically singular."""


class ConfigError(IsoactError):
    """A suite configuration is invalid; the message names the key."""


class IoError(IsoactError):
    """Report emission failed at the file-system level."""
