"""Exception hierarchy shared by every isoact module.

All failures raised on purpose by the library derive from :class:`IsoactError`,
so callers (and the CLI driver) can distinguish contract violations from
genuine bugs.  Two classes split them by what was wrong: a value given to an
operation, or a configuration key or option.  The message states the broken
precondition and carries the offending value; it alone tells two failures of
one class apart.
"""

from __future__ import annotations


class IsoactError(Exception):
    """Base class for all errors raised deliberately by isoact."""


class ConstraintViolation(IsoactError):
    """A value breaks a precondition of the operation it was given to."""


class ConfigError(IsoactError):
    """A config key or option is invalid; the message names it."""
