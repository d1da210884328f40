"""Reading exact rationals.

Every exact quantity in the package is a :class:`fractions.Fraction`; it
is read from ``"p/q"`` (or integer) input by :func:`parse_fraction` and
written back by ``str``, which gives the same form.  A Gaussian rational,
where one is needed, is a pair of Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ConstraintViolation

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_fraction(value) -> Fraction:
    """An exact Fraction from an integer (not a bool) or a ``"p/q"`` string.

    A string is an optionally signed run of ASCII digits, optionally
    followed by ``/`` and a second run.  Anything else (decimal and
    exponent forms, digit separators included) and a zero denominator
    raise :class:`ConstraintViolation` naming the value.

    >>> parse_fraction("3/4")
    Fraction(3, 4)
    >>> parse_fraction(7)
    Fraction(7, 1)
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value.strip()):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            pass
    raise ConstraintViolation(f"expected an integer or a 'p/q' fraction, got {value!r}")
