"""Reading exact rationals.

Every exact quantity in the package is a :class:`fractions.Fraction`; it
is read from ``"p/q"`` (or integer) input by :func:`parse_fraction` and
written back by ``str``, which gives the same form.  A Gaussian rational,
where one is needed, is a pair of Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConstraintViolation


def parse_fraction(value) -> Fraction:
    """An exact Fraction from an integer (not a bool) or a ``"p/q"`` string.

    Anything else, a string that is not a rational, and a zero
    denominator raise :class:`ConstraintViolation` naming the value.

    >>> parse_fraction("3/4")
    Fraction(3, 4)
    >>> parse_fraction(7)
    Fraction(7, 1)
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise ConstraintViolation(f"expected an integer or a 'p/q' fraction, got {value!r}")
