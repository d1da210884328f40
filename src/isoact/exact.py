"""Reading and writing exact rationals.

Every exact quantity in the package is a :class:`fractions.Fraction`; it
is read from ``"p/q"`` (or integer) input and written back in the same
form.  A Gaussian rational, where one is needed, is a pair of Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


def parse_fraction(text: Union[str, int]) -> Fraction:
    """Parse "p/q" or integer strings into an exact Fraction.

    >>> parse_fraction("3/4")
    Fraction(3, 4)
    >>> parse_fraction(7)
    Fraction(7, 1)
    """
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(text.strip())


def format_fraction(value: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" when the denominator is 1)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
