"""Reading and writing exact rationals."""

from fractions import Fraction

import pytest

from isoact.errors import ConstraintViolation
from isoact.exact import parse_fraction


class TestFractionCodec:
    def test_parse_forms(self):
        assert parse_fraction("3/4") == Fraction(3, 4)
        assert parse_fraction("-7") == Fraction(-7)
        assert parse_fraction(5) == Fraction(5)

    def test_format_round_trip(self):
        for f in [Fraction(3, 4), Fraction(-2, 9), Fraction(11), Fraction(0)]:
            assert parse_fraction(str(f)) == f

    def test_parse_garbage(self):
        for value in ["one half", "1/0", "", "0.5", "1e-1", "1_0/5_0", 1.5, True, None, [1, 2]]:
            with pytest.raises(ConstraintViolation, match="expected an integer or a 'p/q' fraction"):
                parse_fraction(value)
