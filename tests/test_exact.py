"""Reading and writing exact rationals."""

from fractions import Fraction

import pytest

from isoact.exact import format_fraction, parse_fraction


class TestFractionCodec:
    def test_parse_forms(self):
        assert parse_fraction("3/4") == Fraction(3, 4)
        assert parse_fraction("-7") == Fraction(-7)
        assert parse_fraction(5) == Fraction(5)

    def test_format_round_trip(self):
        for f in [Fraction(3, 4), Fraction(-2, 9), Fraction(11), Fraction(0)]:
            assert parse_fraction(format_fraction(f)) == f

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            parse_fraction("one half")
