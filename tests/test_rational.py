from fractions import Fraction

import pytest

from cyclift.errors import DomainError
from cyclift.rational import format_rational, parse_rational, scaled_ints


def test_format():
    assert format_rational(3) == "3"
    assert format_rational(-7) == "-7"
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-9, 4)) == "-9/4"
    assert format_rational(Fraction(6, 3)) == "2"


def test_parse():
    assert parse_rational("3") == 3
    assert parse_rational("-7") == -7
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-9/4") == Fraction(-9, 4)
    assert parse_rational("4/2") == 2
    assert isinstance(parse_rational("4/2"), int)


@pytest.mark.parametrize(
    "text, value",
    [("6", 6), ("-0", 0), ("007", 7), ("4/2", 2), ("1/3", Fraction(1, 3))],
)
def test_parse_types(text, value):
    parsed = parse_rational(text)
    assert (type(parsed), parsed) == (type(value), value)


def test_round_trip():
    for x in (0, 5, -3, Fraction(22, 7), Fraction(-1, 1000)):
        assert parse_rational(format_rational(x)) == x


@pytest.mark.parametrize(
    "bad",
    [
        "", "x", "1/0", "1/2/3", "1.5", "2 /3",
        "+5", "1_000", "0x10", "5/-2", "5/03",
        # beyond Python's default limit of 4300 digits for int(str)
        pytest.param("1" * 5000, id="5000 digits"),
        pytest.param("1/" + "1" * 5000, id="1/5000 digits"),
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(DomainError):
        parse_rational(bad)


def test_scaled_ints():
    """A vector of ints comes back as the same ints in a fresh list; a
    bool or a whole Fraction becomes its int, and Fractions share the
    least common denominator."""
    big = 10**30
    vec = (big, -3, 0)
    ints, den = scaled_ints(vec)
    assert (ints, den) == ([big, -3, 0], 1) and ints[0] is big
    ints, den = scaled_ints((True, Fraction(4, 2), 5))
    assert (ints, den) == ([1, 2, 5], 1)
    assert all(type(x) is int for x in ints)
    assert scaled_ints((Fraction(1, 2), -1, Fraction(2, 3))) == ([3, -6, 4], 6)
    assert scaled_ints(()) == ([], 1)
