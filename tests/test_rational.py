import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclift.errors import DomainError, InternalError
from cyclift.exact_lp import independent_equations
from cyclift.rational import format_rational, parse_rational, reduce_rows, scaled_ints

from reference import consistent, independent_rows


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
        # the wire format is ASCII: no other script's digits
        "٣", "３", "1/٢",
        # only ASCII whitespace pads a number: no Unicode space or separator
        "\u30007", "7\u2003", "\x1c7", "\xa07/2",
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
    least common denominator. Subclasses of int and Fraction are exact."""
    big = 10**30
    vec = (big, -3, 0)
    ints, den = scaled_ints(vec)
    assert (ints, den) == ([big, -3, 0], 1) and ints[0] is big
    ints, den = scaled_ints((True, Fraction(4, 2), 5))
    assert (ints, den) == ([1, 2, 5], 1)
    assert all(type(x) is int for x in ints)
    assert scaled_ints((Fraction(1, 2), -1, Fraction(2, 3))) == ([3, -6, 4], 6)
    assert scaled_ints(()) == ([], 1)

    class Num(int):
        pass

    class Ratio(Fraction):
        pass

    assert scaled_ints((Num(3), Ratio(1, 4))) == ([12, 1], 4)


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", None, Decimal(1)], ids=repr)
def test_scaled_ints_refuses_inexact_entries(bad):
    """Every number scaled is checked: an entry that is not an int or a
    Fraction is a DomainError naming it, wherever it sits in the vector."""
    for vec in ((bad,), (1, bad), (Fraction(1, 2), 3, bad, 4)):
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            scaled_ints(vec)


_ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))


@st.composite
def dependent_rows(draw, width):
    """Integer rows of this width, each either drawn afresh or an integer
    combination of the rows before it (zero rows included)."""
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        if rows and draw(st.booleans()):
            factors = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(f * row[j] for f, row in zip(factors, rows)) for j in range(width)])
        else:
            rows.append(draw(st.lists(_ENTRIES, min_size=width, max_size=width)))
    return rows


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(dependent_rows))
def test_reduce_rows_keeps_the_first_maximal_independent_rows(rows):
    """The rows reduce_rows keeps are reference.independent_rows'; every
    other row's residual is all zero, and a kept row's pivot is its first
    nonzero entry, positive."""
    kept = []
    for at, (pivot, residual) in enumerate(reduce_rows([list(row) for row in rows])):
        if pivot is None:
            assert not any(residual)
        else:
            kept.append(at)
            assert residual[pivot] > 0 and not any(residual[:pivot])
    assert kept == independent_rows([(row, 0) for row in rows])


@settings(deadline=None)
@given(st.integers(2, 5).flatmap(dependent_rows), st.data())
def test_reduce_rows_reports_a_contradictory_rhs(rows, data):
    """With width, a row that depends on the kept rows in the coefficient
    columns is reported with pivot None, also when its residual is 0 there
    but not in the rhs; independent_equations then refuses the system.
    Each row's last entry is its rhs, moved off the combination's at
    random."""
    width = len(rows[0]) - 1
    for row in rows:
        if data.draw(st.booleans()):
            row[-1] += data.draw(st.integers(1, 5))
    equations = [(row[:width], row[width]) for row in rows]
    contradictory = False
    kept = []
    for at, (pivot, residual) in enumerate(reduce_rows([list(row) for row in rows], width)):
        if pivot is not None:
            kept.append(at)
            continue
        assert not any(residual[:width])
        implied = consistent([equations[i] for i in kept] + [equations[at]])
        assert (residual[-1] == 0) == implied
        contradictory = contradictory or not implied
    assert kept == independent_rows(equations)
    if contradictory:
        with pytest.raises(InternalError, match="nonzero residual"):
            independent_equations(equations)
    else:
        assert independent_equations(equations) == tuple(kept)


def test_reduce_rows_zero_rows():
    """A row that is zero in the coefficient columns but not in the rhs is
    dependent with a nonzero residual; an all-zero row is dependent with an
    all-zero residual."""
    got = list(reduce_rows([[0, 0, 0], [1, 2, 3], [0, 0, 5], [2, 4, 6]], 2))
    assert got == [(None, [0, 0, 0]), (0, [1, 2, 3]), (None, [0, 0, 5]), (None, [0, 0, 0])]
    with pytest.raises(InternalError):
        independent_equations([((0, 0), 5)])
