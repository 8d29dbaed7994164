"""Formatting and parsing of exact rationals for the JSON/CSV interfaces.

Internally numbers are Python ints or fractions.Fraction; on the wire they
are strings: integers print bare ("6", "-5"), proper fractions print as
"p/q" with q > 0.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError


def format_rational(x) -> str:
    """Render an int or Fraction as "p" or "p/q"."""
    num, den = x.numerator, x.denominator
    if den == 1:
        return str(num)
    return f"{num}/{den}"


# ASCII digits only: \d also matches other scripts' digits (Arabic-Indic,
# fullwidth), which int() reads as numbers
_RATIONAL = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")


def parse_rational(text: str):
    """Inverse of format_rational. Returns an int when the denominator is 1.

    An integer past the regex gate is returned by int() itself, with no
    Fraction built; a number longer than Python's int-conversion digit
    limit is a DomainError like any other malformed one. Only ASCII
    whitespace around the number is ignored: str.strip() with no argument
    would also drop Unicode spaces and the separators \\x1c-\\x1f.
    """
    if not isinstance(text, str):
        raise DomainError(f"not a rational: {text!r} is not a string")
    s = text.strip(" \t\n\r\f\v")
    if not _RATIONAL.fullmatch(s):
        raise DomainError(f"not a rational: {text!r}")
    try:
        if "/" not in s:
            return int(s)
        p, q = s.split("/")
        value = Fraction(int(p), int(q))
    except ValueError as exc:
        raise DomainError(f"not a rational: {exc}") from exc
    if value.denominator == 1:
        return int(value)
    return value


def scaled_ints(vec):
    """(integer list, positive denominator) with vec == ints / den exactly;
    den is the least common denominator of the ints and Fractions in vec.
    A vector of ints is returned as the same ints, in one pass."""
    den = 1
    plain = True
    for x in vec:
        if type(x) is not int:
            plain = False
            d = x.denominator
            if d != 1:
                den = lcm(den, d)
    # the ints themselves, not equal copies: verify holds a whole
    # factorization this way, and fresh ints would double its memory
    if plain:
        return list(vec), 1
    if den == 1:
        return [x.numerator for x in vec], 1
    return [x.numerator * (den // x.denominator) for x in vec], den


def reduce_rows(rows, width=None):
    """Fraction-free Gaussian elimination of integer rows, in order.

    Yields (pivot, residual) per row. The residual is a positive integer
    multiple of the row minus its combination of the rows kept before it,
    eliminated one kept row at a time by cross-multiplying with the two
    entries divided by their gcd. pivot is the first of the first `width`
    columns (every column when width is None) where the residual is
    nonzero; the row is then kept, and its residual, divided by its content
    and signed so the pivot is positive, joins the basis. pivot is None for
    a row that depends on the kept rows in those columns. Every entry stays
    an exact int.
    """
    basis = []  # (pivot column, pivot value, nonzero (column, value) pairs)
    for row in rows:
        for pc, p, support in basis:
            f = row[pc]
            if f:
                g = gcd(p, f)
                scale, f = p // g, f // g
                if scale != 1:
                    row = [x * scale for x in row]
                for j, v in support:
                    row[j] -= f * v
        limit = len(row) if width is None else width
        pivot = next((j for j in range(limit) if row[j]), None)
        if pivot is None:
            yield None, row
            continue
        g = gcd(*row)
        if row[pivot] < 0:
            g = -g
        if g != 1:
            row = [x // g for x in row]
        basis.append((pivot, row[pivot], [(j, v) for j, v in enumerate(row) if v]))
        yield pivot, row
