"""Formatting and parsing of exact rationals for the JSON/CSV interfaces.

Internally numbers are Python ints or fractions.Fraction; on the wire they
are strings: integers print bare ("6", "-5"), proper fractions print as
"p/q" with q > 0.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import DomainError


def format_rational(x) -> str:
    """Render an int or Fraction as "p" or "p/q"."""
    num, den = x.numerator, x.denominator
    if den == 1:
        return str(num)
    return f"{num}/{den}"


_RATIONAL = re.compile(r"-?\d+(?:/[1-9]\d*)?")


def parse_rational(text: str):
    """Inverse of format_rational. Returns an int when the denominator is 1."""
    if not isinstance(text, str):
        raise DomainError(f"not a rational: {text!r} is not a string")
    s = text.strip()
    if not _RATIONAL.fullmatch(s):
        raise DomainError(f"not a rational: {text!r}")
    if "/" in s:
        p, q = s.split("/")
        value = Fraction(int(p), int(q))
    else:
        value = Fraction(int(s))
    if value.denominator == 1:
        return int(value)
    return value


def scaled_ints(vec):
    """(integer list, positive denominator) with vec == ints / den exactly;
    den is the least common denominator of the ints and Fractions in vec."""
    den = 1
    for x in vec:
        d = x.denominator
        if d != 1:
            den = lcm(den, d)
    if den == 1:
        # the ints themselves, not equal copies: verify holds a whole
        # factorization this way, and fresh ints would double its memory
        return [x.numerator for x in vec], 1
    return [x.numerator * (den // x.denominator) for x in vec], den
