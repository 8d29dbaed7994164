"""Fuzzed --coeffs strings against the minimize-poly command.

A valid job is a polynomial of degree 2 to 4 with int and p/q
coefficients and a nonzero leading one, over t = 1..n for n up to 30: it
must exit 0 with "match": true and an lp_minimum equal to the minimum over
1..n computed here. A malformed string (an empty field, a float, non-ASCII
digits, a zero denominator, too few coefficients) must exit 2 with an
`error:` line on stderr and nothing on stdout. Every call goes through
cli.main, so an exception that escapes it fails the test.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclift.cli import main


def _coefficients(numerators):
    """(text, value) of one coefficient: a bare int or a p/q, not always in
    lowest terms."""
    ints = numerators.map(lambda k: (str(k), Fraction(k)))
    ratios = st.tuples(numerators, st.integers(1, 12)).map(
        lambda pq: (f"{pq[0]}/{pq[1]}", Fraction(*pq))
    )
    return ints | ratios


_COEFF = _coefficients(st.integers(-60, 60))
_LEADING = _coefficients(st.integers(-60, -1) | st.integers(1, 60))


@st.composite
def valid_jobs(draw):
    """(coeffs text, n, brute-force minimum over t = 1..n)."""
    d = draw(st.integers(2, 4))
    coeffs = draw(st.lists(_COEFF, min_size=d, max_size=d))
    coeffs.append(draw(_LEADING))
    n = draw(st.integers(d + 1, 30))
    values = [c for _, c in coeffs]
    best = min(sum(c * t**k for k, c in enumerate(values)) for t in range(1, n + 1))
    return ",".join(text for text, _ in coeffs), n, best


# a field the parser must refuse: ASCII whitespace around a number is
# padding, but an ideographic space is not
_BAD_FIELD = st.sampled_from(
    ["", " ", "1.5", "-0.25", "1e3", "2/0", "1/-2", "1/", "/3", "--1", "\u0663", "\uff17", "1\u3000"]
)


@st.composite
def malformed_jobs(draw):
    """(coeffs text, n): a valid list with one field replaced by a bad one,
    or cut to fewer than three coefficients."""
    text, n, _ = draw(valid_jobs())
    fields = text.split(",")
    if draw(st.booleans()):
        fields = fields[: draw(st.integers(1, 2))]
    else:
        fields[draw(st.integers(0, len(fields) - 1))] = draw(_BAD_FIELD)
    return ",".join(fields), n


def _minimize_poly(coeffs, n):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["minimize-poly", f"--coeffs={coeffs}", "--n", str(n)])
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(valid_jobs())
def test_valid_coefficients_match_brute_force(job):
    coeffs, n, best = job
    rc, out, _ = _minimize_poly(coeffs, n)
    assert rc == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert Fraction(payload["lp_minimum"]) == best == Fraction(payload["minimum"])


@settings(max_examples=200, deadline=None)
@given(malformed_jobs())
def test_malformed_coefficients_are_usage_errors(job):
    coeffs, n = job
    rc, out, err = _minimize_poly(coeffs, n)
    assert rc == 2
    assert out == ""
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err
