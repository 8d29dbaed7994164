"""Fuzzed factorization files against the verify command.

Each example takes a valid `factorize` file, applies one or two mutations
(drop, duplicate or retype a key or entry, nudge an entry by 1/den, nest a
value in a list, pad a value) and runs `cyclift verify` on it. The command must
exit 0, 1 or 2 without raising; on 2 it prints nothing to stdout and an
`error:` line to stderr; and it exits 0 exactly when the mutant, read as
JSON with duplicate keys resolved the way json.loads resolves them, is a
factorization that reference.first_mismatch accepts entry by entry.
"""

import copy
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclift.cli import main

from reference import first_mismatch, gale_subsets


class _Obj(list):
    """A JSON object as its [key, value] pairs in order, so a mutant can
    hold a key twice."""


def _dump(x) -> str:
    if isinstance(x, _Obj):
        return "{" + ", ".join(json.dumps(k) + ": " + _dump(v) for k, v in x) + "}"
    if isinstance(x, list):
        return "[" + ", ".join(map(_dump, x)) + "]"
    return json.dumps(x)


def _children(node):
    """(container, index, value) of each child of a JSON object or list."""
    if isinstance(node, _Obj):
        return [(node, i, v) for i, (_, v) in enumerate(node)]
    return [(node, i, v) for i, v in enumerate(node)]


def _set(container, index, value):
    if isinstance(container, _Obj):
        container[index] = [container[index][0], value]
    else:
        container[index] = value


def _retypes(value) -> list:
    """Replacements of another JSON type (or an odd value of the same one)."""
    return [None, False, 0, 7, -1, 2.5, "", "x", "7", [], _Obj(), json.dumps(value)]


# ASCII whitespace is padding; an ideographic space or \x1c is not
_PADS = [" ", "\t", "\n ", "\u3000", "\x1c"]


# the wire format: ASCII digits, an optional "/" and a denominator with no
# leading zero, padded only by ASCII whitespace
_ENTRY = re.compile(r"[ \t\n\r\f\v]*(-?[0-9]+(?:/[1-9][0-9]*)?)[ \t\n\r\f\v]*")


def _nudged(container, value, sign):
    """value moved by sign/den, den the common denominator of the entries
    of the vector holding it; an integer field moves by sign, and anything
    else stays as it is."""
    if type(value) is int:
        return value + sign
    if not isinstance(value, str) or not _ENTRY.fullmatch(value):
        return value
    entries = [_ENTRY.fullmatch(x) for x in container if isinstance(x, str)]
    den = lcm(*(Fraction(m.group(1)).denominator for m in entries if m))
    x = Fraction(_ENTRY.fullmatch(value).group(1)) + Fraction(sign, den)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@st.composite
def mutants(draw, text):
    """The document text with one or two mutations applied."""
    root = json.loads(text, object_pairs_hook=_Obj)
    for _ in range(draw(st.integers(1, 2))):
        _mutate(draw, root)
    return _dump(root)


def _mutate(draw, root):
    kind = draw(st.sampled_from(["drop", "duplicate", "retype", "nudge", "nest", "pad"]))
    # walk down from the root, stopping at each level with probability 1/2;
    # a nudge walks on to a leaf
    node = root
    while True:
        container, index, value = draw(st.sampled_from(_children(node)))
        leaf = not isinstance(value, list) or not value
        if leaf or (kind != "nudge" and draw(st.booleans())):
            break
        node = value
    if kind == "drop":
        del container[index]
    elif kind == "duplicate":
        container.insert(index, copy.deepcopy(container[index]))
    elif kind == "retype":
        _set(container, index, draw(st.sampled_from(_retypes(value))))
    elif kind == "nudge":
        _set(container, index, _nudged(container, value, draw(st.sampled_from([1, -1]))))
    elif kind == "nest":
        _set(container, index, [value])
    elif isinstance(value, str):
        pad = draw(st.sampled_from(_PADS))
        _set(container, index, pad + value if draw(st.booleans()) else value + pad)
    elif isinstance(value, _Obj):
        value.append(["pad", None])
    elif isinstance(value, list):
        value.append(copy.deepcopy(value[-1]))


def _facet_count(d, n):
    # the closed form of the cyclic polytope's facet count, d >= 2
    k = d // 2
    if d % 2:
        return 2 * comb(n - k - 1, k)
    return n * comb(n - k, k) // (n - k)


def _reference_accepts(text) -> bool:
    """Whether the document is a factorization of its target's slack matrix:
    integer fields are JSON integers, vectors JSON lists of wire-format
    strings, the shape and the column order are the target's, every entry
    is nonnegative and first_mismatch finds no differing entry."""
    data = json.loads(text)

    def integer(x):
        if type(x) is not int:
            raise TypeError(x)
        return x

    def vectors(x):
        if type(x) is not list:
            raise TypeError(x)
        out = []
        for vec in x:
            if type(vec) is not list:
                raise TypeError(vec)
            out.append([Fraction(_ENTRY.fullmatch(e).group(1)) for e in vec])
        return out

    try:
        target = data["target"]
        d, t1, t2 = integer(target["d"]), integer(target["t1"]), integer(target["t2"])
        rank = integer(data["rank"])
        alpha, beta = vectors(data["alpha"]), vectors(data["beta"])
        columns = data.get("columns")
    # an entry that is no string, or no match, raises TypeError or
    # AttributeError
    except (KeyError, TypeError, AttributeError):
        return False
    n = t2 - t1 + 1
    if d < 2 or n < d + 2 or len(alpha) != n or len(beta) != _facet_count(d, n):
        return False
    if any(len(vec) != rank or min(vec, default=0) < 0 for vec in alpha + beta):
        return False
    facets = gale_subsets(d, t1, t2)
    if columns is not None:
        if type(columns) is not list or any(type(c) is not list for c in columns):
            return False
        if any(type(m) is not int for c in columns for m in c):
            return False
        if columns != [list(S) for S in facets]:
            return False
    return first_mismatch(alpha, beta, d, t1, t2) is None


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Valid factorize files: the degree-2 construction at n = 9 and the
    tensor construction at n = 20, d = 3 (rank 18)."""
    out = {}
    for n, d in ((9, 2), (20, 3)):
        path = tmp_path_factory.mktemp("valid") / f"f{n}_{d}.json"
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(["factorize", "--n", str(n), "--d", str(d), "--out", str(path)]) == 0
        out[n, d] = path
    return out


def _verify(path):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["verify", str(path)])
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("shape", [(9, 2), (20, 3)])
def test_verify_on_mutated_files(valid_files, shape):
    path = valid_files[shape]
    text = path.read_text()
    mutant_path = path.with_name("mutant.json")
    assert _verify(path)[0] == 0 and _reference_accepts(text)

    @settings(max_examples=150, deadline=None)
    @given(mutants(text))
    def check(mutant):
        mutant_path.write_text(mutant)
        rc, out, err = _verify(mutant_path)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert out == ""
            assert any(line.startswith("error: ") for line in err.splitlines())
        assert (rc == 0) == _reference_accepts(mutant)

    check()
