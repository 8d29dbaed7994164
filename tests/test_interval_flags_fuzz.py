"""Fuzzed --n, --t1 and --t2 against the facets and slack commands.

Each flag is absent, a number written one of several ways int() reads
(ASCII, a plus sign, ASCII padding, Arabic-Indic, Devanagari or
fullwidth digits) or a field it refuses (empty, a sign alone, a float, hex,
a 5000-digit number). Endpoints run up to 10^60 with at most 40 points
between them, and --n alone is at most 40, so every instance that parses
stays small. A call exits 0 or 2 and never raises. A valid one prints
what the command prints on [1, n], moved by t1 - 1: facets and slack
entries do not change under a shift. Any other call prints nothing on
stdout and an error on stderr.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclift.cli import main

FLAGS = ("--n", "--t1", "--t2")
_SHAPES = [{"--n"}, {"--t1", "--t2"}, set(FLAGS)]


def _digits(zero):
    """Write an int with the ten digits from code point zero up."""
    table = str.maketrans("0123456789", "".join(chr(zero + k) for k in range(10)))
    return lambda v: str(v).translate(table)


# ways of writing a value that int() reads back as that value
_WRITE = (
    str,
    lambda v: f"+{v}" if v >= 0 else str(v),
    lambda v: f" {v}\t",
    _digits(0x0660),  # Arabic-Indic
    _digits(0x0966),  # Devanagari
    _digits(0xFF10),  # fullwidth
)

_BAD = ["", " ", "+", "-", "1.5", "1e3", "0x1f", "--3", "5-", "½", "٣.٥", "1 2"]
# past int()'s digit limit, where one is set: refused before it is read
if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
    _BAD += ["9" * 5000, "-" + "1" * 5000]


@st.composite
def interval_calls(draw):
    """(argv, {flag: value or None for a refused field})."""
    command = draw(st.sampled_from(("facets", "slack")))
    d = draw(st.integers(2, 4))
    fmt = draw(st.sampled_from(("csv", "json")))
    t1 = draw(st.integers(-60, 60) | st.integers(-(10**60), 10**60))
    count = draw(st.integers(-2, 40))
    # the three ways to name an interval, or any set of flags
    flags = draw(st.sampled_from(_SHAPES) | st.sets(st.sampled_from(FLAGS)))
    n = count  # --n alone: at most 40 points
    if flags & {"--t1", "--t2"} and not draw(st.integers(0, 2)):
        n = draw(st.integers(-3, 40) | st.integers(-(10**60), 10**60))
    values = {"--n": n, "--t1": t1, "--t2": t1 + count - 1}
    argv, parsed = [command, "--d", str(d), "--format", fmt], {}
    for flag in FLAGS:
        if flag not in flags:
            continue
        if draw(st.integers(0, 7)):
            argv.append(f"{flag}={draw(st.sampled_from(_WRITE))(values[flag])}")
            parsed[flag] = values[flag]
        else:
            argv.append(f"{flag}={draw(st.sampled_from(_BAD))}")
            parsed[flag] = None
    return argv, parsed


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refusing a field
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _interval(d, parsed):
    """(t1, t2) of a valid call, or None."""
    if None in parsed.values():
        return None
    n, t1, t2 = (parsed.get(flag) for flag in FLAGS)
    if (t1 is None) != (t2 is None):
        return None
    if t1 is None:
        if n is None:
            return None
        t1, t2 = 1, n
    if n is not None and n != t2 - t1 + 1:
        return None
    return (t1, t2) if t2 - t1 + 1 > d else None


def _shifted(command, fmt, d, t1, t2):
    """The stdout on [t1, t2], built from the stdout on [1, n]."""
    rc, out, _ = _call([command, "--d", str(d), "--format", fmt, "--n", str(t2 - t1 + 1)])
    assert rc == 0
    shift = t1 - 1
    if fmt == "json":
        payload = json.loads(out)
        payload["t1"], payload["t2"] = t1, t2
        key = "facets" if command == "facets" else "columns"
        payload[key] = [[m + shift for m in S] for S in payload[key]]
        return payload
    if command == "slack":
        return out
    return "".join(
        ",".join(str(int(m) + shift) for m in line.split(",")) + "\n"
        for line in out.splitlines()
    )


@settings(max_examples=300, deadline=None)
@given(interval_calls())
def test_interval_flags_exit_0_or_2(call):
    argv, parsed = call
    rc, out, err = _call(argv)
    assert "Traceback" not in err
    d, fmt = int(argv[2]), argv[4]
    interval = _interval(d, parsed)
    if interval is None:
        assert rc == 2 and out == ""
        assert "error:" in err
        return
    assert rc == 0
    expected = _shifted(argv[0], fmt, d, *interval)
    assert (json.loads(out) if fmt == "json" else out) == expected
