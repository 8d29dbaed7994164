import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest

import cyclift
import cyclift.cli
import cyclift.factorization
import cyclift.geometry
import cyclift.lifting
from cyclift.cli import main
from cyclift.lifting import EfOptimizer
from cyclift.exact_lp import ReoptimizingSolver
from cyclift.factorization import NonnegFactorization, verify
from cyclift.geometry import GaleSet, SlackMatrix, slack_matrix

from reference import first_mismatch, gale_subsets


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ----------------------------------------------------------------- facets


def test_facets_csv(capsys):
    rc, out, err = run(capsys, "facets", "--n", "5", "--d", "2")
    assert rc == 0
    assert out == "1,2\n1,5\n2,3\n3,4\n4,5\n"
    assert "5 facets" in err


def test_facets_json(capsys):
    rc, out, _ = run(capsys, "facets", "--n", "7", "--d", "3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 10 and payload["d"] == 3
    assert payload["facets"][0] == [1, 2, 3]


def test_facets_shifted_interval(capsys):
    rc, out, _ = run(capsys, "facets", "--t1", "-2", "--t2", "2", "--d", "2")
    assert rc == 0
    assert out.splitlines()[0] == "-2,-1"


def test_interval_flag_errors(capsys):
    assert run(capsys, "facets", "--d", "2")[0] == 2  # no interval at all
    assert run(capsys, "facets", "--t1", "1", "--d", "2")[0] == 2  # t1 without t2
    rc, _, err = run(capsys, "facets", "--n", "6", "--t1", "1", "--t2", "5", "--d", "2")
    assert rc == 2 and "disagrees" in err


def test_degenerate_polytope_is_usage_error(capsys):
    rc, _, err = run(capsys, "facets", "--n", "3", "--d", "3")
    assert rc == 2 and "error:" in err


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["facets", "--n", "5"])
    assert exc.value.code == 2


# ------------------------------------------------------------------ slack


def test_slack_csv(capsys):
    rc, out, err = run(capsys, "slack", "--n", "3", "--d", "2")
    assert rc == 0
    assert out == "0,0,2\n0,1,0\n2,0,0\n"
    assert "3 x 3" in err


def test_slack_json(capsys):
    rc, out, _ = run(capsys, "slack", "--n", "5", "--d", "2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["columns"][1] == [1, 5]
    assert payload["rows"][0] == [0, 0, 2, 6, 12]


# --------------------------------------------------- factorize and verify


def test_factorize_then_verify(capsys, tmp_path):
    path = tmp_path / "f.json"
    rc, out, err = run(capsys, "factorize", "--n", "9", "--d", "2", "--out", str(path))
    assert rc == 0 and out == ""
    assert "achieved: 7" in err and "verification: ok" in err

    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["rank"] == 7
    assert payload["first_mismatch"] is None


def test_verify_catches_tampering(capsys, tmp_path):
    path = tmp_path / "f.json"
    run(capsys, "factorize", "--n", "9", "--d", "2", "--out", str(path))
    data = json.loads(path.read_text())
    data["beta"][0][0] = "1000000"
    path.write_text(json.dumps(data))

    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    mismatch = payload["first_mismatch"]
    assert set(mismatch) == {"vertex", "facet", "expected", "got"}
    assert "FAILED" in err


def test_verify_flag_cross_check(capsys, tmp_path):
    path = tmp_path / "f.json"
    run(capsys, "factorize", "--n", "9", "--d", "2", "--out", str(path))
    rc, _, err = run(capsys, "verify", str(path), "--n", "8", "--d", "2")
    assert rc == 2 and "flags say" in err
    assert run(capsys, "verify", str(path), "--n", "9", "--d", "2")[0] == 0
    assert run(capsys, "verify", str(path), "--n", "9")[0] == 2  # n without d


def _arabic_indic(vectors):
    """Every whole-number entry in Arabic-Indic digits, which int() reads
    as the same number (a fraction stays ASCII)."""
    digits = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
    return [[x if "/" in x else x.translate(digits) for x in vec] for vec in vectors]


MALFORMED = {
    "rank is not a number": lambda data: data.update(rank="abc"),
    "target without d": lambda data: data["target"].pop("d"),
    "numbers are not strings": lambda data: data.update(
        alpha=[[int(x) for x in vec] for vec in data["alpha"]]
    ),
    # integer fields take JSON integers only: int() would truncate 7.9 to
    # rank 7 and read "7" as 7, and True would pass as 1
    "rank is a float": lambda data: data.update(rank=data["rank"] + 0.9),
    "rank is a string": lambda data: data.update(rank=str(data["rank"])),
    "rank is a boolean": lambda data: data.update(rank=True),
    "target d is a float": lambda data: data["target"].update(d=2.0),
    "target t1 is a string": lambda data: data["target"].update(t1="1"),
    "target t2 is a float": lambda data: data["target"].update(t2=9.0),
    "column member is a float": lambda data: data["columns"][0].__setitem__(
        0, float(data["columns"][0][0])
    ),
    "column member is a boolean": lambda data: data["columns"][0].__setitem__(
        0, True
    ),
    # vectors and columns are JSON lists only: a string or an object would
    # be read item by item, so "000" would pass as the vector (0, 0, 0)
    "alpha vectors are strings": lambda data: data.update(
        alpha=["0" * data["rank"]] * len(data["alpha"])
    ),
    "a beta vector is a string": lambda data: data["beta"].__setitem__(
        0, "0" * data["rank"]
    ),
    "alpha is an object": lambda data: data.update(alpha=dict(enumerate(data["alpha"]))),
    "columns is an object": lambda data: data.update(columns={}),
    "a column is a string": lambda data: data["columns"].__setitem__(0, "12"),
    # the wire format is ASCII: "٣" (Arabic-Indic three) is not "3"
    "entries in non-ASCII digits": lambda data: data.update(
        alpha=_arabic_indic(data["alpha"]), beta=_arabic_indic(data["beta"])
    ),
    # only ASCII whitespace pads an entry: U+3000 is not a space here
    "entry padded with an ideographic space": lambda data: data["alpha"][0].__setitem__(
        0, "\u3000" + data["alpha"][0][0]
    ),
}


@pytest.mark.parametrize("defect", list(MALFORMED))
def test_verify_malformed_json_is_usage_error(capsys, tmp_path, defect):
    path = tmp_path / "f.json"
    run(capsys, "factorize", "--n", "9", "--d", "2", "--out", str(path))
    data = json.loads(path.read_text())
    MALFORMED[defect](data)
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 2 and out == ""
    assert "error: malformed factorization JSON" in err


def test_verify_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert rc == 2 and "cannot load" in err


def test_verify_non_utf8_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_bytes(b"\xff\xfe")
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 2 and out == ""
    assert f"error: cannot load {path}:" in err


def test_verify_deeply_nested_file_is_usage_error(capsys, tmp_path):
    # json.loads raises RecursionError, not ValueError, on deep nesting
    path = tmp_path / "f.json"
    path.write_text("[" * 100000)
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 2 and out == ""
    assert f"error: cannot load {path}:" in err


@pytest.mark.parametrize(
    "target,message",
    [
        # 10^7 points: refused from the row count, with no facet enumerated
        ({"t2": 10**7}, "9x9, matrix has 10000000 rows"),
        # C(10^6, 5 * 10^5) would take seconds to compute; the rows differ
        ({"d": 10**6, "t2": 15 * 10**5}, "9x9, matrix has 1500000 rows"),
        ({"d": 3}, "9x9, matrix is 9x14"),
    ],
    ids=["t2=10^7", "d=10^6", "d=3"],
)
def test_verify_compares_shapes_before_building_the_matrix(
    capsys, monkeypatch, tmp_path, target, message
):
    path = tmp_path / "f.json"
    run(capsys, "factorize", "--n", "9", "--d", "2", "--out", str(path))
    data = json.loads(path.read_text())
    data["target"].update(target)
    path.write_text(json.dumps(data))

    def refuse(P):
        raise AssertionError("facets were enumerated")

    monkeypatch.setattr(cyclift.geometry, "enumerate_facets", refuse)
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 2 and out == ""
    assert f"error: factorization is {message}" in err


def test_verify_refuses_a_huge_claimed_facet_count_before_counting(
    capsys, monkeypatch, tmp_path
):
    # the rows match the claimed target, but its facet count has more than
    # 4300 digits, and math.comb would take seconds at a larger d
    path = tmp_path / "f.json"
    target = {"d": 20000, "t1": 1, "t2": 30000}
    path.write_text(json.dumps({"rank": 0, "alpha": [[]] * 30000, "beta": [], "target": target}))

    def refuse(P):
        raise AssertionError("facet_count was called")

    monkeypatch.setattr(cyclift.factorization, "facet_count", refuse)
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 2 and out == ""
    assert "error: factorization is 30000x0, matrix has at least 2^10000 columns" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("facets", "--n", "5", "--d", "2"),
        ("slack", "--n", "5", "--d", "2"),
        ("factorize", "--n", "9", "--d", "2"),
        ("ef", "--n", "9", "--d", "2"),
        ("minimize-poly", "--coeffs", "9,-6,1", "--n", "6"),
    ],
    ids=" ".join,
)
@pytest.mark.parametrize("target", ["missing parent", "directory"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv, target):
    out_path = tmp_path / "absent" / "x.json" if target == "missing parent" else tmp_path
    rc, out, err = run(capsys, *argv, "--out", str(out_path))
    assert rc == 2 and out == ""
    assert f"error: cannot write {out_path}:" in err


def test_factorize_report_table(capsys):
    rc, _, err = run(capsys, "factorize", "--n", "9", "--d", "4", "--report")
    assert rc == 0
    assert "guaranteed bound vs facet description at d=4" in err
    assert "even-dimension bound: 64" in err


def test_back_to_back_calls_leak_no_state(capsys):
    """main parses with one parser per process; a flag given to one call
    does not carry over to the next."""
    rc, reported, err = run(capsys, "factorize", "--n", "9", "--d", "4", "--report")
    assert rc == 0 and "guaranteed bound vs facet description" in err
    rc, plain, err = run(capsys, "factorize", "--n", "9", "--d", "4")
    assert rc == 0 and plain == reported
    assert "guaranteed bound vs facet description" not in err
    rc, checked, err = run(capsys, "ef", "--n", "17", "--d", "2", "--check", "2")
    assert rc == 0 and "check 1:" in err and "verification: ok" in err
    rc, out, err = run(capsys, "ef", "--n", "17", "--d", "2")
    assert rc == 0 and out == checked
    assert "check 0:" not in err and "verification" not in err
    assert cyclift.cli._parser() is cyclift.cli._parser()


def _count_calls(monkeypatch, names):
    """Wrap each named function in every cyclift module that binds it;
    returns {name: number of calls}."""
    calls = dict.fromkeys(names, 0)
    modules = (cyclift.geometry, cyclift.factorization, cyclift.lifting, cyclift.cli)
    for name in names:
        original = getattr(cyclift, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ("factorize", "--n", "9", "--d", "2"),
        ("factorize", "--n", "33", "--d", "3"),
        ("factorize", "--n", "10", "--d", "3"),
        ("factorize", "--n", "9", "--d", "4"),
        ("factorize", "--n", "9", "--d", "5"),
        ("factorize", "--n", "10", "--d", "6"),
        ("ef", "--n", "9", "--d", "3"),
        # structured (rank 20 < 27); on the trivial route minimize-poly
        # builds the convex-hull lift and verifies nothing
        ("minimize-poly", "--coeffs", "5,-7,0,1", "--n", "27"),
    ],
    ids=" ".join,
)
def test_each_command_verifies_once(capsys, monkeypatch, argv):
    calls = _count_calls(monkeypatch, ("verify",))
    assert run(capsys, *argv)[0] == 0
    assert calls == {"verify": 1}


def test_verify_command_verifies_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "f.json"
    run(capsys, "factorize", "--n", "17", "--d", "2", "--out", str(path))
    calls = _count_calls(monkeypatch, ("verify",))
    assert run(capsys, "verify", str(path))[0] == 0
    assert calls == {"verify": 1}


def _count_enumerations(monkeypatch):
    """Record the point count of each polytope whose facets are enumerated,
    by enumerate_facets or by the facet source it wraps, facets_with_pairs,
    which a slack matrix's columns and the tensor build read directly: one
    record per enumeration, none for the source's call inside
    enumerate_facets."""
    seen, inside = [], []

    def counting(original):
        def enumerate_counted(P):
            if not inside:
                seen.append(P.n)
            inside.append(P)
            try:
                return original(P)
            finally:
                inside.pop()

        return enumerate_counted

    for name in ("enumerate_facets", "facets_with_pairs"):
        original = getattr(cyclift.geometry, name)
        wrapper = counting(original)
        for module in (cyclift.geometry, cyclift.factorization, cyclift.lifting, cyclift.cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return seen


@pytest.mark.parametrize(
    "argv, enumerated",
    [
        # factorize_2d(32): the 4-point bottom of its fold chain, then its
        # own facets; verify's matrix takes the tensor build's labels
        pytest.param(("factorize", "--n", "33", "--d", "3"), [4, 32, 33], id="33 3"),
        # trivial: verify's matrix takes the labels of the one it is read off
        pytest.param(("factorize", "--n", "20", "--d", "4"), [20], id="20 4"),
    ],
)
def test_each_command_enumerates_its_facets_once(capsys, monkeypatch, argv, enumerated):
    seen = _count_enumerations(monkeypatch)
    assert run(capsys, *argv)[0] == 0
    assert seen == enumerated


@pytest.mark.parametrize(
    "argv",
    [
        ("minimize-poly", "--coeffs", "4,-9,5,-8,1", "--n", "37"),
        ("minimize-poly", "--coeffs=-5,8,1,-7,2,9,-3", "--n", "17"),
    ],
    ids=" ".join,
)
def test_trivial_route_minimize_poly_builds_no_facets(capsys, monkeypatch, argv):
    names = ("enumerate_facets", "slack_matrix", "factorize", "verify")
    calls = _count_calls(monkeypatch, names)
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and json.loads(out)["match"] is True
    assert calls == dict.fromkeys(names, 0)


def _count_slack_entries(monkeypatch):
    """Record each time a slack matrix computes its entries."""
    builds = []
    original = SlackMatrix.__dict__["entries"].func

    def counting(M):
        builds.append(M.polytope)
        return original(M)

    prop = cached_property(counting)
    prop.__set_name__(SlackMatrix, "entries")
    monkeypatch.setattr(SlackMatrix, "entries", prop)
    return builds


def test_verification_builds_no_slack_entries(capsys, monkeypatch, tmp_path):
    path = tmp_path / "f.json"
    builds = _count_slack_entries(monkeypatch)
    assert run(capsys, "factorize", "--n", "513", "--d", "2", "--out", str(path))[0] == 0
    assert run(capsys, "verify", str(path))[0] == 0
    assert builds == []


@pytest.mark.parametrize(
    "argv",
    [("factorize", "--n", "20", "--d", "4"), ("ef", "--n", "9", "--d", "3")],
    ids=" ".join,
)
def test_trivial_path_builds_slack_entries_once(capsys, monkeypatch, argv):
    builds = _count_slack_entries(monkeypatch)
    assert run(capsys, *argv)[0] == 0
    assert len(builds) == 1


def test_factorize_2d_output_is_gated(capsys, monkeypatch):
    # the degree-2 closed form is not self-verified; the command's own
    # verification must catch a wrong beta entry
    original = cyclift.factorization.factorize_2d

    def perturbed(n):
        F = original(n)
        first = (F.beta[0][0] + 1,) + F.beta[0][1:]
        return replace(F, beta=(first,) + F.beta[1:])

    monkeypatch.setattr(cyclift.factorization, "factorize_2d", perturbed)
    rc, _, err = run(capsys, "factorize", "--n", "9", "--d", "2")
    assert rc == 1 and "verification: FAILED" in err


def _one_entry_edited(F, side):
    """F with 1 added to entry 0 of its second alpha or beta vector, through
    dataclasses.replace, after F's integer form has been read."""
    F.int_vectors()
    vectors = list(getattr(F, side))
    vectors[1] = (vectors[1][0] + 1,) + vectors[1][1:]
    return replace(F, **{side: tuple(vectors)})


def _entry_scan(G, side):
    """The oracle's first mismatch of G, which must be in the edited row
    (alpha) or column (beta)."""
    P = G.target
    found = first_mismatch(G.alpha, G.beta, P.d, 1, P.n)
    i, S, _, _ = found
    if side == "alpha":
        assert i == 2
    else:
        assert S == gale_subsets(P.d, 1, P.n)[1]
    return found


# (module attribute patched, factorize argv): the degree-2 construction, the
# tensor construction and the trivial route
EDITED_BUILDS = {
    "2d": ("factorize_2d", ("--n", "9", "--d", "2")),
    "tensor": ("factorize_odd", ("--n", "20", "--d", "3")),
    "trivial": ("trivial_factorization", ("--n", "9", "--d", "3")),
}


@pytest.mark.parametrize("side", ["alpha", "beta"])
@pytest.mark.parametrize("build", list(EDITED_BUILDS))
def test_an_edited_construction_is_gated(capsys, monkeypatch, build, side):
    name, argv = EDITED_BUILDS[build]
    original = getattr(cyclift.factorization, name)
    edited = []

    def perturbed(*args):
        edited.append(_one_entry_edited(original(*args), side))
        return edited[-1]

    monkeypatch.setattr(cyclift.factorization, name, perturbed)
    rc, _, err = run(capsys, "factorize", *argv)
    i, S, expected, got = _entry_scan(edited[0], side)
    assert rc == 1
    assert f"verification: FAILED at {(i, GaleSet(S), expected, got)}" in err


@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_an_edited_read_factorization_is_gated(capsys, tmp_path, side):
    path = tmp_path / "f.json"
    assert run(capsys, "factorize", "--n", "9", "--d", "2", "--out", str(path))[0] == 0
    F = NonnegFactorization.from_json_dict(json.loads(path.read_text()))
    G = _one_entry_edited(F, side)
    path.write_text(G.to_json_text())
    rc, out, _ = run(capsys, "verify", str(path))
    i, S, expected, got = _entry_scan(G, side)
    assert verify(slack_matrix(G.target), G).first_mismatch == (i, GaleSet(S), expected, got)
    assert rc == 1
    assert json.loads(out)["first_mismatch"] == {
        "vertex": i,
        "facet": list(S),
        "expected": str(expected),
        "got": str(got),
    }


# --------------------------------------------------------------------- ef


def test_ef_text_deterministic(capsys):
    rc, first, _ = run(capsys, "ef", "--n", "17", "--d", "2")
    assert rc == 0
    rc, second, _ = run(capsys, "ef", "--n", "17", "--d", "2")
    assert rc == 0 and first == second
    assert first.startswith("target: degree 2 cyclic polytope on [1, 17]")


def test_ef_json(capsys):
    rc, out, _ = run(capsys, "ef", "--n", "10", "--d", "2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["inequalities"]) == 7
    assert payload["witnesses"]["1"] == ["1", "1", "5", "25"]


def test_ef_check_passes(capsys):
    rc, _, err = run(capsys, "ef", "--n", "33", "--d", "2", "--check", "5", "--seed", "3")
    assert rc == 0
    assert err.count("ok") >= 5 and "MISMATCH" not in err


def test_ef_negative_check_is_refused_before_building(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, ("enumerate_facets", "factorize"))
    rc, out, err = run(capsys, "ef", "--n", "9", "--d", "3", "--check", "-3")
    assert rc == 2 and out == ""
    assert "--check" in err and "verification" not in err
    assert calls == {"enumerate_facets": 0, "factorize": 0}


def test_ef_higher_dimension(capsys):
    rc, out, _ = run(capsys, "ef", "--n", "6", "--d", "3", "--format", "json")
    assert rc == 0
    # trivial lift: one inequality per vertex
    assert len(json.loads(out)["inequalities"]) == 6


# ----------------------------------------------------------- minimize-poly


def test_minimize_poly_square(capsys):
    rc, out, _ = run(capsys, "minimize-poly", "--coeffs", "9,-6,1", "--n", "6")
    assert rc == 0
    payload = json.loads(out)
    assert payload["minimum"] == "0" and payload["argmin"] == [3]
    assert payload["lp_minimum"] == "0" and payload["match"] is True


def test_minimize_poly_cubic(capsys):
    rc, out, _ = run(capsys, "minimize-poly", "--coeffs", "0,0,0,-1", "--n", "4")
    assert rc == 0
    payload = json.loads(out)
    assert payload["minimum"] == "-64" and payload["argmin"] == [4]


def test_minimize_poly_two_minima(capsys):
    rc, out, _ = run(
        capsys, "minimize-poly", "--coeffs", "196,-252,109,-18,1", "--n", "8"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["minimum"] == "0" and payload["argmin"] == [2, 7]


def test_minimize_poly_rational_coeffs(capsys):
    rc, out, _ = run(capsys, "minimize-poly", "--coeffs", "1/2,-3,1", "--n", "5")
    assert rc == 0
    payload = json.loads(out)
    assert payload["minimum"] == "-3/2" and payload["argmin"] == [1, 2]


def test_minimize_poly_usage_errors(capsys):
    assert run(capsys, "minimize-poly", "--coeffs", "1,2", "--n", "5")[0] == 2
    assert run(capsys, "minimize-poly", "--coeffs", "1,2,3", "--n", "2")[0] == 2
    assert run(capsys, "minimize-poly", "--coeffs", "1,x,3", "--n", "5")[0] == 2
    rc, _, err = run(capsys, "minimize-poly", "--coeffs", "1,2," + "7" * 5000, "--n", "5")
    assert rc == 2 and err.startswith("error:")


# the (d, n) grid of the benchmark's minpoly_mix workload (two sizes per
# degree up to the acceptance caps), each with a polynomial seeded by
# (d, n) and its negation, and the sha256 of the 20 stdouts in that order
MINPOLY_GRID = ((2, 52), (2, 151), (3, 27), (3, 76), (4, 15), (4, 37), (5, 11), (5, 24),
                (6, 10), (6, 17))
MINPOLY_GRID_DIGEST = "9739bb9633bfec4e7f31fd49d44039b42cdd0a4a33b4684d6dc4224531954a88"


def refuse_duals(monkeypatch):
    """Make every build of an inequality or an equation dual raise."""

    def refuse(*args):
        raise AssertionError("a value query built a dual")

    monkeypatch.setattr(ReoptimizingSolver, "_inequality_duals", refuse)
    monkeypatch.setattr(ReoptimizingSolver, "_equation_duals", refuse)


def test_minimize_poly_builds_no_dual(capsys, monkeypatch):
    """minimize-poly reads the lifted LP's value only: with every dual
    build refused it prints the same bytes at every size of the grid."""
    refuse_duals(monkeypatch)
    h = hashlib.sha256()
    for d, n in MINPOLY_GRID:
        rng = random.Random(f"{d}/{n}")
        coeffs = [rng.randint(-9, 9) for _ in range(d)]
        coeffs.append(rng.choice((-1, 1)) * rng.randint(1, 9))
        for cs in (coeffs, [-c for c in coeffs]):
            rc, out, _ = run(
                capsys, "minimize-poly", "--coeffs=" + ",".join(map(str, cs)), "--n", str(n)
            )
            assert rc == 0 and json.loads(out)["match"] is True
            h.update(out.encode())
    assert h.hexdigest() == MINPOLY_GRID_DIGEST


def _lifts(monkeypatch):
    """Record (target degree, size) of each lift an optimizer is built over."""
    lifts = []

    class Recording(EfOptimizer):
        def __init__(self, ef):
            lifts.append((ef.target.d, ef.size))
            super().__init__(ef)

    monkeypatch.setattr(cyclift.cli, "EfOptimizer", Recording)
    return lifts


# the stdout of the degree-2 polynomial 5 - 3t + t^2 written with two
# trailing zero coefficients: "degree" is the count of coefficients less one
TRAILING_ZEROS_STDOUT = (
    '{\n  "n": 6,\n  "degree": 4,\n  "coefficients": [\n    "5",\n    "-3",\n'
    '    "1",\n    "0",\n    "0"\n  ],\n  "minimum": "3",\n  "argmin": [\n    1,\n'
    '    2\n  ],\n  "lp_minimum": "3",\n  "match": true\n}\n'
)


@pytest.mark.parametrize(
    "coeffs, n, lifted",
    [
        ("5,-3,1,0,0", 6, (2, 6)),
        ("0,0,0", 5, (2, 5)),
        ("0,0,0,0,0", 9, (2, 7)),
        # structured at degree 3 (rank 20), trivial at degree 5
        ("5,-7,0,1,0,0", 27, (3, 20)),
        ("5,-7,0,1,0", 9, (3, 9)),
        ("1,0,0,0,-2,0,0", 20, (4, 20)),
    ],
)
def test_minimize_poly_lifts_at_the_true_degree(capsys, monkeypatch, coeffs, n, lifted):
    """The lift, and the choice between the hull and the structured one,
    are at the degree of the polynomial, at least 2, not at the count of
    coefficients less one; the printed bytes do not change."""
    lifts = _lifts(monkeypatch)
    rc, out, _ = run(capsys, "minimize-poly", "--coeffs", coeffs, "--n", str(n))
    assert rc == 0 and json.loads(out)["match"] is True
    assert lifts == [lifted]
    if coeffs == "5,-3,1,0,0":
        assert out == TRAILING_ZEROS_STDOUT


@pytest.mark.parametrize("n", [27, 76])
def test_structured_minimize_poly_lifts_from_degree_2(capsys, monkeypatch, n):
    """At degree 3 on the structured route, minimize-poly enumerates the
    facets of degree-2 polytopes only, builds no degree-3 factorization
    and verifies once, a degree-2 factorization."""
    enumerated, verified = [], []
    enumerate_facets, check = cyclift.geometry.enumerate_facets, cyclift.factorization.verify

    def counting_enumeration(P):
        enumerated.append(P.d)
        return enumerate_facets(P)

    def counting_verify(M, F):
        verified.append(M.polytope.d)
        return check(M, F)

    def refuse(*args):
        raise AssertionError("built a degree-3 factorization")

    for module in (cyclift.geometry, cyclift.factorization, cyclift.lifting, cyclift.cli):
        if getattr(module, "enumerate_facets", None) is enumerate_facets:
            monkeypatch.setattr(module, "enumerate_facets", counting_enumeration)
        if getattr(module, "verify", None) is check:
            monkeypatch.setattr(module, "verify", counting_verify)
    for name in ("factorize", "factorize_odd", "_tensor_factorization", "trivial_factorization"):
        monkeypatch.setattr(cyclift.factorization, name, refuse)
    rc, out, _ = run(capsys, "minimize-poly", "--coeffs", "5,-7,0,1", "--n", str(n))
    assert rc == 0 and json.loads(out)["match"] is True
    assert verified == [2]
    assert enumerated and set(enumerated) == {2}


def test_minimize_poly_coefficients_take_ascii_padding_only(capsys):
    rc, out, _ = run(capsys, "minimize-poly", "--coeffs", "9, -6, 1", "--n", "6")
    assert rc == 0 and json.loads(out)["argmin"] == [3]
    rc, out, err = run(capsys, "minimize-poly", "--coeffs", "\u30001,2,3", "--n", "5")
    assert rc == 2 and out == "" and "error: not a rational" in err


# ---------------------------------------------------------------- package


def test_public_names_resolve():
    assert [name for name in cyclift.__all__ if not hasattr(cyclift, name)] == []


# ------------------------------------------------------------- subprocess


def test_module_entry_point(tmp_path):
    # the child imports the same cyclift as this process, installed or not
    src = str(Path(cyclift.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "cyclift", "facets", "--n", "5", "--d", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,2\n1,5\n2,3\n3,4\n4,5\n"
