import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclift.errors import DomainError
from cyclift.geometry import (
    CyclicPolytope,
    GaleSet,
    Interval,
    enumerate_facets,
    facet_count,
    facet_inequality,
    facet_pairs,
    facets_with_pairs,
    format_linear,
    is_gale,
    slack_matrix,
    vertex,
)

from reference import gale_ok, gale_subsets, slack_product


def P(d, t1, t2):
    return CyclicPolytope(d, Interval(t1, t2))


# ---------------------------------------------------------------- vertices


def test_vertex_values():
    assert vertex(P(2, 1, 5), 3) == (3, 9)
    assert vertex(P(3, 1, 6), 2) == (2, 4, 8)
    assert vertex(P(2, -2, 2), -2) == (-2, 4)


def test_vertex_outside_interval():
    with pytest.raises(DomainError):
        vertex(P(2, 1, 5), 6)
    with pytest.raises(DomainError):
        vertex(P(2, 1, 5), 0)


def test_polytope_validation():
    with pytest.raises(DomainError):
        P(2, 1, 2)  # n = 2 <= d
    with pytest.raises(DomainError):
        P(1, 1, 5)  # dimension too small
    with pytest.raises(DomainError):
        Interval(5, 1)
    assert CyclicPolytope.standard(3, 7) == P(3, 1, 7)
    assert P(2, 4, 9).n == 6


def test_gale_set_validation():
    with pytest.raises(DomainError):
        GaleSet((3, 2))
    with pytest.raises(DomainError):
        GaleSet((2, 2))
    S = GaleSet((2, 5, 7))
    assert len(S) == 3 and 5 in S and 4 not in S


# ------------------------------------------------------------- gale checks


def test_is_gale_known_cases():
    p = P(2, 1, 5)
    assert is_gale(GaleSet((2, 3)), p)
    assert not is_gale(GaleSet((1, 3)), p)  # gap [2, 4] holds one member
    assert is_gale(GaleSet((1, 5)), p)


def test_is_gale_rejects_bad_input():
    p = P(3, 1, 6)
    with pytest.raises(DomainError):
        is_gale(GaleSet((1, 2)), p)  # wrong cardinality
    with pytest.raises(DomainError):
        is_gale((1, 2, 9), p)  # outside the interval
    with pytest.raises(DomainError):
        is_gale((1, 2, 2), p)


@pytest.mark.parametrize(
    "d,t1,t2",
    [(2, 1, 6), (2, -2, 3), (3, 1, 7), (3, 0, 6), (4, 1, 8), (5, 1, 9), (6, 1, 9)],
)
def test_is_gale_matches_definition(d, t1, t2):
    from itertools import combinations

    p = P(d, t1, t2)
    for S in combinations(range(t1, t2 + 1), d):
        assert is_gale(S, p) == gale_ok(S, t1, t2), S


# -------------------------------------------------------------- enumeration


def test_enumerate_facets_d2_n5():
    got = [S.members for S in enumerate_facets(P(2, 1, 5))]
    assert got == [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]


def test_enumerate_facets_d3_n6():
    facets = enumerate_facets(P(3, 1, 6))
    assert len(facets) == 8
    assert all(1 in S or 6 in S for S in facets)


def test_enumerate_facets_d4_n6():
    assert len(enumerate_facets(P(4, 1, 6))) == 9


@pytest.mark.parametrize(
    "d,t1,t2",
    [(2, 1, 8), (2, 3, 9), (3, 1, 7), (3, -3, 4), (4, 1, 9), (5, 1, 10), (6, 1, 10)],
)
def test_enumeration_equals_subset_filter(d, t1, t2):
    got = [S.members for S in enumerate_facets(P(d, t1, t2))]
    assert got == gale_subsets(d, t1, t2)


def test_d2_facet_structure():
    # consecutive pairs plus the endpoint pair, n of them in total
    for t1, t2 in ((1, 7), (-3, 2)):
        expected = sorted(
            [(i, i + 1) for i in range(t1, t2)] + [(t1, t2)]
        )
        assert [S.members for S in enumerate_facets(P(2, t1, t2))] == expected


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_facet_count_closed_form(d):
    for n in range(d + 1, d + 9):
        p = P(d, 1, n)
        assert facet_count(p) == len(enumerate_facets(p))


def test_facet_count_frozen_values():
    assert facet_count(P(2, 1, 5)) == 5
    assert facet_count(P(3, 1, 6)) == 8
    assert facet_count(P(4, 1, 6)) == 9
    assert facet_count(P(4, 1, 8)) == 20
    assert facet_count(P(5, 1, 9)) == 30
    assert facet_count(P(6, 1, 7)) == 7
    assert facet_count(P(7, 1, 8)) == 8


# ------------------------------------------------------------ slack values


def test_slack_matrix_small():
    M = slack_matrix(P(2, 1, 3))
    assert [S.members for S in M.columns] == [(1, 2), (1, 3), (2, 3)]
    assert M.entries[0] == (0, 0, 2)
    assert M.entries[1] == (0, 1, 0)
    assert M.entries[2] == (2, 0, 0)
    assert M.to_csv() == "0,0,2\n0,1,0\n2,0,0\n"


def test_slack_matrix_zero_pattern():
    M = slack_matrix(P(2, 1, 5))
    for ri, i in enumerate(range(1, 6)):
        for ci, S in enumerate(M.columns):
            entry = M.entries[ri][ci]
            assert entry == slack_product(i, S.members)
            assert (entry == 0) == (i in S)


def test_slack_matrix_translation_invariance():
    base = slack_matrix(P(2, 1, 5)).entries
    assert slack_matrix(P(2, 3, 7)).entries == base
    assert slack_matrix(P(2, -2, 2)).entries == base
    assert (
        slack_matrix(P(4, 2, 9)).entries == slack_matrix(P(4, 1, 8)).entries
    )


def test_slack_matrix_json_shape():
    d = slack_matrix(P(2, 1, 3)).to_json_dict()
    assert d == {
        "d": 2,
        "t1": 1,
        "t2": 3,
        "columns": [[1, 2], [1, 3], [2, 3]],
        "rows": [[0, 0, 2], [0, 1, 0], [2, 0, 0]],
    }


# ------------------------------------------------------- facet inequalities


def test_facet_inequality_examples():
    f = facet_inequality(P(2, 1, 5), GaleSet((2, 3)))
    assert (f.a, f.b) == ((5, -1), 6)
    assert f.slack((5, 25)) == 6

    f = facet_inequality(P(2, 1, 5), GaleSet((1, 5)))
    assert (f.a, f.b) == ((-6, 1), -5)
    assert f.slack((3, 9)) == 4


def _random_intervals(seed, per_d):
    """(d, t1, t2) for d = 2..8: per_d seeded intervals each, t1 in
    [-20, 20] and d + 1 to d + 8 points, the first with t1 < 0."""
    rng = random.Random(seed)
    out = []
    for d in range(2, 9):
        for k in range(per_d):
            t1 = rng.randint(-20, -1 if k == 0 else 20)
            out.append((d, t1, t1 + rng.randint(d, d + 7)))
    return out


@pytest.mark.parametrize(
    "d,t1,t2",
    [(2, 1, 6), (3, 1, 7), (3, 0, 5), (4, 1, 8), (5, 1, 9)] + _random_intervals(19, 3),
)
def test_facet_inequality_reproduces_slack(d, t1, t2):
    """The pair form's slack at every vertex is reference.slack_product, as
    ints, for every facet."""
    p = P(d, t1, t2)
    for S in enumerate_facets(p):
        f = facet_inequality(p, S)
        assert all(type(x) is int for x in f.a + (f.b,))
        for i in range(t1, t2 + 1):
            s = f.slack(vertex(p, i))
            assert s == slack_product(i, S.members)
            assert s >= 0
            assert (s == 0) == (i in S)


def test_facet_inequality_rejects_non_facet():
    with pytest.raises(DomainError):
        facet_inequality(P(2, 1, 5), GaleSet((1, 3)))


@pytest.mark.parametrize("taken", [False, True], ids=["enumerated", "taken from labels"])
@pytest.mark.parametrize(
    "d,t1,t2", [(2, 1, 6), (3, 1, 7), (4, -3, 5), (5, 1, 9), (6, -2, 8)] + _random_intervals(23, 1)
)
def test_both_column_routes_give_the_facet_inequalities(d, t1, t2, taken):
    """A slack matrix's polynomials, read as inequalities
    <-poly[1:], x> <= poly[0], are facet_inequality's, whether its columns
    were enumerated or taken from labels, and each polynomial's value at
    every vertex is the slack there."""
    p = P(d, t1, t2)
    facets = enumerate_facets(p)
    M = slack_matrix(p)
    if taken:
        assert M.take_columns(facets)
    assert M.columns == facets
    assert len(M.polynomials) == len(facets)
    for S, poly in zip(facets, M.polynomials):
        f = facet_inequality(p, S)
        assert (f.a, f.b) == (tuple(-c for c in poly[1:]), poly[0])
        assert len(poly) == d + 1 and all(type(c) is int for c in poly)
        for i in range(t1, t2 + 1):
            s = slack_product(i, S.members)
            assert f.slack(vertex(p, i)) == s
            assert sum(c * i**k for k, c in enumerate(poly)) == s


# ----------------------------------------------------------- pair partition


def test_facet_pairs_examples():
    p = P(4, 1, 8)
    assert facet_pairs(GaleSet((2, 3, 5, 6)), p) == (None, ((2, 3), (5, 6)))
    assert facet_pairs(GaleSet((1, 2, 3, 8)), p) == (None, ((1, 8), (2, 3)))
    assert facet_pairs(GaleSet((1, 2, 7, 8)), p) == (None, ((1, 2), (7, 8)))
    # odd d: the endpoint goes first, the pairs lie on the interval it leaves
    p = P(5, 1, 8)
    assert facet_pairs(GaleSet((1, 2, 3, 5, 6)), p) == (1, ((2, 3), (5, 6)))
    assert facet_pairs(GaleSet((1, 2, 4, 5, 8)), p) == (1, ((2, 8), (4, 5)))
    assert facet_pairs(GaleSet((1, 3, 4, 7, 8)), p) == (1, ((3, 4), (7, 8)))
    assert facet_pairs(GaleSet((2, 3, 5, 6, 8)), p) == (8, ((2, 3), (5, 6)))
    assert facet_pairs((7, 1, 2, 3, 8), p) == (1, ((2, 3), (7, 8)))


@pytest.mark.parametrize(
    "d,n", [(2, 7), (3, 7), (4, 8), (4, 10), (5, 9), (6, 9), (6, 11), (7, 10)]
)
def test_facet_pairs_properties(d, n):
    p = P(d, 1, n)
    for S in enumerate_facets(p):
        endpoint, pairs = facet_pairs(S, p)
        assert len(pairs) == d // 2
        t1, t2 = 1, n
        if d % 2:
            assert endpoint == (1 if 1 in S else n)
            t1, t2 = (2, n) if endpoint == 1 else (1, n - 1)
        else:
            assert endpoint is None
        flat = sorted(m for g in pairs for m in g)
        assert flat == sorted(set(S.members) - {endpoint})
        for a, b in pairs:
            assert (a, b) == (t1, t2) or b == a + 1
            assert is_gale((a, b), P(2, t1, t2))


# ------------------------------------------------ random-interval properties


@st.composite
def polytopes(draw):
    d = draw(st.integers(2, 8))
    t1 = draw(st.integers(-20, 20))
    n = draw(st.integers(d + 1, d + 8))
    return P(d, t1, t1 + n - 1)


@settings(deadline=None)
@given(polytopes())
def test_enumeration_and_count_match_subset_filter(p):
    got = [S.members for S in enumerate_facets(p)]
    assert got == gale_subsets(p.d, p.interval.t1, p.interval.t2)
    assert facet_count(p) == len(got)


@settings(deadline=None)
@given(polytopes(), st.data())
def test_is_gale_matches_definition_on_random_subsets(p, data):
    t1, t2 = p.interval.t1, p.interval.t2
    S = data.draw(
        st.lists(st.integers(t1, t2), min_size=p.d, max_size=p.d, unique=True)
    )
    assert is_gale(S, p) == gale_ok(S, t1, t2)


def _check_facet_pairs(S, p):
    """facet_pairs(S, p) against the Gale definition (reference.gale_ok)."""
    t1, t2 = p.interval.t1, p.interval.t2
    endpoint, pairs = facet_pairs(S, p)
    if p.d % 2:
        # a facet that holds t1 is t1 plus a facet of [t1 + 1, t2]; any
        # other holds t2 and is a facet of [t1, t2 - 1] plus t2
        assert endpoint == (t1 if t1 in S else t2)
        if endpoint == t1:
            t1 += 1
        else:
            t2 -= 1
    else:
        assert endpoint is None
    rest = [m for m in S if m != endpoint]
    assert sorted(m for g in pairs for m in g) == rest
    assert gale_ok(rest, t1, t2)
    assert all(gale_ok(g, t1, t2) for g in pairs)
    run_at_t1 = next(k for k in range(p.d + 1) if t1 + k not in rest)
    if run_at_t1 % 2:
        assert pairs[0] == (t1, t2)
        pairs = pairs[1:]
    assert all(b == a + 1 for a, b in pairs)
    assert all(x[1] < y[0] for x, y in zip(pairs, pairs[1:]))


@settings(deadline=None)
@given(polytopes())
def test_facet_pairs_on_random_intervals(p):
    for S in gale_subsets(p.d, p.interval.t1, p.interval.t2):
        _check_facet_pairs(S, p)


@pytest.mark.parametrize("d", range(2, 9))
def test_facet_pairs_endpoint_on_a_negative_interval(d):
    p = P(d, -5, d - 2)  # d + 4 points from t1 = -5
    facets = gale_subsets(d, -5, d - 2)
    for S in facets:
        _check_facet_pairs(S, p)
    if d % 2:
        assert {facet_pairs(S, p)[0] for S in facets} == {-5, d - 2}


@settings(deadline=None)
@given(st.integers(2, 7), st.integers(-20, 20), st.integers(1, 8))
def test_facets_with_pairs_is_each_facet_in_order_with_its_pairs(d, t1, extra):
    """The generator yields every facet in the order of the subset filter,
    each with exactly facet_pairs' endpoint and pairs."""
    p = P(d, t1, t1 + d + extra - 1)
    expected = [(S, *facet_pairs(S, p)) for S in gale_subsets(d, t1, p.interval.t2)]
    assert list(facets_with_pairs(p)) == expected


def test_facets_with_pairs_examples():
    """The odd-degree examples of facet_pairs: a set that holds t1 is read
    from t1, also when it is pairs in [t1, t2 - 1] plus t2."""
    got = {S: (endpoint, pairs) for S, endpoint, pairs in facets_with_pairs(P(5, 1, 8))}
    assert got[(1, 2, 3, 5, 6)] == (1, ((2, 3), (5, 6)))
    assert got[(1, 2, 4, 5, 8)] == (1, ((2, 8), (4, 5)))
    assert got[(1, 3, 4, 7, 8)] == (1, ((3, 4), (7, 8)))
    assert got[(2, 3, 5, 6, 8)] == (8, ((2, 3), (5, 6)))
    assert got[(1, 2, 3, 7, 8)] == (1, ((2, 3), (7, 8)))
    assert got[(1, 2, 3, 4, 8)] == (1, ((2, 8), (3, 4)))


def test_facet_pairs_rejects_non_facet():
    with pytest.raises(DomainError):
        facet_pairs(GaleSet((1, 3, 5, 7)), P(4, 1, 8))
    with pytest.raises(DomainError):
        facet_pairs(GaleSet((2, 3, 5)), P(3, 1, 6))  # holds neither endpoint
    with pytest.raises(DomainError):
        facet_pairs(GaleSet((1, 2, 4)), P(3, 1, 6))  # 1 plus a non-facet
    with pytest.raises(DomainError):
        facet_pairs(GaleSet((1, 2, 3)), P(4, 1, 8))  # wrong size


# ----------------------------------------------------------------- helpers


def test_format_linear():
    assert format_linear((5, -1), ("x1", "x2"), 6, "<=") == "5 x1 - x2 <= 6"
    assert format_linear((0, 1), ("x1", "x2"), 0, "=") == "x2 = 0"
    assert format_linear((0, 0), ("x1", "x2"), 3, "<=") == "0 <= 3"
