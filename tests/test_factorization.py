import gc
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cyclift.factorization
import cyclift.geometry
import cyclift.rational
from cyclift.errors import DomainError
from cyclift.factorization import (
    NonnegFactorization,
    VerificationReport,
    _first_non_orthogonal,
    _units,
    construction_rank,
    even_rank_bound,
    factorize,
    factorize_2d,
    factorize_even,
    factorize_odd,
    hadamard_combine,
    rank_bound,
    size_bound_2d,
    trivial_factorization,
    trivial_wins,
    verify,
)
from cyclift.geometry import (
    CyclicPolytope,
    GaleSet,
    Interval,
    enumerate_facets,
    facet_inequality,
    facet_pairs,
    slack_matrix,
)
from cyclift.lifting import build_ef_2d, ef_from_factorization
from cyclift.rational import parse_rational, scaled_ints

from reference import first_mismatch, gale_ok
from test_cli import MALFORMED
from test_golden import FACTORIZE_2D_SWEEP, FACTORIZE_TENSOR_SWEEP


def test_bound_formulas():
    assert size_bound_2d(9) == 8
    assert size_bound_2d(1025) == 22
    assert rank_bound(1025, 2) == 44
    assert rank_bound(1025, 5) == 968
    assert rank_bound(9, 5) == 128
    assert rank_bound(8, 4) == 72
    assert even_rank_bound(8, 4) == 36
    assert even_rank_bound(17, 4) == 100
    with pytest.raises(DomainError):
        even_rank_bound(9, 3)
    with pytest.raises(DomainError):
        rank_bound(4, 4)


def _refusal(fn, *args) -> str:
    with pytest.raises(DomainError) as exc:
        fn(*args)
    return str(exc.value)


# (n, d) is valid when CyclicPolytope.standard(d, n) is: every function of
# (n, d) refuses what it refuses, and every degree-2 function of n too
@pytest.mark.parametrize(
    "fn, args",
    [
        (fn, nd)
        for fn in (factorize, rank_bound, construction_rank, even_rank_bound)
        for nd in ((2, 2), (4, 4), (5, 1))
    ]
    + [(fn, (n,)) for fn in (size_bound_2d, factorize_2d, build_ef_2d) for n in (2, 1)],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_n_d_validity_is_stated_by_cyclic_polytope(fn, args):
    n, d = args if len(args) == 2 else (args[0], 2)
    assert _refusal(fn, *args) == _refusal(CyclicPolytope.standard, d, n)


def test_construction_rank_matches_builds():
    for n in (3, 5, 7, 9, 33):
        assert factorize_2d(n).rank == construction_rank(n, 2)
    for n, q in ((8, 2), (10, 2), (9, 3)):
        assert factorize_even(n, q).rank == construction_rank(n, 2 * q)
    for n, q in ((5, 1), (9, 2), (12, 1)):
        assert factorize_odd(n, q).rank == construction_rank(n, 2 * q + 1)


def test_construction_rank_is_the_lift_size():
    # construction_rank walks the same fold chain as build_ef_2d
    for n in [*range(3, 601), 1024, 1025, 4096, 4097]:
        assert construction_rank(n, 2) == build_ef_2d(n).size


def test_trivial_wins_switch_points():
    # a tie goes to the construction, which never loses at d = 2
    assert not any(trivial_wins(n, 2) for n in range(3, 4098))
    assert [n for n in range(4, 60) if not trivial_wins(n, 3)] == list(range(16, 60))
    assert trivial_wins(255, 4) and not trivial_wins(256, 4)  # rank 16**2
    for n, d in ((10, 3), (20, 4), (17, 6)):
        assert trivial_wins(n, d) and factorize(n, d).rank == n


# ------------------------------------------------------------------ verify


def test_verify_trivial_factorization():
    M = slack_matrix(CyclicPolytope.standard(2, 5))
    rep = verify(M, trivial_factorization(M))
    assert rep.ok and rep.rank == 5 and rep.first_mismatch is None


def test_verify_reports_first_mismatch():
    M = slack_matrix(CyclicPolytope.standard(2, 5))
    F = trivial_factorization(M)
    beta = list(F.beta)
    beta[1] = tuple(x + 1 for x in beta[1])  # column {1, 5}
    rep = verify(M, NonnegFactorization(F.rank, F.alpha, tuple(beta), F.column_labels, F.target))
    assert not rep.ok
    i, S, expected, got = rep.first_mismatch
    assert i == 1 and S.members == (1, 5)
    # perturbed column adds the full row sum of vertex 1's slacks: 2 + 6 + 12
    assert expected == 0 and got == 20


def test_verify_rejects_negative_entries():
    M = slack_matrix(CyclicPolytope.standard(2, 5))
    F = trivial_factorization(M)
    alpha = list(F.alpha)
    alpha[0] = (-1,) + alpha[0][1:]
    rep = verify(M, NonnegFactorization(F.rank, tuple(alpha), F.beta, F.column_labels, F.target))
    assert not rep.ok and rep.first_mismatch is None


def test_verify_dimension_mismatch_is_domain_error():
    M5 = slack_matrix(CyclicPolytope.standard(2, 5))
    M6 = slack_matrix(CyclicPolytope.standard(2, 6))
    F = trivial_factorization(M6)
    with pytest.raises(DomainError):
        verify(M5, F)
    # same shape but wrong recorded target
    F5 = trivial_factorization(M5)
    relabeled = NonnegFactorization(
        F5.rank, F5.alpha, F5.beta, F5.column_labels, CyclicPolytope.standard(2, 6)
    )
    with pytest.raises(DomainError):
        verify(M5, relabeled)


@pytest.mark.parametrize(
    "check",
    [lambda P, F: verify(slack_matrix(P), F), ef_from_factorization],
    ids=["verify", "ef_from_factorization"],
)
@pytest.mark.parametrize(
    "target, message",
    [
        ("recorded", "factorization targets d=2 on [1, 9]"),
        (None, "factorization is 9x9, matrix has 30000 rows"),
    ],
    ids=["wrong target", "no target, wrong rows"],
)
def test_verify_refuses_a_wrong_shape_before_enumerating_facets(
    monkeypatch, check, target, message
):
    # P has more than 10^35 facets: reaching enumerate_facets would hang
    P = CyclicPolytope.standard(20, 30000)
    F = factorize(9, 2)
    if target is None:
        F = replace(F, target=None)

    def refuse(P):
        raise AssertionError("facets were enumerated")

    monkeypatch.setattr(cyclift.geometry, "enumerate_facets", refuse)
    with pytest.raises(DomainError) as exc:
        check(P, F)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize(
    "check",
    [lambda P, F: verify(slack_matrix(P), F), ef_from_factorization],
    ids=["verify", "ef_from_factorization"],
)
def test_verify_refuses_a_wrong_shape_before_generating_facets(monkeypatch, check):
    """Nor is facets_with_pairs, which a matrix's columns read, reached."""
    P = CyclicPolytope.standard(20, 30000)
    F = factorize(9, 2)

    def refuse(P):
        raise AssertionError("facets were generated")

    monkeypatch.setattr(cyclift.geometry, "facets_with_pairs", refuse)
    with pytest.raises(DomainError, match="factorization targets d=2 on"):
        check(P, F)


@pytest.mark.parametrize("enumerated", [False, True], ids=["labels taken", "labels compared"])
def test_verify_refuses_labels_out_of_the_canonical_order(enumerated):
    """Labels that are not the canonical facet order are refused whether
    the matrix's columns were enumerated already (compared with them) or
    not (checked to be every facet, in order), and a refused matrix keeps
    the enumeration as its columns. Canonical labels become the columns."""
    P = CyclicPolytope.standard(3, 20)
    F = factorize(20, 3)
    labels = list(F.column_labels)
    swapped = labels[:4] + [labels[5], labels[4]] + labels[6:]
    not_a_facet = [GaleSet((1, 2, 4))] + labels[1:]
    outside = labels[:-1] + [GaleSet((18, 19, 21))]
    repeated = [labels[0]] + labels[:-1]
    plain = [S.members for S in labels]
    for bad in (swapped, not_a_facet, outside, repeated, plain):
        M = slack_matrix(P)
        if enumerated:
            M.columns
        with pytest.raises(DomainError, match="column labels do not match"):
            verify(M, replace(F, column_labels=tuple(bad)))
        assert M.columns == enumerate_facets(P)
    M = slack_matrix(P)
    assert verify(M, F).ok
    assert M.columns is F.column_labels


LABEL_MUTATIONS = ("swap", "non-facet", "outside", "length", "plain", "repeat")


def _mutated_labels(draw, labels, mutation, t1, t2):
    """labels with one label mutated, the count kept."""
    labels = list(labels)
    k = draw(st.integers(0, len(labels) - 1))
    members = labels[k].members
    if mutation == "swap":
        j = draw(st.integers(0, len(labels) - 1).filter(lambda j: j != k))
        labels[k], labels[j] = labels[j], labels[k]
    elif mutation == "non-facet":
        d = len(members)
        others = [S for S in combinations(range(t1, t2 + 1), d) if not gale_ok(S, t1, t2)]
        assume(others)
        labels[k] = GaleSet(draw(st.sampled_from(others)))
    elif mutation == "outside":
        # the first or last label moved off the interval by one: still in
        # strictly increasing order, and a facet of the moved interval
        k, step = (0, -1) if draw(st.booleans()) else (-1, 1)
        labels[k] = GaleSet(tuple(m + step for m in labels[k].members))
    elif mutation == "length":
        if draw(st.booleans()):
            outside = [t for t in range(t1, t2 + 1) if t not in members]
            labels[k] = GaleSet(tuple(sorted((*members, draw(st.sampled_from(outside))))))
        else:
            # the first label, the run from t1, less its last member: still
            # in order, and its pairs split like a facet's
            labels[0] = GaleSet(labels[0].members[:-1])
    elif mutation == "plain":
        labels[k] = members
    else:
        labels[k] = labels[k - 1] if k else labels[1]
    return tuple(labels)


@settings(deadline=None, max_examples=150)
@given(
    st.integers(2, 5),
    st.integers(1, 6),
    st.integers(-9, 9),
    st.sampled_from(LABEL_MUTATIONS),
    st.booleans(),
    st.data(),
)
def test_verify_refuses_a_mutated_label(d, extra, t1, mutation, enumerated, data):
    """factorize's canonical labels, moved onto [t1, t1 + n - 1], verify;
    with one label mutated they are refused whether the matrix's columns
    were enumerated already or not, and a refused matrix keeps the
    enumeration's columns, whose slack polynomials, read as inequalities
    <-poly[1:], x> <= poly[0], are facet_inequality's."""
    n = d + extra
    P = CyclicPolytope(d, Interval(t1, t1 + n - 1))
    built = factorize(n, d)
    labels = tuple(GaleSet(tuple(m + t1 - 1 for m in S.members)) for S in built.column_labels)
    F = replace(built, column_labels=labels, target=P)
    assert verify(slack_matrix(P), F).ok
    bad = _mutated_labels(data.draw, labels, mutation, t1, t1 + n - 1)
    M = slack_matrix(P)
    if enumerated:
        M.columns
    with pytest.raises(DomainError, match="column labels do not match"):
        verify(M, replace(F, column_labels=bad))
    facets = enumerate_facets(P)
    assert M.columns == facets
    assert [(tuple(-c for c in poly[1:]), poly[0]) for poly in M.polynomials] == [
        (f.a, f.b) for f in (facet_inequality(P, S) for S in facets)
    ]


def test_vector_length_must_match_rank():
    with pytest.raises(DomainError, match="vector of length 1 does not match rank 2"):
        NonnegFactorization(2, ((1, 2), (3,)), ((1, 1),))
    with pytest.raises(DomainError, match="vector of length 3 does not match rank 2"):
        NonnegFactorization(2, ((1, 2),), ((1, 1, 0),))
    F = factorize_2d(9)
    with pytest.raises(DomainError, match="does not match rank"):
        replace(F, rank=F.rank + 1)


def test_verify_handles_fractions():
    M = slack_matrix(CyclicPolytope.standard(2, 4))
    F = trivial_factorization(M)
    alpha = tuple(tuple(Fraction(x, 3) for x in vec) for vec in F.alpha)
    beta = tuple(tuple(3 * x for x in vec) for vec in F.beta)
    rep = verify(M, NonnegFactorization(F.rank, alpha, beta, F.column_labels, F.target))
    assert rep.ok


# largest n per degree, so that the oracle's Fraction entry scan stays cheap;
# factorize is structured for degree 2 from n = 7 and degree 3 from n = 19
VERIFY_N_CAP = {2: 33, 3: 20, 4: 11, 5: 10}


@st.composite
def perturbed_factorizations(draw):
    """(polytope, factorization, the same with one positive Fraction added
    to one alpha or beta entry)."""
    d = draw(st.sampled_from(sorted(VERIFY_N_CAP)))
    n = draw(st.integers(d + 1, VERIFY_N_CAP[d]))
    if draw(st.booleans()):
        P = CyclicPolytope.standard(d, n)
        F = factorize(n, d)
    else:
        t1 = draw(st.integers(-6, 6))
        P = CyclicPolytope(d, Interval(t1, t1 + n - 1))
        F = trivial_factorization(slack_matrix(P))
    side = draw(st.sampled_from(("alpha", "beta")))
    vectors = list(getattr(F, side))
    index = draw(st.integers(0, len(vectors) - 1))
    k = draw(st.integers(0, F.rank - 1))
    delta = Fraction(draw(st.integers(1, 50)), draw(st.integers(1, 9)))
    vec = list(vectors[index])
    vec[k] += delta
    vectors[index] = tuple(vec)
    return P, F, replace(F, **{side: tuple(vectors)})


@settings(deadline=None)
@given(perturbed_factorizations())
def test_verify_matches_entry_scan(case):
    P, F, G = case
    t1, t2 = P.interval.t1, P.interval.t2
    M = slack_matrix(P)
    bound = rank_bound(P.n, P.d)
    assert first_mismatch(F.alpha, F.beta, P.d, t1, t2) is None
    assert verify(M, F) == VerificationReport(True, F.rank, bound, None)
    found = first_mismatch(G.alpha, G.beta, P.d, t1, t2)
    if found is not None:
        i, S, expected, got = found
        found = (i, GaleSet(S), expected, got)
    report = verify(M, G)
    assert report == VerificationReport(found is None, G.rank, bound, found)
    if found is not None:
        assert [type(x) for x in report.first_mismatch] == [int, GaleSet, int, Fraction]


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


BIG = st.integers(-(2**70), 2**70)


@st.composite
def orthogonality_cases(draw):
    """(rows, basis) of integers up to 2^70 in size. One row, the probe, is
    zero or has every basis row but one (or every one) made orthogonal to
    it: b_j becomes probe[p] * b_j - <probe, b_j> * e_p, so <probe, b_j>
    is 0 and only the one left alone can make the probe fail. The other
    rows are random or zero."""
    width = draw(st.integers(1, 6))
    vector = st.lists(BIG, min_size=width, max_size=width)
    zero = st.just([0] * width)
    basis = draw(st.lists(st.one_of(vector, zero), max_size=5))
    probe = draw(st.one_of(vector, zero))
    left = draw(st.integers(-1, len(basis) - 1))  # -1: none left alone
    p = next((j for j, x in enumerate(probe) if x), None)
    if p is not None:
        for j, b in enumerate(basis):
            if j != left:
                dot = _dot(probe, b)
                basis[j] = [probe[p] * x - (dot if c == p else 0) for c, x in enumerate(b)]
    rows = draw(st.lists(st.one_of(vector, zero), max_size=4))
    rows.insert(draw(st.integers(0, len(rows))), probe)
    return rows, basis


@settings(deadline=None)
@given(orthogonality_cases())
def test_packed_orthogonality_test_matches_the_per_basis_test(case):
    rows, basis = case
    plain = next(
        (i for i, row in enumerate(rows) if any(_dot(row, b) for b in basis)), None
    )
    assert _first_non_orthogonal(rows, basis) == plain


def test_packed_orthogonality_test_leaves_room_for_the_largest_product():
    """The largest dot product the bound allows, top * l1 = l1 * 2^k, in
    the lowest slot and -2^j in the next one: a packing that shifts by
    k - j + (bits of l1) or fewer would cancel them and pass the row."""
    for k in range(72):
        for j in range(min(k, 8) + 1):
            for l1 in (1, 2, 3):
                basis = [[2**k] * l1, [-(2**j)] + [0] * (l1 - 1)]
                assert _first_non_orthogonal([[0] * l1, [1] * l1], basis) == 1


@st.composite
def nudged_factorizations(draw):
    """(polytope, a small structured factorization with 1/den added to one
    alpha or beta entry, den the common denominator of that vector)."""
    n, d = draw(st.sampled_from([(9, 2), (17, 2), (19, 3), (20, 3)]))
    F = factorize(n, d)
    side = draw(st.sampled_from(("alpha", "beta")))
    vectors = list(getattr(F, side))
    index = draw(st.integers(0, len(vectors) - 1))
    vec = list(vectors[index])
    vec[draw(st.integers(0, F.rank - 1))] += Fraction(1, scaled_ints(vec)[1])
    vectors[index] = tuple(vec)
    return CyclicPolytope.standard(d, n), replace(F, **{side: tuple(vectors)})


@settings(deadline=None)
@given(nudged_factorizations())
def test_verify_finds_a_nudged_entry_where_the_entry_scan_does(case):
    P, G = case
    found = first_mismatch(G.alpha, G.beta, P.d, 1, P.n)
    if found is not None:
        i, S, expected, got = found
        found = (i, GaleSet(S), expected, got)
    report = verify(slack_matrix(P), G)
    assert (report.ok, report.first_mismatch) == (found is None, found)


# ------------------------------------------------------- hadamard_combine


def _random_product_factorization(rng, rows, cols, rank, labels=None):
    A = [[rng.randint(0, 9) for _ in range(rank)] for _ in range(rows)]
    B = [[rng.randint(0, 9) for _ in range(rank)] for _ in range(cols)]
    F = NonnegFactorization(
        rank, tuple(tuple(r) for r in A), tuple(tuple(c) for c in B), labels
    )
    entries = [[F.entry(i, j) for j in range(cols)] for i in range(rows)]
    return F, entries


def test_hadamard_scalars():
    a = NonnegFactorization(1, ((2,),), ((1,),))
    b = NonnegFactorization(1, ((5,),), ((1,),))
    h = hadamard_combine(a, b)
    assert h.rank == 1 and h.entry(0, 0) == 10


def test_hadamard_rank_product():
    rng = random.Random(5)
    fa, _ = _random_product_factorization(rng, 4, 5, 3)
    fb, _ = _random_product_factorization(rng, 4, 5, 4)
    assert hadamard_combine(fa, fb).rank == 12


def test_hadamard_random_matrices():
    rng = random.Random(42)
    for _ in range(10):
        fa, ma = _random_product_factorization(rng, 6, 7, 2)
        fb, mb = _random_product_factorization(rng, 6, 7, 3)
        h = hadamard_combine(fa, fb)
        assert h.rank == 6
        for i in range(6):
            for j in range(7):
                assert h.entry(i, j) == ma[i][j] * mb[i][j]
        assert all(x >= 0 for vec in h.alpha + h.beta for x in vec)


def test_hadamard_shape_checks():
    rng = random.Random(1)
    fa, _ = _random_product_factorization(rng, 4, 5, 2)
    fb, _ = _random_product_factorization(rng, 5, 5, 2)
    with pytest.raises(DomainError):
        hadamard_combine(fa, fb)
    fc, _ = _random_product_factorization(rng, 4, 6, 2)
    with pytest.raises(DomainError):
        hadamard_combine(fa, fc)


# ------------------------------------------------------------ constructions


def test_factorize_2d_small_ranks():
    for n, rank in ((3, 3), (5, 5), (6, 6), (7, 6), (9, 7), (17, 9), (33, 11)):
        F = factorize_2d(n)
        assert F.rank == rank
        assert F.rank <= min(n, size_bound_2d(n))
        assert verify(slack_matrix(CyclicPolytope.standard(2, n)), F).ok
    with pytest.raises(DomainError):
        factorize_2d(2)


def test_factorize_even_single_factor_matches_2d():
    for n in (5, 8):
        fe = factorize_even(n, 1)
        f2 = factorize_2d(n)
        assert fe.alpha == f2.alpha
        assert fe.beta == f2.beta
        assert fe.column_labels == f2.column_labels
        assert fe.target == CyclicPolytope.standard(2, n)


def test_factorize_even_d4_n8():
    F = factorize_even(8, 2)
    M = slack_matrix(CyclicPolytope.standard(4, 8))
    assert F.rank == 36 and (M.n_rows, M.n_cols) == (8, 20)
    assert verify(M, F).ok


def test_factorize_even_d6_n9():
    F = factorize_even(9, 3)
    assert F.rank == 343  # 7^3; within the even-dimension bound 8^3
    assert F.rank <= even_rank_bound(9, 6)
    assert verify(slack_matrix(CyclicPolytope.standard(6, 9)), F).ok


def test_factorize_even_preconditions():
    with pytest.raises(DomainError):
        factorize_even(4, 2)
    with pytest.raises(DomainError):
        factorize_even(8, 0)


def test_factorize_odd_d3_n5_block_structure():
    P = CyclicPolytope.standard(3, 5)
    facets = enumerate_facets(P)
    assert len(facets) == 6
    assert all(1 in S or 5 in S for S in facets)
    F = factorize_odd(5, 1)
    assert F.rank == 2 * factorize_2d(4).rank == 8
    assert verify(slack_matrix(P), F).ok


def test_factorize_odd_zero_row_blocks():
    F = factorize_odd(7, 1)
    r = F.rank // 2
    assert all(x == 0 for x in F.alpha[0][:r])  # vertex 1: left block zeroed
    assert all(x == 0 for x in F.alpha[-1][r:])  # vertex n: right block zeroed


def test_factorize_odd_d5_n9():
    F = factorize_odd(9, 2)
    assert F.rank == 72
    assert verify(slack_matrix(CyclicPolytope.standard(5, 9)), F).ok


def test_factorize_odd_preconditions():
    with pytest.raises(DomainError):
        factorize_odd(5, 2)
    with pytest.raises(DomainError):
        factorize_odd(9, 0)


def test_factorize_dispatch_and_trivial_switch():
    # constructed rank 14 loses to the 10 vertices, so the default trims
    F = factorize(10, 3)
    assert F.rank == 10
    assert verify(slack_matrix(CyclicPolytope.standard(3, 10)), F).ok
    full = factorize_odd(10, 1)
    assert full.rank == construction_rank(10, 3) == 14
    assert verify(slack_matrix(CyclicPolytope.standard(3, 10)), full).ok
    with pytest.raises(DomainError):
        factorize(5, 5)
    with pytest.raises(DomainError):
        factorize(9, 1)


def test_trivial_choice_builds_no_construction(monkeypatch):
    # construction ranks 729 and 81 lose to 17 and 20 vertices: the trivial
    # factorization is chosen before the degree-2 integer core that every
    # structured construction starts from runs
    def refuse(n):
        raise AssertionError("degree-2 core called")

    monkeypatch.setattr(cyclift.factorization, "_fold_factorization_2d", refuse)
    for n, d in ((17, 6), (20, 4)):
        F = factorize(n, d)
        assert F.rank == n
        assert verify(slack_matrix(CyclicPolytope.standard(d, n)), F).ok
    # the patch is in the path a structured build takes
    with pytest.raises(AssertionError, match="degree-2 core called"):
        factorize(65, 3)


def test_tensor_construction_builds_no_degree_2_factorization(monkeypatch):
    # the tensor construction reads the degree-2 integer core directly: no
    # NonnegFactorization is built only to have its integers read back
    def refuse(n):
        raise AssertionError("factorize_2d called")

    monkeypatch.setattr(cyclift.factorization, "factorize_2d", refuse)
    for build, (n, q), d in (
        (factorize_even, (9, 2), 4),
        (factorize_odd, (10, 1), 3),
        (factorize, (65, 3), 3),
    ):
        F = build(n, q)
        assert F.rank == construction_rank(n, d)
        assert verify(slack_matrix(CyclicPolytope.standard(d, n)), F).ok


def _pair_factorization(f2, P, k):
    """f2's alpha against the facets of P, each facet's beta f2's beta of
    the k-th pair in its facet_pairs (even degree: no endpoint)."""
    by_pair = dict(zip((S.members for S in f2.column_labels), f2.beta))
    facets = enumerate_facets(P)
    beta = tuple(by_pair[facet_pairs(S, P)[1][k]] for S in facets)
    return NonnegFactorization(f2.rank, f2.alpha, beta, tuple(facets), None)


def test_tensor_construction_is_the_iterated_hadamard_product():
    """The product lemma: factorize_even(n, q) equals, in value, the
    iterated hadamard_combine of q degree-2 factorizations, the k-th with
    beta_S the degree-2 beta of the k-th pair of S."""
    for q in (2, 3):
        for n in range(2 * q + 2, 21):
            P = CyclicPolytope.standard(2 * q, n)
            f2 = factorize_2d(n)
            combined = _pair_factorization(f2, P, 0)
            for k in range(1, q):
                combined = hadamard_combine(combined, _pair_factorization(f2, P, k))
            F = factorize_even(n, q)
            assert (F.rank, F.alpha, F.beta) == (combined.rank, combined.alpha, combined.beta)
            assert F.column_labels == combined.column_labels


def test_trivial_factorization_shape():
    M = slack_matrix(CyclicPolytope.standard(3, 6))  # 6 rows, 8 columns
    F = trivial_factorization(M)
    assert F.rank == 6
    assert verify(M, F).ok


# ------------------------------------------------------------------- JSON


def test_json_round_trip():
    F = factorize_2d(9)
    back = NonnegFactorization.from_json_dict(F.to_json_dict())
    assert back == F


def test_json_round_trip_without_target():
    F = NonnegFactorization(1, ((2,), (Fraction(1, 2),)), ((3,),))
    back = NonnegFactorization.from_json_dict(F.to_json_dict())
    assert back == F


def test_json_rejects_malformed():
    with pytest.raises(DomainError):
        NonnegFactorization.from_json_dict({"rank": 1})
    with pytest.raises(DomainError):
        NonnegFactorization.from_json_dict(
            {"rank": 2, "alpha": [["1"]], "beta": [["1", "2"]], "target": None}
        )


# the JSON documents the writer and the reader are checked on: the
# degree-2 sweep, a trivial degree-4 factorization (every entry an int),
# one with neither target nor column labels, and rank 0 with empty vectors
JSON_CASES = (
    [factorize_2d(n) for n in range(3, 131)]
    + [factorize(20, 4)]
    + [replace(factorize_2d(9), target=None, column_labels=None)]
    + [NonnegFactorization(0, ((), (), ()), ((), ())), NonnegFactorization(0, (), ())]
)


def test_json_text_is_json_dumps():
    assert trivial_wins(20, 4)
    for F in JSON_CASES:
        assert F.to_json_text() == json.dumps(F.to_json_dict(), indent=2)


class _EveryEntryParsed(dict):
    """A parse cache that keeps nothing: from_json_dict with it parses
    entry by entry, as it did before it had a cache."""

    def __getitem__(self, text):
        return parse_rational(text)


def _read(data):
    """(factorization with each entry's type, or the DomainError's text)."""
    try:
        F = NonnegFactorization.from_json_dict(data)
    except DomainError as exc:
        return str(exc)
    return F, [[type(x) for x in vec] for vec in F.alpha + F.beta]


def _read_both(monkeypatch, data):
    with monkeypatch.context() as m:
        m.setattr(cyclift.factorization, "_ParsedEntries", _EveryEntryParsed)
        expected = _read(data)
    return _read(data), expected


def _edited(edit):
    data = factorize_2d(9).to_json_dict()
    edit(data)
    return data


READER_EDITS = dict(MALFORMED) | {
    "entry is a list": lambda data: data["alpha"][2].__setitem__(1, ["1"]),
    "vector is a number": lambda data: data["beta"].__setitem__(1, 7),
    "one bad string in alpha and beta": lambda data: (
        data["alpha"][1].__setitem__(0, "1/0"),
        data["beta"][4].__setitem__(2, "1/0"),
    ),
    "4/2 is the int 2": lambda data: data["beta"][0].__setitem__(0, "4/2"),
    "padded entry": lambda data: data["alpha"][0].__setitem__(0, " 7 "),
}


@pytest.mark.parametrize("edit", list(READER_EDITS))
def test_json_reader_parses_as_entry_by_entry(monkeypatch, edit):
    got, expected = _read_both(monkeypatch, _edited(READER_EDITS[edit]))
    assert got == expected
    assert isinstance(got, str) == (edit not in ("4/2 is the int 2", "padded entry"))


def test_json_reader_cache_keeps_values_and_types(monkeypatch):
    for F in JSON_CASES:
        got, expected = _read_both(monkeypatch, json.loads(F.to_json_text()))
        assert got == expected
        assert got[0] == F
    F, _ = _read(_edited(READER_EDITS["4/2 is the int 2"]))
    assert type(F.beta[0][0]) is int and F.beta[0][0] == 2
    F, _ = _read(_edited(READER_EDITS["padded entry"]))
    assert F.alpha[0][0] == 7


# ---------------------------------------------------- integer form


def _constructions():
    """(label, polytope, factorization) for every construction the golden
    sweeps pin, plus the trivial route at both shapes (more columns than
    rows, and the square d = n - 1 case) and two Hadamard products."""
    for n in FACTORIZE_2D_SWEEP[0]:
        yield f"2d n={n}", CyclicPolytope.standard(2, n), factorize_2d(n)
    for d, ns in FACTORIZE_TENSOR_SWEEP[0].items():
        build = factorize_odd if d % 2 else factorize_even
        for n in ns:
            yield f"d={d} n={n}", CyclicPolytope.standard(d, n), build(n, d // 2)
    for n, d in ((20, 4), (10, 3), (6, 5)):
        P = CyclicPolytope.standard(d, n)
        assert trivial_wins(n, d) or n == d + 1
        yield f"trivial d={d} n={n}", P, factorize(n, d)
    for n in (9, 14):
        P, f2 = CyclicPolytope.standard(4, n), factorize_2d(n)
        pairs = _pair_factorization(f2, P, 0), _pair_factorization(f2, P, 1)
        yield f"hadamard d=4 n={n}", P, hadamard_combine(*pairs)


def test_constructions_carry_their_integer_form():
    for label, _, F in _constructions():
        assert F._ints is not None, label
        ints = F.int_vectors()
        assert len(ints) == F.n_rows + F.n_cols, label
        for (nums, den), vec in zip(ints, F.alpha + F.beta):
            assert den > 0 and all(type(x) is int for x in nums), label
            assert [Fraction(x, den) for x in nums] == list(vec), label
        # every Fraction zero is one shared object
        zeros = {id(x) for vec in F.beta for x in vec if type(x) is Fraction and not x}
        assert len(zeros) <= 1, label


def _raise(*args):
    raise AssertionError("re-derived from the public vectors")


def test_constructions_verify_and_serialize_from_their_integer_form(monkeypatch):
    built = list(_constructions())
    for mod in (cyclift.rational, cyclift.factorization):
        for name in ("scaled_ints", "format_rational"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, _raise)
    for label, P, F in built:
        assert verify(slack_matrix(P), F).ok, label
        assert F.to_json_text() == json.dumps(F.to_json_dict(), indent=2), label
    # the patch is where a factorization without a carried form goes
    with pytest.raises(AssertionError, match="re-derived"):
        verify(slack_matrix(P), replace(F))


def test_replace_drops_the_carried_form():
    F = factorize_2d(17)
    G = replace(F, beta=((F.beta[0][0] + 1,) + F.beta[0][1:],) + F.beta[1:])
    assert vars(G)["beta"][0][0] == F.beta[0][0] + 1
    assert G.int_vectors()[F.n_rows][0][0] != F.int_vectors()[F.n_rows][0][0]


def _many_denominators(F):
    """F with alpha's coordinate k scaled by p_k / q_k and beta's by
    q_k / p_k, p_k and q_k distinct primes: the same slack matrix, with
    every vector's entries over many different denominators."""
    primes = [p for p in range(2, 400) if all(p % q for q in range(2, p))]
    scale = [Fraction(primes[2 * k], primes[2 * k + 1]) for k in range(F.rank)]
    alpha = tuple(tuple(x * c for x, c in zip(vec, scale)) for vec in F.alpha)
    beta = tuple(tuple(x / c for x, c in zip(vec, scale)) for vec in F.beta)
    return replace(F, alpha=alpha, beta=beta)


def _nudged(F):
    """F with 1/7 added to beta[5][2]."""
    beta = list(F.beta)
    beta[5] = beta[5][:2] + (beta[5][2] + Fraction(1, 7),) + beta[5][3:]
    return replace(F, beta=tuple(beta))


READ_FILES = {
    "d=2 n=17": lambda: _many_denominators(factorize_2d(17)),
    "d=2 n=17, a beta entry + 1/7": lambda: _nudged(_many_denominators(factorize_2d(17))),
    "d=3 n=20": lambda: _many_denominators(factorize(20, 3)),
    "d=3 n=20, a beta entry + 1/7": lambda: _nudged(_many_denominators(factorize(20, 3))),
}


def _read_back(F):
    """F written to a file and read back."""
    return NonnegFactorization.from_json_dict(json.loads(F.to_json_text()))


@pytest.mark.parametrize("case", list(READ_FILES))
def test_read_file_form_is_scaled_ints_vector_by_vector(case):
    G = _read_back(READ_FILES[case]())
    assert "alpha" not in vars(G) and "beta" not in vars(G)
    for (nums, den), vec in zip(G.int_vectors(), G.alpha + G.beta):
        assert (list(nums), den) == scaled_ints(vec)
    assert max(den for _, den in G.int_vectors()) > 10**6


@pytest.mark.parametrize("case", list(READ_FILES))
def test_read_file_verdict_matches_entry_scan(case):
    G = _read_back(READ_FILES[case]())
    P = G.target
    found = first_mismatch(G.alpha, G.beta, P.d, 1, P.n)
    if found is not None:
        i, S, expected, got = found
        found = (i, GaleSet(S), expected, got)
    report = verify(slack_matrix(P), G)
    assert (report.ok, report.first_mismatch) == (found is None, found)
    assert report.ok == ("1/7" not in case)


def test_written_file_reads_back_with_its_entries_and_types():
    for label, _, F in _constructions():
        assert repr(NonnegFactorization.from_json_dict(F.to_json_dict())) == repr(F), label


def test_verify_and_the_writer_build_no_vector_of_values():
    F = factorize_2d(513)
    M = slack_matrix(F.target)
    assert verify(M, F).ok
    text = F.to_json_text()
    G = NonnegFactorization.from_json_dict(json.loads(text))
    assert verify(M, G).ok
    for H in (F, G):
        assert "alpha" not in vars(H) and "beta" not in vars(H)
    # read, each view is built once and kept
    assert F.beta is F.beta and "beta" in vars(F)


def test_entries_are_ints_exactly_when_integral():
    built = [F for _, _, F in _constructions()]
    built += [_read_back(make()) for make in READ_FILES.values()]
    for F in built:
        for vec in F.alpha + F.beta:
            assert all((type(x) is int) == (x.denominator == 1) for x in vec), vec


def test_degree_2_beta_denominator_is_the_least():
    # _dual_denominator's common multiple is 6 at n = 129, 257, 513 and
    # 1025, where the least common denominator is 3, 1, 3 and 1
    for n in [*FACTORIZE_2D_SWEEP[0], 257, 513, 1025]:
        F = factorize_2d(n)
        dens = {den for _, den in F.int_vectors()[F.n_rows :]}
        assert dens == {lcm(*(x.denominator for vec in F.beta for x in vec))}, n


def test_factorize_2d_leaves_nothing_to_the_cyclic_gc():
    """The fold walk's memo is freed when factorize_2d returns, not left in
    a reference cycle for the collector."""
    gc.collect()
    factorize_2d(76)
    assert gc.collect() == 0


def test_unit_vectors():
    for r in range(1, 6):
        assert _units(r) == tuple(
            tuple(1 if k == j else 0 for k in range(r)) for j in range(r)
        )
