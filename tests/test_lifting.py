import json
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclift
import cyclift.exact_lp
import cyclift.lifting
from cyclift.errors import DomainError, InternalError
from cyclift.rational import reduce_rows, scaled_ints
from cyclift.exact_lp import MAX, MIN, OPTIMAL, LinearProgram, ReoptimizingSolver, certify, solve
from cyclift.factorization import (
    factorize,
    factorize_2d,
    factorize_even,
    factorize_odd,
    size_bound_2d,
    trivial_factorization,
    trivial_wins,
    verify,
)
from cyclift.geometry import (
    CyclicPolytope,
    Interval,
    enumerate_facets,
    facet_inequality,
    slack_matrix,
    vertex,
)
from cyclift.lifting import (
    EfOptimizer,
    ExtendedFormulation,
    Polyhedron,
    _unit,
    _witness_slacks,
    build_ef_2d,
    ef_from_factorization,
    ef_to_json_dict,
    ef_to_text,
    factorization_from_ef,
    hull_ef,
    independent_equations,
    lift_objective,
    pair_product_ef,
)

from reference import _rank, consistent, independent_rows, vertex_maximum
from test_cli import refuse_duals
from test_golden import FACTORIZE_TENSOR_SWEEP


def size_oracle(n):
    # two extra inequalities per halving, facet description at the bottom
    return n if n <= 6 else size_oracle((n + 1) // 2) + 2


def test_sizes_frozen():
    expected = {3: 3, 5: 5, 6: 6, 7: 6, 9: 7, 10: 7, 17: 9, 33: 11, 64: 12, 1025: 21}
    for n, size in expected.items():
        assert build_ef_2d(n).size == size


def test_size_recurrence_oracle_and_bound():
    # arithmetic recurrence holds under the bound across the whole range
    for n in range(3, 4097):
        assert size_oracle(n) <= size_bound_2d(n)
    # the built systems realize the recurrence on a spread of sizes
    for n in list(range(3, 80)) + [127, 128, 129, 500, 1000, 1024, 1025, 4096]:
        assert build_ef_2d(n).size == size_oracle(n)


def test_rejects_tiny_n():
    with pytest.raises(DomainError):
        build_ef_2d(2)


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8, 9, 10, 13, 17, 26, 33, 64, 100])
def test_witnesses_feasible_and_project(n):
    ef = build_ef_2d(n)
    P = ef.target
    assert set(ef.witnesses) == set(range(1, n + 1))
    for i in P.interval.indices():
        w = ef.witnesses[i]
        assert ef.lifted.contains(w)
        assert w[:2] == vertex(P, i)


def test_witness_values_odd_fold():
    # n=9 folds symmetrically at 5, so the auxiliary coordinate is |t - 5|
    ef = build_ef_2d(9)
    assert ef.lifted.variables == ("x1", "x2", "z1_1")
    assert ef.witnesses[2] == (2, 4, 3)
    assert ef.witnesses[5] == (5, 25, 0)
    assert ef.witnesses[9] == (9, 81, 4)


def test_witness_values_even_shear():
    # n=10 centers to [-4, 5]; t <= 0 lands on the sheared copy (1-t, (1-t)^2)
    ef = build_ef_2d(10)
    assert ef.lifted.variables == ("x1", "x2", "z1_1", "z1_2")
    assert ef.witnesses[8] == (8, 64, 3, 9)
    assert ef.witnesses[5] == (5, 25, 1, 1)
    assert ef.witnesses[1] == (1, 1, 5, 25)


def test_max_objective_example():
    value, point = EfOptimizer(build_ef_2d(9)).maximize((1, 1))
    assert value == 90
    assert point[0] == 9 and point[1] == 81


@pytest.mark.parametrize("n", [7, 10, 33, 64])
def test_random_objectives_match_vertex_scan(n):
    rng = random.Random(100 + n)
    opt = EfOptimizer(build_ef_2d(n))
    for _ in range(20):
        c = (rng.randint(-9, 9), rng.randint(-9, 9))
        value, _ = opt.maximize(c)
        assert value == vertex_maximum(c, 2, 1, n)


def test_minimize_agrees_with_vertex_scan():
    opt = EfOptimizer(build_ef_2d(17))
    rng = random.Random(3)
    for _ in range(10):
        c = (rng.randint(-9, 9), rng.randint(-9, 9))
        value, _ = opt.minimize(c)
        assert value == -vertex_maximum((-c[0], -c[1]), 2, 1, 17)


@pytest.mark.parametrize("sense", ["MAX", "maximize"])
def test_optimizer_rejects_unknown_sense(sense):
    opt = EfOptimizer(build_ef_2d(9))
    with pytest.raises(DomainError, match="unknown sense"):
        opt.solve((1, 0), sense)
    assert opt.solve((1, 0), MAX).value == 9
    assert opt.solve((1, 0), MIN).value == 1


@pytest.mark.parametrize("bad", [1.5, 2.0, "1"], ids=repr)
def test_optimizer_rejects_inexact_objective(bad):
    """An objective entry that is not an int or a Fraction is a DomainError
    that names it, through every query; the optimizer still answers the
    next objective."""
    opt = EfOptimizer(build_ef_2d(9))
    queries = (opt.maximize, opt.minimize, lambda c: opt.solve(c, MAX), lambda c: opt.solve(c, MIN))
    for query in queries:
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            query((bad, 0))
    assert opt.solve((1, 0), MAX).value == 9


def test_optimizer_duals_cover_every_lifted_equation():
    """The equation duals are indexed by the lift's own equations, with 0 on
    the rows dropped as dependent, so the result certifies against the
    lift's program and agrees with a one-off solve of it."""
    P = CyclicPolytope.standard(3, 9)
    ef = ef_from_factorization(P, factorize(9, 3))
    c = (1, -2, 1)
    res = EfOptimizer(ef).solve(c)
    lp = LinearProgram(MAX, lift_objective(ef, c), ef.lifted.equations, ef.lifted.inequalities)
    assert len(res.dual_eq) == len(ef.lifted.equations) == 14
    assert certify(lp, res)
    kept = independent_equations(ef.lifted.equations)
    assert len(kept) < 14
    dropped = [mu for k, mu in enumerate(res.dual_eq) if k not in kept]
    assert dropped and all(mu == 0 for mu in dropped)
    one_off = solve(lp, ef.witnesses[1])
    assert certify(lp, one_off)
    assert (res.value, res.dual_ineq) == (one_off.value, one_off.dual_ineq)


def test_optimizer_results_are_fractions():
    """Every entry of a solve's result is a Fraction, the dual of a dropped
    equation included, as in ReoptimizingSolver's own results."""
    P = CyclicPolytope.standard(3, 9)
    ef = ef_from_factorization(P, factorize(9, 3))
    assert len(independent_equations(ef.lifted.equations)) < len(ef.lifted.equations)
    for sense in (MAX, MIN):
        res = EfOptimizer(ef).solve((1, -2, 1), sense)
        entries = (res.value,) + res.primal + res.dual_ineq + res.dual_eq
        assert {type(x) for x in entries} == {Fraction}


def test_optimizer_reduces_the_lifted_equations_once(monkeypatch):
    """The solver reduces what it is handed: building an optimizer runs
    independent_equations once, on the 16 of the 126 lifted equations that
    verify's reduction kept, and a minimum's zero duals (the dropped rows'
    among them) share one Fraction."""
    reduce = cyclift.exact_lp.independent_equations
    assert cyclift.lifting.independent_equations is reduce
    assert cyclift.independent_equations is reduce
    ef = ef_from_factorization(CyclicPolytope.standard(3, 65), factorize(65, 3))
    assert len(ef.lifted.equations) == 126
    calls = []

    def counting(equations):
        calls.append(len(equations))
        return reduce(equations)

    monkeypatch.setattr(cyclift.exact_lp, "independent_equations", counting)
    opt = EfOptimizer(ef)
    assert calls == [len(ef.kept_equations)] == [16]
    res = opt.solve((2 * 30, -1, 0), MIN)
    zeros = [mu for mu in res.dual_eq if mu == 0]
    assert len(zeros) >= 126 - 16 and len({id(mu) for mu in zeros}) == 1


def test_value_queries_build_no_dual(monkeypatch):
    """The set-up pivots the 16 kept equations of the d = 3, n = 65 lift
    and builds nothing for the equation duals (no further pivot), and
    maximize and minimize give solve's value and primal point with every
    dual build refused: 16 queries of (2 t0, -1, 0), each kind from its
    own optimizer in the same order, so both reoptimize from the same
    bases."""
    ef = ef_from_factorization(CyclicPolytope.standard(3, 65), factorize(65, 3))
    queries = [((2 * t0, -1, 0), sense) for t0 in range(1, 65, 8) for sense in (MAX, MIN)]
    assert len(queries) == 16
    full = EfOptimizer(ef)
    expected = [full.solve(objective, sense) for objective, sense in queries]
    refuse_duals(monkeypatch)
    pivot, pivots = ReoptimizingSolver._pivot, []

    def counting(self, pi, ps):
        pivots.append(ps)
        pivot(self, pi, ps)

    monkeypatch.setattr(ReoptimizingSolver, "_pivot", counting)
    lean = EfOptimizer(ef)
    assert len(pivots) == len(ef.kept_equations) == 16
    for (objective, sense), res in zip(queries, expected):
        query = lean.maximize if sense == MAX else lean.minimize
        assert query(objective) == (res.value, res.primal)


def _factorization_lifts():
    """(label, polytope, factorization): the structured builds of the
    tensor sweep (d = 3..7) and factorize_2d at small n."""
    sizes, _ = FACTORIZE_TENSOR_SWEEP
    for d, ns in sizes.items():
        build = factorize_odd if d % 2 else factorize_even
        for n in ns:
            yield f"d={d} n={n}", CyclicPolytope.standard(d, n), build(n, d // 2)
    for n in range(3, 41):
        yield f"d=2 n={n}", CyclicPolytope.standard(2, n), factorize_2d(n)


def test_verify_keeps_the_equations_the_lp_reduction_keeps():
    """The facet rows verify keeps are the lift's equations that
    independent_equations keeps, position for position, and the lift
    records them: the LP is handed exactly the rows it would have kept."""
    for label, P, F in _factorization_lifts():
        kept = verify(slack_matrix(P), F).kept
        ef = ef_from_factorization(P, F)
        assert kept == ef.kept_equations == independent_equations(ef.lifted.equations), label


# largest n per degree, so that building the lifts stays cheap
LIFT_N_CAP = {2: 40, 3: 14, 4: 12, 5: 11}


@st.composite
def lift_queries(draw):
    d = draw(st.sampled_from(sorted(LIFT_N_CAP)))
    n = draw(st.integers(d + 1, LIFT_N_CAP[d]))
    objective = tuple(draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d)))
    return n, d, objective, draw(st.sampled_from((MAX, MIN)))


@settings(deadline=None)
@given(lift_queries())
def test_lift_optima_match_vertex_scan_and_certify(query):
    n, d, objective, sense = query
    if d == 2:
        ef = build_ef_2d(n)
    else:
        P = CyclicPolytope.standard(d, n)
        ef = ef_from_factorization(P, factorize(n, d))
    res = EfOptimizer(ef).solve(objective, sense)
    assert res.status == OPTIMAL
    if sense == MAX:
        assert res.value == vertex_maximum(objective, d, 1, n)
    else:
        assert res.value == -vertex_maximum([-c for c in objective], d, 1, n)
    lifted = ef.lifted
    lp = LinearProgram(sense, lift_objective(ef, objective), lifted.equations, lifted.inequalities)
    assert certify(lp, res)


# ------------------------------------------------------ convex-hull lift


def test_unit_rows_are_the_positionwise_rows():
    for r in range(1, 7):
        for k in range(r):
            for value in (1, -1):
                assert _unit(k, r, value) == tuple(value if j == k else 0 for j in range(r))


TRIVIAL_ROUTE = [(d, n) for d in range(3, 7) for n in range(d + 2, 18) if trivial_wins(n, d)]


def _equation_rows(ef):
    return [tuple(coeffs) + (rhs,) for coeffs, rhs in ef.lifted.equations]


@pytest.mark.parametrize("d, n", TRIVIAL_ROUTE)
def test_hull_ef_is_the_trivial_factorization_lift(d, n):
    P = CyclicPolytope.standard(d, n)
    hull = hull_ef(P)
    ef = ef_from_factorization(P, factorize(n, d))
    assert hull.lifted.variables == ef.lifted.variables
    assert hull.lifted.inequalities == ef.lifted.inequalities
    assert hull.witnesses == ef.witnesses
    ours, theirs = _equation_rows(hull), _equation_rows(ef)
    assert len(ours) == d + 1
    assert _rank(ours) == _rank(theirs) == _rank(ours + theirs) == d + 1


@st.composite
def hull_queries(draw):
    d = draw(st.integers(3, 6))
    t1 = draw(st.integers(-6, 6))
    interval = Interval(t1, t1 + draw(st.integers(d, d + 8)))
    objective = tuple(draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d)))
    return CyclicPolytope(d, interval), objective, draw(st.sampled_from((MAX, MIN)))


@settings(deadline=None)
@given(hull_queries())
def test_hull_ef_optima_match_vertex_scan_and_certify(query):
    P, objective, sense = query
    ef = hull_ef(P)
    t1, t2 = P.interval.t1, P.interval.t2
    res = EfOptimizer(ef).solve(objective, sense)
    assert res.status == OPTIMAL
    if sense == MAX:
        assert res.value == vertex_maximum(objective, P.d, t1, t2)
    else:
        assert res.value == -vertex_maximum([-c for c in objective], P.d, t1, t2)
    lifted = ef.lifted
    lp = LinearProgram(sense, lift_objective(ef, objective), lifted.equations, lifted.inequalities)
    assert certify(lp, res)


@st.composite
def warm_lift_queries(draw):
    """(kind, d, t1, t2, objectives): a convex-hull lift over a random
    interval, negative ones included, or a factorization lift, the
    degree-2 fold lift or a pair-product lift on [1, n], with 1 to 4
    objectives for one warm optimizer."""
    kind = draw(st.sampled_from(("hull", "factorization", "fold", "pair product")))
    if kind == "fold":
        d = 2
    else:
        d = draw(st.integers(3 if kind == "pair product" else 2, 5))
    if kind == "hull":
        t1 = draw(st.integers(-20, 20))
        t2 = t1 + draw(st.integers(d, d + 8))
    else:
        t1, t2 = 1, draw(st.integers(d + 1, LIFT_N_CAP[d]))
    objective = st.lists(st.integers(-9, 9), min_size=d, max_size=d).map(tuple)
    return kind, d, t1, t2, draw(st.lists(objective, min_size=1, max_size=4))


@settings(deadline=None)
@given(warm_lift_queries())
def test_warm_lift_optima_match_vertex_scan_and_certify(query):
    """One optimizer per lift maximizes and then minimizes each objective:
    every value is the extreme over the vertices, and every result
    certifies against the lift's own program."""
    kind, d, t1, t2, objectives = query
    P = CyclicPolytope(d, Interval(t1, t2))
    if kind == "hull":
        ef = hull_ef(P)
    elif kind == "fold":
        ef = build_ef_2d(t2)
    elif kind == "pair product":
        ef = pair_product_ef(t2, d)
    else:
        ef = ef_from_factorization(P, factorize(t2, d))
    lifted = ef.lifted
    optimizer = EfOptimizer(ef)
    for objective in objectives:
        for sense in (MAX, MIN):
            res = optimizer.solve(objective, sense)
            assert res.status == OPTIMAL
            if sense == MAX:
                assert res.value == vertex_maximum(objective, d, t1, t2)
            else:
                assert res.value == -vertex_maximum([-c for c in objective], d, t1, t2)
            lp = LinearProgram(
                sense, lift_objective(ef, objective), lifted.equations, lifted.inequalities
            )
            assert certify(lp, res)


# ------------------------------------------------------ pair-product lift


PAIR_PRODUCT_SIZES = [(d, n) for d in (3, 4, 5) for n in range(d + 1, LIFT_N_CAP[d] + 1)]


@pytest.mark.parametrize("d, n", PAIR_PRODUCT_SIZES)
def test_pair_product_optima_match_vertex_scan(d, n):
    ef = pair_product_ef(n, d)
    optimizer = EfOptimizer(ef)
    rng = random.Random(f"{d}/{n}")
    for _ in range(6):
        objective = tuple(rng.randint(-9, 9) for _ in range(d))
        assert optimizer.maximize(objective)[0] == vertex_maximum(objective, d, 1, n)
        low = optimizer.minimize(objective)[0]
        assert low == -vertex_maximum([-c for c in objective], d, 1, n)


@pytest.mark.parametrize("d, n", PAIR_PRODUCT_SIZES)
def test_pair_product_witnesses_satisfy_every_product_row(d, n):
    """Each witness is its vertex above the tensor construction's alpha
    row, and lies in the lift: every product equation, every y >= 0."""
    ef = pair_product_ef(n, d)
    P = ef.target
    F = (factorize_odd if d % 2 else factorize_even)(n, d // 2)
    assert P == CyclicPolytope.standard(d, n) and ef.size == F.rank
    assert sorted(ef.witnesses) == list(range(1, n + 1))
    for i, alpha in zip(P.interval.indices(), F.alpha):
        assert ef.witnesses[i] == vertex(P, i) + alpha
        assert ef.lifted.contains(ef.witnesses[i])


def _row_rank(rows):
    """The rank of rational rows, each scaled to integers first."""
    ints = [scaled_ints(row)[0] for row in rows]
    return sum(pivot is not None for pivot, _ in reduce_rows(ints))


@pytest.mark.parametrize("d, n", PAIR_PRODUCT_SIZES)
def test_pair_product_rows_span_the_facet_lift(d, n):
    """Every facet equation of the factorization lift is a combination of
    the product rows, over the same variables; the product rows are
    independent, so the LP drops none of them."""
    P = CyclicPolytope.standard(d, n)
    facet_lift = ef_from_factorization(P, (factorize_odd if d % 2 else factorize_even)(n, d // 2))
    ef = pair_product_ef(n, d)
    assert ef.lifted.variables == facet_lift.lifted.variables
    assert ef.lifted.inequalities == facet_lift.lifted.inequalities
    ours, theirs = _equation_rows(ef), _equation_rows(facet_lift)
    assert _row_rank(ours) == len(ours) == _row_rank(ours + theirs)


def test_pair_product_degree_2_input_is_gated(monkeypatch):
    """A degree-2 factorization that does not verify builds no lift."""
    original = cyclift.lifting.factorize_2d

    def perturbed(n):
        F = original(n)
        first = (F.beta[0][0] + 1,) + F.beta[0][1:]
        return replace(F, beta=(first,) + F.beta[1:])

    monkeypatch.setattr(cyclift.lifting, "factorize_2d", perturbed)
    with pytest.raises(DomainError, match="does not verify"):
        pair_product_ef(12, 3)


# ------------------------------------------------- factorization -> lift


def test_ef_from_factorization_shape():
    P = CyclicPolytope.standard(2, 5)
    F = trivial_factorization(slack_matrix(P))
    ef = ef_from_factorization(P, F)
    assert ef.size == F.rank == 5
    assert len(ef.lifted.equations) == 5  # one per facet
    assert ef.lifted.variables[:2] == ("x1", "x2")
    for i in range(1, 6):
        w = ef.witnesses[i]
        assert ef.lifted.contains(w)
        assert w[:2] == vertex(P, i)


def test_ef_from_factorization_higher_dim_lp():
    P = CyclicPolytope.standard(3, 5)
    ef = ef_from_factorization(P, trivial_factorization(slack_matrix(P)))
    opt = EfOptimizer(ef)
    rng = random.Random(11)
    for _ in range(15):
        c = tuple(rng.randint(-5, 5) for _ in range(3))
        value, _ = opt.maximize(c)
        assert value == vertex_maximum(c, 3, 1, 5)


def test_ef_from_factorization_rejects_garbage():
    P = CyclicPolytope.standard(2, 5)
    F = trivial_factorization(slack_matrix(P))
    broken = type(F)(F.rank, F.alpha, F.beta[:-1] + ((9,) * F.rank,), F.column_labels, F.target)
    with pytest.raises(DomainError):
        ef_from_factorization(P, broken)


# ------------------------------------------------- lift -> factorization


def test_factorization_from_ef_bound_example():
    P = CyclicPolytope.standard(2, 9)
    F = factorization_from_ef(P, build_ef_2d(9))
    assert F.rank <= 8
    assert verify(slack_matrix(P), F).ok


def test_per_facet_tightness():
    ef = build_ef_2d(9)
    P = ef.target
    opt = EfOptimizer(ef)
    for S in enumerate_facets(P):
        f = facet_inequality(P, S)
        value, _ = opt.maximize(f.a)
        assert value == f.b


@pytest.mark.parametrize("n", [16, 33, 64, 100, 129, 193])
def test_facet_duals_do_not_depend_on_start(n):
    """Solvers started at different witnesses reach the same optimum and the
    same inequality duals on every facet objective, so the factorization's
    betas do not depend on the starting basis. The sizes mix shear and
    reflection folds."""
    ef = build_ef_2d(n)
    lifted = ef.lifted
    eqs = [lifted.equations[k] for k in independent_equations(lifted.equations)]
    solvers = [
        ReoptimizingSolver(lifted.nvars, eqs, lifted.inequalities, ef.witnesses[i])
        for i in (1, n // 2, n)
    ]
    for S in enumerate_facets(ef.target):
        objective = lift_objective(ef, facet_inequality(ef.target, S).a)
        results = [s.maximize(objective) for s in solvers]
        assert results[0].status == OPTIMAL
        assert len({(r.value, r.dual_ineq) for r in results}) == 1
        # and why: both of the facet's witnesses are optimal, so every
        # optimal dual lives on the equations and on the inequalities tight
        # at both; those rows are independent, so that dual is unique
        i, j = (lifted.inequality_slacks(ef.witnesses[t]) for t in S)
        tight = [
            coeffs for (coeffs, _), si, sj in zip(lifted.inequalities, i, j) if si == sj == 0
        ]
        rows = [coeffs for coeffs, _ in eqs] + tight
        assert _rank(rows) == len(rows)


@pytest.mark.parametrize("n", list(range(3, 201)) + [256, 257, 513, 1025])
def test_fold_factorization_matches_lp_duals(n):
    """factorize_2d composes each beta along the folds; the LP extraction
    over the same lift is the oracle, entry for entry."""
    P = CyclicPolytope.standard(2, n)
    assert factorize_2d(n) == factorization_from_ef(P, build_ef_2d(n))


@pytest.mark.parametrize("n", [5, 33, 128, 129, 193])
def test_factorize_2d_solves_no_lp(monkeypatch, n):
    def refuse(self, *args, **kwargs):
        raise AssertionError("factorize_2d built a simplex tableau")

    monkeypatch.setattr(ReoptimizingSolver, "__init__", refuse)
    F = factorize_2d(n)
    assert verify(slack_matrix(F.target), F).ok


@pytest.mark.parametrize("n", [5, 33, 128, 129, 193])
def test_factorize_2d_evaluates_no_lifted_inequality(monkeypatch, n):
    def refuse(self, point):
        raise AssertionError("factorize_2d evaluated a lifted inequality")

    monkeypatch.setattr(Polyhedron, "member_slacks", refuse)
    monkeypatch.setattr(Polyhedron, "inequality_slacks", refuse)
    F = factorize_2d(n)
    assert verify(slack_matrix(F.target), F).ok


@pytest.mark.parametrize("n", list(range(3, 201)) + [256, 257, 513, 1025])
def test_fold_alphas_are_the_witness_slacks(n):
    """factorize_2d composes alpha along the folds; the witness slacks of
    build_ef_2d(n), each checked to lie in the lift, are the oracle, value
    and type."""
    P = CyclicPolytope.standard(2, n)
    alpha = factorize_2d(n).alpha
    assert alpha == _witness_slacks(P, build_ef_2d(n))
    assert all(type(x) is int for row in alpha for x in row)


def test_round_trip_rank_never_grows():
    for n in (5, 9, 17):
        P = CyclicPolytope.standard(2, n)
        F = factorize_2d(n)
        again = factorization_from_ef(P, ef_from_factorization(P, F))
        assert again.rank <= F.rank
        assert verify(slack_matrix(P), again).ok


def test_factorization_from_ef_checks_target():
    ef = build_ef_2d(9)
    with pytest.raises(DomainError):
        factorization_from_ef(CyclicPolytope.standard(2, 8), ef)


def test_factorization_from_ef_checks_witnesses():
    ef = build_ef_2d(7)
    bad = dict(ef.witnesses)
    bad[3] = (3, 10, bad[3][2])  # projects to (3, 10), not the vertex
    ef_bad = ExtendedFormulation(ef.lifted, bad, ef.target)
    with pytest.raises(DomainError):
        factorization_from_ef(ef.target, ef_bad)
    missing = dict(ef.witnesses)
    del missing[4]
    with pytest.raises(DomainError):
        factorization_from_ef(
            ef.target, ExtendedFormulation(ef.lifted, missing, ef.target)
        )


def _with_witness(ef, vertex_index, witness):
    witnesses = dict(ef.witnesses)
    if witness is None:
        del witnesses[vertex_index]
    else:
        witnesses[vertex_index] = witness
    return ExtendedFormulation(ef.lifted, witnesses, ef.target)


NOT_IN_LIFT = "witness for vertex 3 is not in the lifted polyhedron"


@pytest.mark.parametrize(
    "n, witness, message",
    [
        # build_ef_2d(9) has no equation; in build_ef_2d(10) the witness
        # (3, 9, 3, 9) moves to (5/2, 7), inside every inequality but off
        # the equation z2 - z1 = 6
        (10, (3, 9, Fraction(5, 2), 7), NOT_IN_LIFT),
        (9, (3, 9, 1), NOT_IN_LIFT),  # breaks -(x1 - 5) <= z only
        (9, (3, 9), NOT_IN_LIFT),
        (9, (3, 9, 2, 0), NOT_IN_LIFT),
        (9, (3, 10, 2), "witness for vertex 3 does not project to it"),
        (9, None, "no witness for vertex 3"),
    ],
    ids=["equation", "inequality", "short", "long", "projection", "missing"],
)
def test_factorization_from_ef_witness_checks(n, witness, message):
    ef = build_ef_2d(n)
    with pytest.raises(DomainError, match=message):
        factorization_from_ef(ef.target, _with_witness(ef, 3, witness))


def test_witness_check_cases_break_one_thing():
    lift = build_ef_2d(10).lifted
    assert lift.equation_residuals((3, 9, Fraction(5, 2), 7)) != (0,)
    assert min(lift.inequality_slacks((3, 9, Fraction(5, 2), 7))) >= 0
    lift = build_ef_2d(9).lifted
    assert [s < 0 for s in lift.inequality_slacks((3, 9, 1))] == [True] + [False] * 6
    assert lift.contains((3, 10, 2))


@pytest.mark.parametrize("n", [9, 10, 33])
def test_factorization_from_ef_computes_each_witness_slacks_once(monkeypatch, n):
    calls = []
    original = Polyhedron.inequality_slacks

    def counting(self, point):
        calls.append(point)
        return original(self, point)

    monkeypatch.setattr(Polyhedron, "inequality_slacks", counting)
    factorization_from_ef(CyclicPolytope.standard(2, n), build_ef_2d(n))
    assert len(calls) == n


def test_factorization_from_ef_rejects_loose_lift():
    # widen one inequality: the lift strictly contains the polytope, so some
    # facet maximization overshoots its boundary
    ef = build_ef_2d(7)
    loose = tuple(
        (c, r + (1 if k == 0 else 0)) for k, (c, r) in enumerate(ef.lifted.inequalities)
    )
    bad = ExtendedFormulation(
        Polyhedron(ef.lifted.variables, ef.lifted.equations, loose),
        ef.witnesses,
        ef.target,
    )
    with pytest.raises(DomainError):
        factorization_from_ef(ef.target, bad)


# ------------------------------------------------------------- utilities


def test_independent_equations():
    eqs = (((1, 1), 2), ((2, 2), 4), ((1, 0), 1), ((0, 1), 1))
    assert independent_equations(eqs) == (0, 2)
    with pytest.raises(InternalError):
        independent_equations((((1, 1), 2), ((2, 2), 5)))
    assert independent_equations(()) == ()


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def planted_systems(draw):
    """Random rational rows, some of them rational combinations of rows
    drawn before them, with rhs values consistent with one point x0; when
    `contradiction` is set, one planted row's rhs is moved off."""
    nvars = draw(st.integers(1, 5))
    x0 = draw(st.lists(rationals, min_size=nvars, max_size=nvars))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if rows and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(range(len(rows))), min_size=1, max_size=3))
            weights = draw(st.lists(rationals, min_size=len(picks), max_size=len(picks)))
            coeffs = tuple(
                sum((w * rows[k][0][j] for k, w in zip(picks, weights)), Fraction(0))
                for j in range(nvars)
            )
        else:
            coeffs = tuple(draw(st.lists(rationals, min_size=nvars, max_size=nvars)))
        rows.append((coeffs, sum((c * x for c, x in zip(coeffs, x0)), Fraction(0))))
    return rows


@settings(max_examples=150, deadline=None)
@given(planted_systems())
def test_independent_equations_matches_fraction_oracle(rows):
    assert independent_equations(rows) == tuple(independent_rows(rows))


@settings(max_examples=100, deadline=None)
@given(planted_systems(), st.data())
def test_independent_equations_rejects_contradiction(rows, data):
    # append a copy of a dependent combination with its rhs moved off
    k = data.draw(st.sampled_from(range(len(rows))))
    w = data.draw(rationals.filter(bool))
    delta = data.draw(rationals.filter(bool))
    coeffs, rhs = rows[k]
    bad = rows + [(tuple(w * c for c in coeffs), w * rhs + delta)]
    assert not consistent(bad)
    with pytest.raises(InternalError):
        independent_equations(bad)


def test_lift_objective():
    ef = build_ef_2d(10)
    assert lift_objective(ef, (3, -2)) == (3, -2, 0, 0)
    with pytest.raises(DomainError):
        lift_objective(ef, (1, 2, 3))


def test_text_export_is_deterministic():
    a, b = ef_to_text(build_ef_2d(33)), ef_to_text(build_ef_2d(33))
    assert a == b
    assert a.startswith("target: degree 2 cyclic polytope on [1, 33]")
    assert "variables: x1 x2 z1_1 z2_1 z3_1" in a
    assert a.count("<=") == 11


def test_json_export_round_trips_through_json():
    d = ef_to_json_dict(build_ef_2d(10))
    blob = json.dumps(d, indent=2)
    back = json.loads(blob)
    assert back["variables"] == ["x1", "x2", "z1_1", "z1_2"]
    assert len(back["inequalities"]) == 7
    assert len(back["equations"]) == 1
    assert back["witnesses"]["1"] == ["1", "1", "5", "25"]
