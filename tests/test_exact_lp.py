"""Exact simplex: frozen instances, status detection, duals, certificates,
warm restarts, and randomized cross-checks against vertex enumeration."""

import copy
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cyclift.errors import DomainError
from cyclift.exact_lp import (
    MAX,
    MIN,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LPResult,
    ReoptimizingSolver,
    certify,
    solve,
)
from cyclift.geometry import CyclicPolytope, Interval, enumerate_facets, facet_inequality, vertex

from reference import TrackerSolver, vertex_maximum


def facet_system(d, t1, t2):
    p = CyclicPolytope(d, Interval(t1, t2))
    return tuple(
        (facet_inequality(p, S).a, facet_inequality(p, S).b)
        for S in enumerate_facets(p)
    )


def test_simple_max():
    lp = LinearProgram(
        MAX, (1, 1), inequalities=(((1, 0), 2), ((0, 1), 3), ((1, 1), 4))
    )
    res = solve(lp, (0, 0))
    assert res.status == OPTIMAL
    assert res.value == 4
    assert sum(res.primal) == 4
    assert certify(lp, res)


def test_simple_min_is_negated_max():
    ineqs = (((1, 0), 2), ((0, 1), 3), ((1, 1), 4), ((-1, 0), 1), ((0, -1), 1))
    mx = solve(LinearProgram(MAX, (-2, -3), inequalities=ineqs), (0, 0))
    mn = solve(LinearProgram(MIN, (2, 3), inequalities=ineqs), (0, 0))
    assert mn.status == mx.status == OPTIMAL
    assert mn.value == -mx.value == -5
    assert certify(LinearProgram(MIN, (2, 3), inequalities=ineqs), mn)


def test_unbounded():
    lp = LinearProgram(MAX, (1,), inequalities=(((-1,), 0),))
    assert solve(lp, (0,)).status == UNBOUNDED


def test_equality_constraints():
    lp = LinearProgram(
        MAX, (1, 1), equations=(((1, -1), 0),), inequalities=(((1, 1), 4),)
    )
    res = solve(lp, (0, 0))
    assert res.status == OPTIMAL
    assert res.value == 4
    assert res.primal == (2, 2)
    assert certify(lp, res)


def test_redundant_equation_is_dropped():
    lp = LinearProgram(
        MAX,
        (1, 0),
        equations=(((1, 1), 3), ((2, 2), 6)),
        inequalities=(((1, 0), 2),),
    )
    res = solve(lp, (1, 2))
    assert res.status == OPTIMAL and res.value == 2
    assert certify(lp, res)


def test_fractional_answer():
    # max x + y with 2x + y <= 3, x + 2y <= 3 peaks at (1, 1); tilt it
    lp = LinearProgram(MAX, (2, 1), inequalities=(((2, 1), 3), ((1, 2), 3)))
    res = solve(lp, (0, 0))
    assert res.status == OPTIMAL
    assert res.value == Fraction(3)
    assert certify(lp, res)
    lp = LinearProgram(MAX, (1, 1), inequalities=(((2, 1), 2), ((1, 3), 3)))
    res = solve(lp, (0, 0))
    assert res.value == Fraction(7, 5)
    assert res.primal == (Fraction(3, 5), Fraction(4, 5))


def test_free_variables():
    # x unconstrained below: min x is unbounded, max is fine
    lp = LinearProgram(MAX, (1,), inequalities=(((1,), 5),))
    assert solve(lp, (0,)).value == 5
    lp = LinearProgram(MIN, (1,), inequalities=(((1,), 5),))
    assert solve(lp, (0,)).status == UNBOUNDED
    # negative optimum, reachable only because variables are free
    lp = LinearProgram(MIN, (1, 0), inequalities=facet_system(2, -5, -1))
    res = solve(lp, (-1, 1))
    assert res.value == -5 and certify(lp, res)


def test_free_variable_entering_downward():
    """A free variable whose decrease helps enters downward: -3 <= x <= 5
    from x = 0, maximizing -x, moves x down to -3."""
    ineqs = (((-1,), 3), ((1,), 5))
    res = ReoptimizingSolver(1, (), ineqs, (0,)).maximize((-1,))
    assert res.status == OPTIMAL and res.value == 3 and res.primal == (-3,)
    assert res == TrackerSolver(1, (), ineqs, (0,)).maximize((-1,))
    assert certify(LinearProgram(MAX, (-1,), inequalities=ineqs), res)
    res = ReoptimizingSolver(1, (), ineqs, (0,)).minimize((1,))
    assert res.status == OPTIMAL and res.value == -3 and res.primal == (-3,)
    assert certify(LinearProgram(MIN, (1,), inequalities=ineqs), res)
    # nothing bounds x below
    below = ReoptimizingSolver(1, (), (((1,), 5),), (0,)).maximize((-1,))
    assert below.status == UNBOUNDED


def test_max_over_cyclic_polytope_hits_vertices():
    lp = LinearProgram(MAX, (0, 1), inequalities=facet_system(2, 1, 5))
    res = solve(lp, (1, 1))
    assert res.value == 25
    assert res.primal == (5, 25)
    assert certify(lp, res)


def test_duals_price_the_objective():
    lp = LinearProgram(
        MAX, (3, 5), inequalities=(((1, 0), 4), ((0, 2), 12), ((3, 2), 18))
    )
    res = solve(lp, (0, 0))
    assert res.value == 36
    # weak duality bound computed by hand from the returned multipliers
    y = res.dual_ineq
    assert all(v >= 0 for v in y)
    assert y[0] * 4 + y[1] * 12 + y[2] * 18 == 36
    assert certify(lp, res)


def test_certify_rejects_tampering():
    lp = LinearProgram(
        MAX, (3, 5), inequalities=(((1, 0), 4), ((0, 2), 12), ((3, 2), 18))
    )
    res = solve(lp, (0, 0))
    bad_value = LPResult(res.status, res.value + 1, res.primal, res.dual_ineq, res.dual_eq)
    assert not certify(lp, bad_value)
    duals = list(res.dual_ineq)
    duals[0] += 1
    bad_dual = LPResult(res.status, res.value, res.primal, tuple(duals), res.dual_eq)
    assert not certify(lp, bad_dual)
    assert not certify(lp, LPResult(UNBOUNDED))


@pytest.mark.parametrize("d,t1,t2", [(2, 1, 9), (2, -4, 4), (3, 1, 9), (4, 1, 10)])
def test_random_objectives_agree_with_vertex_scan(d, t1, t2):
    rng = random.Random(20260819 + d)
    ineqs = facet_system(d, t1, t2)
    start = vertex(CyclicPolytope(d, Interval(t1, t2)), t1)
    for _ in range(15):
        c = tuple(rng.randint(-9, 9) for _ in range(d))
        lp = LinearProgram(MAX, c, inequalities=ineqs)
        res = solve(lp, start)
        assert res.status == OPTIMAL
        assert res.value == vertex_maximum(c, d, t1, t2)
        assert certify(lp, res)


def test_warm_restarts_match_cold_solves():
    ineqs = facet_system(2, 1, 17)
    solver = ReoptimizingSolver(2, (), ineqs, (1, 1))
    rng = random.Random(7)
    for _ in range(25):
        c = (rng.randint(-9, 9), rng.randint(-9, 9))
        warm = solver.maximize(c)
        cold = solve(LinearProgram(MAX, c, inequalities=ineqs), (17, 289))
        assert warm.status == cold.status == OPTIMAL
        assert warm.value == cold.value
        assert warm.value == vertex_maximum(c, 2, 1, 17)


def test_feasible_point_start():
    # a vertex and an interior point; each objective lies inside the normal
    # cone of one vertex, so the optimum and its duals are unique
    ineqs = facet_system(2, 1, 9)
    at_vertex = ReoptimizingSolver(2, (), ineqs, (3, 9))
    inside = ReoptimizingSolver(2, (), ineqs, (5, 30))
    for c in ((1, 1), (0, -1), (-5, 2), (7, 0)):
        a, b = at_vertex.maximize(c), inside.maximize(c)
        assert a.status == b.status == OPTIMAL
        assert a.value == b.value
        assert a.dual_ineq == b.dual_ineq


def test_feasible_point_with_equations():
    eqs = (((1, -1, 0), 0),)  # x = y
    ineqs = (((1, 1, 1), 6), ((-1, 0, 0), 0), ((0, 0, -1), 0))
    solver = ReoptimizingSolver(3, eqs, ineqs, feasible_point=(1, 1, 1))
    res = solver.maximize((1, 1, 0))
    assert res.status == OPTIMAL and res.value == 6
    res = solver.maximize((0, 0, 1))
    assert res.value == 6


def test_feasible_point_must_be_feasible():
    ineqs = (((1,), 1),)
    with pytest.raises(DomainError):
        ReoptimizingSolver(1, (), ineqs, feasible_point=(2,))
    with pytest.raises(DomainError):
        ReoptimizingSolver(1, (((1,), 0),), ineqs, feasible_point=(1,))
    with pytest.raises(DomainError):
        ReoptimizingSolver(1, (), ineqs, feasible_point=(0, 0))


def test_violated_dependent_equation_is_domain_error():
    """2x = 1 depends on x = 0 and contradicts it, so the point 0 violates
    it; the solver builds no row for it, and refuses the system as it
    refuses a point that violates a kept equation."""
    eqs = (((1,), 0), ((2,), 1))
    ineqs = (((1,), 5),)
    with pytest.raises(DomainError):
        ReoptimizingSolver(1, eqs, ineqs, (0,))
    with pytest.raises(DomainError):
        solve(LinearProgram(MAX, (1,), eqs, ineqs), (0,))


def test_objective_length_checked():
    solver = ReoptimizingSolver(2, (), (((1, 1), 4),), (0, 0))
    with pytest.raises(DomainError):
        solver.maximize((1, 2, 3))
    with pytest.raises(DomainError):
        solve(LinearProgram("best", (1, 1), inequalities=(((1, 1), 4),)), (0, 0))


def test_degenerate_vertex_terminates():
    # three inequalities meeting at one point; Bland's rule must not cycle
    ineqs = (((1, 0), 1), ((0, 1), 1), ((1, 1), 2), ((2, 1), 3), ((1, 2), 3))
    lp = LinearProgram(MAX, (1, 1), inequalities=ineqs)
    res = solve(lp, (0, 0))
    assert res.status == OPTIMAL and res.value == 2
    assert certify(lp, res)


# ------------------------------------------------------------- properties

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def _dot(coeffs, x):
    return sum((c * xi for c, xi in zip(coeffs, x)), Fraction(0))


@st.composite
def feasible_systems(draw):
    """(nvars, equations, inequalities, x0): rational rows with
    denominators 1..6 and mixed signs, all satisfied by the point x0, with
    inequalities tight or slack at x0; sometimes with one more equation
    that combines the others, which the solver drops as dependent, and
    sometimes boxed so that more objectives are bounded."""
    nvars = draw(st.integers(1, 3))
    vec = st.lists(rationals, min_size=nvars, max_size=nvars).map(tuple)
    x0 = draw(vec)
    eqs = [(c, _dot(c, x0)) for c in draw(st.lists(vec, max_size=2))]
    if eqs and draw(st.booleans()):
        weights = draw(st.lists(rationals, min_size=len(eqs), max_size=len(eqs)))
        c = tuple(_dot(weights, col) for col in zip(*(e for e, _ in eqs)))
        eqs.append((c, _dot(c, x0)))
    slack = st.just(Fraction(0)) | rationals.map(abs)
    ineqs = [(c, _dot(c, x0) + draw(slack)) for c in draw(st.lists(vec, min_size=1, max_size=5))]
    if draw(st.booleans()):
        for j in range(nvars):
            unit = tuple(Fraction(int(k == j)) for k in range(nvars))
            ineqs.append((unit, Fraction(10)))
            ineqs.append((tuple(-u for u in unit), Fraction(10)))
    return nvars, tuple(eqs), tuple(ineqs), x0


@settings(max_examples=200, deadline=None)
@given(feasible_systems(), st.data())
def test_random_rational_lps_certify(system, data):
    nvars, eqs, ineqs, x0 = system
    objective = tuple(data.draw(st.lists(rationals, min_size=nvars, max_size=nvars)))
    sense = data.draw(st.sampled_from([MAX, MIN]))
    lp = LinearProgram(sense, objective, eqs, ineqs)
    res = solve(lp, x0)
    assert res.status in (OPTIMAL, UNBOUNDED)
    if res.status == OPTIMAL:
        assert certify(lp, res)
        assert type(res.value) is Fraction
        for entries in (res.primal, res.dual_ineq, res.dual_eq):
            assert all(type(x) is Fraction for x in entries)
        # the optimum is feasible too; a solve started there agrees
        again = solve(lp, res.primal)
        assert again.value == res.value
        assert certify(lp, again)


@settings(max_examples=200, deadline=None)
@given(feasible_systems(), st.data())
def test_solver_matches_tracker_layout(system, data):
    """Warm solves give the same results, entry types included, and leave
    the same basis as the reference layout (reference.TrackerSolver, its
    labels mapped to stored columns) after every solve: the same pivots and
    the same equation duals. The tableau rows carry the reference's
    slack-basic labels in its row order, and the set-aside rows its
    free-basic ones."""
    nvars, eqs, ineqs, x0 = system
    solver = ReoptimizingSolver(nvars, eqs, ineqs, x0)
    reference = TrackerSolver(nvars, eqs, ineqs, x0)

    def layout():
        return solver._basis, sorted(col for col, _, _ in solver._aside)

    def reference_layout():
        stored = [_stored(b, nvars)[0] for b in reference._basis]
        return [c for c in stored if c >= nvars], sorted(c for c in stored if c < nvars)

    assert layout() == reference_layout()
    query = st.tuples(
        st.lists(rationals, min_size=nvars, max_size=nvars), st.sampled_from([MAX, MIN])
    )
    for objective, sense in data.draw(st.lists(query, min_size=1, max_size=4)):
        if sense == MAX:
            res, ref = solver.maximize(objective), reference.maximize(objective)
        else:
            res, ref = solver.minimize(objective), reference.minimize(objective)
        assert res == ref
        if res.status == OPTIMAL:
            for vec, ref_vec in zip(
                (res.primal, res.dual_ineq, res.dual_eq),
                (ref.primal, ref.dual_ineq, ref.dual_eq),
            ):
                assert list(map(type, vec)) == list(map(type, ref_vec))
        assert layout() == reference_layout()
    # the drop happens at the first solve that finds every variable set
    # aside: `pytest --hypothesis-show-statistics` shows how often
    event("variable columns dropped" if solver._off == nvars else "variable columns kept")


def _stored(label, nvars):
    """(stored column, sign) of a label in the u/w numbering of
    reference.TrackerSolver and of FractionKeySolver's Bland scan: u_j is
    column j, w_j is the negative of column j, and slack k (label
    2 * nvars + k) is column nvars + k."""
    if label < nvars:
        return label, 1
    if label < 2 * nvars:
        return label - nvars, -1
    return label - nvars, 1


class FractionKeySolver(ReoptimizingSolver):
    """The ratio test as the key (Fraction(rhs, entry), basis label) over
    the rows basic in a slack, the reference for the solver's integer
    cross-multiplication. The entering label is the first negative entry of
    the objective row written out over every label: u_j, then w_j = -u_j,
    then the slacks, the reference for _entering; the pivot is at its
    stored column. A stored row starts at column solver._off: once the
    variable columns are dropped, they read 0 here."""

    def _simplex(self):
        rows, basis, rhs, nv = self._rows, self._basis, self._rhs, self._nv
        off = self._off
        while True:
            obj = [0] * off + self._obj
            reduced = obj[:nv] + [-v for v in obj[:nv]] + obj[nv:rhs]
            label = next((j for j, v in enumerate(reduced) if v < 0), None)
            if label is None:
                return OPTIMAL
            col, sign = _stored(label, nv)
            keys = [
                ((Fraction(row[rhs - off], sign * row[col - off]), basis[i]), i)
                for i, row in enumerate(rows)
                if sign * row[col - off] > 0 and basis[i] >= nv
            ]
            if not keys:
                return UNBOUNDED
            self._pivot(min(keys)[1], col)


@settings(max_examples=200, deadline=None)
@given(feasible_systems(), st.data())
def test_ratio_test_matches_fraction_key(system, data):
    """Same leaving row on every pivot, ties included: the systems are
    often degenerate (inequalities tight at the start), so ratios tie."""
    nvars, eqs, ineqs, x0 = system
    solver = ReoptimizingSolver(nvars, eqs, ineqs, x0)
    reference = FractionKeySolver(nvars, eqs, ineqs, x0)
    vec = st.lists(rationals, min_size=nvars, max_size=nvars)
    for objective in data.draw(st.lists(vec, min_size=1, max_size=4)):
        assert solver.maximize(objective) == reference.maximize(objective)
        assert solver._basis == reference._basis


@settings(max_examples=200, deadline=None)
@given(feasible_systems(), st.data())
def test_free_variables_never_leave_the_basis(system, data):
    """No pivot takes out a row basic in a variable (label < nvars):
    start-basis pivots replace an unlabelled equation row, and simplex
    pivots a row basic in a slack. Warm maxima and minima still certify."""
    nvars, eqs, ineqs, x0 = system
    left = []
    original = ReoptimizingSolver._pivot

    def recording(self, pi, label):
        left.append(self._basis[pi])
        original(self, pi, label)

    query = st.tuples(
        st.lists(rationals, min_size=nvars, max_size=nvars), st.sampled_from([MAX, MIN])
    )
    queries = data.draw(st.lists(query, min_size=1, max_size=4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReoptimizingSolver, "_pivot", recording)
        solver = ReoptimizingSolver(nvars, eqs, ineqs, x0)
        for objective, sense in queries:
            res = solver.maximize(objective) if sense == MAX else solver.minimize(objective)
            if res.status == OPTIMAL:
                assert certify(LinearProgram(sense, tuple(objective), eqs, ineqs), res)
    assert all(b is None or b >= nvars for b in left)


def _row_holds(support, nvars, x0, ineqs, x):
    """A stored row, read as sum v * column = rhs over the point x: a
    variable column holds x_j - x0_j and slack k holds rhs_k - <g_k, x>."""
    rhs_col = nvars + len(ineqs)
    total = Fraction(0)
    for j, v in support:
        if j < nvars:
            total += v * (x[j] - x0[j])
        elif j < rhs_col:
            coeffs, rhs = ineqs[j - nvars]
            total += v * (rhs - _dot(coeffs, x))
        else:
            total -= v
    return total == 0


@settings(max_examples=200, deadline=None)
@given(feasible_systems(), st.data())
def test_set_aside_rows_stay_fixed(system, data):
    """After every pivot no tableau row is basic in a variable column, each
    variable is set aside at most once, and every set-aside row stays
    bit-identical to the row that left. Each holds as an equation at every
    optimum, which is what _value_point back-substitutes. _pivot takes a
    column id, stored or dropped layout alike, so col < nvars is a
    variable entering; none enters once the variable columns are dropped,
    and every stored row is then nvars integers narrower."""
    nvars, eqs, ineqs, x0 = system
    left = []
    original = ReoptimizingSolver._pivot

    def recording(self, pi, col):
        dropped = self._off == nvars > 0
        original(self, pi, col)
        assert all(b is None or b >= nvars for b in self._basis)
        if col < nvars:
            assert not dropped
            left.append(copy.deepcopy(self._aside[-1]))
        assert self._aside == left
        width = nvars + len(ineqs) + 1 - self._off
        assert all(len(row) == width for row in self._rows) and len(self._obj) == width

    query = st.tuples(
        st.lists(rationals, min_size=nvars, max_size=nvars), st.sampled_from([MAX, MIN])
    )
    queries = data.draw(st.lists(query, min_size=1, max_size=4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReoptimizingSolver, "_pivot", recording)
        solver = ReoptimizingSolver(nvars, eqs, ineqs, x0)
        for objective, sense in queries:
            res = solver.maximize(objective) if sense == MAX else solver.minimize(objective)
            assert solver._aside == left
            cols = [col for col, _, _ in left]
            assert len(set(cols)) == len(cols)
            if res.status == OPTIMAL:
                for _, _, support in left:
                    assert _row_holds(support, nvars, x0, ineqs, res.primal)


def test_back_substitution_reads_later_entries():
    """x enters first, on x + y = 1, and its set-aside row reads y; y
    enters next, on 3y + 2z = 0, and its row reads z, which enters only in
    the simplex. _value_point resolves z, then y, then x."""
    eqs = (((1, 1, 0), 1), ((0, 3, 2), 0))
    ineqs = (((0, 0, 1), 4), ((0, 0, -1), 4))
    solver = ReoptimizingSolver(3, eqs, ineqs, (1, 0, 0))
    reference = TrackerSolver(3, eqs, ineqs, (1, 0, 0))
    res = solver.maximize((0, 0, 1))
    assert [col for col, _, _ in solver._aside] == [0, 1, 2]
    (_, _, x_row), (_, _, y_row), _ = solver._aside
    assert dict(x_row)[1] and dict(y_row)[2]
    assert res.primal == (Fraction(11, 3), Fraction(-8, 3), 4) and res.value == 4
    assert res == reference.maximize((0, 0, 1))
    assert certify(LinearProgram(MAX, (0, 0, 1), eqs, ineqs), res)
    res = solver.minimize((0, 0, 1))
    assert res.primal == (Fraction(-5, 3), Fraction(8, 3), -4) and res.value == -4
    assert res == reference.minimize((0, 0, 1))
    assert certify(LinearProgram(MIN, (0, 0, 1), eqs, ineqs), res)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-6, 3),
    st.integers(5, 12),
    st.lists(st.builds(Fraction, st.integers(1, 9), st.integers(1, 6)), min_size=13, max_size=13),
    st.lists(
        st.tuples(st.integers(0, 10**6), rationals, rationals, st.booleans()),
        min_size=1,
        max_size=8,
    ),
)
def test_warm_solves_equal_fresh_solves(t1, length, scales, queries):
    """Over a degree-2 cyclic polytope (every vertex on exactly two facets)
    whose facet rows are scaled by positive rationals, a warm solver and a
    fresh solve agree on every objective. For an objective inside the
    normal cone of a vertex (a positive combination of its two facet
    normals) the optimum and its duals are unique, so the whole LPResult
    must be equal; for any other objective the values must be."""
    t2 = t1 + length
    p = CyclicPolytope(2, Interval(t1, t2))
    facets = enumerate_facets(p)
    ineqs = tuple(
        (tuple(s * a for a in facet_inequality(p, S).a), s * facet_inequality(p, S).b)
        for S, s in zip(facets, scales)
    )
    solver = ReoptimizingSolver(2, (), ineqs, vertex(p, t1))
    for pick, w1, w2, cone in queries:
        if cone:
            t = t1 + pick % (length + 1)
            at = [k for k, S in enumerate(facets) if t in S.members]
            assert len(at) == 2
            objective = tuple(
                abs(w1 or 1) * a + abs(w2 or 1) * b
                for a, b in zip(ineqs[at[0]][0], ineqs[at[1]][0])
            )
        else:
            objective = (w1, w2)
        warm = solver.maximize(objective)
        fresh = solve(LinearProgram(MAX, objective, inequalities=ineqs), vertex(p, t2))
        assert warm.status == fresh.status == OPTIMAL
        assert warm.value == fresh.value
        assert certify(LinearProgram(MAX, objective, inequalities=ineqs), warm)
        if cone:
            assert warm == fresh


def test_tableau_rows_stay_in_lowest_terms(monkeypatch):
    """Every pivot of small degenerate programs, with equations and
    fractional coefficients, leaves each tableau row, the set-aside row and
    the objective row with a positive denominator and gcd(den, *row) == 1.
    A stored row holds one column per variable and per inequality handed
    to the solver, plus the rhs, from the stored offset on: the width is
    nvars - offset + len(ineqs) + 1, where the offset is 0 until every
    variable has been set aside and nvars after. A set-aside row keeps its
    support in column ids. The pivot row's basic column reads 1. The
    objective row stays priced out: it is 0 at every basic column, the
    set-aside ones included while they are stored (an equation row not
    pivoted yet has none). Each system is solved once per objective and
    then warm, every objective on one solver, so that the checks also run
    after the variable columns are dropped."""
    checked = []
    priced = []
    dropped = []
    original = ReoptimizingSolver._pivot
    nvars = nineqs = None

    def checking(self, pi, pc):
        aside = len(self._aside)
        original(self, pi, pc)
        off = self._off
        assert off in (0, nvars) and (off == 0 or len(self._aside) == nvars)
        width = nvars - off + nineqs + 1
        assert len(self._rows) == len(self._dens) == len(self._basis)
        for row, den in zip(self._rows, self._dens):
            assert den > 0 and gcd(den, *row) == 1
            assert all(type(x) is int for x in row)
            assert len(row) == width
        if pc < self._nv:  # the pivot row was set aside as it stands
            assert not off  # no variable enters after the drop
            assert len(self._aside) == aside + 1
            col, den, support = self._aside[-1]
            row = dict(support)
            assert col == pc and den > 0 and gcd(den, *row.values()) == 1
            assert all(type(x) is int and x for x in row.values())
            assert list(row) == sorted(row) and max(row) < nvars + nineqs + 1
            assert row[pc] == den  # basic column reads 1
        else:
            assert len(self._aside) == aside
            assert self._rows[pi][pc - off] == self._dens[pi]  # basic column reads 1
            den = self._dens[pi]
        obj, oden = self._obj, self._oden
        assert oden > 0 and gcd(oden, *obj) == 1
        assert all(type(x) is int for x in obj)
        assert len(obj) == width
        assert all(obj[b - off] == 0 for b in self._basis if b is not None)
        assert all(obj[col - off] == 0 for col, _, _ in self._aside if col >= off)
        checked.append(max(self._dens + [den]))
        priced.append(oden)
        if off:
            dropped.append(pc)

    monkeypatch.setattr(ReoptimizingSolver, "_pivot", checking)
    h = Fraction(1, 2)
    degenerate = (
        ((1, 0), 1), ((0, 1), 1), ((1, 1), 2), ((2, 1), 3), ((1, 2), 3),
        ((3 * h, 3 * h), 3), ((Fraction(2, 3), Fraction(1, 3)), 1),
    )
    nvars, nineqs = 2, len(degenerate)
    for objective in ((1, 1), (3, 1), (1, Fraction(5, 3)), (1, 2)):
        lp = LinearProgram(MAX, objective, inequalities=degenerate)
        res = solve(lp, (0, 0))
        assert certify(lp, res)
    # boxed below too, so that objectives pointing down stay bounded
    boxed = degenerate + (((-1, 0), 2), ((0, -1), 2))
    nineqs = len(boxed)
    warm = ReoptimizingSolver(nvars, (), boxed, (0, 0))
    for objective in ((1, 1), (3, 1), (1, Fraction(5, 3)), (-1, -2), (2, -1), (-1, 3), (1, 2)):
        res = warm.maximize(objective)
        assert certify(LinearProgram(MAX, objective, inequalities=boxed), res)
    assert warm._off == nvars and dropped
    eqs = (((Fraction(3, 2), -1, Fraction(1, 3)), Fraction(1, 2)), ((3, -2, Fraction(2, 3)), 1))
    ineqs = (
        ((1, 1, 1), 6), ((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0),
        ((Fraction(1, 4), Fraction(1, 6), 0), 1),
    )
    # the second equation is twice the first: its row is dropped when the
    # start pivots reach it
    nvars, nineqs = 3, len(ineqs)
    lp = LinearProgram(MAX, (1, 2, 3), eqs, ineqs)
    res = solve(lp, (1, 1, 0))
    assert res.status == OPTIMAL and certify(lp, res)
    dropped.clear()
    warm = ReoptimizingSolver(nvars, eqs, ineqs, (1, 1, 0))
    for objective in ((1, 2, 3), (3, 1, 0), (0, -1, 1), (-1, -1, -1), (1, 0, Fraction(1, 2))):
        res = warm.maximize(objective)
        assert res.status == OPTIMAL
        assert certify(LinearProgram(MAX, objective, eqs, ineqs), res)
    assert warm._off == nvars and dropped
    assert checked and max(checked) > 1
    assert max(priced) > 1


# x in [-4, 4], y <= 3, x + y <= 5: the first maximum brings both variables
# into the basis, so the next solve drops the variable columns
_WARM_INEQS = (((1, 0), 4), ((-1, 0), 4), ((0, 1), 3), ((1, 1), 5))


def _warm_pair(ineqs):
    """A solver and the reference layout over the same system, after a
    first maximum of x + y that sets both variables aside."""
    solver = ReoptimizingSolver(2, (), ineqs, (0, 0))
    reference = TrackerSolver(2, (), ineqs, (0, 0))
    res = solver.maximize((1, 1))
    assert res == reference.maximize((1, 1))
    assert sorted(col for col, _, _ in solver._aside) == [0, 1] and solver._off == 0
    return solver, reference


def _same_and_certified(solver, reference, objective, sense, ineqs):
    if sense == MAX:
        res, ref = solver.maximize(objective), reference.maximize(objective)
    else:
        res, ref = solver.minimize(objective), reference.minimize(objective)
    assert res == ref
    if res.status == OPTIMAL:
        assert certify(LinearProgram(sense, objective, inequalities=ineqs), res)
    return res


def test_unbounded_after_the_drop():
    """Every variable has entered; the next objective, min y, is unbounded
    (nothing bounds y below), and the solve that finds it is the one that
    drops the variable columns. Later solves go on from that basis."""
    solver, reference = _warm_pair(_WARM_INEQS)
    res = _same_and_certified(solver, reference, (0, 1), MIN, _WARM_INEQS)
    assert res.status == UNBOUNDED and solver._off == 2
    assert all(len(row) == len(_WARM_INEQS) + 1 for row in solver._rows)
    for objective, sense in (((1, 0), MAX), ((1, 1), MAX), ((1, -1), MIN), ((1, 0), MIN)):
        res = _same_and_certified(solver, reference, objective, sense, _WARM_INEQS)
        assert res.status == OPTIMAL
    assert res.value == -4 and res.primal[0] == -4


def test_negative_optimum_after_the_drop():
    """Every variable has entered; the next optimum, with y >= -3 added,
    puts both variables at negative values, read by back-substitution
    from slack-only tableau rows."""
    ineqs = _WARM_INEQS + (((0, -1), 3),)
    solver, reference = _warm_pair(ineqs)
    res = _same_and_certified(solver, reference, (1, 1), MIN, ineqs)
    assert solver._off == 2
    assert res.status == OPTIMAL and res.value == -7 and res.primal == (-4, -3)
    res = _same_and_certified(solver, reference, (-1, -2), MAX, ineqs)
    assert res.value == 10 and res.primal == (-4, -3)
    res = _same_and_certified(solver, reference, (Fraction(1, 3), -1), MAX, ineqs)
    assert res.primal == (4, -3) and res.value == Fraction(13, 3)


def test_unconstrained_variable_keeps_the_columns():
    """z's column is 0 in every constraint, so z never enters: an
    objective that reads z is unbounded before any pivot, and every other
    one leaves z at its start value. Not every variable is set aside, so
    the solver never drops the variable columns, and its results still
    match the reference layout."""
    eqs = (((1, -1, 0), 0),)  # x = y
    ineqs = (((1, 1, 0), 6), ((-1, 0, 0), 2))
    start = (1, 1, Fraction(5, 2))
    solver = ReoptimizingSolver(3, eqs, ineqs, start)
    reference = TrackerSolver(3, eqs, ineqs, start)
    queries = (((1, 0, 0), MAX), ((0, 0, 1), MAX), ((0, 1, 0), MIN), ((1, 2, -1), MIN), ((2, 1, 0), MAX))
    for objective, sense in queries:
        if sense == MAX:
            res, ref = solver.maximize(objective), reference.maximize(objective)
        else:
            res, ref = solver.minimize(objective), reference.minimize(objective)
        assert res == ref
        if objective[2]:
            assert res.status == UNBOUNDED
        else:
            assert res.status == OPTIMAL and res.primal[2] == Fraction(5, 2)
            assert certify(LinearProgram(sense, objective, eqs, ineqs), res)
        assert 2 not in [col for col, _, _ in solver._aside] and solver._off == 0
    assert sorted(col for col, _, _ in solver._aside) == [0, 1]
    assert all(len(row) == 3 + len(ineqs) + 1 for row in solver._rows)


# the three rows of x = y: one independent equation and two dependent ones
_DEPENDENT_EQS = (((1, -1, 0), 0), ((2, -2, 0), 0), ((-1, 1, 0), 0))
_DEPENDENT_INEQS = (((1, 1, 0), 6), ((-1, 0, 0), 2), ((0, 0, 1), 3), ((0, 0, -1), 3))


@pytest.mark.parametrize(
    "nvars, eqs, ineqs, start",
    [
        (2, (), _WARM_INEQS + (((0, -1), 3),), (0, 0)),
        (3, _DEPENDENT_EQS, _DEPENDENT_INEQS, (1, 1, 0)),
    ],
    ids=["no equations", "dependent equations"],
)
def test_full_results_after_value_queries_drop_the_columns(nvars, eqs, ineqs, start):
    """Value queries (maximum, minimum) build no dual but move the basis
    like any solve; once they have brought every variable in and a solve
    has dropped the variable columns, maximize and minimize still return
    duals that certify accepts, one dual_eq entry per equation given, and
    the value and point the value queries give from the same basis."""
    solver = ReoptimizingSolver(nvars, eqs, ineqs, start)
    queries = [(1,) * nvars, (1,) + (-1,) * (nvars - 1), (-1,) * nvars, (0,) * (nvars - 1) + (1,)]
    for k, objective in enumerate(queries):
        found = (solver.maximum if k % 2 else solver.minimum)(objective)
        assert found is not None
    assert len(solver._aside) == nvars
    assert solver.maximum((1,) * nvars) is not None and solver._off == nvars
    for objective in ((1,) * nvars, (-2,) + (1,) * (nvars - 1), (0,) * (nvars - 1) + (-1,)):
        for sense in (MAX, MIN):
            full = solver.maximize if sense == MAX else solver.minimize
            res = full(objective)
            assert res.status == OPTIMAL and len(res.dual_eq) == len(eqs)
            assert certify(LinearProgram(sense, objective, eqs, ineqs), res)
            lean = solver.maximum if sense == MAX else solver.minimum
            assert lean(objective) == (res.value, res.primal)


_INEXACT = (1.5, 2.0, "1", "1/2", None)


@pytest.mark.parametrize("bad", _INEXACT, ids=repr)
@pytest.mark.parametrize(
    "where",
    ["objective", "equation coefficient", "equation rhs", "inequality coefficient", "inequality rhs"],
)
def test_inexact_number_is_domain_error(where, bad):
    """A number of the program that is not an int or a Fraction is a
    DomainError that names it, through solve and through the solver, for
    a maximum and a minimum; a solver that refused an objective still
    solves the next one."""
    objective = [1, 1]
    eqs = [[[1, -1], 0]]
    ineqs = [[[1, 1], 4], [[-1, 0], 0]]
    row, at = {
        "objective": (objective, 0),
        "equation coefficient": (eqs[0][0], 1),
        "equation rhs": (eqs[0], 1),
        "inequality coefficient": (ineqs[1][0], 0),
        "inequality rhs": (ineqs[0], 1),
    }[where]
    row[at] = bad
    eqs = tuple((tuple(c), r) for c, r in eqs)
    ineqs = tuple((tuple(c), r) for c, r in ineqs)
    named = re.escape(repr(bad))
    for sense in (MAX, MIN):
        with pytest.raises(DomainError, match=named):
            solve(LinearProgram(sense, tuple(objective), eqs, ineqs), (0, 0))
    if where == "objective":
        solver = ReoptimizingSolver(2, eqs, ineqs, (0, 0))
        for call in (solver.maximize, solver.minimize):
            with pytest.raises(DomainError, match=named):
                call(objective)
        assert solver.maximize((1, 1)).value == 4
    else:
        with pytest.raises(DomainError, match=named):
            ReoptimizingSolver(2, eqs, ineqs, (0, 0))


def test_exact_numbers_of_every_kind_are_accepted():
    """ints, bools and Fractions are exact; the feasible point is read
    through Fraction(), which converts a float exactly."""
    eqs = (((1, -1), 0),)
    ineqs = (((1, True), 4), ((Fraction(-1), 0), Fraction(0)))
    lp = LinearProgram(MAX, (True, Fraction(1)), eqs, ineqs)
    res = solve(lp, (0.5, 0.5))
    assert res.status == OPTIMAL and res.value == 4 and res.primal == (2, 2)
    assert certify(lp, res)
