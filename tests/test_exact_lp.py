"""Exact simplex: frozen instances, status detection, duals, certificates,
warm restarts, and randomized cross-checks against vertex enumeration."""

import copy
import random
import re
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cyclift.errors import DomainError, InternalError
from cyclift.exact_lp import (
    MAX,
    MIN,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LPResult,
    ReoptimizingSolver,
    certify,
    independent_equations,
    solve,
)
from cyclift.factorization import factorize
from cyclift.geometry import CyclicPolytope, Interval, enumerate_facets, facet_inequality, vertex
from cyclift.lifting import (
    EfOptimizer,
    build_ef_2d,
    ef_from_factorization,
    hull_ef,
    lift_objective,
    pair_product_ef,
)

import cyclift.exact_lp as exact_lp
from reference import TrackerSolver, dictionary, vertex_maximum


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
    it; the solver checks every equation at the point, the dependent ones
    included, and refuses the system."""
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
nonzero_rationals = st.builds(Fraction, st.integers(-9, -1) | st.integers(1, 9), st.integers(1, 6))


def _dot(coeffs, x):
    return sum((c * xi for c, xi in zip(coeffs, x)), Fraction(0))


@contextmanager
def _rows_drawn(data):
    """A block in which every solver built keeps its rows packed or as
    lists for the simplex, drawn: a tableau with fewer than _PACKED_MIN
    slots, or rows with two nonzero positions, keeps lists (_packs), as
    every small system here would."""
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans(), label="packed rows"):
            mp.setattr(exact_lp, "_PACKED_MIN", 0)
        yield mp


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
    with _rows_drawn(data):
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


def _entries(solver):
    """Each tableau row's entries, its positions and then the rhs, read
    from the packed ints or the lists."""
    if solver._packed:
        return [solver._decode(row) for row in solver._rows]
    return [list(row) for row in solver._rows]


def _tableau(solver):
    """Every tableau row basic in a slack as {column id: Fraction}, over
    its den, in the unscaled slacks (slack k is rhs_k - <g_k, x>, and the
    solver's column nvars + k is that times _scales[k]), its basic slack
    reading 1. Keyed by the basic slack; an equation row the set-up has
    not pivoted yet has none and is left out."""
    nv, rhs, scales = solver._nv, solver._rhs, solver._scales
    rows = {}
    for entries, den, b in zip(_entries(solver), solver._dens, solver._basis):
        if b is not None:
            row = dict(zip(solver._cols + [rhs], entries))
            row[b] = den
            rows[b] = (row, den)
    return {
        b: {
            c: Fraction(v * (scales[c - nv] if nv <= c < rhs else 1), den * scales[b - nv])
            for c, v in row.items()
            if v
        }
        for b, (row, den) in rows.items()
    }


def _reference_tableau(reference, nvars):
    """reference.TrackerSolver's slack-basic rows in the same form: its u
    columns are the variables, and its w and tracker columns are left out."""
    ref = reference
    ineqs = ref._track0 - ref._slack0
    columns = list(range(nvars)) + [ref._slack0 + k for k in range(ineqs)] + [ref._rhs]
    ids = list(range(nvars)) + [nvars + k for k in range(ineqs)] + [nvars + ineqs]
    return {
        b - nvars: {c: Fraction(row[j], den) for c, j in zip(ids, columns) if row[j]}
        for row, den, b in zip(ref._rows, ref._dens, ref._basis)
        if ref._slack0 <= b < ref._track0
    }


def _check_layout(solver):
    """The nonbasic layout: the position list holds exactly the column ids
    that are neither basic in a tableau row nor set aside, each once, and
    _order lists the positions in column-id order. Every tableau row and
    the objective row hold one int per position plus the rhs. Packed, the
    rows share one common denominator: read over it (times den over the
    row's own den) every row is integral and within _bound, every slot
    holds _bound, and every row is the one packing of its entries; as
    lists (the set-up's rows, a tableau _packs keeps as lists, or one
    unpacked), each row is in lowest terms over a positive den. So are
    the objective row and every set-aside row."""
    cols, nvars = solver._cols, solver._nv
    basic = {b for b in solver._basis if b is not None}
    aside = {col for col, _, _ in solver._aside}
    assert len(set(cols)) == len(cols)
    assert set(cols) == set(range(solver._rhs)) - basic - aside
    assert [cols[j] for j in solver._order] == sorted(cols)
    # a variable is never basic in a tableau row, so the variables at a
    # position are the ones not set aside
    assert sum(c < nvars for c in cols) == nvars - len(aside)
    assert len(solver._rows) == len(solver._dens) == len(solver._basis)
    rows = _entries(solver)
    for row, den in zip(rows, solver._dens):
        assert len(row) == len(cols) + 1
        assert all(type(x) is int for x in row) and type(den) is int and den > 0
    if solver._packed:
        common, most = solver._den, solver._bound
        assert common > 0 and most.bit_length() < exact_lp._W
        for packed, row, den in zip(solver._rows, rows, solver._dens):
            assert type(packed) is int and solver._encode(row) == packed
            assert all(x * common % den == 0 and abs(x) * common // den <= most for x in row)
    else:
        assert all(gcd(den, *row) == 1 for row, den in zip(rows, solver._dens))
    obj, oden = solver._obj, solver._oden
    assert len(obj) == len(cols) + 1 and all(type(x) is int for x in obj)
    assert oden > 0 and gcd(oden, *obj) == 1
    for _, den, support in solver._aside:
        assert den > 0 and gcd(den, *(v for _, v in support)) == 1


@settings(max_examples=200, deadline=None)
@given(feasible_systems(), st.data())
def test_solver_matches_tracker_layout(system, data):
    """Warm solves give the same results, entry types included, and leave
    the same basis as the reference layout (reference.TrackerSolver, its
    labels mapped to column ids) after every solve: the same pivots and
    the same equation duals. The tableau rows carry the reference's
    slack-basic labels in its row order, the set-aside rows its free-basic
    ones, and every tableau row, decoded, is the reference's row."""
    nvars, eqs, ineqs, x0 = system
    with _rows_drawn(data):
        solver = ReoptimizingSolver(nvars, eqs, ineqs, x0)
    reference = TrackerSolver(nvars, eqs, ineqs, x0)

    assert _layout(solver) == _reference_layout(reference, nvars)
    assert _tableau(solver) == _reference_tableau(reference, nvars)
    _check_layout(solver)
    query = st.tuples(
        st.lists(rationals, min_size=nvars, max_size=nvars), st.sampled_from([MAX, MIN])
    )
    for objective, sense in data.draw(st.lists(query, min_size=1, max_size=4)):
        _assert_same_result(*_solve_both(solver, reference, objective, sense))
        assert _layout(solver) == _reference_layout(reference, nvars)
        assert _tableau(solver) == _reference_tableau(reference, nvars)
        _check_layout(solver)
    # once every variable is set aside, every position holds a slack:
    # `pytest --hypothesis-show-statistics` shows how often
    event("every variable set aside" if len(solver._aside) == nvars else "a variable at a position")


def _layout(solver):
    """(basic slacks of the tableau rows in row order, set-aside variables
    sorted)."""
    return solver._basis, sorted(col for col, _, _ in solver._aside)


def _reference_layout(reference, nvars):
    ids = [_column(b, nvars)[0] for b in reference._basis]
    return [c for c in ids if c >= nvars], sorted(c for c in ids if c < nvars)


def _assert_same_result(res, ref):
    """Equal results, and the same type at every entry of an optimum."""
    assert res == ref
    if res.status == OPTIMAL:
        for vec, ref_vec in zip(
            (res.primal, res.dual_ineq, res.dual_eq),
            (ref.primal, ref.dual_ineq, ref.dual_eq),
        ):
            assert list(map(type, vec)) == list(map(type, ref_vec))


def _solve_both(solver, reference, objective, sense):
    if sense == MAX:
        return solver.maximize(objective), reference.maximize(objective)
    return solver.minimize(objective), reference.minimize(objective)


def _column(label, nvars):
    """(column id, sign) of a label in the u/w numbering of
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
    cross-multiplication, read from the decoded rows. The entering label is the first negative
    entry of the objective row written out over every label: u_j, then
    w_j = -u_j, then the slacks, the reference for _entering; a column at
    no position (basic or set aside) reads 0 there. The pivot is at the
    position of the label's column."""

    def _simplex(self):
        basis, rhs, nv = self._basis, self._rhs, self._nv
        while True:
            obj = [0] * rhs
            for c, v in zip(self._cols, self._obj):
                obj[c] = v
            reduced = obj[:nv] + [-v for v in obj[:nv]] + obj[nv:]
            label = next((j for j, v in enumerate(reduced) if v < 0), None)
            if label is None:
                return OPTIMAL
            col, sign = _column(label, nv)
            at = self._cols.index(col)
            rows = _entries(self)
            keys = [
                ((Fraction(row[-1], sign * row[at]), basis[i]), i)
                for i, row in enumerate(rows)
                if sign * row[at] > 0 and basis[i] >= nv
            ]
            if not keys:
                return UNBOUNDED
            self._pivot(min(keys)[1], at, [row[at] for row in rows])


@settings(max_examples=200, deadline=None)
@given(feasible_systems(), st.data())
def test_ratio_test_matches_fraction_key(system, data):
    """Same leaving row on every pivot, ties included: the systems are
    often degenerate (inequalities tight at the start), so ratios tie."""
    nvars, eqs, ineqs, x0 = system
    with _rows_drawn(data):
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
    pivots a row basic in a slack. Warm maxima and minima still
    certify."""
    nvars, eqs, ineqs, x0 = system
    left = []
    original = ReoptimizingSolver._pivot

    def recording(self, pi, ps, column):
        left.append(self._basis[pi])
        original(self, pi, ps, column)

    query = st.tuples(
        st.lists(rationals, min_size=nvars, max_size=nvars), st.sampled_from([MAX, MIN])
    )
    queries = data.draw(st.lists(query, min_size=1, max_size=4))
    with _rows_drawn(data) as mp:
        mp.setattr(ReoptimizingSolver, "_pivot", recording)
        solver = ReoptimizingSolver(nvars, eqs, ineqs, x0)
        for objective, sense in queries:
            res = solver.maximize(objective) if sense == MAX else solver.minimize(objective)
            if res.status == OPTIMAL:
                assert certify(LinearProgram(sense, tuple(objective), eqs, ineqs), res)
    assert all(b is None or b >= nvars for b in left)


def _row_holds(support, nvars, x0, ineqs, x, scales=None):
    """A row in column ids, read as sum v * column = rhs over the point x:
    a variable column holds x_j - x0_j and slack k holds rhs_k - <g_k, x>,
    times scales[k] when the row is in the solver's scaled slacks."""
    rhs_col = nvars + len(ineqs)
    total = Fraction(0)
    for j, v in support:
        if j < nvars:
            total += v * (x[j] - x0[j])
        elif j < rhs_col:
            coeffs, rhs = ineqs[j - nvars]
            total += v * (rhs - _dot(coeffs, x)) * (scales[j - nvars] if scales else 1)
        else:
            total -= v
    return total == 0


@settings(max_examples=200, deadline=None)
@given(feasible_systems(), st.data())
def test_set_aside_rows_stay_fixed(system, data):
    """After every pivot no tableau row is basic in a variable column, each
    variable is set aside at most once, and every set-aside row stays
    bit-identical to the row that left. Each holds as an equation at every
    optimum, which is what _value_point back-substitutes (in the solver's
    scaled slacks), and so does each tableau row, decoded. _pivot takes a
    position, so the column entering is the one there before the pivot:
    a variable is set aside, and every row keeps the nonbasic layout
    (_check_layout). A start-basis pivot deletes its position, and a
    simplex pivot keeps the width."""
    nvars, eqs, ineqs, x0 = system
    left = []
    original = ReoptimizingSolver._pivot

    def recording(self, pi, ps, column):
        col, leaving, width = self._cols[ps], self._basis[pi], len(self._cols)
        original(self, pi, ps, column)
        assert all(b is None or b >= nvars for b in self._basis)
        if col < nvars:
            left.append(copy.deepcopy(self._aside[-1]))
        assert self._aside == left
        assert len(self._cols) == width - (leaving is None)
        if leaving is not None:
            assert self._cols[ps] == leaving
        _check_layout(self)

    query = st.tuples(
        st.lists(rationals, min_size=nvars, max_size=nvars), st.sampled_from([MAX, MIN])
    )
    queries = data.draw(st.lists(query, min_size=1, max_size=4))
    with _rows_drawn(data) as mp:
        mp.setattr(ReoptimizingSolver, "_pivot", recording)
        solver = ReoptimizingSolver(nvars, eqs, ineqs, x0)
        for objective, sense in queries:
            res = solver.maximize(objective) if sense == MAX else solver.minimize(objective)
            assert solver._aside == left
            cols = [col for col, _, _ in left]
            assert len(set(cols)) == len(cols)
            if res.status == OPTIMAL:
                for _, _, support in left:
                    assert _row_holds(support, nvars, x0, ineqs, res.primal, solver._scales)
                for row in _tableau(solver).values():
                    assert _row_holds(row.items(), nvars, x0, ineqs, res.primal)


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


@st.composite
def systems_with_dependent_equations(draw):
    """feasible_systems with one to four more equations, each at a random
    position: a duplicate of an equation, a nonzero rational multiple of
    one, the sum of two, or the all-zero row. Each lies in the span of the
    equations drawn before it and holds at x0, so the system has more
    equations than rank and stays consistent."""
    nvars, eqs, ineqs, x0 = draw(feasible_systems())
    eqs = list(eqs)
    kinds = st.lists(st.sampled_from(("duplicate", "scaled", "sum", "zero")), min_size=1, max_size=4)
    for kind in draw(kinds):
        pick = st.sampled_from([c for c, _ in eqs]) if eqs else st.nothing()
        if kind == "zero" or not eqs:
            c = (Fraction(0),) * nvars
        elif kind == "duplicate":
            c = draw(pick)
        elif kind == "scaled":
            scale = draw(nonzero_rationals)
            c = tuple(scale * v for v in draw(pick))
        else:
            c = tuple(a + b for a, b in zip(draw(pick), draw(pick)))
        eqs.insert(draw(st.integers(0, len(eqs))), (c, _dot(c, x0)))
    return nvars, tuple(eqs), ineqs, x0


@settings(max_examples=200, deadline=None)
@given(systems_with_dependent_equations(), st.data())
def test_start_pivots_keep_the_independent_equations(system, data):
    """The set-up pivots are the independence check: the equations they
    pivot are independent_equations' positions, and warm solves give
    reference.TrackerSolver's results, entry types included. A dropped
    equation whose rhs is moved contradicts the others: independent_equations
    refuses the system, and the solver raises the DomainError a violated
    equation raises."""
    nvars, eqs, ineqs, x0 = system
    with _rows_drawn(data):
        solver = ReoptimizingSolver(nvars, eqs, ineqs, x0)
    reference = TrackerSolver(nvars, eqs, ineqs, x0)
    assert solver._kept_eqs == independent_equations(eqs)
    query = st.tuples(
        st.lists(rationals, min_size=nvars, max_size=nvars), st.sampled_from([MAX, MIN])
    )
    for objective, sense in data.draw(st.lists(query, min_size=1, max_size=3)):
        _assert_same_result(*_solve_both(solver, reference, objective, sense))
    dropped = sorted(set(range(len(eqs))) - set(solver._kept_eqs))
    assert dropped
    at = data.draw(st.sampled_from(dropped))
    bad = list(eqs)
    bad[at] = (eqs[at][0], eqs[at][1] + data.draw(nonzero_rationals))
    with pytest.raises(InternalError):
        independent_equations(bad)
    with pytest.raises(DomainError, match="^feasible point violates an equation$"):
        ReoptimizingSolver(nvars, bad, ineqs, x0)


def _wide_rationals(bits):
    return st.builds(Fraction, st.integers(-(2**bits), 2**bits), st.integers(1, 2 ** (bits - 10)))


def _wide_positive(bits):
    low = 2 ** max(bits - 16, 0)
    return st.builds(Fraction, st.integers(low, 2**bits), st.integers(1, 2 ** (bits - 10)))


wide_rationals = _wide_rationals(80)


@st.composite
def wide_systems(draw):
    """feasible_systems with wide numbers: numerators up to 2^bits and
    denominators up to 2^(bits - 10), so the slack columns have fractional
    scales, with slacks from 2^(bits - 16) at x0. At 80 bits the numbers
    outgrow one machine word, and at 12 or 24 bits packed rows start in
    their 8-byte slots and may outgrow them. Sometimes one more equation
    is a wide multiple of the first, which the solver drops as dependent,
    and sometimes the variables are boxed, which gives each one two unit
    rows with wide rhs."""
    bits = draw(st.sampled_from([12, 24, 80]), label="bits")
    wide_rationals, wide_positive = _wide_rationals(bits), _wide_positive(bits)
    nvars = draw(st.integers(1, 3))
    vec = st.lists(wide_rationals, min_size=nvars, max_size=nvars).map(tuple)
    x0 = draw(vec)
    eqs = [(c, _dot(c, x0)) for c in draw(st.lists(vec, max_size=2))]
    if eqs and draw(st.booleans()):
        scale = draw(wide_positive) * draw(st.sampled_from([1, -1]))
        c = tuple(scale * v for v in eqs[0][0])
        eqs.insert(draw(st.integers(0, len(eqs))), (c, _dot(c, x0)))
    slack = st.just(Fraction(0)) | wide_positive
    ineqs = [(c, _dot(c, x0) + draw(slack)) for c in draw(st.lists(vec, min_size=1, max_size=5))]
    if draw(st.booleans()):
        for j in range(nvars):
            unit = tuple(Fraction(int(k == j)) for k in range(nvars))
            ineqs.append((unit, x0[j] + draw(wide_positive)))
            ineqs.append((tuple(-u for u in unit), draw(wide_positive) - x0[j]))
    return nvars, tuple(eqs), tuple(ineqs), x0


@settings(max_examples=100, deadline=None)
@given(wide_systems(), st.data())
def test_wide_entries_match_tracker(system, data):
    """Tableau entries that outgrow their slots: after every warm solve the
    result (entry types included), the basis, the set-aside variables and
    every decoded tableau row are reference.TrackerSolver's, and the
    layout holds (_check_layout). Drawn: the rows are packed, so that an
    entry that could outgrow its slot makes them lists (_unpack), or kept
    as lists in lowest terms."""
    nvars, eqs, ineqs, x0 = system
    grown = []
    unpack = ReoptimizingSolver._unpack

    def unpacking(self):
        grown.append("rows unpacked")
        unpack(self)

    query = st.tuples(
        st.lists(wide_rationals, min_size=nvars, max_size=nvars), st.sampled_from([MAX, MIN])
    )
    with _rows_drawn(data) as mp:
        mp.setattr(ReoptimizingSolver, "_unpack", unpacking)
        solver = ReoptimizingSolver(nvars, eqs, ineqs, x0)
        reference = TrackerSolver(nvars, eqs, ineqs, x0)
        if exact_lp._PACKED_MIN == 0 and not solver._packed:
            grown.append("entries too wide to pack from the start")
        for objective, sense in data.draw(st.lists(query, min_size=1, max_size=4)):
            _assert_same_result(*_solve_both(solver, reference, objective, sense))
            assert _layout(solver) == _reference_layout(reference, nvars)
            assert _tableau(solver) == _reference_tableau(reference, nvars)
            _check_layout(solver)
    for kind in sorted(set(grown)) or ["no growth"]:
        event(kind)


def test_entries_past_the_slot_unpack_once(monkeypatch):
    """A fixed system whose rows pack at the set-up (forced, _PACKED_MIN =
    0), with slack scales 2, 6, 1, 1 and 3, and whose entries must pass 64
    bits: the first pivot brings x in at x <= 1, packed, and sets its row
    aside; the second brings y in at the row of A x + B y <= C, A and B
    coprime near 2^48, which leaves y <= 2^40 reading B * 2^40 - C + A, 89
    bits in lowest terms, so the rows turn into lists there (_unpack)
    with one row set aside, and never again. After every warm solve the
    result, the basis, the set-aside variables and every tableau row are
    reference.TrackerSolver's, and the layout holds (_check_layout)."""
    a, b = 7**17, 11**14
    c = a + 7 * b
    ineqs = (
        ((Fraction(1, 2), 0), Fraction(1, 2)),
        ((Fraction(a, 6), Fraction(b, 6)), Fraction(c, 6)),
        ((0, 1), 2**40),
        ((-1, 0), 1),
        ((0, Fraction(-1, 3)), Fraction(1, 3)),
    )
    monkeypatch.setattr(exact_lp, "_PACKED_MIN", 0)
    unpacked = []
    unpack = ReoptimizingSolver._unpack

    def unpacking(self):
        unpacked.append(len(self._aside))
        unpack(self)

    monkeypatch.setattr(ReoptimizingSolver, "_unpack", unpacking)
    solver = ReoptimizingSolver(2, (), ineqs, (0, 0))
    reference = TrackerSolver(2, (), ineqs, (0, 0))
    assert solver._packed and solver._scales == [2, 6, 1, 1, 3]
    queries = (((1, 1), MAX), ((1, 1), MIN), ((1, -1), MAX), ((0, 1), MAX), ((-1, 2), MIN))
    for objective, sense in queries:
        _assert_same_result(*_solve_both(solver, reference, objective, sense))
        assert _layout(solver) == _reference_layout(reference, 2)
        assert _tableau(solver) == _reference_tableau(reference, 2)
        _check_layout(solver)
    assert unpacked == [1] and not solver._packed
    assert solver._scales == [1] * len(ineqs)


def _workload_queries(n):
    """Eight objectives over the target's coordinates t, t^2, t^3: for four
    t0 spread over [1, n], the maximum of 2 t0 t - t^2 (peaked at t0) and
    the minimum of t^3 - 3 t0^2 t (lowest at t0)."""
    for t0 in (1 + n // 8, 3 * n // 8, 5 * n // 8, n - n // 8):
        yield MAX, (2 * t0, -1, 0)
        yield MIN, (-3 * t0 * t0, 0, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ef_from_factorization(CyclicPolytope.standard(3, 65), factorize(65, 3)),
        lambda: pair_product_ef(27, 3),
        lambda: pair_product_ef(76, 3),
    ],
    ids=["lift_queries (3, 65)", "minimize-poly (3, 27)", "minimize-poly (3, 76)"],
)
def test_workload_lifts_stay_packed(monkeypatch, build):
    """The degree-3 lifts the benchmark queries pack at the set-up, and
    stay packed through eight warm queries, none of whose entries outgrows
    its slot; every query's value and point equal those of a solver over
    the same lift kept as lists (_PACKED_MIN past any tableau)."""
    ef = build()
    packed = EfOptimizer(ef)
    monkeypatch.setattr(exact_lp, "_PACKED_MIN", 10**9)
    lists = EfOptimizer(ef)
    assert packed._solver._packed and not lists._solver._packed
    n = len(ef.witnesses)
    for sense, objective in _workload_queries(n):
        query = "maximize" if sense == MAX else "minimize"
        found = getattr(packed, query)(objective)
        assert found == getattr(lists, query)(objective)
        assert packed._solver._packed
    assert not lists._solver._packed


@pytest.mark.parametrize(
    "build",
    [lambda: build_ef_2d(52), lambda: hull_ef(CyclicPolytope.standard(4, 37))],
    ids=["degree-2 (2, 52)", "hull (4, 37)"],
)
def test_workload_lifts_keep_lists(build):
    """The degree-2 and hull lifts minimize-poly builds keep their rows as
    lists (_packs): a degree-2 lift's rows are too short to pay, and a
    hull lift's pivots each update one row."""
    assert not EfOptimizer(build())._solver._packed


class SequentialPricingSolver(ReoptimizingSolver):
    """The pricing with no unit rows: every new objective is priced against
    the set-aside rows one row at a time, in entry order, also once every
    variable is set aside."""

    def _priced_by_units(self, ints, cden):
        width = self._rhs + 1 - self._nv
        return self._priced_by_aside([-c for c in ints] + [0] * width, cden)


@settings(max_examples=200, deadline=None)
@given(feasible_systems(), st.data())
def test_unit_row_pricing_matches_sequential_pricing(system, data):
    """Pricing a warm objective as the lowest-terms combination of priced
    unit rows gives the row the sequential loop gives: after every solve
    the objective row, its den, the basis, the positions and the result
    are equal. The systems are boxed, so that most solves are bounded and
    every variable is soon set aside, which is when the unit rows price."""
    nvars, eqs, ineqs, x0 = system
    for j in range(nvars):
        unit = tuple(Fraction(int(k == j)) for k in range(nvars))
        ineqs += ((unit, x0[j] + 10), (tuple(-u for u in unit), 10 - x0[j]))
    with _rows_drawn(data):
        solver = ReoptimizingSolver(nvars, eqs, ineqs, x0)
        reference = SequentialPricingSolver(nvars, eqs, ineqs, x0)
    query = st.tuples(
        st.lists(rationals, min_size=nvars, max_size=nvars), st.sampled_from([MAX, MIN])
    )
    unit_priced = 0
    for objective, sense in data.draw(st.lists(query, min_size=2, max_size=6)):
        unit_priced += len(solver._aside) == nvars
        _assert_same_result(*_solve_both(solver, reference, objective, sense))
        assert (solver._obj, solver._oden) == (reference._obj, reference._oden)
        assert (solver._basis, solver._cols) == (reference._basis, reference._cols)
    event("solves priced by unit rows: " + ("3+" if unit_priced >= 3 else str(unit_priced)))


def test_hull_lift_read_out_matches_tracker():
    """On the convex-hull lift of a d = 3 polytope at most d + 1 of the 14
    weights y are nonzero at an optimum, so the back-substitution skips
    most columns of each set-aside row; warm maxima and minima still give
    reference.TrackerSolver's results, entry types included."""
    ef = hull_ef(CyclicPolytope.standard(3, 14))
    lifted = ef.lifted
    args = (lifted.nvars, lifted.equations, lifted.inequalities, ef.witnesses[1])
    solver, reference = ReoptimizingSolver(*args), TrackerSolver(*args)
    for objective in [(-9, 5, -1), (2, -1, 0), (0, 0, 1), (7, -3, Fraction(1, 5))]:
        for sense in (MAX, MIN):
            res, ref = _solve_both(solver, reference, lift_objective(ef, objective), sense)
            _assert_same_result(res, ref)
            weights = res.primal[3:]
            assert len(weights) == 14 and sum(y != 0 for y in weights) <= 4


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
    st.booleans(),
)
def test_warm_solves_equal_fresh_solves(t1, length, scales, queries, packed):
    """Over a degree-2 cyclic polytope (every vertex on exactly two facets)
    whose facet rows are scaled by positive rationals, a warm solver and a
    fresh solve agree on every objective. For an objective inside the
    normal cone of a vertex (a positive combination of its two facet
    normals) the optimum and its duals are unique, so the whole LPResult
    must be equal; for any other objective the values must be. The warm
    solver's rows are packed or lists, drawn."""
    t2 = t1 + length
    p = CyclicPolytope(2, Interval(t1, t2))
    facets = enumerate_facets(p)
    ineqs = tuple(
        (tuple(s * a for a in facet_inequality(p, S).a), s * facet_inequality(p, S).b)
        for S, s in zip(facets, scales)
    )
    with pytest.MonkeyPatch.context() as mp:
        if packed:  # 13 rows, but 3 slots
            mp.setattr(exact_lp, "_PACKED_MIN", 0)
        solver = ReoptimizingSolver(2, (), ineqs, vertex(p, t1))
    assert solver._packed == packed
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


@pytest.mark.parametrize("rows", ["packed", "lists"])
def test_tableau_rows_keep_one_common_denominator(monkeypatch, rows):
    """Every pivot of small degenerate programs, with equations, fractional
    coefficients and unit rows, leaves the layout _check_layout checks:
    packed (forced here for the simplex), every row read over the one
    common denominator is integral and within the proven bound the slots
    hold; as lists, at every set-up pivot and in the simplex of a tableau
    kept as lists, every row in lowest terms over a positive den. Every
    tableau row basic in a slack, decoded, is the row of the simplex
    dictionary of the current basis (reference.dictionary, from first
    definitions, over the equations pivoted so far). A set-up pivot
    deletes its position, and a simplex pivot puts the leaving column at
    the entering one's position, so the width is nvars - (kept equations)
    + 1 once the set-up is done. A set-aside row keeps each column once, in
    lowest terms, and its basic column reads its den. Each system is
    solved once per objective and then warm, every objective on one
    solver, so that the checks also run once every variable has been set
    aside."""
    monkeypatch.setattr(exact_lp, "_PACKED_MIN", 0 if rows == "packed" else 10**9)
    checked = []
    priced = []
    slacks_only = []
    set_up = []
    original = ReoptimizingSolver._pivot
    system = None

    def checking(self, pi, ps, column):
        aside = len(self._aside)
        col, leaving, width = self._cols[ps], self._basis[pi], len(self._cols)
        original(self, pi, ps, column)
        _check_layout(self)
        nvars, eqs, ineqs, x0 = system
        kept = [eqs[k] for k in independent_equations(eqs)]
        if leaving is None:  # a set-up pivot, on lists
            set_up.append(col)
            assert not self._packed and len(self._cols) == width - 1
            kept = kept[: len(self._aside)]
        else:
            assert self._packed == (rows == "packed")
            assert len(self._cols) == width and self._cols[ps] == leaving
        basic = [c for c, _, _ in self._aside] + [b for b in self._basis if b is not None]
        assert _tableau(self) == dictionary(nvars, kept, ineqs, x0, basic)
        if col < self._nv:  # the pivot row was set aside as it stands
            assert aside < nvars  # a variable enters only from a position
            assert len(self._aside) == aside + 1
            entered, den, support = self._aside[-1]
            row = dict(support)
            assert len(row) == len(support)
            assert entered == col and den > 0 and gcd(den, *row.values()) == 1
            assert all(type(x) is int and x for x in row.values())
            assert max(row) < nvars + len(ineqs) + 1
            assert row[col] == den  # basic column reads 1
            assert leaving is None or leaving in row
        else:
            assert len(self._aside) == aside
            assert self._basis[pi] == col
        checked.append(max(self._dens, default=1))
        priced.append(self._oden)
        if aside == nvars:
            slacks_only.append(col)

    monkeypatch.setattr(ReoptimizingSolver, "_pivot", checking)
    h = Fraction(1, 2)
    degenerate = (
        ((1, 0), 1), ((0, 1), 1), ((1, 1), 2), ((2, 1), 3), ((1, 2), 3),
        ((3 * h, 3 * h), 3), ((Fraction(2, 3), Fraction(1, 3)), 1),
    )
    system = (2, (), degenerate, (0, 0))
    for objective in ((1, 1), (3, 1), (1, Fraction(5, 3)), (1, 2)):
        lp = LinearProgram(MAX, objective, inequalities=degenerate)
        res = solve(lp, (0, 0))
        assert certify(lp, res)
    # boxed below too, so that objectives pointing down stay bounded
    boxed = degenerate + (((-1, 0), 2), ((0, -1), 2))
    system = (2, (), boxed, (0, 0))
    warm = ReoptimizingSolver(2, (), boxed, (0, 0))
    for objective in ((1, 1), (3, 1), (1, Fraction(5, 3)), (-1, -2), (2, -1), (-1, 3), (1, 2)):
        res = warm.maximize(objective)
        assert certify(LinearProgram(MAX, objective, inequalities=boxed), res)
    assert len(warm._aside) == 2 and slacks_only
    eqs = (((Fraction(3, 2), -1, Fraction(1, 3)), Fraction(1, 2)), ((3, -2, Fraction(2, 3)), 1))
    ineqs = (
        ((1, 1, 1), 6), ((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0),
        ((Fraction(1, 4), Fraction(1, 6), 0), 1),
    )
    # the second equation is twice the first: its row is dropped when the
    # start pivots reach it
    system = (3, eqs, ineqs, (1, 1, 0))
    lp = LinearProgram(MAX, (1, 2, 3), eqs, ineqs)
    res = solve(lp, (1, 1, 0))
    assert res.status == OPTIMAL and certify(lp, res)
    slacks_only.clear()
    warm = ReoptimizingSolver(3, eqs, ineqs, (1, 1, 0))
    for objective in ((1, 2, 3), (3, 1, 0), (0, -1, 1), (-1, -1, -1), (1, 0, Fraction(1, 2))):
        res = warm.maximize(objective)
        assert res.status == OPTIMAL
        assert certify(LinearProgram(MAX, objective, eqs, ineqs), res)
    assert len(warm._aside) == 3 and slacks_only
    assert len(warm._cols) == 3 - 1  # one of the two equations is kept
    assert set_up and checked and max(checked) > 1
    assert max(priced) > 1


# x in [-4, 4], y <= 3, x + y <= 5: the first maximum brings both variables
# into the basis, which drops both variable columns from the positions
_WARM_INEQS = (((1, 0), 4), ((-1, 0), 4), ((0, 1), 3), ((1, 1), 5))


def _warm_pair(ineqs):
    """A solver and the reference layout over the same system, after a
    first maximum of x + y that sets both variables aside."""
    solver = ReoptimizingSolver(2, (), ineqs, (0, 0))
    reference = TrackerSolver(2, (), ineqs, (0, 0))
    res = solver.maximize((1, 1))
    assert res == reference.maximize((1, 1))
    assert sorted(col for col, _, _ in solver._aside) == [0, 1]
    _check_layout(solver)
    assert all(c >= 2 for c in solver._cols)  # every position holds a slack
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
    """Every variable has entered, so no variable column is at a position;
    the next objective, min y, is unbounded (nothing bounds y below), found
    over the slack positions alone. Later solves go on from that basis."""
    solver, reference = _warm_pair(_WARM_INEQS)
    res = _same_and_certified(solver, reference, (0, 1), MIN, _WARM_INEQS)
    assert res.status == UNBOUNDED
    _check_layout(solver)
    # two slack positions (nvars, no equations) plus the rhs
    assert all(len(row) == 3 for row in _entries(solver))
    for objective, sense in (((1, 0), MAX), ((1, 1), MAX), ((1, -1), MIN), ((1, 0), MIN)):
        res = _same_and_certified(solver, reference, objective, sense, _WARM_INEQS)
        assert res.status == OPTIMAL
    assert res.value == -4 and res.primal[0] == -4


def test_negative_optimum_after_the_drop():
    """Every variable has entered, so no variable column is at a position;
    the next optimum, with y >= -3 added, puts both variables at negative
    values, read by back-substitution from slack-only tableau rows."""
    ineqs = _WARM_INEQS + (((0, -1), 3),)
    solver, reference = _warm_pair(ineqs)
    res = _same_and_certified(solver, reference, (1, 1), MIN, ineqs)
    _check_layout(solver)
    assert all(c >= 2 for c in solver._cols)
    assert res.status == OPTIMAL and res.value == -7 and res.primal == (-4, -3)
    res = _same_and_certified(solver, reference, (-1, -2), MAX, ineqs)
    assert res.value == 10 and res.primal == (-4, -3)
    res = _same_and_certified(solver, reference, (Fraction(1, 3), -1), MAX, ineqs)
    assert res.primal == (4, -3) and res.value == Fraction(13, 3)


def test_unconstrained_variable_keeps_the_columns():
    """z's column is 0 in every constraint, so z never enters: an
    objective that reads z is unbounded before any pivot, and every other
    one leaves z at its start value. Not every variable is set aside, so
    z's column keeps its position, and the results still match the
    reference layout."""
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
        assert 2 not in [col for col, _, _ in solver._aside] and 2 in solver._cols
        _check_layout(solver)
    assert sorted(col for col, _, _ in solver._aside) == [0, 1]
    # nvars less the one kept equation: z and a slack, plus the rhs
    assert all(len(row) == 3 for row in _entries(solver) + [solver._obj])


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
    like any solve; once they have brought every variable in, which drops
    every variable column from the positions, maximize and minimize still
    return duals that certify accepts (read from the slack positions), one
    dual_eq entry per equation given, and the value and point the value
    queries give from the same basis."""
    solver = ReoptimizingSolver(nvars, eqs, ineqs, start)
    queries = [(1,) * nvars, (1,) + (-1,) * (nvars - 1), (-1,) * nvars, (0,) * (nvars - 1) + (1,)]
    for k, objective in enumerate(queries):
        found = (solver.maximum if k % 2 else solver.minimum)(objective)
        assert found is not None
    assert len(solver._aside) == nvars
    assert solver.maximum((1,) * nvars) is not None
    _check_layout(solver)
    assert all(c >= nvars for c in solver._cols)
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
