"""Exact rational linear programming.

A dense-tableau simplex whose rows are Python integers, each over its own
positive denominator and kept in lowest terms (gcd(den, *row) == 1), in
the fraction-free style of Edmonds and Bareiss. A pivot scales each other
row by the pivot entry and updates it only at the pivot row's nonzero
columns, then divides out the gcd. The ratio test compares integers by
cross-multiplication. Each entry of a result (primal point, objective
value, nonzero duals) is built once, as one Fraction of two integers, and
the zero duals share one Fraction(0). Every solve starts at a point the
caller knows to be feasible (every lift here comes with a witness above
each vertex), so there is no phase 1 and no infeasible status. The
objective is one more integer row over its own denominator: each solve
prices out the basic columns with the same row update a pivot applies,
and every pivot keeps it current. Bland's smallest-index rule takes the
first negative entry of that row, and at the optimum the row's rhs entry
is the objective value and its slack entries are the inequality duals. No
tolerances anywhere; every comparison is exact.

Pivot rule. A row basic in a free variable bounds nothing, because that
variable has no sign to protect: its basic value may go negative, and it
never leaves the basis. So the tableau holds only the rows basic in a
slack (and, while the starting basis is built, the equation rows not yet
pivoted), and the ratio test reads all of them. A free variable may enter
in either direction: Bland's rule first takes a variable whose increase
helps, then one whose decrease helps, then a slack. The rule terminates:
each free variable enters at most once and then stays basic (its reduced
cost stays 0), and after the last one has entered Bland's rule runs over
the slack columns and the slack-basic rows alone, where it cannot cycle.

Stored columns. A column is named by its id: variable j is j, slack k
is nvars + k and the rhs is nvars + (inequality count), and a basis label
is a column id, so the labels below nvars are the free ones. A stored row
holds the columns from an offset on, which is 0 at first, and ends with
the rhs. When a free variable enters, at a start-basis equation pivot or
a simplex pivot, its column is cleared from every tableau row and from
the objective row, and its pivot row leaves the tableau: it is set aside
as it stands then, as (column, den, nonzero (column id, value) pairs),
and no later pivot updates it. Its basic column reads 1 whichever way the
variable entered. A set-aside row stays an exact identity on the affine
hull, so it still prices an objective (the set-aside rows in entry order,
then the tableau rows) and yields x_j - shift_j by back-substitution in
reverse entry order, because it can mention only slacks and variables
that entered after it. Once every variable has been set aside, the
variable columns are 0 in every tableau row for good, and the next solve
drops them: the offset becomes nvars, once per solver, and slack k is
then stored at position k. Positions keep the order of the columns, so
Bland's rule reads them unchanged. The drop is made once, not column by
column as each variable enters: that would move the positions at every
entry, and translating the set-aside supports between positions and
column ids costs a solver that solves once (minimize-poly builds one per
job) more than its narrower rows save. A one-shot solver reaches the
drop only if its equations alone fix every variable. Every pivot and result is the one a tableau that kept and
updated every row and column would give. Equation rows have no column of
their own; their duals are solved from stationarity at the optimum, only
when a full result is built (see ReoptimizingSolver).

Results. maximize and minimize return the full LPResult: the value, the
point and both sets of duals. maximum and minimum run the same simplex
from the same basis and return the value and the point only, with no dual
built; a caller that reads no dual (EfOptimizer's value queries) asks for
those.

Equation reduction. independent_equations picks the positions of the
first maximal independent subset of a program's equations, and only those
get a tableau row; a dropped equation's dual is 0.

Conventions. A program holds equations <c, x> = rhs and inequalities
<c, x> <= rhs over free variables. Each of its numbers is an int or a
Fraction; anything else is a DomainError, checked once per row when the
solver is built and once per objective, never per pivot. For a
maximization the certificate returned with an optimal result is

    objective = E^T mu + G^T beta,   beta >= 0,
    value     = <mu, eq rhs> + <beta, ineq rhs>,

with E, G the equation and inequality rows; for a minimization the sign of
beta's contribution flips (objective = E^T mu - G^T beta and
value = <mu, eq rhs> - <beta, ineq rhs>). certify() checks exactly this,
plus primal feasibility and complementary slackness.

ReoptimizingSolver keeps the tableau alive between solves so a family of
objectives over one constraint system (the per-facet programs of the
factorization extraction) builds the starting basis once and then
reoptimizes from the previous basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, InternalError
from .rational import reduce_rows, scaled_ints

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

MAX = "max"
MIN = "min"

_ZERO = Fraction(0)  # shared by every zero dual


@dataclass(frozen=True)
class LinearProgram:
    """sense is "max" or "min"; equations and inequalities are sequences of
    (coefficients, rhs) with <coefficients, x> = rhs resp. <= rhs."""

    sense: str
    objective: tuple
    equations: tuple = ()
    inequalities: tuple = ()

    @property
    def nvars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Fraction | None = None
    primal: tuple | None = None
    dual_ineq: tuple | None = None
    dual_eq: tuple | None = None


_EXACT_TYPES = frozenset((int, Fraction))


def _check_exact(values, what):
    """Refuse an entry that is not an int or a Fraction, naming it: a
    float or a str has no exact numerator and denominator. The types are
    collected in one pass first; only a row with another type (a bool or
    a subclass passes too) is walked entry by entry."""
    if set(map(type, values)) <= _EXACT_TYPES:
        return
    for x in values:
        if not isinstance(x, (int, Fraction)):
            raise DomainError(f"{what} entry {x!r} is not an int or a Fraction")


def _check_rows(rows, nvars, what):
    """Each row's length, and each of its numbers (_check_exact)."""
    for coeffs, rhs in rows:
        if len(coeffs) != nvars:
            raise DomainError(
                f"{what} row has {len(coeffs)} coefficients, expected {nvars}"
            )
        _check_exact(coeffs + (rhs,), what)


def _eliminate(row, den, f, p, support):
    """(row * p - f * pivot row) / (den * p), fraction-free and in lowest
    terms: with f = row[pc] and p = pivot row[pc] this clears column pc.
    support holds the pivot row's nonzero (column, value) pairs, the only
    columns updated; the scaling is skipped when p is 1, and then row is
    updated in place. Returns (row, den)."""
    if p != 1:
        row = [x * p for x in row]
        den *= p
    for j, v in support:
        row[j] -= f * v
    if den != 1:
        g = gcd(den, *row)
        if g != 1:
            row = [x // g for x in row]
            den //= g
    return row, den


def _pivot_rows(rows, dens, pi, col):
    """Pivot on row pi at column col: the pivot row is divided by its
    content and signed so that its entry there is positive, which becomes
    its den (the basic column reads 1), and the column is cleared from
    every other row. Returns (that entry, the pivot row's nonzero (column,
    value) pairs)."""
    prow = rows[pi]
    g = gcd(*prow)
    if prow[col] < 0:
        g = -g
    if g != 1:
        prow = rows[pi] = [x // g for x in prow]
    p = dens[pi] = prow[col]
    support = [(j, v) for j, v in enumerate(prow) if v]
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != pi:
            rows[i], dens[i] = _eliminate(row, dens[i], f, p, support)
    return p, support


def independent_equations(equations) -> tuple:
    """The positions, in order, of the first maximal independent subset.

    Each (coeffs, rhs) row is cleared to integers and eliminated against
    the rows kept so far (rational.reduce_rows, pivoting on coefficient
    columns only); a row is kept when a coefficient survives. A dropped row
    must be implied exactly: a contradictory one is an InternalError.
    """
    rows = [scaled_ints(tuple(coeffs) + (rhs,))[0] for coeffs, rhs in equations]
    width = len(rows[0]) - 1 if rows else 0
    kept = []
    for at, (pivot, residual) in enumerate(reduce_rows(rows, width)):
        if pivot is not None:
            kept.append(at)
        elif residual[-1] != 0:
            raise InternalError("dependent equation with nonzero residual")
    return tuple(kept)


class ReoptimizingSolver:
    """Simplex over a fixed constraint system, reusable across objectives.

    The system is translated so that `feasible_point` becomes the origin:
    every inequality row then has nonnegative rhs and starts with its slack
    variable basic, and every equation row sits at level 0. Only the
    equations independent_equations keeps get a row and are checked at the
    point: it has shown each dropped one implied by them, or refused it.
    Each kept row is pivoted on its first nonzero variable column, which
    moves no basic value, so the start is feasible with no phase 1.
    Each solve writes its objective as a row priced against the current
    basis and reads the value, and for a full result the inequality duals,
    from that row at the optimum.

    Each variable is free and is one column, holding x_j - shift_j (0
    while nonbasic). A row holds one column per variable, one slack per
    inequality, and the rhs, from the stored offset on: nvars +
    (inequality count) + 1 integers at first, and (inequality count) + 1
    once the variable columns are dropped. A basis label is the column id,
    variable j as j and slack k as nvars + k, and a column id c is stored
    at position c - offset. A free variable enters upward or downward (see
    _entering), and the direction only signs the ratio test. Once entered
    it never leaves, so its pivot row leaves the tableau for the set-aside
    list, in entry order, in column ids and never updated again; _solve
    prices with it and _value_point back-substitutes it. The tableau keeps
    only the slack-basic rows, all of which the ratio test reads, and
    Bland's rule over the slack columns and those rows cannot cycle. When
    every variable has been set aside, the next solve drops the variable
    columns from the tableau, once (see the module docstring).

    The equation duals mu are not tracked through the pivots, and the
    set-up builds nothing for them. At an optimum every variable column
    has reduced cost 0, so E_K^T mu = c - G^T beta for the kept equation
    rows E_K, the inequality rows G and the inequality duals beta. On the
    columns J the kept equations were pivoted on (the first columns of the
    set-aside list), E_K[:, J] is invertible, and each full result solves
    E_K[:, J]^T mu = (c - G^T beta)_J exactly (_equation_duals). A dropped
    equation's dual is 0, so dual_eq has one entry per equation given.
    maximum and minimum build no dual at all.
    """

    def __init__(self, nvars, equations, inequalities, feasible_point):
        equations = [(tuple(c), r) for c, r in equations]
        inequalities = [(tuple(c), r) for c, r in inequalities]
        _check_rows(equations, nvars, "equation")
        _check_rows(inequalities, nvars, "inequality")
        if len(feasible_point) != nvars:
            raise DomainError("feasible point has the wrong dimension")
        try:
            self._kept_eqs = kept = independent_equations(equations)
        except InternalError as exc:  # no point satisfies the equations
            raise DomainError("feasible point violates an equation") from exc
        self._nv = nv = nvars
        self._shift = tuple(Fraction(x) for x in feasible_point)
        self._shift_ints, self._sden = shift, sden = scaled_ints(self._shift)
        self._me, mk = len(equations), len(kept)
        self._rhs = rhs_col = nv + len(inequalities)

        # (coefficient ints, den) of each kept equation, then of each
        # inequality: what the equation duals are solved from
        self._coefs = coefs = []
        rows: list[list[int]] = []
        dens: list[int] = []
        basis: list = []  # None: an equation row not pivoted yet
        for r_idx, (coeffs, rhs) in enumerate([equations[k] for k in kept] + inequalities):
            ints, den = scaled_ints(coeffs)
            coefs.append((ints, den))
            # the start residual rhs - <coeffs, shift>, over rd * den * sden
            rn, rd = rhs.numerator, rhs.denominator
            num = rn * den * sden - rd * sum(c * z for c, z in zip(ints, shift) if c)
            row = ints + [0] * (rhs_col + 1 - nv)
            label = None
            if r_idx < mk:
                if num != 0:
                    raise DomainError("feasible point violates an equation")
            else:
                if num < 0:
                    raise DomainError("feasible point violates an inequality")
                # the row is scaled_ints(coeffs + (residual,)), slack added
                residual = Fraction(num, rd * den * sden)
                row_den = lcm(den, residual.denominator)
                if row_den != den:
                    row = [c * (row_den // den) for c in row]
                    den = row_den
                k = r_idx - mk
                row[nv + k] = den
                row[rhs_col] = residual.numerator * (den // residual.denominator)
                label = nv + k
            rows.append(row)
            dens.append(den)
            basis.append(label)

        self._rows = rows
        self._dens = dens
        self._basis = basis
        self._aside = []  # (column, den, support) of each row set aside
        self._off = 0  # the column a stored row starts at: 0, then nvars
        self._obj = [0] * (rhs_col + 1)  # each solve writes its own
        self._oden = 1
        for _ in range(mk):  # each pivot sets the first row aside
            self._pivot(0, next(j for j in range(nv) if rows[0][j]))

    # -- tableau mechanics ------------------------------------------------

    def _pivot(self, pi: int, col: int) -> None:
        rows, dens, basis = self._rows, self._dens, self._basis
        at = col - self._off
        p, support = _pivot_rows(rows, dens, pi, at)
        f = self._obj[at]
        if f:
            self._obj, self._oden = _eliminate(self._obj, self._oden, f, p, support)
        if col < self._nv:  # a free variable never leaves: its row is set aside
            del rows[pi], dens[pi], basis[pi]
            self._aside.append((col, p, support))
        else:
            basis[pi] = col

    def _entering(self):
        """Bland's rule as (column, direction), or None at the optimum: the
        first variable whose increase helps (obj[j] < 0, direction +1),
        else the first whose decrease helps (obj[j] > 0, direction -1),
        else the first slack with obj[j] < 0 (+1). The scan runs over stored
        positions, which keep the order of the columns, and returns column
        ids: a variable is stored only while the offset is 0, and once the
        variable columns are dropped the scan reads the slacks alone."""
        obj, off = self._obj, self._off
        nv = self._nv - off
        for j in range(nv):
            if obj[j] < 0:
                return j, 1
        for j in range(nv):
            if obj[j] > 0:
                return j, -1
        for j in range(nv, self._rhs - off):
            if obj[j] < 0:
                return j + off, 1
        return None

    def _simplex(self) -> str:
        """Bland's rule on the objective row until optimal or unbounded.
        Every tableau row is basic in a slack: a row basic in a variable
        bounds nothing, because the variable is free, so it was set aside
        when the variable entered. The entering direction only signs the
        ratio test; the pivot makes the basic entry positive either way.
        The entering column and the rhs are read at their stored positions
        (column id minus the offset); the offset does not change within a
        solve."""
        rows, basis, off = self._rows, self._basis, self._off
        rhs = self._rhs - off
        while True:
            entering = self._entering()
            if entering is None:
                return OPTIMAL
            col, direction = entering
            at = col - off
            # smallest ratio row[rhs] / v over the rows with v =
            # direction * row[at] > 0, compared by cross-multiplying; ties
            # go to the smaller basis label
            best = None
            for i, row in enumerate(rows):
                v = direction * row[at]
                if v > 0:
                    if best is None:
                        best, best_v, best_rhs = i, v, row[rhs]
                        continue
                    c = row[rhs] * best_v - best_rhs * v
                    if c < 0 or (c == 0 and basis[i] < basis[best]):
                        best, best_v, best_rhs = i, v, row[rhs]
            if best is None:
                return UNBOUNDED
            self._pivot(best, col)

    # -- public solves ----------------------------------------------------

    def maximize(self, objective) -> LPResult:
        """Maximize from the current basis: the full result, the value and
        the point (_value_point) with the inequality and the equation
        duals. An objective entry that is not an int or a Fraction is a
        DomainError."""
        solved = self._solve(objective)
        if solved is None:
            return LPResult(UNBOUNDED)
        value, x = self._value_point(*solved)
        return LPResult(
            OPTIMAL, value, x, self._inequality_duals(), self._equation_duals(*solved)
        )

    def minimize(self, objective) -> LPResult:
        # refused before the negation, so the error names the entry given
        # (-"1" is no DomainError); maximize checks the negated entries again
        _check_exact(objective, "objective")
        res = self.maximize([-c for c in objective])
        if res.status != OPTIMAL:
            return res
        return LPResult(
            OPTIMAL,
            -res.value,
            res.primal,
            res.dual_ineq,
            tuple(-m if m else _ZERO for m in res.dual_eq),
        )

    def maximum(self, objective):
        """(value, primal point) of maximize(objective), or None where it
        is unbounded. The same simplex from the same basis, with no dual
        built."""
        solved = self._solve(objective)
        return None if solved is None else self._value_point(*solved)

    def minimum(self, objective):
        """(value, primal point) of minimize(objective), or None where it
        is unbounded; no dual built."""
        _check_exact(objective, "objective")
        found = self.maximum([-c for c in objective])
        return None if found is None else (-found[0], found[1])

    def _solve(self, objective):
        """Run the simplex for objective from the current basis: (its
        numerators, their den) at the optimum, None where it is unbounded.

        The first solve that finds every variable set aside drops the
        variable columns from the tableau rows, which are 0 there for good.
        The objective row -c is priced out at full width against the
        set-aside rows in entry order (each clears its column and can bring
        in only columns that entered later or are slacks), cut at the
        stored offset (what it cuts is 0 by then), and priced against the
        tableau rows; a priced row is unique in lowest terms, so it is the
        one a fully updated tableau gives."""
        if len(objective) != self._nv:
            raise DomainError(
                f"objective has {len(objective)} entries, expected {self._nv}"
            )
        _check_exact(objective, "objective")
        ints, cden = scaled_ints(objective)
        nv, off = self._nv, self._off
        if off != nv and len(self._aside) == nv:
            # every variable has entered: its column is 0 in every tableau
            # row for good, so the rows drop the variable columns, once
            self._rows = [row[nv:] for row in self._rows]
            self._off = off = nv
        obj = [-c for c in ints] + [0] * (self._rhs + 1 - nv)
        den = cden
        for col, p, support in self._aside:
            f = obj[col]
            if f:
                obj, den = _eliminate(obj, den, f, p, support)
        if off:
            obj = obj[off:]
        for row, p, b in zip(self._rows, self._dens, self._basis):
            f = obj[b - off]
            if f:
                support = [(j, v) for j, v in enumerate(row) if v]
                obj, den = _eliminate(obj, den, f, p, support)
        self._obj, self._oden = obj, den
        if self._simplex() == UNBOUNDED:
            return None
        return ints, cden

    def _value_point(self, objective, cden) -> tuple:
        """(value, primal point) at the optimum, each entry one Fraction
        built from ints; objective / cden is the objective maximized.

        A tableau row gives its basic slack the value of its last entry,
        the rhs, over its den. The set-aside rows are back-substituted in
        reverse entry order: each reads its variable's value x_j - shift_j
        from the values of its other columns, which are slacks and
        variables that entered later (its own column reads 0 until then),
        and a column with no value is nonbasic at 0. Each step works in
        integers over the lcm of the dens it reads, and a nonbasic x_j is
        shift_j. The value is the objective row's rhs plus the objective at
        the shift.
        """
        rhs = self._rhs
        obj, den = self._obj, self._oden
        shift, sden = self._shift_ints, self._sden
        # each column's value (x_j - shift_j for a variable) is
        # num[j] / zden[j]; the rhs column reads -1, so a set-aside row
        # sums to 0 over its support, and a column with no value yet reads 0
        num, zden = [0] * (rhs + 1), [1] * (rhs + 1)
        num[rhs] = -1
        for row, rden, b in zip(self._rows, self._dens, self._basis):
            if row[-1]:
                num[b], zden[b] = row[-1], rden
        x = list(self._shift)
        for col, p, support in reversed(self._aside):
            common = 1
            for j, _ in support:
                common = lcm(common, zden[j])
            t = -sum(v * num[j] * (common // zden[j]) for j, v in support)
            if t:
                d = common * p
                g = gcd(t, d)
                num[col], zden[col] = t // g, d // g
                x[col] = Fraction(t * sden + shift[col] * d, d * sden)
        at_shift = sum(c * z for c, z in zip(objective, shift) if c)
        value = Fraction(obj[-1] * cden * sden + at_shift * den, den * cden * sden)
        return value, tuple(x)

    def _inequality_duals(self) -> tuple:
        """beta at the optimum: the objective row's slack entries (from
        stored position nvars - offset) over its den, one Fraction each,
        every zero the shared Fraction(0)."""
        den = self._oden
        slacks = self._obj[self._nv - self._off : -1]
        return tuple(Fraction(v, den) if v else _ZERO for v in slacks)

    def _equation_duals(self, objective, cden) -> tuple:
        """mu at the optimum, one entry per equation given, 0 for a
        dropped one: the kept entries solve E_K[:, J]^T mu = (c - G^T
        beta)_J (see the class docstring), with objective / cden = c.

        Kept equation l is ints_l / d_l, so nu_l = mu_l / d_l solves an
        integer system with one row per column J_q: (ints_l[J_q] for each
        l), and rhs (c - G^T beta) at J_q times D = cden * oden * gden,
        where beta_k is the objective row's slack entry over oden and gden
        is the lcm of the dens of the inequalities with beta_k != 0.
        reduce_rows keeps every row, the block being invertible, and
        leaves each one 0 at the pivots of the rows before it, so the
        pivots are solved in reverse order."""
        nv, mk = self._nv, len(self._kept_eqs)
        obj, oden = self._obj, self._oden
        eqs, ineqs = self._coefs[:mk], self._coefs[mk:]
        betas = [(ineqs[k], v) for k, v in enumerate(obj[nv - self._off : -1]) if v]
        gden = lcm(*(d for (_, d), _ in betas))
        system = []
        for col, _, _ in self._aside[:mk]:
            g = sum(v * ints[col] * (gden // d) for (ints, d), v in betas)
            system.append(
                [ints[col] for ints, _ in eqs] + [objective[col] * oden * gden - cden * g]
            )
        nu = [_ZERO] * mk
        for pivot, row in reversed(list(reduce_rows(system, mk))):
            rest = sum(row[l] * nu[l] for l in range(pivot + 1, mk) if row[l])
            nu[pivot] = Fraction(row[-1] - rest, row[pivot])
        den = cden * oden * gden
        duals = [_ZERO] * self._me
        for at, v, (_, d) in zip(self._kept_eqs, nu, eqs):
            if v:
                duals[at] = Fraction(v.numerator * d, v.denominator * den)
        return tuple(duals)


def solve(lp: LinearProgram, feasible_point) -> LPResult:
    """Solve one program from a point that satisfies its constraints.
    Returns status 'optimal' with exact value, primal point and dual
    multipliers, or 'unbounded'."""
    if lp.sense not in (MAX, MIN):
        raise DomainError(f"unknown sense {lp.sense!r}")
    solver = ReoptimizingSolver(lp.nvars, lp.equations, lp.inequalities, feasible_point)
    if lp.sense == MAX:
        return solver.maximize(lp.objective)
    return solver.minimize(lp.objective)


def certify(lp: LinearProgram, res: LPResult) -> bool:
    """Exact optimality certificate check; False on any defect.

    Verifies the primal point, dual signs, the stationarity identity, the
    zero duality gap and complementary slackness. Only optimal results can
    certify; an unbounded status returns False.
    """
    if res.status != OPTIMAL:
        return False
    if res.primal is None or res.dual_ineq is None or res.dual_eq is None:
        return False
    n = lp.nvars
    if len(res.primal) != n:
        return False
    if len(res.dual_eq) != len(lp.equations):
        return False
    if len(res.dual_ineq) != len(lp.inequalities):
        return False
    x = res.primal
    for coeffs, rhs in lp.equations:
        if sum(c * xi for c, xi in zip(coeffs, x)) != rhs:
            return False
    slacks = []
    for coeffs, rhs in lp.inequalities:
        s = rhs - sum(c * xi for c, xi in zip(coeffs, x))
        if s < 0:
            return False
        slacks.append(s)
    if any(b < 0 for b in res.dual_ineq):
        return False
    if sum(c * xi for c, xi in zip(lp.objective, x)) != res.value:
        return False
    sign = 1 if lp.sense == MAX else -1
    for j in range(n):
        lhs = sum(mu * coeffs[j] for mu, (coeffs, _) in zip(res.dual_eq, lp.equations))
        lhs += sign * sum(
            b * coeffs[j] for b, (coeffs, _) in zip(res.dual_ineq, lp.inequalities)
        )
        if lhs != lp.objective[j]:
            return False
    gap = sum(mu * rhs for mu, (_, rhs) in zip(res.dual_eq, lp.equations))
    gap += sign * sum(
        b * rhs for b, (_, rhs) in zip(res.dual_ineq, lp.inequalities)
    )
    if gap != res.value:
        return False
    for b, s in zip(res.dual_ineq, slacks):
        if b * s != 0:
            return False
    return True
