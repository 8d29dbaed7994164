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
first negative entry of that row (so degenerate instances terminate), and
at the optimum the row's rhs entry is the objective value and its slack
and tracker entries are the inequality and equation duals. No tolerances
anywhere; every comparison is exact.

Conventions. A program holds equations <c, x> = rhs and inequalities
<c, x> <= rhs over free variables. For a maximization the certificate
returned with an optimal result is

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
from math import gcd

from .errors import DomainError
from .rational import scaled_ints

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


def _check_rows(rows, nvars, what):
    for coeffs, _ in rows:
        if len(coeffs) != nvars:
            raise DomainError(
                f"{what} row has {len(coeffs)} coefficients, expected {nvars}"
            )


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


class ReoptimizingSolver:
    """Simplex over a fixed constraint system, reusable across objectives.

    The system is translated so that `feasible_point` becomes the origin:
    every inequality row then has nonnegative rhs and starts with its slack
    variable basic, and every equation row sits at level 0. Each equation
    row is pivoted on its first nonzero variable column, which moves no
    basic value; a row with none is a combination of the rows before it and
    is dropped. The starting basis is therefore feasible, with no phase 1.
    Each maximize writes its objective as a row priced against the current
    basis and reads the value and the duals from that row at the optimum.
    """

    def __init__(self, nvars, equations, inequalities, feasible_point):
        equations = [(tuple(c), r) for c, r in equations]
        inequalities = [(tuple(c), r) for c, r in inequalities]
        _check_rows(equations, nvars, "equation")
        _check_rows(inequalities, nvars, "inequality")
        if len(feasible_point) != nvars:
            raise DomainError("feasible point has the wrong dimension")
        self._nv = nv = nvars
        self._shift = tuple(Fraction(x) for x in feasible_point)
        self._shift_ints, self._sden = scaled_ints(self._shift)
        me = len(equations)

        # columns: u, w (x = u - w), one slack per inequality, one tracker
        # per equation, rhs; a row's slack or tracker column carries its
        # multipliers, so the duals are the objective row's entries in
        # columns slack0 .. rhs - 1
        self._slack0 = 2 * nv
        self._track0 = 2 * nv + len(inequalities)
        self._rhs = self._track0 + me

        rows: list[list[int]] = []
        dens: list[int] = []
        basis: list[int] = []
        for r_idx, (coeffs, rhs) in enumerate(equations + inequalities):
            rhs = Fraction(rhs)
            rhs -= sum(Fraction(c) * z for c, z in zip(coeffs, self._shift))
            if r_idx < me:
                if rhs != 0:
                    raise DomainError("feasible point violates an equation")
                col = self._track0 + r_idx
            else:
                if rhs < 0:
                    raise DomainError("feasible point violates an inequality")
                col = self._slack0 + r_idx - me
            ints, den = scaled_ints(coeffs + (rhs,))
            row = [0] * (self._rhs + 1)
            for j, c in enumerate(ints[:nv]):
                if c:
                    row[j] = c  # u_j
                    row[nv + j] = -c  # w_j = negative part
            row[col] = den
            row[self._rhs] = ints[nv]
            basis.append(col)
            rows.append(row)
            dens.append(den)

        self._rows = rows
        self._dens = dens
        self._basis = basis
        self._obj = [0] * (self._rhs + 1)  # each maximize writes its own
        self._oden = 1
        i = 0
        while i < len(basis) and basis[i] >= self._track0:
            pc = next((j for j in range(self._track0) if rows[i][j]), None)
            if pc is None:
                del rows[i], dens[i], basis[i]
            else:
                self._pivot(i, pc)
                i += 1

    # -- tableau mechanics ------------------------------------------------

    def _pivot(self, pi: int, pc: int) -> None:
        rows, dens = self._rows, self._dens
        prow = rows[pi]
        g = gcd(*prow)
        if prow[pc] < 0:
            g = -g
        if g != 1:
            prow = rows[pi] = [x // g for x in prow]
        p = dens[pi] = prow[pc]
        support = [(j, v) for j, v in enumerate(prow) if v]
        for i, row in enumerate(rows):
            f = row[pc]
            if f and i != pi:
                rows[i], dens[i] = _eliminate(row, dens[i], f, p, support)
        f = self._obj[pc]
        if f:
            self._obj, self._oden = _eliminate(self._obj, self._oden, f, p, support)
        self._basis[pi] = pc

    def _simplex(self) -> str:
        """Bland's rule on the objective row until optimal or unbounded."""
        rows, basis = self._rows, self._basis
        rhs = self._rhs
        while True:
            obj = self._obj
            pc = next((j for j in range(self._track0) if obj[j] < 0), None)
            if pc is None:
                return OPTIMAL
            # smallest ratio row[rhs] / row[pc] over rows with row[pc] > 0,
            # compared by cross-multiplying; ties go to the smaller basis var
            best = None
            for i, row in enumerate(rows):
                v = row[pc]
                if v > 0:
                    if best is None:
                        best, best_v, best_rhs = i, v, row[rhs]
                        continue
                    c = row[rhs] * best_v - best_rhs * v
                    if c < 0 or (c == 0 and basis[i] < basis[best]):
                        best, best_v, best_rhs = i, v, row[rhs]
            if best is None:
                return UNBOUNDED
            self._pivot(best, pc)

    # -- public solves ----------------------------------------------------

    def maximize(self, objective) -> LPResult:
        if len(objective) != self._nv:
            raise DomainError(
                f"objective has {len(objective)} entries, expected {self._nv}"
            )
        nv = self._nv
        ints, cden = scaled_ints(objective)
        obj = [0] * (self._rhs + 1)
        for j, c in enumerate(ints):
            if c:
                obj[j] = -c
                obj[nv + j] = c
        den = cden
        for row, p, b in zip(self._rows, self._dens, self._basis):
            f = obj[b]
            if f:
                support = [(j, v) for j, v in enumerate(row) if v]
                obj, den = _eliminate(obj, den, f, p, support)
        self._obj, self._oden = obj, den
        if self._simplex() == UNBOUNDED:
            return LPResult(UNBOUNDED)
        return self._extract(ints, cden)

    def minimize(self, objective) -> LPResult:
        res = self.maximize([-c for c in objective])
        if res.status != OPTIMAL:
            return res
        return LPResult(
            OPTIMAL,
            -res.value,
            res.primal,
            res.dual_ineq,
            tuple(-m for m in res.dual_eq),
        )

    def _extract(self, objective, cden) -> LPResult:
        """The optimal result, each entry one Fraction built from ints.

        objective / cden is the objective maximized. x = shift + u - w,
        where at most one of u_j and w_j is basic (their columns are
        negatives of each other), and the value is the objective row's rhs
        plus the objective at the shift.
        """
        nv, rhs = self._nv, self._rhs
        obj, den = self._obj, self._oden
        shift, sden = self._shift_ints, self._sden
        x = list(self._shift)
        for row, rden, b in zip(self._rows, self._dens, self._basis):
            if b < 2 * nv:
                j, t = (b, row[rhs]) if b < nv else (b - nv, -row[rhs])
                x[j] = Fraction(t * sden + shift[j] * rden, rden * sden)
        at_shift = sum(c * z for c, z in zip(objective, shift) if c)
        value = Fraction(obj[rhs] * cden * sden + at_shift * den, den * cden * sden)
        duals = tuple(Fraction(v, den) if v else _ZERO for v in obj[self._slack0 : rhs])
        k = self._track0 - self._slack0
        return LPResult(OPTIMAL, value, tuple(x), duals[:k], duals[k:])


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
