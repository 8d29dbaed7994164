"""Independent recomputations used as test oracles.

Everything here works from first definitions and plain loops, with no calls
into the package's enumeration or construction code, so library results can
be checked against a second, dumber path. The one exception is
TrackerSolver, a reference layout of the exact simplex kept as it was
before its tableau was slimmed: two stored columns per free variable and
one tracker column per equation, whose objective-row entries are the
equation duals. It shares only LPResult and scaled_ints with the package.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from cyclift.errors import DomainError
from cyclift.exact_lp import OPTIMAL, UNBOUNDED, LPResult
from cyclift.rational import scaled_ints


def gale_ok(members, t1, t2):
    """Evenness straight from the definition: every gap between two
    non-members of S contains an even number of members."""
    S = set(members)
    outside = [t for t in range(t1, t2 + 1) if t not in S]
    for i in range(len(outside)):
        for j in range(i + 1, len(outside)):
            lo, hi = outside[i], outside[j]
            if sum(1 for m in members if lo < m < hi) % 2:
                return False
    return True


def gale_subsets(d, t1, t2):
    """All facet sets by filtering every d-subset of the interval."""
    return [S for S in combinations(range(t1, t2 + 1), d) if gale_ok(S, t1, t2)]


def moment_point(i, d):
    return tuple(i**k for k in range(1, d + 1))


def slack_product(i, members):
    out = 1
    for j in members:
        out *= abs(j - i)
    return out


def first_mismatch(alpha, beta, d, t1, t2):
    """The entry scan: the first (i, S, expected, got), rows then columns,
    where <alpha_i, beta_S> differs from the slack prod_{j in S} |j - i|,
    facets S in the order of gale_subsets; expected is an int and got a
    Fraction. None when every entry matches."""
    facets = gale_subsets(d, t1, t2)
    for i, a in zip(range(t1, t2 + 1), alpha):
        for S, b in zip(facets, beta):
            expected = slack_product(i, S)
            got = sum((Fraction(x) * y for x, y in zip(a, b)), Fraction(0))
            if got != expected:
                return i, S, expected, got
    return None


def vertex_maximum(objective, d, t1, t2):
    """Brute-force max of a linear objective over the moment-curve points."""
    return max(
        sum(c * x for c, x in zip(objective, moment_point(i, d)))
        for i in range(t1, t2 + 1)
    )


def _rank(rows):
    """Rank of a list of rational rows by plain Fraction Gauss elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def independent_rows(equations):
    """Indices of the first maximal independent subset of the coefficient
    rows: row k is kept when it raises the rank of the rows kept before it."""
    kept = []
    for k, (coeffs, _) in enumerate(equations):
        before = [equations[i][0] for i in kept]
        if _rank(before + [coeffs]) > _rank(before):
            kept.append(k)
    return kept


def consistent(equations):
    """Whether <coeffs, x> = rhs has a solution: appending the rhs column
    leaves the rank unchanged."""
    coeffs = [list(c) for c, _ in equations]
    augmented = [list(c) + [r] for c, r in equations]
    return _rank(coeffs) == _rank(augmented)


def dictionary(nvars, equations, inequalities, x0, basic):
    """The simplex dictionary of a basis, from first definitions: each row
    basic in a slack as {column id: Fraction}, keyed by that slack, over
    the columns x_j - x0_j (column j < nvars), the slacks s_k = rhs_k -
    <g_k, x> (column nvars + k) and the rhs (column nvars +
    len(inequalities)), its own slack reading 1. Gauss-Jordan elimination
    in Fractions on the basic columns, in the order given, of the rows of
    the equations (independent ones) and the inequalities."""
    rhs = nvars + len(inequalities)
    x0 = [Fraction(v) for v in x0]
    rows = []
    for k, (coeffs, b) in enumerate(list(equations) + list(inequalities)):
        row = {j: Fraction(c) for j, c in enumerate(coeffs) if c}
        if k >= len(equations):
            row[nvars + k - len(equations)] = Fraction(1)
        row[rhs] = Fraction(b) - sum(Fraction(c) * v for c, v in zip(coeffs, x0))
        rows.append(row)
    pivots = {}
    free = list(range(len(rows)))
    for col in basic:
        at = next(i for i in free if rows[i].get(col))
        free.remove(at)
        a = rows[at][col]
        prow = rows[at] = {c: v / a for c, v in rows[at].items()}
        for i, row in enumerate(rows):
            f = row.get(col) if i != at else 0
            if f:
                for c, v in prow.items():
                    row[c] = row.get(c, 0) - f * v
                rows[i] = {c: v for c, v in row.items() if v}
        pivots[col] = at
    return {col: {c: v for c, v in rows[at].items() if v} for col, at in pivots.items() if col >= nvars}


# ------------------------------------------------- reference simplex layout

_ZERO = Fraction(0)  # shared by every zero dual


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


class TrackerSolver:
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
        """Bland's rule on the objective row until optimal or unbounded.
        A row basic in a u or w column (label < 2 * nvars) holds a free
        variable, which the ratio test skips."""
        rows, basis = self._rows, self._basis
        rhs, free = self._rhs, 2 * self._nv
        while True:
            obj = self._obj
            pc = next((j for j in range(self._track0) if obj[j] < 0), None)
            if pc is None:
                return OPTIMAL
            # smallest ratio row[rhs] / row[pc] over the rows with
            # row[pc] > 0 whose basic variable is not free, compared by
            # cross-multiplying; ties go to the smaller basis var
            best = None
            for i, row in enumerate(rows):
                v = row[pc]
                if v > 0 and basis[i] >= free:
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
