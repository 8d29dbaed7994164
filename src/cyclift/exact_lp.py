"""Exact rational linear programming.

A dense-tableau simplex with its rows in one of two forms. As lists, each
row is integers in lowest terms over its own denominator, and a pivot
updates a row fraction-free and divides out its gcd. Packed, the rows are
kept by integer pivoting (Edmonds 1967; Bareiss; Avis's lrs): every row is
integers over one common denominator, |det B| for the basis B, and a pivot
updates a row as (row * p - f * pivot row) / den, an exact division with
no gcd pass; each row is one Python int, its entries Kronecker-packed as
signed digits in base 2^w (so the update is two big-integer products and
one exact division), with w from a proven bound on the entries, widened
before any entry could outgrow its slot. The ratio test compares integers
by cross-multiplication and reads only the entering position and the rhs
of each row. Each entry of a result (primal point, objective value,
nonzero duals) is built once, as one Fraction of two integers, and the
zero duals share one Fraction(0). Every solve starts at a point the caller
knows to be feasible (every lift here comes with a witness above each
vertex), so there is no phase 1 and no infeasible status. The objective is
one more integer row, a list kept in lowest terms over its own
denominator: each solve prices out the basic columns with the
fraction-free row update (_eliminate), and every pivot keeps it current.
Bland's smallest-index rule takes the negative entry of that row with the
smallest column id, and at the optimum the row's rhs entry is the
objective value and its entries at the nonbasic slacks are the inequality
duals (a basic slack's is 0). No tolerances anywhere; every comparison is
exact, and every pivot is the one a tableau in lowest terms takes, because
Bland's rule reads only signs and within-row ratios.

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

Stored columns. A column is named by its id: variable j is j, slack k is
nvars + k and the rhs is nvars + (inequality count), and a basis label is
a column id, so the labels below nvars are the free ones. While the rows
are packed, slack k is scaled by the den of its row when the set-up is
done (_scales), so that integer pivoting starts at the identity over the
common denominator 1; the scales go into the duals, and lists read the
slacks unscaled. The tableau is a dictionary (Chvatal, Linear Programming,
1983), kept fraction-free: a position list holds the ids of the nonbasic
columns, those neither basic in a tableau row nor set aside, and every
tableau row and the objective row hold one integer per position and then
the rhs. A row's den is the coefficient of its basic column, which is
stored nowhere: every other basic column is 0 in it. A packed row keeps
the common denominator of the last pivot that updated it; a pivot whose
column is 0 in a row leaves that row alone, and integer pivoting stays
exact for it. A simplex pivot puts the leaving column at the entering
one's position, so the width stays nvars - (kept equations) from the
set-up on. The set-up pivots, on equation rows with no basic column,
delete their positions; they run on lists. Once the set-up is done the
rows are packed where packing pays (_packs: rows of many slots, many of
them updated by each pivot), and kept as lists elsewhere (a hull lift's
tableau, whose pivots each update one row, and a degree-2 lift's short
rows). A packed slot is at most one 8-byte struct field, and rows whose
entries could outgrow it are lists (ReoptimizingSolver._unpack, which also
unscales the slacks): integer pivoting keeps every row over |det B|, which
can outgrow the rows' own dens in lowest terms by hundreds of bits. When a
free variable enters, at a start-basis equation pivot or a simplex pivot,
its pivot row leaves the tableau: it is set aside as it stands then, in
lowest terms, as (column, den, nonzero (column id, value) pairs), and no
later pivot updates it (an unpack rescales it once). Its basic column
reads 1 whichever way the variable entered. A set-aside row stays an exact
identity on the affine hull, so it still prices an objective (the
set-aside rows in entry order, in column ids, and then the tableau rows at
the positions) and yields x_j - shift_j by back-substitution in reverse
entry order, because it can mention only slacks and variables that entered
after it; the back-substitution reads only the columns with a nonzero
value. Once every variable is set aside, those rows change no more (but
for that rescale, which drops the priced unit rows), so each unit
objective is priced against them once per solver, when an objective first
reads it, and a new objective starts from the combination of its nonzero
entries' unit rows. Every pivot and result is the one a tableau that kept
and updated every row and column would give. Equation rows have no column
of their own; their duals are solved from stationarity at the optimum,
only when a full result is built (see ReoptimizingSolver).

Results. maximize and minimize return the full LPResult: the value, the
point and both sets of duals. maximum and minimum run the same simplex
from the same basis and return the value and the point only, with no dual
built; a caller that reads no dual (EfOptimizer's value queries) asks for
those.

Equation reduction. The set-up pivots are the independence check: each
equation row in turn is pivoted on its first nonzero position, and a row
the pivots before it have cleared at every position depends on them and
is dropped. The rows pivoted are the first maximal independent subset of
a program's equations, the positions independent_equations returns (it
stays the public reduction, and the tests' reference for this one), and a
dropped equation's dual is 0. Every equation is checked at the feasible
point, so a contradictory system is refused.

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

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter, mul
from struct import Struct

from .errors import DomainError, InternalError
from .rational import reduce_rows, scaled_ints

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

MAX = "max"
MIN = "min"

_ZERO = Fraction(0)  # shared by every zero dual

# bits a slot holds above the bound of the entries it was chosen for
_HEADROOM = 8
# the widest slot, one 8-byte struct field: rows whose entries could
# outgrow it are kept as lists in lowest terms (ReoptimizingSolver._unpack)
_SLOT_BYTES = 8
# the fewest slots a row has, and the fewest rows with two or more nonzero
# entries at the positions, of a tableau whose rows are packed (_packs)
_PACKED_MIN = 10


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


@lru_cache(maxsize=64)
def _layout(slots, wb):
    """(slot bytes, struct, bias) of rows of `slots` entries of at least wb
    bytes each, wb at most _SLOT_BYTES: a slot is widened to 2, 4 or 8
    bytes, one field of a struct that reads or writes a row in one call.
    Adding the bias makes every slot half a slot plus its entry, in [0,
    2^w): no slot borrows from the next."""
    wb, code = next((size, code) for size, code in ((2, "H"), (4, "I"), (8, "Q")) if wb <= size)
    half = 1 << (8 * wb - 1)
    return wb, Struct(f"<{slots}{code}"), int.from_bytes(half.to_bytes(wb, "little") * slots, "little")


def _slot_bytes(bound) -> int:
    """The bytes a slot needs for entries of absolute value at most bound:
    a sign bit and _HEADROOM bits above bound's bit length."""
    return (bound.bit_length() + _HEADROOM + 8) // 8


def _packs(rows) -> bool:
    """Whether a tableau's rows, as lists when the set-up is done, are
    packed for the simplex. A pivot on packed rows reads every row's entry
    at the entering position with a shift and updates a row in two
    big-integer products whatever its length, where a list row's update
    passes over each of its entries: packing pays on rows of many slots,
    and only where a pivot updates many rows. A row with one nonzero entry
    at the positions (y >= 0 on a lift) is updated only when its column
    enters, so a hull lift's tableau, one row and a unit row per vertex
    weight, keeps lists, and so do a degree-2 lift's rows of 7 or 8 slots.
    Measured per pivot (CPython 3.11, x86-64), packed against lists: 1.3
    to 1.6 times slower on those, 1.3 to 1.9 times faster on the degree-3
    lifts' rows of 10 and 12 slots, 11 to 15 of them with two or more
    nonzero entries."""
    if not rows or len(rows[0]) < _PACKED_MIN:
        return False
    dense = sum(len(row) - row.count(0) - (row[-1] != 0) > 1 for row in rows)
    return dense >= _PACKED_MIN


def _update(row, f, p, prow, den):
    """(row * p - f * prow) / den, exact: a packed row's update in a pivot
    of integer pivoting (see ReoptimizingSolver._pivot_packed);
    f is row's entry at the pivot position, p the pivot entry and den the
    common denominator before the pivot."""
    return (row * p - f * prow) // den


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
    variable basic, and every equation row sits at level 0. Every equation
    is checked at the point, so a dependent one that contradicts the others
    is refused. Each row is cleared to integers, over the coefficient of
    its slack. Each equation row in turn is pivoted on its first nonzero
    variable column, on rows kept as lists in lowest terms, which moves no
    basic value, so the start is feasible with no phase 1; a row the pivots
    before it have cleared is dependent and is dropped, and _kept_eqs lists
    the positions pivoted, the ones independent_equations keeps. Then the
    rows are packed if _packs says packing pays: each row's den goes into
    its basic slack's scale (_scales), so every row reads 1 at its basic
    column, and integer pivoting starts there, with the common denominator
    1. Each row's integers and start residual are built in one pass. Each
    solve writes its objective as a row priced against the current basis
    and reads the value, and for a full result the inequality duals, from
    that row at the optimum; once every variable is set aside, the pricing
    against the set-aside rows starts from unit rows priced once
    (_priced_by_units).

    Each variable is free and is one column, holding x_j - shift_j (0 while
    nonbasic). A basis label is the column id, variable j as j and slack k
    as nvars + k. A tableau row (_rows, labelled by _basis) holds one
    integer per nonbasic column, at the positions of _cols, and then the
    rhs, over its den (_dens). As a list (_packed is False) it is in lowest
    terms. Packed, it is one int with those integers in slots of _w bits
    (_fit), its den is the common denominator _den of the last pivot that
    updated it, and read over _den every row is integral and within _bound,
    which the slots hold; a pivot that could make an entry outgrow the
    widest slot makes the rows lists for good (_unpack). _order lists the
    positions in column-id order, for Bland's rule. A free variable enters
    upward or downward (see _entering), and the direction only signs the
    ratio test. Once entered it never leaves, so its pivot row leaves the
    tableau for the set-aside list, in entry order, in column ids (its
    pairs in position order, its entering column last), in lowest terms and
    updated by no later pivot; _solve prices with it and _value_point
    back-substitutes it. The tableau keeps only the slack-basic rows, all
    of which the ratio test reads, and Bland's rule over the slack columns
    and those rows cannot cycle.

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
        self._nv = nv = nvars
        self._shift = tuple(Fraction(x) for x in feasible_point)
        self._shift_ints, self._sden = shift, sden = scaled_ints(self._shift)
        self._me = me = len(equations)
        self._rhs = nv + len(inequalities)

        # (coefficient ints, den) of each equation, then of each
        # inequality: what the equation duals are solved from
        coefs = []
        rows: list[list[int]] = []
        dens: list[int] = []
        basis: list = []  # None: an equation row not pivoted yet
        for r_idx, (coeffs, rhs) in enumerate(equations + inequalities):
            ints, den = scaled_ints(coeffs)
            coefs.append((ints, den))
            # the start residual rhs - <coeffs, shift> is num / q
            rd = rhs.denominator
            q = rd * den * sden
            num = rhs.numerator * den * sden - rd * sum(map(mul, ints, shift))
            if r_idx < me:
                if num:
                    raise DomainError("feasible point violates an equation")
                row, label = ints + [0], None
            else:
                if num < 0:
                    raise DomainError("feasible point violates an inequality")
                # the row is scaled_ints(coeffs + (num / q,)), and its den
                # is the coefficient of its basic slack; q == 1 leaves den 1
                if q != 1:
                    g = gcd(num, q)
                    num, q = num // g, q // g
                    row_den = lcm(den, q)
                    if row_den != den:
                        ints = [c * (row_den // den) for c in ints]
                        den = row_den
                    num *= den // q
                row, label = ints + [num], nv + r_idx - me
            rows.append(row)
            dens.append(den)
            basis.append(label)

        self._rows = rows
        self._dens = dens
        self._basis = basis
        self._scales = scales = [1] * len(inequalities)  # 1 on lists
        self._cols = list(range(nv))  # the column id at each position
        self._aside = []  # (column, den, support) of each row set aside
        self._units = {}  # variable -> (support, den) of its priced unit row
        self._obj = [0] * (nv + 1)  # each solve writes its own
        self._oden = 1
        self._order = list(range(nv))  # the positions in column-id order
        self._packed = False  # the set-up pivots run on lists
        # the first row is always the next equation: pivoted on its first
        # nonzero position, which sets it aside, or dropped as dependent
        # when the pivots before it have cleared it (its rhs stays 0)
        kept = []
        for at in range(me):
            ps = next((j for j, v in enumerate(rows[0]) if v), None)
            if ps is None:
                del rows[0], dens[0], basis[0]
            else:
                kept.append(at)
                self._pivot(0, ps, [row[ps] for row in rows])
        self._kept_eqs = tuple(kept)
        self._coefs = [coefs[k] for k in kept] + coefs[me:]
        if _packs(rows):
            bound = max(max(map(max, rows)), -min(map(min, rows)))
            wb = _slot_bytes(bound)
            if wb <= _SLOT_BYTES:
                # each row's den becomes its basic slack's scale (no
                # set-aside row reads a slack yet): every row then reads 1
                # at its basic column, where integer pivoting starts, over
                # the common denominator 1
                for d, b in zip(dens, basis):
                    scales[b - nv] = d
                dens[:] = [1] * len(rows)
                self._den, self._bound, self._packed = 1, bound, True
                self._fit(len(self._cols) + 1, wb)
                self._rows = list(map(self._encode, rows))

    # -- packed rows ------------------------------------------------------

    def _fit(self, slots, wb):
        """Set the slot width w for rows of `slots` entries, at least wb
        bytes (_layout). An entry is stored as a signed digit in base 2^w,
        so a packed row is the sum of entry * 2^(w * slot), and every row
        update is exact on the packed ints."""
        self._wb, self._struct, self._bias = _layout(slots, wb)
        self._w = w = 8 * self._wb
        self._half = 1 << (w - 1)
        self._half2 = (1 << w) + 1  # twice half, plus the 1 that rounds
        self._mask = (1 << w) - 1
        self._nbytes = self._wb * slots

    def _encode(self, entries) -> int:
        half = self._half
        data = self._struct.pack(*[x + half for x in entries])
        return int.from_bytes(data, "little") - self._bias

    def _decode(self, row) -> list:
        """A packed row's entries: its positions, then the rhs."""
        half = self._half
        data = (row + self._bias).to_bytes(self._nbytes, "little")
        return [x - half for x in self._struct.unpack(data)]

    def _support(self, row):
        """A row's nonzero (position, entry) pairs, the rhs at position
        len(_cols), and its largest entry's absolute value."""
        if not self._packed:
            return [(j, v) for j, v in enumerate(row) if v], max(max(row), -min(row))
        half = self._half
        slots = self._struct.unpack((row + self._bias).to_bytes(self._nbytes, "little"))
        top = max(max(slots) - half, half - min(slots))
        return [(j, x - half) for j, x in enumerate(slots) if x != half], top

    def _column(self, ps) -> list:
        """Each packed row's entry at position ps: the row shifted down to
        slot ps, rounded (the slots below sum to less than half of one),
        read as a signed digit."""
        rows = self._rows
        half, mask = self._half, self._mask
        if ps:
            shift, half2 = self._w * ps - 1, self._half2
            return [((row >> shift) + half2 >> 1 & mask) - half for row in rows]
        return [(row + half & mask) - half for row in rows]

    def _repack(self) -> None:
        """Store every row again in the widest slots, _SLOT_BYTES each."""
        decoded = list(map(self._decode, self._rows))
        self._fit(len(self._cols) + 1, _SLOT_BYTES)
        self._rows[:] = map(self._encode, decoded)

    # -- tableau mechanics ------------------------------------------------

    def _pivot(self, pi: int, ps: int, column) -> None:
        """Pivot on row pi at position ps, where column holds every row's
        entry: the column there enters, and the row's basic column, if it
        has one, leaves into position ps.

        Packed rows are updated by _pivot_packed. On lists, each row in
        lowest terms over its own den, the pivot row, its den included (an
        equation row has none), is divided by its content g, signed so that
        its entry p at ps is positive; p is the row's new den, and the
        leaving column reads den / g at ps. Every other row with f != 0 at
        ps is 0 there for the leaving column before the row update
        (_eliminate), which clears the entering column and leaves -f * den
        / g at ps. With p and the pivot row's nonzero (position, entry)
        pairs the objective row is updated too, and a pivot row basic in a
        variable is set aside, in lowest terms. A set-up pivot, on an
        equation row with no basic column, deletes the entering column from
        every row, the objective row and the position list. The position of
        a leaving column moves to its place in _order. A pivot whose
        entries could outgrow the widest slot (_pivot_packed returns None)
        makes the rows lists first (_unpack)."""
        rows, dens, basis, cols = self._rows, self._dens, self._basis, self._cols
        col, leaving = cols[ps], basis[pi]
        if self._packed:
            found = self._pivot_packed(pi, ps, column)
            if found is None:  # an entry could outgrow the widest slot
                self._unpack()
                column = [row[ps] for row in rows]
        if self._packed:
            p, support = found
        else:
            prow, den = rows[pi], dens[pi]
            if leaving is None:  # an equation row: no basic column
                den = 0
            g = gcd(den, *prow)
            if prow[ps] < 0:
                g = -g
            if g != 1:
                prow = [x // g for x in prow]
            p = prow[ps]
            prow[ps] = den // g
            support = [(j, v) for j, v in enumerate(prow) if v]
            for i, f in enumerate(column):
                if f and i != pi:
                    row = rows[i]
                    row[ps] = 0
                    rows[i], dens[i] = _eliminate(row, dens[i], f, p, support)
            rows[pi], dens[pi] = prow, p
        obj = self._obj
        f = obj[ps]
        if f:
            obj[ps] = 0
            self._obj, self._oden = _eliminate(obj, self._oden, f, p, support)
        if leaving is not None:
            cols[ps] = leaving
            self._order.remove(ps)
            insort(self._order, ps, key=cols.__getitem__)
        if col < self._nv:  # a free variable never leaves: its row is set aside
            # in lowest terms, which a list row's pivot row already is
            g = gcd(p, *map(itemgetter(1), support)) if self._packed else 1
            cols.append(self._rhs)  # the column id of the rhs, for a moment
            if g == 1:
                ids = [(cols[j], v) for j, v in support]
            else:
                ids = [(cols[j], v // g) for j, v in support]
            cols.pop()
            ids.append((col, p // g))
            self._aside.append((col, p // g, ids))
            del rows[pi], dens[pi], basis[pi]
        else:
            basis[pi] = col
        if leaving is None:
            del cols[ps], self._obj[ps]
            for row in rows:
                del row[ps]
            # only the set-up deletes, and it places no leaving column, so
            # the positions stay in column-id order
            self._order.pop()

    def _pivot_packed(self, pi, ps, column):
        """_pivot's row updates on packed rows, by integer pivoting:
        returns the pivot entry p and the pivot row's nonzero (position,
        entry) pairs, its leaving column's entry at ps. The pivot row, over
        the common denominator den, is negated if its entry p at ps is
        negative; |p| is the new common denominator, and the leaving column
        reads sign(p) * den at ps. Every other row with f != 0 at ps
        becomes (row * |p| - f * pivot row) / d (_update), exactly, over
        its own den d, where the pivot row reads |p| + sign(p) * den at ps,
        which clears the entering column and leaves the leaving column's
        entry; its den is then |p|. A row with f == 0 keeps its entries and
        its den. Before any update, the proven bound (bound * |p| + max |f|
        * max |pivot entry|) / den of every entry over the new common
        denominator is checked against the slot width, and every row is
        stored again at a wider one (_repack) if an entry could outgrow its
        slot; if one could outgrow the widest, None is returned, with
        nothing updated."""
        rows, dens = self._rows, self._dens
        den, w = self._den, self._w
        # the largest entry at ps over the common denominator
        most = max(max(column), -min(column))
        if dens.count(den) != len(rows):
            for f, d in zip(column, dens):
                if d != den and f:
                    most = max(most, abs(f) * den // d + 1)
        prow, p = rows[pi], column[pi]
        if dens[pi] != den:  # the pivot row, over the common denominator
            prow, p = prow * den // dens[pi], p * den // dens[pi]
        sign = den
        if p < 0:
            prow, p, sign = -prow, -p, -den
        prow += (sign - p) << w * ps
        support, top = self._support(prow)
        bound = max((max(self._bound, most) * p + most * top) // den + 1, top)
        if bound.bit_length() >= w:
            if _slot_bytes(bound) > _SLOT_BYTES:
                return None
            self._repack()
            w = self._w
            prow = sum(v << w * j for j, v in support)
        step = prow + (p << w * ps)
        for i, f in enumerate(column):
            if f and i != pi:
                rows[i] = _update(rows[i], f, p, step, dens[i])
                dens[i] = p
        rows[pi], dens[pi] = prow, p
        self._den, self._bound = p, bound
        return p, support

    def _unpack(self) -> None:
        """Keep the rows as lists in lowest terms from now on, each over its
        own den, in the unscaled slacks, the form the set-up's rows have
        (lists read the slacks in their scaled form about a sixth slower
        on the degree-4 lift of 290 points). Each slack column's entries,
        in the tableau rows, the objective row and the set-aside rows, and
        each row's den at its basic slack, are multiplied by the slack's
        scale, and each row is divided by its gcd; the scales become 1, and
        the priced unit rows are dropped, to be priced again when read."""
        nv, rhs, scales = self._nv, self._rhs, self._scales
        at = [(j, scales[c - nv]) for j, c in enumerate(self._cols) if c >= nv]
        rows, dens = [], []
        for row, d, b in zip(map(self._decode, self._rows), self._dens, self._basis):
            for j, s in at:
                row[j] *= s
            d *= scales[b - nv]
            g = gcd(d, *row)
            rows.append([x // g for x in row])
            dens.append(d // g)
        self._rows[:], self._dens[:] = rows, dens
        obj = self._obj
        for j, s in at:
            obj[j] *= s
        g = gcd(self._oden, *obj)
        self._obj, self._oden = [x // g for x in obj], self._oden // g
        aside = []
        for col, p, support in self._aside:
            support = [(c, v * scales[c - nv] if nv <= c < rhs else v) for c, v in support]
            g = gcd(*map(itemgetter(1), support))
            aside.append((col, p // g, [(c, v // g) for c, v in support]))
        self._aside[:] = aside
        self._units.clear()
        self._scales = [1] * len(scales)
        self._packed = False

    def _entering(self):
        """Bland's rule as (position, direction), or None at the optimum:
        the smallest variable id whose increase helps (obj < 0, direction
        +1), else the smallest variable id whose decrease helps (obj > 0,
        direction -1), else the smallest slack id with obj < 0 (+1). The
        scan reads the positions in column-id order (_order), where the
        variables at a position come first, and stops at the first hit."""
        obj, order = self._obj, self._order
        free = self._nv - len(self._aside)  # the variables at a position
        if free:
            variables = order[:free]
            for j in variables:
                if obj[j] < 0:
                    return j, 1
            for j in variables:
                if obj[j] > 0:
                    return j, -1
            order = order[free:]
        for j in order:
            if obj[j] < 0:
                return j, 1
        return None

    def _simplex(self) -> str:
        """Bland's rule on the objective row until optimal or unbounded.
        Every tableau row is basic in a slack: a row basic in a variable
        bounds nothing, because the variable is free, so it was set aside
        when the variable entered. The entering direction only signs the
        ratio test; the pivot makes the basic entry positive either way.
        The ratio test reads each row's entry at the entering position (a
        packed row's by _column) and the rhs of the rows it keeps, a list
        row's last entry or a packed row's top slot."""
        rows, basis, cols = self._rows, self._basis, self._cols
        while True:
            entering = self._entering()
            if entering is None:
                return OPTIMAL
            at, direction = entering
            if self._packed:
                column, top = self._column(at), self._w * len(cols) - 1
            else:
                column, top = [row[at] for row in rows], None
            # smallest ratio rhs / v over the rows with v = direction *
            # entry > 0, compared by cross-multiplying; ties go to the
            # smaller basis label
            best = None
            for i, f in enumerate(column):
                v = direction * f
                if v > 0:
                    r = rows[i][-1] if top is None else (rows[i] >> top) + 1 >> 1
                    if best is not None:
                        c = r * best_v - best_rhs * v
                        if c > 0 or (c == 0 and basis[i] > best_label):
                            continue
                    best, best_v, best_rhs, best_label = i, v, r, basis[i]
            if best is None:
                return UNBOUNDED
            self._pivot(best, at, column)

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

        The objective row -c is priced out in column ids against the
        set-aside rows (_priced_by_aside, or, once every variable is set
        aside, _priced_by_units), and then mapped to the positions and the
        rhs, followed by its entries at the basic columns of the tableau
        rows it reads. Each of those rows clears its entry there, over its
        own den. The priced row is 0 at every column that is not at a
        position, and a priced row is unique in lowest terms, so it is the
        one a fully updated tableau gives."""
        if len(objective) != self._nv:
            raise DomainError(
                f"objective has {len(objective)} entries, expected {self._nv}"
            )
        _check_exact(objective, "objective")
        ints, cden = scaled_ints(objective)
        nv, rhs, cols = self._nv, self._rhs, self._cols
        if len(self._aside) == nv:
            full, den = self._priced_by_units(ints, cden)
        else:
            full, den = self._priced_by_aside([-c for c in ints] + [0] * (rhs + 1 - nv), cden)
        width = len(cols)
        reads = []  # (basic column, den, nonzero (position, value) pairs)
        for row, d, b in zip(self._rows, self._dens, self._basis):
            if full[b]:
                reads.append((b, d, self._support(row)[0]))
        obj = [full[c] for c in cols]
        obj.append(full[rhs])
        obj += [full[b] for b, _, _ in reads]
        for k, (_, p, support) in enumerate(reads, width + 1):
            support.append((k, p))
            obj, den = _eliminate(obj, den, obj[k], p, support)
        del obj[width + 1 :]
        self._obj, self._oden = obj, den
        if self._simplex() == UNBOUNDED:
            return None
        return ints, cden

    def _priced_by_aside(self, obj, den):
        """A full-width row (obj, den) priced against the set-aside rows in
        entry order: each clears its column and can bring in only columns
        that entered later or are slacks."""
        for col, p, support in self._aside:
            f = obj[col]
            if f:
                obj, den = _eliminate(obj, den, f, p, support)
        return obj, den

    def _priced_by_units(self, ints, cden):
        """-ints / cden priced against the set-aside rows, once every
        variable is set aside, as the combination of the priced unit rows
        -e_j of its nonzero entries, in lowest terms. Those rows never
        change again, so each is priced (_priced_by_aside) once per solver,
        when an objective first reads it, and kept as (support, den)."""
        units, width = self._units, self._rhs + 1
        terms = []
        for j, c in enumerate(ints):
            if c:
                unit = units.get(j)
                if unit is None:
                    e = [0] * width
                    e[j] = -1
                    row, uden = self._priced_by_aside(e, 1)
                    units[j] = unit = ([(k, v) for k, v in enumerate(row) if v], uden)
                terms.append((c, unit))
        common = lcm(*[uden for _, (_, uden) in terms])
        obj = [0] * width
        for c, (support, uden) in terms:
            f = c * (common // uden)
            for k, v in support:
                obj[k] += f * v
        den = cden * common
        if den != 1:
            g = gcd(den, *obj)
            if g != 1:
                obj = [x // g for x in obj]
                den //= g
        return obj, den

    def _value_point(self, objective, cden) -> tuple:
        """(value, primal point) at the optimum, each entry one Fraction
        built from ints; objective / cden is the objective maximized.

        A tableau row gives its basic slack the value of its rhs (a packed
        row's top slot) over its den. The set-aside rows are
        back-substituted in reverse entry order: each reads its variable's
        value x_j - shift_j from the values of its other columns, which are
        slacks and variables that entered later (its own column reads 0
        until then), and a column with no value is nonbasic at 0. Each step
        reads only the support entries whose column has a nonzero value and
        works in integers over the lcm of their dens, and a nonbasic x_j is
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
        if not self._packed:
            tops = [row[-1] for row in self._rows]
        elif self._cols:  # the rhs is the top slot
            top = self._w * len(self._cols) - 1
            tops = [(row >> top) + 1 >> 1 for row in self._rows]
        else:
            tops = self._rows
        for r, d, b in zip(tops, self._dens, self._basis):
            if r:
                num[b], zden[b] = r, d
        x = list(self._shift)
        for col, p, support in reversed(self._aside):
            live = [(v * num[j], zden[j]) for j, v in support if num[j]]
            common = lcm(*[z for _, z in live])
            t = -sum(a * (common // z) for a, z in live)
            if t:
                d = common * p
                g = gcd(t, d)
                num[col], zden[col] = t // g, d // g
                x[col] = Fraction(t * sden + shift[col] * d, d * sden)
        at_shift = sum(c * z for c, z in zip(objective, shift) if c)
        value = Fraction(obj[-1] * cden * sden + at_shift * den, den * cden * sden)
        return value, tuple(x)

    def _slack_costs(self):
        """The nonzero (inequality index, numerator) pairs of the objective
        row at the nonbasic slacks, over its den: beta at the optimum. A
        slack column is scaled by _scales, so its beta is its entry times
        the scale. A basic slack's beta is 0, and at the optimum every
        variable entry is 0 too."""
        nv, scales = self._nv, self._scales
        return [
            (c - nv, v * scales[c - nv]) for c, v in zip(self._cols, self._obj) if v and c >= nv
        ]

    def _inequality_duals(self) -> tuple:
        """beta at the optimum (_slack_costs), one Fraction each, every zero
        the shared Fraction(0)."""
        den = self._oden
        duals = [_ZERO] * (self._rhs - self._nv)
        for k, v in self._slack_costs():
            duals[k] = Fraction(v, den)
        return tuple(duals)

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
        mk = len(self._kept_eqs)
        oden = self._oden
        eqs, ineqs = self._coefs[:mk], self._coefs[mk:]
        betas = [(ineqs[k], v) for k, v in self._slack_costs()]
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
