"""Exact nonnegative factorizations of cyclic-polytope slack matrices.

A factorization of the slack matrix M is a pair of nonnegative families
alpha_i (one vector per vertex) and beta_S (one per facet) of a common
length r, the rank, with <alpha_i, beta_S> = M(i, S) exactly.

Two constructions live here:

- factorize_2d: for the degree-2 polytope the recursive lifted description
  has O(log n) inequalities; its witness slack vectors and per-facet dual
  multipliers give rank <= 2*floor(log2(n-1)) + 2. Both are composed in
  closed form along the fold chain (geometry.fold_chain) that
  lifting.build_ef_2d walks, with no lift built; they are the witness
  slacks and the unique LP duals that lifting.factorization_from_ef would
  read off the lift.
- the tensor construction, d >= 3 (factorize_even, factorize_odd): each
  facet is d // 2 pairs, facets of the degree-2 polytope, plus for odd d
  an endpoint (geometry.facets_with_pairs), and its slack is the product of
  theirs. Factorizations multiply through such entrywise products
  (hadamard_combine), so beta_S is the Kronecker product of the degree-2
  betas of S's pairs, in order, and alpha_i the (d // 2)-fold Kronecker
  power of the degree-2 alpha_i: rank r2**(d//2). For odd d the degree-2
  factorization is on [1, n - 1]. Endpoint 1 leaves pairs on [2, n],
  moved down by one, and scales the slack by (i - 1); endpoint n scales
  it by (n - i). The two endpoint blocks take disjoint coordinates:
  rank 2 * r2**(d//2).

Every construction computes in integers: each vector is integer
numerators over a positive denominator (NonnegFactorization.int_vectors),
which verify and the JSON writer read; the public Fraction and int
entries are built from them. One integer core (_fold_factorization_2d)
feeds both constructions: factorize_2d adds its public Fractions, and the
tensor construction multiplies its numerators directly. to_json_text
writes the JSON document; to_json_dict is that text parsed.

Ranks here are the lengths of the constructed vectors, i.e. what the
construction guarantees, not the (unknown) minimal nonnegative rank.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import mul

from .errors import DomainError, InternalError
from .geometry import (
    REFLECT,
    CyclicPolytope,
    GaleSet,
    Interval,
    SlackMatrix,
    enumerate_facets,
    facet_count,
    facets_with_pairs,
    fold_chain,
    slack_matrix,
)
from .rational import parse_rational, reduce_rows, scaled_ints


def _floor_log2(x: int) -> int:
    return x.bit_length() - 1


def size_bound_2d(n: int) -> int:
    """Inequality count the degree-2 lifted description is guaranteed to meet."""
    CyclicPolytope.standard(2, n)
    return 2 * _floor_log2(n - 1) + 2


def rank_bound(n: int, d: int) -> int:
    """Guaranteed rank of factorize(n, d): 2 * (2*floor(log2(n-1)) + 2)**(d//2)."""
    CyclicPolytope.standard(d, n)
    return 2 * size_bound_2d(n) ** (d // 2)


def _size_2d(n: int) -> int:
    # inequality count of the recursive degree-2 lift: two per fold, one per
    # point of the facet system at the bottom
    folds, (b1, b2) = fold_chain(1, n)
    return 2 * len(folds) + b2 - b1 + 1


def construction_rank(n: int, d: int) -> int:
    """Exact rank the recursive construction produces for (n, d), without
    building it: the rank of factorize_2d, factorize_even or factorize_odd."""
    CyclicPolytope.standard(d, n)
    if d == 2:
        return _size_2d(n)
    if d % 2 == 0:
        return _size_2d(n) ** (d // 2)
    return 2 * _size_2d(n - 1) ** (d // 2)


def trivial_wins(n: int, d: int) -> bool:
    """Whether the trivial rank-n factorization is strictly smaller than the
    recursive construction, so that factorize(n, d) returns it. Never true
    at d = 2."""
    return n < construction_rank(n, d)


def even_rank_bound(n: int, d: int) -> int:
    """For even d the factor 2 is not needed: (2*floor(log2(n-1)) + 2)**(d//2)."""
    CyclicPolytope.standard(d, n)
    if d % 2:
        raise DomainError(f"even dimension required, got d={d}")
    return size_bound_2d(n) ** (d // 2)


@dataclass(frozen=True)
class NonnegFactorization:
    """alpha: one vector per row (vertex, interval order); beta: one per
    column (facet, canonical order); all entries nonnegative rationals.
    Every vector has length rank; any other length is a DomainError.

    int_vectors() is the exact form verify and the JSON writer read: each
    vector as integer numerators over a positive denominator. The
    constructions carry it from their integer arithmetic; any other
    factorization (a read file, a caller's own, dataclasses.replace's
    copy) derives it with scaled_ints on first use. It is not an init
    field, so replace never copies it and an edited vector is never read
    through a stale form."""

    rank: int
    alpha: tuple
    beta: tuple
    column_labels: tuple | None = None
    target: CyclicPolytope | None = None
    _ints: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for vec in self.alpha + self.beta:
            if len(vec) != self.rank:
                raise DomainError(
                    f"vector of length {len(vec)} does not match rank {self.rank}"
                )

    @classmethod
    def _carrying(cls, rank, alpha, beta, ints, column_labels, target):
        """The factorization with its integer form ints given, as
        int_vectors() returns it; ints must equal alpha and beta in value."""
        F = cls(rank, alpha, beta, column_labels, target)
        object.__setattr__(F, "_ints", ints)
        return F

    def int_vectors(self) -> tuple:
        """((numerators, den), ...): alpha's vectors, then beta's, each equal
        to numerators / den, den > 0. Derived by scaled_ints on first use
        when no construction carried it."""
        if self._ints is None:
            ints = tuple(
                (tuple(nums), den) for nums, den in map(scaled_ints, self.alpha + self.beta)
            )
            object.__setattr__(self, "_ints", ints)
        return self._ints

    @property
    def n_rows(self) -> int:
        return len(self.alpha)

    @property
    def n_cols(self) -> int:
        return len(self.beta)

    def entry(self, row_pos: int, col_pos: int):
        a, b = self.alpha[row_pos], self.beta[col_pos]
        return sum(x * y for x, y in zip(a, b))

    def to_json_dict(self) -> dict:
        """The JSON document to_json_text writes, parsed."""
        return json.loads(self.to_json_text())

    def to_json_text(self) -> str:
        """The JSON document, laid out as json.dumps(indent=2) would.

        The layout's separators are fixed and every entry is a
        format_rational string (digits, "-" and "/": nothing to escape), so
        each vector is one join, with no dict built and no pass of json's
        pure-Python indenting encoder.
        """
        target = "null"
        if self.target is not None:
            t = self.target
            target = (
                f'{{\n    "d": {t.d},\n    "t1": {t.interval.t1},'
                f'\n    "t2": {t.interval.t2}\n  }}'
            )
        columns = "null"
        if self.column_labels is not None:
            columns = _json_list(
                [_json_list(list(map(str, S.members)), 3) for S in self.column_labels], 2
            )
        texts = _entry_texts(self.int_vectors())
        return (
            f'{{\n  "target": {target},\n  "rank": {self.rank},'
            f'\n  "alpha": {_json_vectors(texts[: self.n_rows])},'
            f'\n  "beta": {_json_vectors(texts[self.n_rows :])},'
            f'\n  "columns": {columns}\n}}'
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "NonnegFactorization":
        """Inverse of to_json_dict; any malformed document is a DomainError.

        rank, the target fields and the column members are JSON integers,
        and alpha, beta, columns and each of their vectors are JSON lists;
        anything else in their place is malformed (a string of digits is
        not a vector). Each distinct entry string is parsed once per
        document: a factorization repeats a few hundred values across
        thousands of entries.
        """
        try:
            rank = _json_int(data["rank"])
            entries = _ParsedEntries()
            alpha = tuple(_parse_vector(vec, entries) for vec in _json_array(data["alpha"]))
            beta = tuple(_parse_vector(vec, entries) for vec in _json_array(data["beta"]))
            raw_target = data.get("target")
            target = None
            if raw_target is not None:
                target = CyclicPolytope(
                    _json_int(raw_target["d"]),
                    Interval(_json_int(raw_target["t1"]), _json_int(raw_target["t2"])),
                )
            raw_columns = data.get("columns")
            columns = None
            if raw_columns is not None:
                columns = tuple(
                    GaleSet(tuple(map(_json_int, _json_array(mem))))
                    for mem in _json_array(raw_columns)
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(
                f"malformed factorization JSON ({type(exc).__name__}: {exc})"
            ) from exc
        return cls(rank, alpha, beta, columns, target)


def _json_list(items: list, depth: int) -> str:
    """A JSON list of encoded items as json.dumps(indent=2) lays it out at
    this nesting depth (the top-level object's members are at depth 1)."""
    if not items:
        return "[]"
    inner = "\n" + "  " * depth
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * (depth - 1) + "]"


def _json_vectors(texts) -> str:
    """The alpha or beta member from each vector's entry strings."""
    quoted = '",\n      "'
    return _json_list(
        ['[\n      "' + quoted.join(vec) + '"\n    ]' if vec else "[]" for vec in texts], 2
    )


class _EntryTexts(dict):
    """format_rational(num / den) per numerator num, for one denominator
    den > 0, each formatted on its first lookup."""

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, num):
        g = gcd(num, self.den)
        p, q = num // g, self.den // g
        text = self[num] = str(p) if q == 1 else f"{p}/{q}"
        return text


def _entry_texts(ints) -> list:
    """Each (numerators, den) vector as a list of its entries'
    format_rational strings: a factorization repeats a few hundred values
    across thousands of entries, so each distinct one is formatted once."""
    by_den = {}
    out = []
    for nums, den in ints:
        texts = by_den.get(den)
        if texts is None:
            texts = by_den[den] = _EntryTexts(den)
        out.append(list(map(texts.__getitem__, nums)))
    return out


class _ParsedEntries(dict):
    """One document's entry strings, each parsed on its first lookup."""

    def __missing__(self, text):
        value = self[text] = parse_rational(text)
        return value


def _parse_vector(vec, entries: _ParsedEntries) -> tuple:
    """tuple(map(parse_rational, vec)) for a JSON list vec, parsing each
    distinct string once.

    parse_rational refuses anything but a string, so nothing else is ever
    cached. An unhashable entry raises TypeError in the lookup; parsing
    entry by entry then raises exactly what it would have raised without
    the cache.
    """
    _json_array(vec)
    try:
        return tuple(map(entries.__getitem__, vec))
    except TypeError:
        return tuple(map(parse_rational, vec))


def _json_array(x) -> list:
    # a str, dict or tuple is iterable too, and would be read item by item
    if type(x) is not list:
        raise TypeError(f"expected a JSON list, got {type(x).__name__}")
    return x


def _json_int(x) -> int:
    # bool is a subclass of int, and int() would accept 1.9 and "7"
    if type(x) is not int:
        raise TypeError(f"expected a JSON integer, got {x!r}")
    return x


@dataclass(frozen=True)
class VerificationReport:
    """The verdict (ok, rank, bound, first_mismatch), and kept: the
    positions, in order, of the facet rows verify's reduction kept (the
    first maximal independent subset, as exact_lp.independent_equations
    returns it), or None when no facet row was reduced. kept is a
    by-product of the check, not part of the verdict, so reports compare
    without it."""

    ok: bool
    rank: int
    bound: int | None
    first_mismatch: tuple | None = None
    kept: tuple | None = field(default=None, compare=False)


def verify(M: SlackMatrix, F: NonnegFactorization) -> VerificationReport:
    """Exact check that F reproduces M with nonnegative vectors.

    Entry (i, S) of M is b_S - <a_S, v_i> = <(1, i, ..., i^d), (b_S, -a_S)>
    for the facet inequality <a_S, x> <= b_S, and (b_S, -a_S) is S's slack
    polynomial (M.polynomials, read off its pairs), so F reproduces every
    entry exactly when each vertex row [alpha_i | -(1, i, ..., i^d)] is
    orthogonal to each facet row [beta_S | b_S, -a_S]. The facet rows, on
    F.int_vectors(), are reduced to an independent basis
    (rational.reduce_rows), and each vertex row is tested against the
    whole basis with one exact dot product (_first_non_orthogonal):
    O(m k^2) integer work for the reduction and O(n k) products for the
    vertex rows, for n vertices, m facets and k = rank + d + 1, with no
    slack entry built. first_mismatch is
    (vertex index, facet, expected, got) for the first differing entry,
    scanning rows then columns; only the first row that fails the basis
    test is scanned entry by entry.

    The facet rows are the equations [a_S | beta_S] = b_S of F's lift
    (lifting.ef_from_factorization) with their columns permuted. When F
    verifies, its witnesses satisfy them, so no row is independent in the
    rhs column alone, and the positions the reduction keeps (kept) are the
    ones independent_equations keeps from that lift's equations.

    A factorization whose target or shape differs from P's is a DomainError
    raised from the counts alone, before any facet of P is enumerated.
    """
    P = M.polytope
    if F.target is not None and F.target != P:
        raise DomainError(
            f"factorization targets d={F.target.d} on "
            f"[{F.target.interval.t1}, {F.target.interval.t2}], matrix is "
            f"d={P.d} on [{P.interval.t1}, {P.interval.t2}]"
        )
    # the shape from the counts, rows first, before M.columns is read: no
    # math.comb (seconds at d = 10^6) when the rows differ or facet_count's
    # first term C(n - (d+1)//2, d//2) >= 2^k already outgrows F.n_cols;
    # such a count can be too long to print
    shape = f"factorization is {F.n_rows}x{F.n_cols}"
    if F.n_rows != P.n:
        raise DomainError(f"{shape}, matrix has {P.n} rows")
    k = min(P.d // 2, P.n - P.d)
    if k >= F.n_cols.bit_length():
        raise DomainError(f"{shape}, matrix has at least 2^{k} columns")
    m = facet_count(P)
    if F.n_cols != m:
        raise DomainError(f"{shape}, matrix is {P.n}x{m}")
    # F's labels, when they are the canonical facet order, become M's
    # columns: a construction's one enumeration serves both
    if F.column_labels is not None and not M.take_columns(F.column_labels):
        raise DomainError("column labels do not match the matrix's facet order")
    bound = rank_bound(P.n, P.d)
    # a numerator has its entry's sign
    ints = F.int_vectors()
    for nums, _ in ints:
        if nums and min(nums) < 0:
            return VerificationReport(False, F.rank, bound, None)
    # the slack polynomials have integer coefficients
    facet_rows = [
        [*bi, *map(db.__mul__, poly)] for poly, (bi, db) in zip(M.polynomials, ints[F.n_rows :])
    ]
    kept, basis = [], []
    for at, (pivot, row) in enumerate(reduce_rows(facet_rows)):
        if pivot is not None:
            kept.append(at)
            basis.append(row)
    vertex_rows = [
        [*ai, *[-da * i**e for e in range(P.d + 1)]]
        for i, (ai, da) in enumerate(ints[: F.n_rows], P.interval.t1)
    ]
    ri = _first_non_orthogonal(vertex_rows, basis)
    mismatch = None if ri is None else _row_mismatch(M, F, ri)
    return VerificationReport(ri is None, F.rank, bound, mismatch, tuple(kept))


def _first_non_orthogonal(rows, basis):
    """The index of the first integer row with a nonzero dot product with
    some basis row, or None: one exact product per row, by Kronecker
    substitution.

    With top the largest |entry| of the basis rows and l1 the largest L1
    norm of a row, every |<row, b_j>| <= top * l1 < 2^(shift - 1) for
    shift = (top * l1).bit_length() + 1. So in <row, packed> =
    sum_j <row, b_j> 2^(shift * j), packed = sum_j b_j 2^(shift * j), the
    lowest nonzero term cannot be cancelled by the higher ones (they are
    multiples of 2^shift times its weight), and the product is 0 exactly
    when every <row, b_j> is.
    """
    if not basis:
        return None
    top = max(map(abs, chain.from_iterable(basis)))
    l1 = max((sum(map(abs, row)) for row in rows), default=0)
    shift = (top * l1).bit_length() + 1
    packed = [0] * len(basis[0])
    for b in reversed(basis):
        packed = [(p << shift) + x for p, x in zip(packed, b)]
    for ri, row in enumerate(rows):
        if sum(map(mul, row, packed)):
            return ri
    return None


def _row_mismatch(M: SlackMatrix, F: NonnegFactorization, ri: int) -> tuple:
    """(vertex index, facet, expected, got) at the first column of row ri
    where F differs from M."""
    ints = F.int_vectors()
    ai, da = ints[ri]
    for label, expected, (bj, db) in zip(M.columns, M.row(ri), ints[F.n_rows :]):
        s = sum(map(mul, ai, bj))
        if s != expected * da * db:
            return (M.polytope.interval.t1 + ri, label, expected, Fraction(s, da * db))
    raise InternalError(f"row {ri} fails the basis test but matches every entry")


def hadamard_combine(
    fa: NonnegFactorization, fb: NonnegFactorization
) -> NonnegFactorization:
    """Factorization of the entrywise product from factorizations of the
    factors, via per-row and per-column tensor products; rank multiplies.

    Each product vector is the Kronecker product of the factors' numerators
    (int_vectors) over the product of their dens, carried as the result's
    integer form. Over den 1 its entries are those ints; over any other den
    each is a Fraction, every zero the shared Fraction(0)."""
    if fa.n_rows != fb.n_rows:
        raise DomainError(f"row counts differ: {fa.n_rows} vs {fb.n_rows}")
    if fa.n_cols != fb.n_cols:
        raise DomainError(f"column counts differ: {fa.n_cols} vs {fb.n_cols}")
    labels = fa.column_labels
    if labels is not None and fb.column_labels is not None:
        if tuple(labels) != tuple(fb.column_labels):
            raise DomainError("column labels disagree")
    elif labels is None:
        labels = fb.column_labels
    ints, vectors, values = [], [], {}
    for (na, da), (nb, db) in zip(fa.int_vectors(), fb.int_vectors()):
        nums, den = _kron((na, nb)), da * db
        ints.append((nums, den))
        if den != 1:
            if den not in values:
                values[den] = _Values(den)
            nums = tuple(map(values[den].__getitem__, nums))
        vectors.append(nums)
    k = fa.n_rows
    alpha, beta = tuple(vectors[:k]), tuple(vectors[k:])
    return NonnegFactorization._carrying(
        fa.rank * fb.rank, alpha, beta, tuple(ints), labels, None
    )


def _units(r: int) -> tuple:
    """The r unit vectors of length r."""
    return tuple((0,) * k + (1,) + (0,) * (r - k - 1) for k in range(r))


def trivial_factorization(M: SlackMatrix) -> NonnegFactorization:
    """Rank min(rows, columns), from unit vectors against rows or columns.
    Every entry is an int, so the vectors are their own numerators."""
    n, m = M.n_rows, M.n_cols
    if m <= n:
        alpha, beta, rank = M.entries, _units(m), m
    else:
        alpha, beta, rank = _units(n), tuple(zip(*M.entries)), n
    ints = tuple(zip(alpha + beta, repeat(1)))
    return NonnegFactorization._carrying(rank, alpha, beta, ints, M.columns, M.polytope)


def _fold_alphas(folds, base_polynomials, base_points) -> tuple:
    """The slack vector of each witness of the lift with these folds down to
    the facet system on base_points, in the lift's inequality order and in
    interval order, composed from the bottom up with one table per level
    (point -> slacks from that level down); no lifted inequality is
    evaluated.

    With u = t - c at a fold centred at c: a reflection's witness has
    z = |u|, so its two cuts have slacks |u| + u and |u| - u, and the rest
    are the slacks of the point |u| one level down. A shear's witness sits
    on the cut of its side of the fold: u >= 1 folds to u with slacks
    (4u - 2, 0), u <= 0 folds to 1 - u with slacks (0, 2 - 4u). At the
    bottom a point s has the facet slacks p0 + p1*s + p2*s^2, the values
    of the facets' slack polynomials.
    """
    slacks = {
        s: tuple(p0 + p1 * s + p2 * s * s for p0, p1, p2 in base_polynomials)
        for s in base_points
    }
    for kind, c, t1, t2 in reversed(folds):
        below, slacks = slacks, {}
        for t in range(t1, t2 + 1):
            u = t - c
            if kind == REFLECT:
                slacks[t] = (abs(u) + u, abs(u) - u) + below[abs(u)]
            elif u >= 1:
                slacks[t] = (4 * u - 2, 0) + below[u]
            else:
                slacks[t] = (0, 2 - 4 * u) + below[1 - u]
    return tuple(slacks.values())


_ZERO = Fraction(0)  # shared by every zero multiplier


class _Values(dict):
    """The public entry num / den per numerator num, for one denominator
    den > 0, each built on its first lookup: a Fraction, with every zero
    the shared _ZERO."""

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, num):
        value = self[num] = Fraction(num, self.den) if num else _ZERO
        return value


def _dual_denominator(folds, base_facets, base_points) -> int:
    """A common denominator of every multiplier _fold_duals can reach: 2
    when some fold is a shear (its cuts take halves), and from the facet
    system at the bottom, each normal's content and the determinant of the
    two normals at each point (_base_duals).

    An edge's multiplier l has l*a = (a1, a2) integral, so l times the
    content of a is integral (Bezout); a vertex's two multipliers solve a
    2x2 system by Cramer's rule over the determinant of its normals.
    """
    den = 2 if any(kind != REFLECT for kind, *_ in folds) else 1
    for _, a in base_facets:
        den = lcm(den, gcd(*a))
    for t in base_points:
        ap, aq = [a for S, a in base_facets if t in S]
        den = lcm(den, ap[0] * aq[1] - ap[1] * aq[0])
    return den


def _fold_duals(folds, base_facets, base_points, objectives, den) -> list:
    """For each facet objective (a1, a2), the inequality duals of
    maximizing it over the lift with these folds, down to the facet system
    on base_points, in the lift's inequality order, as integer numerators
    over den (_dual_denominator).

    A fold centred at c sees the objective as alpha*(x1 - c) + beta*x2' on
    the centred coordinates, alpha = a1 + 2c*a2 and beta = a2, so a2 never
    changes. A reflection has alpha*u <= |alpha|*z tight on the side of
    alpha's sign and hands (|alpha|, beta) to the half interval. A shear
    puts s/2 on one of its two cuts of u + x2', s = alpha + beta, and hands
    down (alpha, beta) from the upper cut or (-alpha - 2*beta, beta) from
    the lower one.

    The duals from each level down are memoized on (level, a1, a2): facets
    whose objectives meet at a fold (a reflection maps mirror-image facets
    to one objective) share that suffix. Each objective walks down to the
    first memoized level and the suffixes are joined on the way back up;
    the memo is a plain local, freed on return.
    """
    memo = {}
    out = []
    bottom = len(folds)
    half = den // 2
    for a1, a2 in objectives:
        path = []  # (key, head) per level above the first memoized one
        level = 0
        key = (0, a1, a2)
        found = memo.get(key)
        while found is None:
            if level == bottom:
                found = memo[key] = _base_duals(base_facets, base_points, a1, a2, den)
                break
            kind, c = folds[level][:2]
            alpha = a1 + 2 * c * a2
            if kind == REFLECT:
                head = (0, alpha * den) if alpha >= 0 else (-alpha * den, 0)
                a1 = abs(alpha)
            else:
                s = alpha + a2
                head = (0, s * half) if s >= 0 else (-s * half, 0)
                a1 = alpha if s >= 0 else -alpha - 2 * a2
            path.append((key, head))
            level += 1
            key = (level, a1, a2)
            found = memo.get(key)
        for key, head in reversed(path):
            found = memo[key] = head + found
        out.append(found)
    return out


def _base_duals(base_facets, points, a1, a2, den) -> tuple:
    """(a1, a2) as a nonnegative combination of the normals of the facets
    (members, a) tight at its optimal face, as numerators over den: one
    multiplier on the optimal edge, two on the optimal vertex's edges from
    their 2x2 system, none for the zero objective (every point optimal).
    No three points of the parabola are collinear, so a nonzero objective
    has at most two."""
    values = [a1 * t + a2 * t * t for t in points]
    top = max(values)
    optimal = tuple(t for t, v in zip(points, values) if v == top)
    duals = [0] * len(base_facets)
    if len(optimal) == 2:
        j, a = next((j, a) for j, (S, a) in enumerate(base_facets) if S == optimal)
        duals[j] = _exact(den * (a1 * a[0] + a2 * a[1]), a[0] * a[0] + a[1] * a[1])
    elif len(optimal) == 1:
        (p, ap), (q, aq) = [(j, a) for j, (S, a) in enumerate(base_facets) if optimal[0] in S]
        det = ap[0] * aq[1] - ap[1] * aq[0]
        duals[p] = _exact(den * (a1 * aq[1] - a2 * aq[0]), det)
        duals[q] = _exact(den * (ap[0] * a2 - ap[1] * a1), det)
    return tuple(duals)


def _exact(x: int, y: int) -> int:
    """x / y, which must be an integer."""
    q, r = divmod(x, y)
    if r:
        raise InternalError(f"{x}/{y} is not an integer numerator")
    return q


def _fold_factorization_2d(n: int) -> tuple:
    """The degree-2 construction in integers: (P, alphas, beta numerators,
    their one shared denominator, facets). alphas are ints; each facet's
    beta is its numerators over that denominator (_dual_denominator)."""
    P = CyclicPolytope.standard(2, n)
    folds, (b1, b2) = fold_chain(1, n)
    base = slack_matrix(CyclicPolytope(2, Interval(b1, b2)))
    points = base.polytope.interval.indices()
    alphas = _fold_alphas(folds, base.polynomials, points)
    # each facet's normal (-p1, -p2), read off its slack polynomial
    base_facets = [(S.members, (-p[1], -p[2])) for S, p in zip(base.columns, base.polynomials)]
    den = _dual_denominator(folds, base_facets, points)
    facets = enumerate_facets(P)
    # facet_inequality's normal, read off the pair {a, b}: (t - a)(t - b) is
    # >= 0 at every vertex for an adjacent pair and <= 0 for {1, n}
    objectives = [
        (a + b, -1) if b == a + 1 else (-a - b, 1) for a, b in (S.members for S in facets)
    ]
    nums = _fold_duals(folds, base_facets, points, objectives, den)
    return P, alphas, nums, den, facets


def factorize_2d(n: int) -> NonnegFactorization:
    """Degree-2 factorization with rank <= min(n, 2*floor(log2(n-1)) + 2),
    built along the fold chain, with no lift built, no lifted inequality
    evaluated and no LP solved.

    alpha_i is the witness slack vector of the recursive lifted description
    (lifting.build_ef_2d; up to n = 6 the facet description itself),
    composed from the bottom up (_fold_alphas). Each facet's beta is its
    normal pushed down the folds in O(log n) exact steps (_fold_duals).
    Each facet LP of that lift has exactly one optimal dual (the kept
    equations and the inequalities tight at both of the facet's witnesses
    are linearly independent), so the result equals
    lifting.factorization_from_ef(P, build_ef_2d(n)), entry for entry.
    Not verified here, like factorization_from_ef.

    alpha is ints. beta is Fractions, every zero the shared Fraction(0),
    built from the integer core's (_fold_factorization_2d) numerators over
    one denominator that every beta shares; the factorization carries
    those as its int_vectors().
    """
    P, alphas, nums, den, facets = _fold_factorization_2d(n)
    values = _Values(den)
    betas = tuple(tuple(map(values.__getitem__, vec)) for vec in nums)
    ints = tuple(zip(alphas, repeat(1))) + tuple(zip(nums, repeat(den)))
    return NonnegFactorization._carrying(_size_2d(n), alphas, betas, ints, facets, P)


def factorize_even(n: int, q: int) -> NonnegFactorization:
    """Dimension 2q: rank r2**q, r2 the rank of factorize_2d(n)."""
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    return _tensor_factorization(n, 2 * q)


def factorize_odd(n: int, q: int) -> NonnegFactorization:
    """Dimension 2q + 1: rank 2 * r2**q, r2 the rank of factorize_2d(n - 1)."""
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    return _tensor_factorization(n, 2 * q + 1)


def _kron(vectors) -> tuple:
    """The Kronecker product of integer vectors, the first one outermost."""
    out = vectors[0]
    for vec in vectors[1:]:
        zero = (0,) * len(vec)
        out = tuple(chain.from_iterable(tuple(map(x.__mul__, vec)) if x else zero for x in out))
    return out


def _tensor_alphas(alpha2, n: int, d: int) -> tuple:
    """The alpha rows, in interval order, of the tensor construction of
    P^d_[1,n] from the degree-2 alpha rows (ints) on [1, n - d % 2]: the
    (d // 2)-fold Kronecker power of each, and for odd d two endpoint
    blocks, (i - 1) times the power at i - 1 and (n - i) times the power at
    i, each all zeros where its factor is 0."""
    q = d // 2
    powers = [_kron((a,) * q) for a in alpha2]
    if d % 2 == 0:
        return tuple(powers)
    zero = (0,) * len(powers[0])
    return tuple(
        (zero if i == 1 else tuple(map((i - 1).__mul__, powers[i - 2])))
        + (zero if i == n else tuple(map((n - i).__mul__, powers[i - 1])))
        for i in range(1, n + 1)
    )


def _tensor_factorization(n: int, d: int) -> NonnegFactorization:
    """The tensor construction of P^d_[1,n], d >= 3 (module docstring;
    factorize_even(n, 1) runs it at d = 2), from the degree-2 integer core
    on [1, n - d % 2] and each facet's pairs from facets_with_pairs: a
    beta's product block is the Kronecker product of its pairs' numerators over den2**q, den2
    the denominator the degree-2 betas share, and every alpha entry is an
    int. The public beta is built from those numerators, every zero of a
    product block the shared Fraction(0) and an odd degree's empty
    endpoint block int 0."""
    P = CyclicPolytope.standard(d, n)
    q = d // 2
    _, alpha2, beta2, den2, facets2 = _fold_factorization_2d(n - d % 2)
    alphas = _tensor_alphas(alpha2, n, d)
    zero = (0,) * _size_2d(n - d % 2) ** q
    # each degree-2 pair's numerators, and the same under the pair moved up
    # by one: an endpoint-1 facet's pairs lie on [2, n]
    by_pair = dict(zip((S.members for S in facets2), beta2))
    moved = {(a + 1, b + 1): v for (a, b), v in by_pair.items()}
    den = den2**q
    values = _Values(den)
    facets, nums, betas = [], [], []
    for members, endpoint, pairs in facets_with_pairs(P):
        facets.append(GaleSet(members))
        block = _kron([(moved if endpoint == 1 else by_pair)[pair] for pair in pairs])
        public = tuple(map(values.__getitem__, block))
        if endpoint == 1:
            block, public = block + zero, public + zero
        elif endpoint is not None:
            block, public = zero + block, zero + public
        nums.append(block)
        betas.append(public)
    ints = tuple(zip(alphas, repeat(1))) + tuple(zip(nums, repeat(den)))
    return NonnegFactorization._carrying(
        len(alphas[0]), alphas, tuple(betas), ints, tuple(facets), P
    )


def factorize(n: int, d: int) -> NonnegFactorization:
    """Factorization of the slack matrix of P^d_[1,n], rank <= rank_bound(n, d).

    Dispatches on the parity of d. The constructed rank can exceed n at
    desk scale; the trivial rank-n factorization is returned whenever it is
    strictly smaller (trivial_wins), decided from construction_rank before
    anything structured is built. factorize_2d, factorize_even and
    factorize_odd build the recursive construction unconditionally.

    The result is not verified here: verify(slack_matrix(P), F) is the
    check, and the command line and ef_from_factorization run it.
    """
    P = CyclicPolytope.standard(d, n)
    if trivial_wins(n, d):
        return trivial_factorization(slack_matrix(P))
    if d == 2:
        return factorize_2d(n)
    if d % 2 == 0:
        return factorize_even(n, d // 2)
    return factorize_odd(n, (d - 1) // 2)
