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
  an endpoint (geometry.facet_pairs), and its slack is the product of
  theirs. Factorizations multiply through such entrywise products
  (hadamard_combine), so beta_S is the Kronecker product of the degree-2
  betas of S's pairs, in order, and alpha_i the (d // 2)-fold Kronecker
  power of the degree-2 alpha_i: rank r2**(d//2). For odd d the degree-2
  factorization is on [1, n - 1]. Endpoint 1 leaves pairs on [2, n],
  moved down by one, and scales the slack by (i - 1); endpoint n scales
  it by (n - i). The two endpoint blocks take disjoint coordinates:
  rank 2 * r2**(d//2).

Ranks here are the lengths of the constructed vectors, i.e. what the
construction guarantees, not the (unknown) minimal nonnegative rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    facet_inequality,
    facet_pairs,
    fold_chain,
    slack_matrix,
)
from .rational import format_rational, parse_rational, reduce_rows, scaled_ints


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
    Every vector has length rank; any other length is a DomainError."""

    rank: int
    alpha: tuple
    beta: tuple
    column_labels: tuple | None = None
    target: CyclicPolytope | None = None

    def __post_init__(self):
        for vec in self.alpha + self.beta:
            if len(vec) != self.rank:
                raise DomainError(
                    f"vector of length {len(vec)} does not match rank {self.rank}"
                )

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
        target = None
        if self.target is not None:
            target = {
                "d": self.target.d,
                "t1": self.target.interval.t1,
                "t2": self.target.interval.t2,
            }
        return {
            "target": target,
            "rank": self.rank,
            "alpha": [[format_rational(x) for x in vec] for vec in self.alpha],
            "beta": [[format_rational(x) for x in vec] for vec in self.beta],
            "columns": None
            if self.column_labels is None
            else [list(S.members) for S in self.column_labels],
        }

    def to_json_text(self) -> str:
        """json.dumps(self.to_json_dict(), indent=2), written directly.

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
        return (
            f'{{\n  "target": {target},\n  "rank": {self.rank},'
            f'\n  "alpha": {_json_vectors(self.alpha)},'
            f'\n  "beta": {_json_vectors(self.beta)},'
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


def _json_vectors(vectors) -> str:
    """The alpha or beta member: a list of lists of format_rational strings."""
    quoted = '",\n      "'
    return _json_list(
        [
            '[\n      "' + quoted.join(map(format_rational, vec)) + '"\n    ]' if vec else "[]"
            for vec in vectors
        ],
        2,
    )


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
    ok: bool
    rank: int
    bound: int | None
    first_mismatch: tuple | None = None


def verify(M: SlackMatrix, F: NonnegFactorization) -> VerificationReport:
    """Exact check that F reproduces M with nonnegative vectors.

    Entry (i, S) of M is b_S - <a_S, v_i> = <(1, i, ..., i^d), (b_S, -a_S)>
    for the facet inequality <a_S, x> <= b_S (M.inequalities), so F
    reproduces every entry exactly when each vertex row
    [alpha_i | -(1, i, ..., i^d)] is orthogonal to each facet row
    [beta_S | b_S, -a_S]. The facet rows, cleared to integers, are reduced
    to an independent basis (rational.reduce_rows), and each vertex row is
    tested against that basis: exact integer work in O((n + m) k^2) for n
    vertices, m facets and k = rank + d + 1, with no slack entry built.
    first_mismatch is (vertex index, facet, expected, got) for the first
    differing entry, scanning rows then columns; only the first row that
    fails the basis test is scanned entry by entry.

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
    if F.column_labels is not None and tuple(F.column_labels) != M.columns:
        raise DomainError("column labels do not match the matrix's facet order")
    bound = rank_bound(P.n, P.d)
    # each vector cleared to integers once; a numerator has its entry's sign
    scaled = []
    for vec in F.alpha + F.beta:
        ints, den = scaled_ints(vec)
        if ints and min(ints) < 0:
            return VerificationReport(False, F.rank, bound, None)
        scaled.append((ints, den))
    # facet inequalities have integer a and b
    facet_rows = [
        bi + [f.b * db] + [-c * db for c in f.a]
        for f, (bi, db) in zip(M.inequalities, scaled[F.n_rows :])
    ]
    basis = [row for pivot, row in reduce_rows(facet_rows) if pivot is not None]
    t1 = P.interval.t1
    for ri, (ai, da) in enumerate(scaled[: F.n_rows]):
        i = t1 + ri
        row = ai + [-da * i**k for k in range(P.d + 1)]
        if any(sum(map(mul, row, b)) for b in basis):
            return VerificationReport(False, F.rank, bound, _row_mismatch(M, F, ri))
    return VerificationReport(True, F.rank, bound, None)


def _row_mismatch(M: SlackMatrix, F: NonnegFactorization, ri: int) -> tuple:
    """(vertex index, facet, expected, got) at the first column of row ri
    where F differs from M."""
    ai, da = scaled_ints(F.alpha[ri])
    for label, expected, vec in zip(M.columns, M.row(ri), F.beta):
        bj, db = scaled_ints(vec)
        s = sum(map(mul, ai, bj))
        if s != expected * da * db:
            return (M.polytope.interval.t1 + ri, label, expected, Fraction(s, da * db))
    raise InternalError(f"row {ri} fails the basis test but matches every entry")


def hadamard_combine(
    fa: NonnegFactorization, fb: NonnegFactorization
) -> NonnegFactorization:
    """Factorization of the entrywise product from factorizations of the
    factors, via per-row and per-column tensor products; rank multiplies."""
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
    alpha = tuple(
        tuple(x * y for x in va for y in vb) for va, vb in zip(fa.alpha, fb.alpha)
    )
    beta = tuple(
        tuple(x * y for x in va for y in vb) for va, vb in zip(fa.beta, fb.beta)
    )
    return NonnegFactorization(fa.rank * fb.rank, alpha, beta, labels, None)


def trivial_factorization(M: SlackMatrix) -> NonnegFactorization:
    """Rank min(rows, columns), from unit vectors against rows or columns."""
    n, m = M.n_rows, M.n_cols
    if m <= n:
        alpha = M.entries
        beta = tuple(
            tuple(1 if k == j else 0 for k in range(m)) for j in range(m)
        )
        rank = m
    else:
        alpha = tuple(
            tuple(1 if k == i else 0 for k in range(n)) for i in range(n)
        )
        beta = tuple(zip(*M.entries))
        rank = n
    return NonnegFactorization(rank, alpha, beta, M.columns, M.polytope)


def _fold_alphas(folds, base_inequalities, base_points) -> tuple:
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
    bottom a point s has the facet slacks b - a1*s - a2*s^2.
    """
    slacks = {
        s: tuple(f.b - f.a[0] * s - f.a[1] * s * s for f in base_inequalities)
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


def _multiplier(x: int, den: int = 1) -> Fraction:
    """max(x, 0) / den, with every zero the shared _ZERO."""
    if x <= 0:
        return _ZERO
    return Fraction(x) if den == 1 else Fraction(x, den)


def _fold_duals(folds, base_facets, base_points):
    """A function from a facet objective (a1, a2) to the inequality duals
    of maximizing it over the lift with these folds, down to the facet
    system on base_points, in the lift's inequality order.

    A fold centred at c sees the objective as alpha*(x1 - c) + beta*x2' on
    the centred coordinates, alpha = a1 + 2c*a2 and beta = a2, so a2 never
    changes. A reflection has alpha*u <= |alpha|*z tight on the side of
    alpha's sign and hands (|alpha|, beta) to the half interval. A shear
    puts s/2 on one of its two cuts of u + x2', s = alpha + beta, and hands
    down (alpha, beta) from the upper cut or (-alpha - 2*beta, beta) from
    the lower one.

    The duals from each level down are memoized on (level, a1, a2): facets
    whose objectives meet at a fold (a reflection maps mirror-image facets
    to one objective) share that suffix and its Fractions.
    """
    memo = {}

    def duals(level, a1, a2):
        key = (level, a1, a2)
        found = memo.get(key)
        if found is not None:
            return found
        if level == len(folds):
            found = _base_duals(base_facets, base_points, a1, a2)
        else:
            kind, c = folds[level][:2]
            alpha = a1 + 2 * c * a2
            if kind == REFLECT:
                head = (_multiplier(-alpha), _multiplier(alpha))
                found = head + duals(level + 1, abs(alpha), a2)
            else:
                s = alpha + a2
                head = (_multiplier(-s, 2), _multiplier(s, 2))
                below = alpha if s >= 0 else -alpha - 2 * a2
                found = head + duals(level + 1, below, a2)
        memo[key] = found
        return found

    return lambda objective: duals(0, *objective)


def _base_duals(base_facets, points, a1, a2) -> tuple:
    """(a1, a2) as a nonnegative combination of the normals of the facets
    (members, a) tight at its optimal face: one multiplier on the optimal
    edge, two on the optimal vertex's edges from their 2x2 system, none
    for the zero objective (every point optimal). No three points of the
    parabola are collinear, so a nonzero objective has at most two."""
    values = [a1 * t + a2 * t * t for t in points]
    top = max(values)
    optimal = tuple(t for t, v in zip(points, values) if v == top)
    duals = [_ZERO] * len(base_facets)
    if len(optimal) == 2:
        j, a = next((j, a) for j, (S, a) in enumerate(base_facets) if S == optimal)
        duals[j] = Fraction(a1 * a[0] + a2 * a[1], a[0] * a[0] + a[1] * a[1])
    elif len(optimal) == 1:
        (p, ap), (q, aq) = [(j, a) for j, (S, a) in enumerate(base_facets) if optimal[0] in S]
        det = ap[0] * aq[1] - ap[1] * aq[0]
        duals[p] = Fraction(a1 * aq[1] - a2 * aq[0], det)
        duals[q] = Fraction(ap[0] * a2 - ap[1] * a1, det)
    return tuple(duals)


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
    """
    P = CyclicPolytope.standard(2, n)
    folds, (b1, b2) = fold_chain(1, n)
    base = CyclicPolytope(2, Interval(b1, b2))
    points = base.interval.indices()
    base_sets = enumerate_facets(base)
    base_inequalities = [facet_inequality(base, S) for S in base_sets]
    alphas = _fold_alphas(folds, base_inequalities, points)
    base_facets = [(S.members, f.a) for S, f in zip(base_sets, base_inequalities)]
    beta_of = _fold_duals(folds, base_facets, points)
    facets = enumerate_facets(P)
    # facet_inequality's normal, read off the pair {a, b}: (t - a)(t - b) is
    # >= 0 at every vertex for an adjacent pair and <= 0 for {1, n}
    betas = tuple(
        beta_of((a + b, -1) if b == a + 1 else (-a - b, 1))
        for a, b in (S.members for S in facets)
    )
    return NonnegFactorization(_size_2d(n), alphas, betas, facets, P)


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
    """The Kronecker product of the vectors, the first one outermost."""
    out = vectors[0]
    for vec in vectors[1:]:
        out = tuple(x * y for x in out for y in vec)
    return out


def _tensor_factorization(n: int, d: int) -> NonnegFactorization:
    """The tensor construction of P^d_[1,n], d >= 3 (module docstring),
    from f2 = factorize_2d(n - d % 2) and each facet's facet_pairs."""
    P = CyclicPolytope.standard(d, n)
    q = d // 2
    f2 = factorize_2d(n - d % 2)
    r = f2.rank**q
    powers = [_kron((a,) * q) for a in f2.alpha]
    beta2 = {S.members: b for S, b in zip(f2.column_labels, f2.beta)}
    zero = (0,) * r
    if d % 2 == 0:
        rank, alphas = r, tuple(powers)
    else:
        rank, alphas = 2 * r, tuple(
            (zero if i == 1 else tuple((i - 1) * x for x in powers[i - 2]))
            + (zero if i == n else tuple((n - i) * x for x in powers[i - 1]))
            for i in range(1, n + 1)
        )
    facets = enumerate_facets(P)
    betas = []
    for S in facets:
        endpoint, pairs = facet_pairs(S, P)
        if endpoint == 1:  # pairs on [2, n]: move them down onto f2's [1, n - 1]
            betas.append(_kron([beta2[a - 1, b - 1] for a, b in pairs]) + zero)
        else:
            beta = _kron([beta2[pair] for pair in pairs])
            betas.append(beta if endpoint is None else zero + beta)
    return NonnegFactorization(rank, alphas, tuple(betas), facets, P)


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
