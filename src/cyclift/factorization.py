"""Exact nonnegative factorizations of cyclic-polytope slack matrices.

A factorization of the slack matrix M is a pair of nonnegative families
alpha_i (one vector per vertex) and beta_S (one per facet) of a common
length r, the rank, with <alpha_i, beta_S> = M(i, S) exactly.

Three constructions live here:

- factorize_2d: for the degree-2 polytope the recursive lifted description
  has O(log n) inequalities; its witness slack vectors and per-facet dual
  multipliers give rank <= 2*floor(log2(n-1)) + 2. Both are composed
  along the lift's folds in closed form (lifting.fold_factorization_2d),
  with no lift built; they are the witness slacks and the unique LP duals
  that lifting.factorization_from_ef would read off the lift.
- factorize_even (d = 2q): every facet splits into q two-element facets of
  the degree-2 polytope on the same interval, so M is an entrywise product
  of q column-rearranged copies of the degree-2 slack matrix, and
  factorizations multiply through entrywise products: rank r2**q.
- factorize_odd (d = 2q + 1): every facet keeps an interval endpoint;
  removing it leaves a facet one degree down on one fewer point. Two
  suitably row-scaled copies of the even construction, concatenated on
  disjoint coordinates, cover the two endpoint blocks: rank 2 * r_even.

Ranks here are the lengths of the constructed vectors, i.e. what the
construction guarantees, not the (unknown) minimal nonnegative rank.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul

from .errors import DomainError, InternalError
from .geometry import (
    CyclicPolytope,
    GaleSet,
    Interval,
    SlackMatrix,
    enumerate_facets,
    fold_chain,
    gale_pair_partition,
    slack_matrix,
)
from .rational import format_rational, parse_rational, reduce_rows, scaled_ints


def _floor_log2(x: int) -> int:
    return x.bit_length() - 1


def size_bound_2d(n: int) -> int:
    """Inequality count the degree-2 lifted description is guaranteed to meet."""
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    return 2 * _floor_log2(n - 1) + 2


def rank_bound(n: int, d: int) -> int:
    """Guaranteed rank of factorize(n, d): 2 * (2*floor(log2(n-1)) + 2)**(d//2)."""
    if d < 2 or n <= d:
        raise DomainError(f"need n > d >= 2, got n={n}, d={d}")
    return 2 * size_bound_2d(n) ** (d // 2)


def _size_2d(n: int) -> int:
    # inequality count of the recursive degree-2 lift: two per fold, one per
    # point of the facet system at the bottom
    folds, (b1, b2) = fold_chain(1, n)
    return 2 * len(folds) + b2 - b1 + 1


def construction_rank(n: int, d: int) -> int:
    """Exact rank the recursive construction produces for (n, d), without
    building it: the rank of factorize_2d, factorize_even or factorize_odd."""
    if d < 2 or n <= d:
        raise DomainError(f"need n > d >= 2, got n={n}, d={d}")
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
    if d % 2:
        raise DomainError(f"even dimension required, got d={d}")
    if d < 2 or n <= d:
        raise DomainError(f"need n > d >= 2, got n={n}, d={d}")
    return size_bound_2d(n) ** (d // 2)


@dataclass(frozen=True)
class NonnegFactorization:
    """alpha: one vector per row (vertex, interval order); beta: one per
    column (facet, canonical order); all entries nonnegative rationals."""

    rank: int
    alpha: tuple
    beta: tuple
    column_labels: tuple | None = None
    target: CyclicPolytope | None = None

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

        rank, the target fields and the column members are JSON integers;
        a float, a string or a boolean in their place is malformed. Each
        distinct entry string is parsed once per document: a factorization
        repeats a few hundred values across thousands of entries.
        """
        try:
            rank = _json_int(data["rank"])
            entries = _ParsedEntries()
            alpha = tuple(_parse_vector(vec, entries) for vec in data["alpha"])
            beta = tuple(_parse_vector(vec, entries) for vec in data["beta"])
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
                    GaleSet(tuple(_json_int(m) for m in mem)) for mem in raw_columns
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(
                f"malformed factorization JSON ({type(exc).__name__}: {exc})"
            ) from exc
        for vec in alpha + beta:
            if len(vec) != rank:
                raise DomainError(
                    f"vector of length {len(vec)} does not match rank {rank}"
                )
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
    """tuple(map(parse_rational, vec)), parsing each distinct string once.

    parse_rational refuses anything but a string, so nothing else is ever
    cached. An unhashable entry (or a vec that is not iterable) raises
    TypeError in the lookup; parsing entry by entry then raises exactly
    what it would have raised without the cache.
    """
    try:
        return tuple(map(entries.__getitem__, vec))
    except TypeError:
        return tuple(map(parse_rational, vec))


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
    """
    P = M.polytope
    if F.target is not None and F.target != P:
        raise DomainError(
            f"factorization targets d={F.target.d} on "
            f"[{F.target.interval.t1}, {F.target.interval.t2}], matrix is "
            f"d={P.d} on [{P.interval.t1}, {P.interval.t2}]"
        )
    if F.n_rows != M.n_rows or F.n_cols != M.n_cols:
        raise DomainError(
            f"factorization is {F.n_rows}x{F.n_cols}, matrix is "
            f"{M.n_rows}x{M.n_cols}"
        )
    if F.column_labels is not None and tuple(F.column_labels) != tuple(M.columns):
        raise DomainError("column labels do not match the matrix's facet order")
    bound = rank_bound(P.n, P.d)
    # each vector cleared to integers once; a numerator has its entry's sign
    scaled = []
    for vec in F.alpha + F.beta:
        if len(vec) != F.rank:
            raise DomainError(f"vector length {len(vec)} does not match rank {F.rank}")
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


def column_select(
    fa: NonnegFactorization, mapping, labels=None
) -> NonnegFactorization:
    """Reuse a factorization for a matrix built by duplicating, dropping or
    reordering columns: beta vectors are shared by reference, never copied."""
    mapping = tuple(mapping)
    for k in mapping:
        if not 0 <= k < fa.n_cols:
            raise DomainError(f"column index {k} out of range 0..{fa.n_cols - 1}")
    if labels is None and fa.column_labels is not None:
        labels = tuple(fa.column_labels[k] for k in mapping)
    elif labels is not None:
        labels = tuple(labels)
        if len(labels) != len(mapping):
            raise DomainError("labels and mapping have different lengths")
    beta = tuple(fa.beta[k] for k in mapping)
    return NonnegFactorization(fa.rank, fa.alpha, beta, labels, None)


def trivial_factorization(M: SlackMatrix) -> NonnegFactorization:
    """Rank min(rows, columns), from unit vectors against rows or columns."""
    n, m = M.n_rows, M.n_cols
    if m <= n:
        alpha = tuple(tuple(row) for row in M.entries)
        beta = tuple(
            tuple(1 if k == j else 0 for k in range(m)) for j in range(m)
        )
        rank = m
    else:
        alpha = tuple(
            tuple(1 if k == i else 0 for k in range(n)) for i in range(n)
        )
        beta = tuple(
            tuple(M.entries[i][j] for i in range(n)) for j in range(m)
        )
        rank = n
    return NonnegFactorization(rank, alpha, beta, M.columns, M.polytope)


def factorize_2d(n: int) -> NonnegFactorization:
    """Degree-2 factorization with rank <= min(n, 2*floor(log2(n-1)) + 2).

    alpha holds the witness slack vectors of the recursive lifted
    description (up to n = 6 the facet description itself), and each
    facet's beta is pushed down its folds; both are composed in O(log n)
    exact integer steps per vector, with no lift built, no lifted
    inequality evaluated and no LP solved (lifting.fold_factorization_2d).
    The result equals lifting.factorization_from_ef(P, build_ef_2d(n)),
    entry for entry.
    """
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    from .lifting import fold_factorization_2d

    return fold_factorization_2d(n)


def factorize_even(n: int, q: int) -> NonnegFactorization:
    """Dimension 2q via entrywise products of the degree-2 factorization.

    Each facet's pair partition tells which degree-2 column to use in each
    of the q factors; the factors are column_select views of one shared
    degree-2 factorization, folded with hadamard_combine.
    """
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    P = CyclicPolytope.standard(2 * q, n)
    f2 = factorize_2d(n)
    facets = enumerate_facets(P)
    col_of = {S: k for k, S in enumerate(f2.column_labels)}
    selections: list[list[int]] = [[] for _ in range(q)]
    for S in facets:
        pairs = gale_pair_partition(S, P)
        for r, pair in enumerate(pairs):
            selections[r].append(col_of[pair])
    out = column_select(f2, selections[0], labels=facets)
    for r in range(1, q):
        out = hadamard_combine(out, column_select(f2, selections[r], labels=facets))
    return replace(out, target=P)


def factorize_odd(n: int, q: int) -> NonnegFactorization:
    """Dimension 2q + 1 from two scaled copies of the even construction.

    Every facet that contains 1 is 1 plus a facet on [2, n] (block 1); the
    others contain n and are a facet on [1, n-1] plus n (block 2). Block-1
    entries equal (i - 1) times the dimension-(2q) slack on [2, n], block-2
    entries (n - i) times the slack on [1, n-1]; translating [2, n] down by
    one lets a single factorization on [1, n-1] serve both blocks.
    Concatenation on disjoint coordinates adds ranks.
    """
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    d = 2 * q + 1
    P = CyclicPolytope.standard(d, n)
    fe = factorize_even(n - 1, q)
    r = fe.rank
    col_of = {S.members: k for k, S in enumerate(fe.column_labels)}
    zero = (0,) * r
    alphas = []
    for i in range(1, n + 1):
        left = zero if i == 1 else tuple((i - 1) * a for a in fe.alpha[i - 2])
        right = zero if i == n else tuple((n - i) * a for a in fe.alpha[i - 1])
        alphas.append(left + right)
    facets = enumerate_facets(P)
    betas = []
    for S in facets:
        if S.members[0] == 1:
            betas.append(fe.beta[col_of[tuple(m - 1 for m in S.members[1:])]] + zero)
        elif S.members[-1] == n:
            betas.append(zero + fe.beta[col_of[S.members[:-1]]])
        else:
            raise InternalError(f"facet {S.members} fits neither endpoint block")
    return NonnegFactorization(2 * r, tuple(alphas), tuple(betas), facets, P)


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
    if d < 2:
        raise DomainError(f"dimension must be at least 2, got {d}")
    if n <= d:
        raise DomainError(f"need n > d, got n={n}, d={d}")
    if trivial_wins(n, d):
        return trivial_factorization(slack_matrix(CyclicPolytope.standard(d, n)))
    if d == 2:
        return factorize_2d(n)
    if d % 2 == 0:
        return factorize_even(n, d // 2)
    return factorize_odd(n, (d - 1) // 2)
