"""Cyclic polytopes over integer intervals.

A cyclic polytope P^d_[t1,t2] is the convex hull of the moment-curve points
(i, i^2, ..., i^d) for the integers i in [t1, t2]. This module knows how to:

- enumerate facets via Gale's evenness condition (runs of consecutive
  members; interior runs must have even length),
- evaluate the slack matrix exactly: entry (i, S) is prod_{j in S} |j - i|,
- turn a facet S into a valid inequality <a, x> <= b whose slacks at the
  vertices reproduce the slack-matrix column of S,
- split an even-dimension facet into two-element facets of the degree-2
  polytope on the same interval (the pairing used by the tensor-product
  factorization),
- halve an interval the way the degree-2 lift folds it (fold_chain), so
  the lift, its factorization and the rank formulas walk one recursion.

Everything is exact: vertices and slack entries are ints, inequality
coefficients are ints or fractions.Fraction. No floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .errors import DomainError, InternalError
from .rational import format_rational


@dataclass(frozen=True, order=True)
class Interval:
    """Integer interval [t1, t2], endpoints included."""

    t1: int
    t2: int

    def __post_init__(self):
        if self.t1 > self.t2:
            raise DomainError(f"empty interval [{self.t1}, {self.t2}]")

    @property
    def n_points(self) -> int:
        return self.t2 - self.t1 + 1

    def indices(self) -> range:
        return range(self.t1, self.t2 + 1)

    def __contains__(self, i) -> bool:
        return self.t1 <= i <= self.t2


@dataclass(frozen=True)
class CyclicPolytope:
    """P^d_[t1,t2]: needs more points than the dimension, d >= 2."""

    d: int
    interval: Interval

    def __post_init__(self):
        if self.d < 2:
            raise DomainError(f"dimension must be at least 2, got {self.d}")
        if self.interval.n_points <= self.d:
            raise DomainError(
                f"need more than d={self.d} points, interval "
                f"[{self.interval.t1}, {self.interval.t2}] has {self.interval.n_points}"
            )

    @property
    def n(self) -> int:
        return self.interval.n_points

    @classmethod
    def standard(cls, d: int, n: int) -> "CyclicPolytope":
        """The polytope on [1, n]."""
        return cls(d, Interval(1, n))


@dataclass(frozen=True, order=True)
class GaleSet:
    """A candidate facet: a set of vertex indices, kept sorted."""

    members: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.members, self.members[1:]):
            if a >= b:
                raise DomainError(f"members must be strictly increasing: {self.members}")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, j) -> bool:
        return j in self.members

    def without(self, j: int) -> "GaleSet":
        if j not in self.members:
            raise DomainError(f"{j} is not a member of {self.members}")
        return GaleSet(tuple(m for m in self.members if m != j))

    def shifted(self, c: int) -> "GaleSet":
        return GaleSet(tuple(m + c for m in self.members))


@dataclass(frozen=True)
class FacetInequality:
    """<a, x> <= b, written so that b - <a, x> is the (nonnegative) slack."""

    a: tuple
    b: object  # int or Fraction

    def slack(self, point):
        return self.b - sum(c * x for c, x in zip(self.a, point))


def vertex(P: CyclicPolytope, i: int) -> tuple[int, ...]:
    """Moment-curve point (i, i^2, ..., i^d)."""
    if i not in P.interval:
        raise DomainError(f"index {i} outside interval [{P.interval.t1}, {P.interval.t2}]")
    return tuple(i**k for k in range(1, P.d + 1))


def _members(S) -> tuple[int, ...]:
    if isinstance(S, GaleSet):
        return S.members
    return tuple(sorted(S))


def _runs(members: tuple[int, ...]) -> list[list[int]]:
    """Maximal runs of consecutive integers, left to right."""
    runs: list[list[int]] = []
    for m in members:
        if runs and m == runs[-1][-1] + 1:
            runs[-1].append(m)
        else:
            runs.append([m])
    return runs


def is_gale(S, P: CyclicPolytope) -> bool:
    """Gale's evenness condition: every run of members of S that touches
    neither endpoint of the interval must have even length.

    Equivalently, any two non-members enclose an even number of members;
    the run form is what the code checks, the two-point form is what the
    tests check it against.
    """
    members = _members(S)
    if len(members) != P.d:
        raise DomainError(f"expected {P.d} members, got {len(members)}")
    if len(set(members)) != len(members):
        raise DomainError(f"duplicate members in {members}")
    t1, t2 = P.interval.t1, P.interval.t2
    if members[0] < t1 or members[-1] > t2:
        raise DomainError(f"members {members} leave the interval [{t1}, {t2}]")
    for run in _runs(members):
        if run[0] != t1 and run[-1] != t2 and len(run) % 2 == 1:
            return False
    return True


def _interior_blocks(lo: int, hi: int, m: int):
    """Yield the ways to place runs of even length >= 2 summing to m inside
    [lo, hi], with at least one gap between runs. Each placement is a list
    of (start, length) in increasing position."""
    if m == 0:
        yield []
        return
    # first block starts at p, has even length 2b, rest recurses after a gap
    for p in range(lo, hi + 1):
        b = 1
        while 2 * b <= m and p + 2 * b - 1 <= hi:
            for rest in _interior_blocks(p + 2 * b + 1, hi, m - 2 * b):
                yield [(p, 2 * b)] + rest
            b += 1


def enumerate_facets(P: CyclicPolytope) -> tuple[GaleSet, ...]:
    """All facets of P, as GaleSets in lexicographic order of their members.

    Walks the run structure directly (prefix run at t1, suffix run at t2,
    even interior runs) instead of filtering all d-subsets, so degree-2
    instances with a thousand points stay cheap.
    """
    d = P.d
    t1, t2 = P.interval.t1, P.interval.t2
    out: list[GaleSet] = []
    for a in range(d + 1):
        for z in range(d - a + 1):
            m = d - a - z
            if m % 2:
                continue
            prefix = list(range(t1, t1 + a))
            suffix = list(range(t2 - z + 1, t2 + 1))
            if a and z and suffix[0] - prefix[-1] < 2:
                continue  # prefix and suffix would merge into one run
            lo, hi = t1 + a + 1, t2 - z - 1
            for blocks in _interior_blocks(lo, hi, m):
                members = list(prefix)
                for start, length in blocks:
                    members.extend(range(start, start + length))
                members.extend(suffix)
                out.append(GaleSet(tuple(members)))
    out.sort(key=lambda g: g.members)
    return tuple(out)


def facet_count(P: CyclicPolytope) -> int:
    """Number of facets, by the closed-form count of Gale subsets.

    Cross-checked against enumerate_facets in the tests; used by reports so
    they do not need to enumerate when only the count matters.
    """
    n, d = P.n, P.d
    return comb(n - (d + 1) // 2, d // 2) + comb(n - 1 - d // 2, (d - 1) // 2)


def _slack_product(i: int, members: tuple[int, ...]) -> int:
    s = 1
    for j in members:
        s *= j - i if j > i else i - j
    return s


@dataclass(frozen=True)
class SlackMatrix:
    """Rows indexed by vertices (interval order), columns by facets
    (lexicographic order); entries are exact nonnegative ints. The entries
    and the facet inequalities are computed on first read and cached."""

    polytope: CyclicPolytope
    columns: tuple[GaleSet, ...]

    @property
    def n_rows(self) -> int:
        return self.polytope.n

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def row(self, k: int) -> tuple[int, ...]:
        """Row k (vertex t1 + k) on its own, without building the others."""
        i = self.polytope.interval.t1 + k
        return tuple(_slack_product(i, S.members) for S in self.columns)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.row(k) for k in range(self.n_rows))

    @cached_property
    def inequalities(self) -> tuple[FacetInequality, ...]:
        """facet_inequality of each column, computed on first read and
        cached: entry (i, S) is the slack of vertex i in S's inequality."""
        return tuple(facet_inequality(self.polytope, S) for S in self.columns)

    def to_csv(self) -> str:
        return "\n".join(",".join(str(e) for e in row) for row in self.entries) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "d": self.polytope.d,
            "t1": self.polytope.interval.t1,
            "t2": self.polytope.interval.t2,
            "columns": [list(S.members) for S in self.columns],
            "rows": [list(row) for row in self.entries],
        }


def slack_matrix(P: CyclicPolytope) -> SlackMatrix:
    """The slack matrix of P, facets in canonical column order; its entries
    are computed when first read."""
    return SlackMatrix(P, enumerate_facets(P))


def facet_inequality(P: CyclicPolytope, S) -> FacetInequality:
    """The inequality <a, x> <= b of the facet S.

    Expand p_S(t) = prod_{j in S} (t - j) = c_0 + c_1 t + ... + c_d t^d; on
    the moment curve p_S(i) is an affine function of the vertex, so +-(p_S)
    gives the facet's hyperplane. The sign is fixed by evaluating p_S at a
    single interval point outside S (Gale's condition makes the sign equal
    at all of them), giving a = -sigma * (c_1, ..., c_d) and b = sigma * c_0
    with slack b - <a, v_i> = sigma * p_S(i) = prod |j - i| >= 0.
    """
    members = _members(S)
    if not is_gale(members, P):
        raise DomainError(f"{members} is not a facet of the polytope")
    coeffs = [1]
    for j in members:
        coeffs = [0] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= j * coeffs[k + 1]
    # coeffs[k] is the coefficient of t^k, degree d monic
    witness_pt = next(i for i in P.interval.indices() if i not in members)
    value = 0
    for c in reversed(coeffs):
        value = value * witness_pt + c
    if value == 0:
        raise InternalError(f"sign witness {witness_pt} lies on the hyperplane of {members}")
    sigma = 1 if value > 0 else -1
    a = tuple(-sigma * c for c in coeffs[1:])
    b = sigma * coeffs[0]
    return FacetInequality(a, b)


REFLECT, SHEAR = "reflect", "shear"


def fold_chain(t1: int, t2: int) -> tuple:
    """The halvings of the degree-2 lift on [t1, t2], top down, and the
    interval left at the bottom, where the facet system is used:
    ((kind, c, s1, s2), ...), (b1, b2). Each fold maps [s1, s2] onto the
    next interval down, in the coordinates centred at c.

    (REFLECT, c, s1, s2): an odd count c + [-m, m] folds at c onto [0, m].
    (SHEAR, c, s1, s2): an even count c + [-k + 1, k] folds by u -> 1 - u
    onto [1, k]. Each fold costs the lift two inequalities, and the bottom
    interval of at most 6 points costs one per point.
    """
    folds = []
    while (n := t2 - t1 + 1) > 6:
        if n % 2:
            m = (n - 1) // 2
            folds.append((REFLECT, t1 + m, t1, t2))
            t1, t2 = 0, m
        else:
            k = n // 2
            folds.append((SHEAR, t1 + k - 1, t1, t2))
            t1, t2 = 1, k
    return tuple(folds), (t1, t2)


def gale_pair_partition(S, P: CyclicPolytope) -> tuple[GaleSet, ...]:
    """Split an even-dimension facet into d/2 two-element facets of the
    degree-2 polytope on the same interval.

    Interior runs have even length and pair up left to right. The runs
    holding the endpoints have equal parity (the total is even); when that
    parity is odd the pair {t1, t2} is emitted first and the leftovers of
    both runs pair left to right.
    """
    if P.d % 2:
        raise DomainError(f"pair partition needs even dimension, got d={P.d}")
    members = _members(S)
    if not is_gale(members, P):
        raise DomainError(f"{members} is not a facet of the polytope")
    t1, t2 = P.interval.t1, P.interval.t2
    runs = _runs(members)
    prefix_len = len(runs[0]) if runs and runs[0][0] == t1 else 0
    suffix_len = len(runs[-1]) if runs and runs[-1][-1] == t2 else 0
    if prefix_len % 2 != suffix_len % 2:
        raise InternalError(f"endpoint runs of {members} disagree in parity")
    pairs: list[GaleSet] = []
    leftovers = [list(run) for run in runs]
    if prefix_len % 2 == 1:
        pairs.append(GaleSet((t1, t2)))
        leftovers[0].remove(t1)
        leftovers[-1].remove(t2)
    for run in leftovers:
        if len(run) % 2:
            raise InternalError(f"odd leftover run {run} while pairing {members}")
        for k in range(0, len(run), 2):
            pairs.append(GaleSet((run[k], run[k + 1])))
    return tuple(pairs)


def format_linear(coeffs, names, rhs, relation: str) -> str:
    """Render "3 x1 - x2 <= 5" style constraint text, deterministic order."""
    terms = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        mag = format_rational(c if c > 0 else -c)
        piece = name if mag == "1" else f"{mag} {name}"
        if not terms:
            terms.append(piece if c > 0 else f"-{piece}")
        else:
            terms.append(f"+ {piece}" if c > 0 else f"- {piece}")
    lhs = " ".join(terms) if terms else "0"
    return f"{lhs} {relation} {format_rational(rhs)}"
