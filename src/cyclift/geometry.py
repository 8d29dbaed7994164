"""Cyclic polytopes over integer intervals.

A cyclic polytope P^d_[t1,t2] is the convex hull of the moment-curve points
(i, i^2, ..., i^d) for the integers i in [t1, t2]. This module knows how to:

- test, enumerate and count facets from one pair decomposition (Gale's
  evenness condition): an even-degree facet is d/2 facets of the degree-2
  polytope, adjacent pairs {p, p + 1} or {t1, t2}, and an odd-degree
  facet is an endpoint plus an even-degree facet of the rest,
- generate every facet in order together with that endpoint and those
  pairs (facets_with_pairs, the one facet source: the enumeration, the
  slack matrix's columns and the tensor-product factorization read it),
  or split a given facet into them (facet_pairs),
- evaluate the slack matrix exactly: entry (i, S) is prod_{j in S} |j - i|,
- turn a facet S into a valid inequality <a, x> <= b whose slacks at the
  vertices reproduce the slack-matrix column of S, one factor per pair:
  its slack polynomial, which the slack matrix keeps per column,
- halve an interval the way the degree-2 lift folds it (fold_chain), so
  the lift, its factorization and the rank formulas walk one recursion.

Everything is exact: vertices and slack entries are ints, inequality
coefficients are ints or fractions.Fraction. No floating point.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb
from operator import neg

from .errors import DomainError
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


def _split(members: tuple[int, ...], t1: int, t2: int):
    """facet_pairs of a sorted member tuple on [t1, t2], or None when it is
    not a facet. An odd count drops t1 if it is a member (the rest is then
    a facet of [t1 + 1, t2] exactly when the set is one), else t2."""
    endpoint = None
    if len(members) % 2:
        if members[0] == t1:
            endpoint, members, t1 = t1, members[1:], t1 + 1
        elif members[-1] == t2:
            endpoint, members, t2 = t2, members[:-1], t2 - 1
        else:
            return None
    pairs = []
    if members[0] == t1 and members[-1] == t2:
        a = 1  # length of the run at t1
        while a < len(members) and members[a] == t1 + a:
            a += 1
        if a % 2:
            pairs.append((t1, t2))
            members = members[1:-1]
    for k in range(0, len(members), 2):
        lo, hi = members[k], members[k + 1]
        if hi != lo + 1:
            return None
        pairs.append((lo, hi))
    return endpoint, tuple(pairs)


def _checked_members(S, P: CyclicPolytope) -> tuple[int, ...]:
    members = _members(S)
    if len(members) != P.d:
        raise DomainError(f"expected {P.d} members, got {len(members)}")
    if len(set(members)) != len(members):
        raise DomainError(f"duplicate members in {members}")
    t1, t2 = P.interval.t1, P.interval.t2
    if members[0] < t1 or members[-1] > t2:
        raise DomainError(f"members {members} leave the interval [{t1}, {t2}]")
    return members


def facet_pairs(S, P: CyclicPolytope) -> tuple:
    """(endpoint, pairs) of the facet S of P: for odd d the endpoint is t1
    if S holds it, else t2, and for even d None. The d // 2 pairs of the
    rest are facets of the degree-2 polytope on the interval the endpoint
    leaves: its two ends first when S's run at its low end is odd, then
    adjacent pairs (p, p + 1) left to right. A non-facet is a DomainError:
    this split is the facet test, Gale's evenness condition in its pair
    form, which the tests check against the two-point form (any two
    non-members enclose an even number of members).
    """
    members = _checked_members(S, P)
    split = _split(members, P.interval.t1, P.interval.t2)
    if split is None:
        raise DomainError(f"{members} is not a facet of the polytope")
    return split


def _pair_runs(lo: int, hi: int, q: int):
    """Each union of q disjoint adjacent pairs {p, p + 1} inside [lo, hi],
    in lexicographic order of its members: (members, pairs), the k-th pair
    starting at c_k + k for c_0 < ... < c_{q-1}."""
    for cs in combinations(range(lo, hi - q + 1), q):
        pairs = tuple((c + k, c + k + 1) for k, c in enumerate(cs))
        yield tuple(chain.from_iterable(pairs)), pairs


def facets_with_pairs(P: CyclicPolytope):
    """(members, endpoint, pairs) for each facet of P, members in
    lexicographic order and (endpoint, pairs) its facet_pairs.

    One family per term of facet_count, each generated in sorted order and
    merged, with nothing sorted or split. Even d: unions of d/2 adjacent
    pairs, and {t1, t2} around d/2 - 1 inner pairs. Odd d: t1 plus pairs in
    [t1 + 1, t2], and pairs in [t1, t2 - 1] plus t2, read from t1 when they
    hold it (facet_pairs): the pair spanning [t1 + 1, t2], then the rest.
    """
    d, q = P.d, P.d // 2
    t1, t2 = P.interval.t1, P.interval.t2
    if d % 2 == 0:
        adjacent = ((m, None, pairs) for m, pairs in _pair_runs(t1, t2, q))
        spanning = (
            ((t1, *m, t2), None, ((t1, t2), *pairs))
            for m, pairs in _pair_runs(t1 + 1, t2 - 1, q - 1)
        )
        return heapq.merge(adjacent, spanning)
    low = (((t1, *m), t1, pairs) for m, pairs in _pair_runs(t1 + 1, t2, q))
    high = (
        ((*m, t2), t1, ((t1 + 1, t2), *pairs[1:])) if m[0] == t1 else ((*m, t2), t2, pairs)
        for m, pairs in _pair_runs(t1, t2 - 1, q)
    )
    return heapq.merge(low, high)


def enumerate_facets(P: CyclicPolytope) -> tuple[GaleSet, ...]:
    """All facets of P, as GaleSets in lexicographic order of their
    members: the sets of facets_with_pairs."""
    return tuple(GaleSet(members) for members, _, _ in facets_with_pairs(P))


def facet_count(P: CyclicPolytope) -> int:
    """Number of facets, by the closed-form count of Gale subsets.

    With q = d // 2, the two terms count the two families enumerate_facets
    generates: C(n - (d+1)//2, q) facets whose run at t1 is even, and
    C(n - 1 - q, (d-1)//2) whose run at t1 is odd.

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
    (lexicographic order); entries are exact nonnegative ints. The columns
    and their slack polynomials (the facet form verify and the lifts read),
    and the entries, are computed on first read and cached."""

    polytope: CyclicPolytope

    @property
    def n_rows(self) -> int:
        return self.polytope.n

    @cached_property
    def columns(self) -> tuple[GaleSet, ...]:
        columns, polynomials = [], []
        t2 = self.polytope.interval.t2
        for members, endpoint, pairs in facets_with_pairs(self.polytope):
            columns.append(GaleSet(members))
            polynomials.append(_slack_polynomial(endpoint, pairs, t2))
        self.__dict__["polynomials"] = tuple(polynomials)
        return tuple(columns)

    @cached_property
    def polynomials(self) -> tuple[tuple[int, ...], ...]:
        """Each column's slack polynomial sigma * p_S (facet_inequality),
        integer coefficients lowest degree first, so that entry (i, S) is
        its value at i. Found with the columns, from each facet's pairs."""
        self.columns  # sets both
        return self.__dict__["polynomials"]

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def take_columns(self, labels) -> bool:
        """Whether labels are the columns, in order.

        Once the columns are computed, labels are compared with them. Before
        that, GaleSets in strictly increasing order, each a facet of the
        polytope, facet_count of them, are the sorted list of every facet,
        which is the enumeration itself: they become the columns, with no
        facet enumerated. Each label is checked on its own, its length and
        interval bounds and then one split into its pairs, which give its
        slack polynomial; a refused list stores nothing.
        """
        labels = tuple(labels)
        if "columns" in self.__dict__:
            return labels == self.columns
        P = self.polytope
        if len(labels) != facet_count(P):
            return False
        d, t1, t2 = P.d, P.interval.t1, P.interval.t2
        polynomials, previous = [], ()
        for S in labels:
            if not isinstance(S, GaleSet):
                return False
            members = S.members  # strictly increasing: no duplicate
            if members <= previous or len(members) != d or members[0] < t1 or members[-1] > t2:
                return False
            split = _split(members, t1, t2)
            if split is None:
                return False
            polynomials.append(_slack_polynomial(*split, t2))
            previous = members
        self.__dict__["columns"] = labels
        self.__dict__["polynomials"] = tuple(polynomials)
        return True

    def row(self, k: int) -> tuple[int, ...]:
        """Row k (vertex t1 + k) on its own, without building the others."""
        i = self.polytope.interval.t1 + k
        return tuple(_slack_product(i, S.members) for S in self.columns)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.row(k) for k in range(self.n_rows))

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
    """The slack matrix of P, facets in canonical column order; nothing is
    computed until it is read."""
    return SlackMatrix(P)


def facet_inequality(P: CyclicPolytope, S) -> FacetInequality:
    """The inequality <a, x> <= b of the facet S, read off facet_pairs.

    On the moment curve p_S(t) = prod_{j in S} (t - j) = c_0 + c_1 t + ...
    + c_d t^d is affine in the vertex, so a = -sigma * (c_1, ..., c_d) and
    b = sigma * c_0 give the slack b - <a, v_i> = sigma * p_S(i). p_S is a
    quadratic (t - p)(t - q) per pair times, for odd d, the endpoint's
    factor (t - e). On the interval the pairs lie on, a quadratic is >= 0
    for an adjacent pair and <= 0 for the pair spanning that interval;
    (t - e) is >= 0 for e = t1, <= 0 for e = t2, and 0 at the one vertex
    the pairs' interval leaves out. So sigma is -1 for each spanning pair
    and for the endpoint t2, +1 otherwise, and the slack is prod |j - i|.
    """
    endpoint, pairs = facet_pairs(S, P)
    polynomial = _slack_polynomial(endpoint, pairs, P.interval.t2)
    return FacetInequality(tuple(-c for c in polynomial[1:]), polynomial[0])


def _slack_polynomial(endpoint, pairs, t2: int) -> tuple[int, ...]:
    """sigma * p_S (facet_inequality) of the facet split as (endpoint,
    pairs) on an interval ending at t2, lowest degree first."""
    flips = endpoint == t2
    coeffs = [1] if endpoint is None else [-endpoint, 1]
    for p, q in pairs:  # times t^2 + s t + m
        flips += q != p + 1
        s, m = -(p + q), p * q
        product, c1, c2 = [], 0, 0  # c1, c2: the coefficients of t^(k-1), t^(k-2)
        for c in coeffs:
            product.append(m * c + s * c1 + c2)
            c1, c2 = c, c1
        product += (s * c1 + c2, c1)
        coeffs = product
    return tuple(coeffs) if flips % 2 == 0 else tuple(map(neg, coeffs))


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
