"""Independent recomputations used as test oracles.

Everything here works from first definitions and plain loops, with no calls
into the package's enumeration or construction code, so library results can
be checked against a second, dumber path.
"""

from fractions import Fraction
from itertools import combinations


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
