"""Lifted (extended) descriptions of cyclic polytopes, exactly.

An extended formulation of P is a polyhedron Q in more variables whose
projection onto its first d variables is P; the size of Q counts
inequalities only, equations are free. Degree-2 cyclic polytopes on n
points admit a recursive lifted description of size <= 2*floor(log2(n-1))
+ 2 (build_ef_2d): halve the point set by folding the interval onto itself,
which costs two inequalities per halving.

The two classical translations between lifted descriptions and
nonnegative slack-matrix factorizations are here as well:
ef_from_factorization (rank-r factorization -> size-r lift) and
factorization_from_ef (size-f lift -> rank-f factorization, with the
beta vectors obtained as exact LP duals of the per-facet maximization).
For build_ef_2d's lift, factorization.factorize_2d composes the witness
slacks and those duals along the folds instead (geometry.fold_chain, which
build_ef_2d walks too), with no lift built and no LP; factorization_from_ef
is its test oracle.
hull_ef builds the convex-hull lift directly, with no facet enumerated; it
stands in for the lift of the trivial factorization where only the
projection matters. pair_product_ef stands in for the lift of the tensor
construction (degree >= 3) the same way: its equations multiply the
degree-2 facet rows verify kept, so no facet of the degree-d polytope is
enumerated and no degree-d factorization is built or verified. ef keeps
ef_from_factorization's lift, whose equations it prints, one per facet.
These three lifts share one assembler (_xy_lift), and every facet row here
is written from a slack polynomial (geometry.SlackMatrix.polynomials) by
one writer (_product_equation).
EfOptimizer hands a lift's equations to exact_lp.ReoptimizingSolver, whose
start pivots drop any that depend on the ones before (the positions
independent_equations, re-exported here, would keep) and which checks them
all at its start. Its maximize and minimize ask the solver for the value
and the point only; solve alone builds the duals. A lift from a
factorization records which of its facet equations verify's reduction kept
(ExtendedFormulation.kept_equations), and only those are handed over:
verify has shown the rest implied by them.
A lift with a coordinate projection and a slack-matrix factorization are the
same object (Yannakakis's factorization theorem), so no other kind of
projection is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DomainError
from .exact_lp import _ZERO, MAX, MIN, UNBOUNDED, LPResult, ReoptimizingSolver
from .exact_lp import independent_equations  # noqa: F401 (re-exported)
from .factorization import (
    NonnegFactorization,
    _kron,
    _tensor_alphas,
    factorize_2d,
    verify,
)
from .geometry import (
    REFLECT,
    CyclicPolytope,
    Interval,
    enumerate_facets,
    facet_inequality,
    fold_chain,
    format_linear,
    slack_matrix,
    vertex,
)
from .rational import format_rational


@dataclass(frozen=True)
class Polyhedron:
    """{z : <c,z> = rhs for equations, <c,z> <= rhs for inequalities}.

    Constraints are (coefficient tuple, rhs) pairs over `variables`; size
    counts inequalities only.
    """

    variables: tuple
    equations: tuple
    inequalities: tuple

    @property
    def size(self) -> int:
        return len(self.inequalities)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def equation_residuals(self, point):
        return tuple(
            rhs - sum(c * x for c, x in zip(coeffs, point) if c)
            for coeffs, rhs in self.equations
        )

    def inequality_slacks(self, point):
        return tuple(
            rhs - sum(c * x for c, x in zip(coeffs, point) if c)
            for coeffs, rhs in self.inequalities
        )

    def member_slacks(self, point):
        """inequality_slacks(point) for a point of the polyhedron, None for
        a point outside it."""
        if len(point) != self.nvars:
            raise DomainError(
                f"expected a point of length {self.nvars}, got {len(point)}"
            )
        if any(r != 0 for r in self.equation_residuals(point)):
            return None
        slacks = self.inequality_slacks(point)
        return None if any(s < 0 for s in slacks) else slacks

    def contains(self, point) -> bool:
        return self.member_slacks(point) is not None


@dataclass(frozen=True)
class ExtendedFormulation:
    """A lifted polyhedron and one preimage (witness) per vertex of the
    target polytope. The projection back down keeps the first target.d
    variables, so witness[:d] is the vertex itself.

    kept_equations: the positions, in order, of the first maximal
    independent subset of lifted.equations (independent_equations' answer),
    where a check has already found it; None where it has not."""

    lifted: Polyhedron
    witnesses: dict
    target: CyclicPolytope
    kept_equations: tuple | None = None

    @property
    def size(self) -> int:
        return self.lifted.size


def _product_equation(poly, beta) -> tuple:
    """poly(x) = <beta, y>, poly's t^k read as x_k, as the row
    (<-poly[1:], x> + <beta, y>, poly[0]); with beta = () and a facet's slack
    polynomial, the facet's inequality row."""
    return tuple(-c for c in poly[1:]) + tuple(beta), poly[0]


def _facet_system(t1: int, t2: int):
    M = slack_matrix(CyclicPolytope(2, Interval(t1, t2)))
    ineqs = [_product_equation(poly, ()) for poly in M.polynomials]
    wits = {t: (t, t * t) for t in range(t1, t2 + 1)}
    return ["x1", "x2"], [], ineqs, wits


def _fold_system(fold, level: int, sub):
    """The system on the interval fold[2:] from the system sub on the
    interval the fold maps it onto.

    Folding works on the centered copy of the interval; the formulas below
    are those folds with the centering substitution x1 -> x1 - c,
    x2 -> x2 - 2c*x1 + c^2 already applied, so every level speaks the
    coordinates of its own interval and no final change of variables is
    needed. Each level puts its two new inequalities ahead of the
    sub-system's.
    """
    kind, c, t1, t2 = fold
    sub_vars, sub_eqs, sub_ineqs, sub_wits = sub
    if kind == REFLECT:
        # fold [-m, m] at 0; the half interval keeps the second coordinate,
        # so the sub-system's x2 picks up the centering terms
        z = f"z{level}_1"
        variables = ["x1", "x2", z] + sub_vars[2:]
        nv = len(variables)
        pad = (0,) * (nv - 3)

        def conv(coeffs, rhs):
            a1, a2 = coeffs[0], coeffs[1]
            return (
                (-2 * c * a2, a2, a1) + tuple(coeffs[2:]),
                rhs - a2 * c * c,
            )

        eqs = [conv(cf, r) for cf, r in sub_eqs]
        ineqs = [
            ((-1, 0, -1) + pad, -c),  # -(x1 - c) <= z
            ((1, 0, -1) + pad, c),  # x1 - c <= z
        ]
        ineqs += [conv(cf, r) for cf, r in sub_ineqs]
        wits = {}
        for t in range(t1, t2 + 1):
            u = abs(t - c)
            wits[t] = (t, t * t, u) + tuple(sub_wits[u][2:])
        return variables, eqs, ineqs, wits

    # the reflection t -> 1 - t is a shear on the curve; (z1, z2) ranges
    # over the half polytope and the pair (x1 + x2, x2 - x1) is pinned to
    # it by one equation and two cuts
    z1, z2 = f"z{level}_1", f"z{level}_2"
    variables = ["x1", "x2", z1, z2] + sub_vars[2:]
    nv = len(variables)
    pad = (0,) * (nv - 4)

    def conv(coeffs, rhs):
        return (0, 0) + tuple(coeffs), rhs

    eqs = [((2 * c + 1, -1, -1, 1) + pad, c * c + c)]  # z2 - z1 = (x2 - x1) centered
    eqs += [conv(cf, r) for cf, r in sub_eqs]
    ineqs = [
        ((2 * c - 1, -1, -3, 1) + pad, c * c - c - 2),  # 2 - 3 z1 + z2 <= x1 + x2 ctr
        ((1 - 2 * c, 1, -1, -1) + pad, c - c * c),  # x1 + x2 ctr <= z1 + z2
    ]
    ineqs += [conv(cf, r) for cf, r in sub_ineqs]
    wits = {}
    for t in range(t1, t2 + 1):
        u = t - c
        s = u if u >= 1 else 1 - u
        wits[t] = (t, t * t) + tuple(sub_wits[s])
    return variables, eqs, ineqs, wits


def _build(t1: int, t2: int):
    """System for P^2_[t1,t2] over variables (x1, x2, aux...): the facet
    system at the bottom of the fold chain, then the folds from the bottom
    up, level 1 being the fold of [t1, t2] itself."""
    folds, base = fold_chain(t1, t2)
    system = _facet_system(*base)
    for level in range(len(folds), 0, -1):
        system = _fold_system(folds[level - 1], level, system)
    return system


def build_ef_2d(n: int) -> ExtendedFormulation:
    """Lifted description of P^2_[1,n] with at most 2*floor(log2(n-1)) + 2
    inequalities; n <= 6 keeps the plain n-facet description."""
    P = CyclicPolytope.standard(2, n)
    variables, eqs, ineqs, wits = _build(1, n)
    lifted = Polyhedron(tuple(variables), tuple(eqs), tuple(ineqs))
    return ExtendedFormulation(lifted, wits, P)


def _unit(k: int, r: int, value=1) -> tuple:
    """The length-r vector with value at position k, 0 <= k < r, and 0
    elsewhere."""
    return (0,) * k + (value,) + (0,) * (r - k - 1)


def _xy_lift(P: CyclicPolytope, eqs, alphas, kept=None) -> ExtendedFormulation:
    """The lift of P over variables x1..xd, y1..yr with these equations,
    the inequalities y >= 0 and, above vertex i, the witness (v_i, alpha_i),
    alphas in interval order and r their length."""
    d, r = P.d, len(alphas[0])
    variables = tuple(f"x{k}" for k in range(1, d + 1)) + tuple(
        f"y{t}" for t in range(1, r + 1)
    )
    ineqs = tuple((_unit(d + t, d + r, -1), 0) for t in range(r))
    wits = {i: vertex(P, i) + tuple(a) for i, a in zip(P.interval.indices(), alphas)}
    return ExtendedFormulation(Polyhedron(variables, tuple(eqs), ineqs), wits, P, kept)


def ef_from_factorization(
    P: CyclicPolytope, F: NonnegFactorization
) -> ExtendedFormulation:
    """Size-rank(F) lift of P: variables (x, y), inequalities y >= 0 only,
    and per facet S the equation p_S(x) = <beta_S, y>, p_S its slack
    polynomial (_product_equation); above vertex i the witness is
    (v_i, alpha_i). verify refuses an F whose target or shape differs from
    P's before any facet of P is enumerated.

    The facet equations are verify's facet rows with their columns
    permuted, so the rows its reduction kept are recorded as the lift's
    kept_equations (see verify)."""
    M = slack_matrix(P)
    report = verify(M, F)
    if not report.ok:
        raise DomainError("factorization does not verify against the slack matrix")
    eqs = map(_product_equation, M.polynomials, F.beta)
    return _xy_lift(P, eqs, F.alpha, report.kept)


def _poly_mul(a, b) -> list:
    """The product of two polynomials, coefficients lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _shifted(c) -> list:
    """The coefficients of c(t - 1), by Horner's rule in t - 1."""
    acc = [c[-1]]
    for x in reversed(c[:-1]):
        acc = _poly_mul(acc, (-1, 1))
        acc[0] += x
    return acc


def pair_product_ef(n: int, d: int) -> ExtendedFormulation:
    """The lift of P^d_[1,n] from the degree-2 equation rows, with no facet
    of P enumerated and no degree-d factorization built.

    F2 = factorize_2d(N), N = n - d % 2, is checked by verify against the
    slack matrix of P^2_[1,N]; a failure is a DomainError. Each facet row
    verify kept is a polynomial and a beta: den times its slack polynomial
    and the beta numerators over den (int_vectors), so that the polynomial
    at each vertex i is <beta, alpha_i>. The equations multiply these rows
    the way the tensor construction multiplies facets (factorization module
    docstring). For d = 2q, one equation per ordered q-tuple of kept rows:
    the product of their polynomials (t^k read as x_k) equals the Kronecker
    product of their betas against y. For odd d, each such row twice, on
    disjoint y coordinates: (t - 1) c(t - 1) on the endpoint-1 block and
    (n - t) c(t) on the endpoint-n block, for the product c. The
    inequalities are y >= 0 and the witness above vertex i is
    (v_i, alpha_i), alpha_i the tensor construction's alpha row, so every
    equation holds on it by multilinearity.

    Its projection is P: each degree-2 facet row lies in the span of the
    kept rows, so each facet equation of ef_from_factorization(P,
    factorize_even/odd) is a combination of these equations, over the same
    y, and its beta is >= 0. ef and factorize keep the facet lift, whose
    equations they print; this one serves minimize-poly, which reads only
    the LP optimum.
    """
    P = CyclicPolytope.standard(d, n)
    N = n - d % 2
    F2 = factorize_2d(N)
    M2 = slack_matrix(CyclicPolytope.standard(2, N))
    report = verify(M2, F2)
    if not report.ok:
        raise DomainError("factorization does not verify against the slack matrix")
    ints = F2.int_vectors()
    rows = []
    for j in report.kept:
        beta, den = ints[N + j]
        rows.append(([c * den for c in M2.polynomials[j]], beta))
    products = rows
    for _ in range(d // 2 - 1):
        products = [
            (_poly_mul(p, p2), _kron((b, b2))) for p, b in products for p2, b2 in rows
        ]
    if d % 2 == 0:
        eqs = [_product_equation(p, b) for p, b in products]
    else:
        zero = (0,) * len(products[0][1])
        eqs = [_product_equation(_shifted([0, *p]), b + zero) for p, b in products]
        eqs += [_product_equation(_poly_mul((n, -1), p), zero + b) for p, b in products]
    return _xy_lift(P, eqs, _tensor_alphas([a for a, _ in ints[:N]], n, d))


def hull_ef(P: CyclicPolytope) -> ExtendedFormulation:
    """The convex-hull lift of P, built with no facet: variables (x, y) with
    one y per vertex, inequalities y >= 0, and the d + 1 equations
    sum_i y_i = 1 and x_k - sum_i i^k y_i = 0 (k = 1..d); above vertex i
    the witness is (v_i, e_i).

    Where factorize(n, d) is trivial and n >= d + 2, its alpha rows are the
    unit vectors, so ef_from_factorization gives this lift up to the
    equations: the same variables, inequalities and witnesses, and facet
    equations that span the same rows as these d + 1. At n = d + 1 the
    trivial alpha rows are the slack rows, a different lift of P.
    """
    d, indices = P.d, P.interval.indices()
    n = len(indices)
    convexity = ((0,) * d + (1,) * n, 1)
    moments = [
        (_unit(k - 1, d) + tuple(-(i**k) for i in indices), 0) for k in range(1, d + 1)
    ]
    return _xy_lift(P, [convexity, *moments], [_unit(r, n) for r in range(n)])


def lift_objective(ef: ExtendedFormulation, objective) -> tuple:
    """Pull an objective on the target's coordinates back through the
    projection: the same coefficients on the first target.d lifted
    variables, zero on the rest."""
    d = ef.target.d
    if len(objective) != d:
        raise DomainError(
            f"objective has {len(objective)} coordinates, target has dimension {d}"
        )
    return tuple(objective) + (0,) * (ef.lifted.nvars - d)


class EfOptimizer:
    """Exact linear optimization over a lifted polyhedron, warm-started.

    One simplex tableau serves every objective. It starts at the first
    witness, a known feasible point, and each solve reoptimizes from the
    previous basis. The solver gets the lift's kept_equations, or every
    lifted equation when the lift records none, and reduces and checks
    what it gets. Objectives are given in the coordinates of the target
    polytope. maximize and minimize are value queries: the solver's
    maximum and minimum, the value and the point with no dual built.
    solve is the full result, whose equation duals are scattered back to
    one per lifted equation, 0 on a row not handed over.
    """

    def __init__(self, ef: ExtendedFormulation):
        self.ef = ef
        if not ef.witnesses:
            raise DomainError("lifted system has no witnesses to start from")
        start = ef.witnesses[min(ef.witnesses)]
        equations = ef.lifted.equations
        kept = ef.kept_equations
        self._kept = range(len(equations)) if kept is None else kept
        self._solver = ReoptimizingSolver(
            ef.lifted.nvars,
            [equations[k] for k in self._kept],
            ef.lifted.inequalities,
            start,
        )

    def solve(self, objective, sense=MAX) -> LPResult:
        """The full exact LP result for an objective on the target's
        coordinates: status, value, lifted point and the duals of the
        lifted inequalities and of every lifted equation (0 for one dropped
        as dependent), so certify holds against the lift's own program.
        sense is "max" or "min"; anything else is a DomainError."""
        if sense not in (MAX, MIN):
            raise DomainError(f"unknown sense {sense!r}")
        coeffs = lift_objective(self.ef, objective)
        solver = self._solver
        res = (solver.maximize if sense == MAX else solver.minimize)(coeffs)
        if res.dual_eq is None:
            return res
        duals = [_ZERO] * len(self.ef.lifted.equations)
        for at, mu in zip(self._kept, res.dual_eq):
            duals[at] = mu
        return replace(res, dual_eq=tuple(duals))

    def _optimum(self, objective, query):
        found = query(lift_objective(self.ef, objective))
        if found is None:
            raise DomainError("lifted optimization is unbounded")
        return found

    def maximize(self, objective):
        """(optimal value, a lifted optimizer point): solve's value and
        primal point, from the same simplex, with no dual built."""
        return self._optimum(objective, self._solver.maximum)

    def minimize(self, objective):
        return self._optimum(objective, self._solver.minimum)


def _witness_slacks(P: CyclicPolytope, ef: ExtendedFormulation) -> tuple:
    """Each vertex's witness slack vector in the lifted inequalities, in
    interval order; a missing witness, one outside the lift or one that
    does not project to its vertex is a DomainError."""
    lifted = ef.lifted
    alphas = []
    for i in P.interval.indices():
        if i not in ef.witnesses:
            raise DomainError(f"no witness for vertex {i}")
        w = ef.witnesses[i]
        slacks = lifted.member_slacks(w) if len(w) == lifted.nvars else None
        if slacks is None:
            raise DomainError(f"witness for vertex {i} is not in the lifted polyhedron")
        if tuple(w[: P.d]) != vertex(P, i):
            raise DomainError(f"witness for vertex {i} does not project to it")
        alphas.append(slacks)
    return tuple(alphas)


def factorization_from_ef(
    P: CyclicPolytope, ef: ExtendedFormulation
) -> NonnegFactorization:
    """Rank-size(ef) factorization of P's slack matrix out of a lift of P.

    alpha_i is the witness's slack vector in the lifted inequalities,
    computed once by the check that the witness lies in the lift. Each
    facet's inequality is maximized exactly over the lifted polyhedron; the
    optimum must come out at b_j (tightness: the lift really projects onto
    P), and the inequality duals of that solve are beta_j. On the lifted
    affine hull b_j - <a_j, z[:d]> = <beta_j, slacks(z)>, so pairing duals
    with witness slacks reproduces every slack-matrix entry.

    The result is not verified here: verify(slack_matrix(P), F) is the
    check, run where the factorization leaves the library (the command
    line, ef_from_factorization).
    """
    if ef.target != P:
        raise DomainError("lift targets a different polytope")
    alphas = _witness_slacks(P, ef)
    optimizer = EfOptimizer(ef)
    facets = enumerate_facets(P)
    betas = []
    for S in facets:
        f = facet_inequality(P, S)
        res = optimizer.solve(f.a)
        if res.status == UNBOUNDED:
            raise DomainError(
                f"lifted system is unbounded along the facet {S.members} normal"
            )
        if res.value != f.b:
            raise DomainError(
                f"lift does not project onto the polytope: facet {S.members} "
                f"maximum is {res.value}, boundary is at {f.b}"
            )
        betas.append(tuple(res.dual_ineq))
    return NonnegFactorization(ef.size, alphas, tuple(betas), facets, P)


def ef_to_text(ef: ExtendedFormulation) -> str:
    """Deterministic plain-text listing of a lifted description."""
    lifted = ef.lifted
    names = lifted.variables
    P = ef.target
    lines = [
        f"target: degree {P.d} cyclic polytope on [{P.interval.t1}, {P.interval.t2}]"
        f" ({P.n} vertices)",
        f"size: {lifted.size} inequalities, {len(lifted.equations)} equations,"
        f" {lifted.nvars} variables",
        "variables: " + " ".join(names),
    ]
    if lifted.equations:
        lines.append("subject to (equations):")
        lines += [
            "  " + format_linear(coeffs, names, rhs, "=")
            for coeffs, rhs in lifted.equations
        ]
    lines.append("subject to (inequalities):")
    lines += [
        "  " + format_linear(coeffs, names, rhs, "<=")
        for coeffs, rhs in lifted.inequalities
    ]
    lines.append("projection:")
    lines += [f"  p{k} = {name}" for k, name in enumerate(names[: P.d], 1)]
    return "\n".join(lines) + "\n"


def ef_to_json_dict(ef: ExtendedFormulation) -> dict:
    def side(rows):
        return [
            {"coeffs": [format_rational(c) for c in coeffs], "rhs": format_rational(r)}
            for coeffs, r in rows
        ]

    d, nv = ef.target.d, ef.lifted.nvars
    return {
        "target": {
            "d": ef.target.d,
            "t1": ef.target.interval.t1,
            "t2": ef.target.interval.t2,
        },
        "variables": list(ef.lifted.variables),
        "equations": side(ef.lifted.equations),
        "inequalities": side(ef.lifted.inequalities),
        "projection": {
            "linear": [["1" if j == k else "0" for j in range(nv)] for k in range(d)],
            "offset": ["0"] * d,
        },
        "witnesses": {
            str(i): [format_rational(x) for x in w] for i, w in sorted(ef.witnesses.items())
        },
    }
