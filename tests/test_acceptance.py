"""Acceptance gate.

Each test covers one advertised guarantee end to end and prints a single
PASS/FAIL line so the suite output doubles as a checklist. All comparisons
are exact (integer or Fraction equality); the only tolerances anywhere are
the two wall-clock budgets, which are part of the advertised contract.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from cyclift.cli import main as cli_main
from cyclift.factorization import (
    NonnegFactorization,
    even_rank_bound,
    factorize,
    factorize_2d,
    hadamard_combine,
    rank_bound,
    verify,
)
from cyclift.geometry import (
    CyclicPolytope,
    enumerate_facets,
    facet_inequality,
    slack_matrix,
    vertex,
)
from cyclift.lifting import EfOptimizer, build_ef_2d, factorization_from_ef

from reference import gale_subsets, vertex_maximum


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"[acceptance {num}] {desc}: {'PASS' if ok else 'FAIL'}", flush=True)


def test_criterion_1_sweep_all_dimensions():
    """factorize(n, d) verifies exactly and meets the rank bounds for every
    2 <= d <= 7, d < n <= 18, within a 60 second budget."""
    ok = False
    try:
        t0 = time.perf_counter()
        for d in range(2, 8):
            for n in range(d + 1, 19):
                F = factorize(n, d)
                assert verify(slack_matrix(CyclicPolytope.standard(d, n)), F).ok
                assert F.rank <= rank_bound(n, d)
                if d % 2 == 0:
                    assert F.rank <= even_rank_bound(n, d)
        assert time.perf_counter() - t0 < 60
        ok = True
    finally:
        _report(1, "full (n, d) sweep verifies within bounds", ok)


def test_criterion_2_logarithmic_2d_scaling():
    """For n = 2^k + 1 the degree-2 construction has rank at most 2k + 2,
    reconstructing the full n x n slack matrix, up to n = 1025 in budget."""
    ok = False
    try:
        t0 = time.perf_counter()
        for k in range(3, 11):
            n = 2**k + 1
            F = factorize_2d(n)
            assert F.rank <= 2 * k + 2
            M = slack_matrix(CyclicPolytope.standard(2, n))
            assert (M.n_rows, M.n_cols) == (n, n)
            assert verify(M, F).ok
        assert time.perf_counter() - t0 < 60
        ok = True
    finally:
        _report(2, "2d rank is logarithmic and verifies up to n=1025", ok)


def test_criterion_3_lift_optimization_and_size_recurrence():
    """Exact LP over the lift agrees with brute force over vertices on 25
    seeded objectives per n, and the lift size obeys the halving recurrence
    size(n) <= size(ceil(n/2)) + 2 at every level."""
    ok = False
    try:
        for n in (5, 9, 17, 33, 64):
            ef = build_ef_2d(n)
            optimizer = EfOptimizer(ef)
            rng = random.Random(1000 + n)
            for _ in range(25):
                obj = (rng.randint(-50, 50), rng.randint(-50, 50))
                value, point = optimizer.maximize(obj)
                assert value == vertex_maximum(obj, 2, 1, n)
                assert ef.lifted.contains(point)
            m = n
            while m > 6:
                parent = (m + 1) // 2
                assert build_ef_2d(m).size <= build_ef_2d(parent).size + 2
                m = parent
        ok = True
    finally:
        _report(3, "lifted LP matches vertex max; size recurrence holds", ok)


def test_criterion_4_factorization_from_lift_round_trip():
    """Reading a factorization back out of the lift: it verifies, its rank
    never exceeds the lift's inequality count, and every facet inequality
    is supported (maximized exactly to its right-hand side) by the lift."""
    ok = False
    try:
        for n in (5, 9, 17, 33):
            P = CyclicPolytope.standard(2, n)
            ef = build_ef_2d(n)
            F = factorization_from_ef(P, ef)
            assert verify(slack_matrix(P), F).ok
            assert F.rank <= ef.size
            optimizer = EfOptimizer(ef)
            for S in enumerate_facets(P):
                ineq = facet_inequality(P, S)
                value, _ = optimizer.maximize(ineq.a)
                assert value == ineq.b
        ok = True
    finally:
        _report(4, "lift-to-factorization round trip is exact and tight", ok)


def test_criterion_5_hadamard_products():
    """hadamard_combine multiplies 100 seeded nonnegative integer matrix
    pairs entrywise with the expected rank-6 product factorization."""
    ok = False
    try:
        rng = random.Random(77)
        for _ in range(100):
            mats = []
            factors = []
            for rank in (2, 3):
                A = [[rng.randint(0, 9) for _ in range(rank)] for _ in range(6)]
                B = [[rng.randint(0, 9) for _ in range(rank)] for _ in range(7)]
                F = NonnegFactorization(
                    rank,
                    tuple(tuple(r) for r in A),
                    tuple(tuple(c) for c in B),
                )
                factors.append(F)
                mats.append([[F.entry(i, j) for j in range(7)] for i in range(6)])
            H = hadamard_combine(factors[0], factors[1])
            assert H.rank == 6
            for i in range(6):
                for j in range(7):
                    assert H.entry(i, j) == mats[0][i][j] * mats[1][i][j]
                    assert H.entry(i, j) >= 0
        ok = True
    finally:
        _report(5, "Hadamard combination is entrywise exact at rank 6", ok)


def test_criterion_6_facet_enumeration_is_complete():
    """enumerate_facets equals the brute-force parity filter, and each
    reported facet's hyperplane touches exactly its own members."""
    ok = False
    try:
        for d, n in ((2, 7), (3, 8), (4, 8), (5, 9)):
            P = CyclicPolytope.standard(d, n)
            listed = [S.members for S in enumerate_facets(P)]
            assert listed == gale_subsets(d, 1, n)
            for S in enumerate_facets(P):
                ineq = facet_inequality(P, S)
                for i in range(1, n + 1):
                    slack = ineq.slack(vertex(P, i))
                    assert slack >= 0
                    assert (slack == 0) == (i in S.members)
        ok = True
    finally:
        _report(6, "facet enumeration matches brute force with supporting hyperplanes", ok)


def test_criterion_7_polynomial_minimization_cli():
    """The minimize-poly command agrees with brute force on 100 seeded
    random integer polynomials of degree 2 through 6."""
    ok = False
    try:
        rng = random.Random(2024)
        caps = {2: 200, 3: 100, 4: 48, 5: 30, 6: 20}
        for _ in range(100):
            d = rng.randint(2, 6)
            n = rng.randint(d + 1, caps[d])
            coeffs = [rng.randint(-9, 9) for _ in range(d + 1)]
            while coeffs[-1] == 0:
                coeffs[-1] = rng.randint(-9, 9)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli_main(
                    ["minimize-poly", "--coeffs=" + ",".join(map(str, coeffs)), "--n", str(n)]
                )
            assert rc == 0, err.getvalue()
            payload = json.loads(out.getvalue())
            brute = min(
                sum(c * t**e for e, c in enumerate(coeffs)) for t in range(1, n + 1)
            )
            assert payload["match"] is True
            assert Fraction(payload["minimum"]) == brute
            assert Fraction(payload["lp_minimum"]) == brute
        ok = True
    finally:
        _report(7, "polynomial minimization over the lift matches brute force", ok)
