"""Independent checks of every job's output.

Nothing here imports cyclift: each answer is recomputed from first
definitions (the moment curve, Gale's evenness condition, the slack
product) in plain integer and Fraction arithmetic. Each check returns None
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from pathlib import Path

from workloads import LIFT_N


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"number {text!r} is not a string")
    return Fraction(text)


def is_gale(members, t1: int, t2: int) -> bool:
    """Gale's evenness condition: between any two points of the interval
    outside S lie an even number of members of S; equivalently every run
    of consecutive members that touches neither endpoint has even length."""
    runs, start = [], members[0]
    for a, b in zip(members, members[1:]):
        if b != a + 1:
            runs.append((start, a))
            start = b
    runs.append((start, members[-1]))
    return all(lo == t1 or hi == t2 or (hi - lo + 1) % 2 == 0 for lo, hi in runs)


@lru_cache(maxsize=8)
def gale_facets(d: int, t1: int, t2: int) -> tuple:
    """Every facet, by filtering all d-subsets, in lexicographic order."""
    return tuple(S for S in combinations(range(t1, t2 + 1), d) if is_gale(S, t1, t2))


def slack(i: int, members) -> int:
    out = 1
    for j in members:
        out *= abs(j - i)
    return out


def _scaled(vec):
    den = lcm(*(x.denominator for x in vec)) if vec else 1
    return [x.numerator * (den // x.denominator) for x in vec], den


def check_factorization(doc: dict, n: int, d: int = 2) -> str | None:
    """A factorization file must target P^d_[1,n], keep the rank within
    the degree-2 size bound, be nonnegative, label its columns by the
    brute-force Gale order and reproduce every slack entry exactly."""
    if doc.get("target") != {"d": d, "t1": 1, "t2": n}:
        return f"target is {doc.get('target')}, expected d={d} on [1, {n}]"
    rank = doc.get("rank")
    if not isinstance(rank, int) or rank < 1:
        return f"rank {rank!r} is not a positive integer"
    bound = 2 * ((n - 1).bit_length() - 1) + 2
    if rank > bound:
        return f"rank {rank} exceeds 2*floor(log2(n-1)) + 2 = {bound}"
    facets = gale_facets(d, 1, n)
    if [tuple(c) for c in doc.get("columns") or ()] != list(facets):
        return "columns are not the Gale facets in lexicographic order"
    try:
        alpha = [[parse_rational(x) for x in v] for v in doc["alpha"]]
        beta = [[parse_rational(x) for x in v] for v in doc["beta"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"unreadable vectors: {exc}"
    if len(alpha) != n or len(beta) != len(facets):
        return f"{len(alpha)}x{len(beta)} vectors for a {n}x{len(facets)} matrix"
    for vec in alpha + beta:
        if len(vec) != rank:
            return f"vector of length {len(vec)} in a rank-{rank} factorization"
        if any(x < 0 for x in vec):
            return "negative entry"
    rows = [_scaled(v) for v in alpha]
    cols = [_scaled(v) for v in beta]
    for i, (a, da) in enumerate(rows, start=1):
        for S, (b, db) in zip(facets, cols):
            if sum(x * y for x, y in zip(a, b)) != slack(i, S) * da * db:
                return f"entry (vertex {i}, facet {S}) differs from the slack product"
    return None


def check_verify_output(stdout: str, doc: dict) -> str | None:
    """`verify` on a correct file must say ok, with the file's rank."""
    report = json.loads(stdout)
    if report.get("ok") is not True or report.get("first_mismatch") is not None:
        return f"verify rejected a correct factorization: {report}"
    if report.get("rank") != doc["rank"]:
        return f"verify reports rank {report.get('rank')}, file has {doc['rank']}"
    bound = report.get("bound")
    if not isinstance(bound, int) or bound < doc["rank"]:
        return f"verify reports bound {bound!r} below the rank {doc['rank']}"
    return None


def check_minimize_poly(stdout: str, n: int, coeffs) -> str | None:
    """The brute-force minimum over t = 1..n, in Fractions."""
    values = {}
    for t in range(1, n + 1):
        values[t] = sum(Fraction(c) * t**e for e, c in enumerate(coeffs))
    best = min(values.values())
    argmin = [t for t in range(1, n + 1) if values[t] == best]
    payload = json.loads(stdout)
    expected = {
        "n": n,
        "degree": len(coeffs) - 1,
        "coefficients": [str(c) for c in coeffs],
        "minimum": str(best),
        "argmin": argmin,
        "lp_minimum": str(best),
        "match": True,
    }
    if payload != expected:
        return f"minimize-poly printed {payload}, expected {expected}"
    return None


def vertex_extreme(objective, n: int, sense: str) -> Fraction:
    """Max or min of <objective, (t, t^2, ..., t^d)> over t = 1..n."""
    values = (
        sum(c * t ** (k + 1) for k, c in enumerate(objective)) for t in range(1, n + 1)
    )
    return Fraction(max(values) if sense == "max" else min(values))


def check_lift_query(output: str, job: dict, n: int) -> str | None:
    want = vertex_extreme(job["objective"], n, job["sense"])
    got = output.rsplit(" ", 1)[-1].strip()
    if Fraction(got) != want:
        return f"{job['sense']} {job['objective']}: lift gave {got}, vertices {want}"
    return None


def check_job(workload: str, job: dict, record: dict) -> str | None:
    """Verdict for one job: nonzero exit codes fail as well as wrong output."""
    if record["rc"] != 0:
        return f"exit code {record['rc']}: {record['out'][-300:]}"
    try:
        if workload == "certify2d":
            path = job.get("out") or job["reads"]
            doc = json.loads(Path(path).read_text())
            if "out" in job:
                return check_factorization(doc, job["n"])
            return check_verify_output(record["out"], doc)
        if workload == "minpoly_mix":
            return check_minimize_poly(record["out"], job["n"], job["coeffs"])
        return check_lift_query(record["out"], job, LIFT_N)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"
