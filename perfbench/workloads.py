"""Seeded job streams for the three workloads.

This module imports nothing from cyclift: the worker process that runs the
jobs and the harness that checks them both rebuild the same stream from
(workload, seed), so the harness only needs to learn how many jobs ran.

A stream is a sequence of cycles and a run always ends on a cycle
boundary. The sizes of the instances in a cycle come from a fixed grid;
the seed draws the order of the jobs in each cycle, the polynomial
coefficients and the objectives, stratified where their cost depends on
them. Job cost varies by up to 3x between
neighbouring sizes (the fold path of the degree-2 lift changes with n), so
when the seed also drew the sizes, runs of 30 s spread by 15-30% between
seeds, too widely to detect a regression of a few percent.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("certify2d", "minpoly_mix", "lift_queries")

# certify2d: degree-2 point counts 2^k (the even "shear" fold at every
# level), 2^k + 1 (the odd "reflect" fold at every level) and 193, whose
# folds mix both. 512 is left out: its factorize job alone takes 8 s,
# which would leave too few jobs in a run for a tail percentile.
CERTIFY_SIZES = (128, 129, 193, 256, 257, 513)

# minpoly_mix: the acceptance-gate caps on n for each degree; each cycle
# runs every degree at the midpoints of MINPOLY_STRATA equal strata of
# (d, cap], each with a seeded polynomial and with its negation. The
# negation moves the minimum to where the maximum was, and the lifted LP
# costs up to 2x more for a minimum at one end of the interval than at
# the other, so the pair keeps the mix of both the same in every cycle.
MINPOLY_CAPS = {2: 200, 3: 100, 4: 48, 5: 30, 6: 20}
MINPOLY_STRATA = 2

# lift_queries: one degree-3 lift on 65 points (structured rank 24), built
# once per run. Objectives in [-9, 9]^3 are maximized and minimized only
# at the endpoints t = 1 and t = n, so the queries would cost one of three
# fixed amounts and the median would jump between them. Each objective
# here is (2 t0, -1, 0), whose maximum over the vertices is at t0 and whose
# minimum is at the endpoint farther from t0; a cycle draws one t0 in each
# of LIFT_STRATA equal strata of [1, n].
LIFT_N = 65
LIFT_DEGREE = 3
LIFT_STRATA = 4

# Cycles replayed by a traced run per second of --seconds (at least one).
# The count is fixed, not timed, so a traced run's job list and every count
# it reports depend on the seed and --seconds only.
TRACE_CYCLES_PER_S = {"certify2d": 1 / 25, "minpoly_mix": 1 / 25, "lift_queries": 1 / 12}


def _strata(lo: int, hi: int, k: int):
    """k contiguous, near-equal sub-ranges covering [lo, hi]."""
    edges = [lo + (hi - lo + 1) * s // k for s in range(k + 1)]
    return [(edges[s], edges[s + 1] - 1) for s in range(k)]


def minpoly_sizes(d: int) -> list:
    return [(lo + hi) // 2 for lo, hi in _strata(d + 1, MINPOLY_CAPS[d], MINPOLY_STRATA)]


def _cycles(workload: str, rng: random.Random, workdir: str):
    """Endless list of cycles, each a list of jobs."""
    for c in itertools.count():
        if workload == "certify2d":
            sizes = list(CERTIFY_SIZES)
            rng.shuffle(sizes)
            cycle = []
            for n in sizes:
                path = f"{workdir}/c{c}-n{n}.json"
                cycle.append({"argv": ["factorize", "--n", str(n), "--d", "2",
                                       "--out", path], "n": n, "out": path})
                cycle.append({"argv": ["verify", path], "n": n, "reads": path})
        elif workload == "minpoly_mix":
            cases = []
            for d in MINPOLY_CAPS:
                for n in minpoly_sizes(d):
                    coeffs = [rng.randint(-9, 9) for _ in range(d + 1)]
                    while coeffs[-1] == 0:
                        coeffs[-1] = rng.randint(-9, 9)
                    cases += [(n, coeffs), (n, [-c for c in coeffs])]
            rng.shuffle(cases)
            cycle = [{"argv": ["minimize-poly", "--coeffs=" + ",".join(map(str, coeffs)),
                               "--n", str(n)],
                      "n": n, "coeffs": coeffs} for n, coeffs in cases]
        elif workload == "lift_queries":
            targets = [rng.randint(lo, hi) for lo, hi in _strata(1, LIFT_N, LIFT_STRATA)]
            rng.shuffle(targets)
            cycle = []
            for t0 in targets:
                obj = [2 * t0, -1, 0]
                cycle += [{"sense": "max", "objective": obj},
                          {"sense": "min", "objective": obj}]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        yield cycle


def jobs(workload: str, seed: int, workdir: str):
    """Endless job stream. A job is a dict with its `cycle` number. CLI jobs
    carry `argv` (and the `out` file they write or the file they `reads`);
    lift queries carry `sense` and `objective`."""
    rng = random.Random(f"{workload}/{seed}")
    for c, cycle in enumerate(_cycles(workload, rng, workdir)):
        for job in cycle:
            job["cycle"] = c
            yield job


def first_jobs(workload: str, seed: int, workdir: str, count: int) -> list:
    return list(itertools.islice(jobs(workload, seed, workdir), count))


def trace_cycles(workload: str, seconds: int) -> int:
    return max(1, round(seconds * TRACE_CYCLES_PER_S[workload]))
