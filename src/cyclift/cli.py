"""Command-line surface.

Machine-readable data (CSV/JSON exports, result records) goes to stdout or
the --out file and is byte-identical across runs with the same arguments;
human-readable run reports and timings go to stderr. Exit codes: 0 success,
1 verification failure (or an internal bug), 2 usage or domain error.

ef prints its lift, so it builds the factorization lift, one equation per
facet. minimize-poly prints only the LP optimum, so it takes the lift that
is cheapest to build at the polynomial's own degree: the recursive lift at
degree 2, the convex-hull lift where the trivial factorization wins, and
elsewhere the product of the degree-2 equation rows (pair_product_ef),
which verifies a degree-2 factorization and no facet of the polytope.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DomainError, InternalError
from .factorization import (
    NonnegFactorization,
    construction_rank,
    even_rank_bound,
    factorize,
    rank_bound,
    size_bound_2d,
    trivial_wins,
    verify,
)
from .geometry import (
    CyclicPolytope,
    Interval,
    enumerate_facets,
    facet_count,
    slack_matrix,
    vertex,
)
from .lifting import (
    EfOptimizer,
    build_ef_2d,
    ef_from_factorization,
    ef_to_json_dict,
    ef_to_text,
    hull_ef,
    pair_product_ef,
)
from .rational import format_rational, parse_rational


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


@dataclass
class RunReport:
    """What a construction run did: inputs, achieved size against the
    guaranteed bound and against the plain facet description, outcome."""

    parameters: dict
    achieved: int | None = None
    bound: int | None = None
    trivial_size: int | None = None
    verification: str | None = None
    notes: list = field(default_factory=list)
    timings: list = field(default_factory=list)

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        yield
        self.timings.append((name, time.perf_counter() - t0))

    def emit(self) -> None:
        params = " ".join(f"{k}={v}" for k, v in self.parameters.items())
        _say(f"parameters: {params}")
        if self.achieved is not None:
            _say(f"achieved: {self.achieved}")
        if self.bound is not None:
            _say(f"guaranteed bound: {self.bound}")
        if self.trivial_size is not None:
            _say(f"facet description size: {self.trivial_size}")
        for note in self.notes:
            _say(note)
        if self.verification is not None:
            _say(f"verification: {self.verification}")
        for name, dt in self.timings:
            _say(f"  {name}: {dt:.3f}s")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            raise DomainError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _interval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, help="number of points; interval is [1, n]")
    p.add_argument("--t1", type=int, help="interval start (with --t2)")
    p.add_argument("--t2", type=int, help="interval end (with --t1)")


def _polytope_from(args) -> CyclicPolytope:
    if args.t1 is not None or args.t2 is not None:
        if args.t1 is None or args.t2 is None:
            raise DomainError("--t1 and --t2 must be given together")
        interval = Interval(args.t1, args.t2)
        if args.n is not None and interval.n_points != args.n:
            raise DomainError(
                f"--n {args.n} disagrees with [{args.t1}, {args.t2}]"
                f" ({interval.n_points} points)"
            )
    elif args.n is not None:
        interval = Interval(1, args.n)
    else:
        raise DomainError("pass --n, or --t1 and --t2")
    return CyclicPolytope(args.d, interval)


def cmd_facets(args) -> int:
    P = _polytope_from(args)
    facets = enumerate_facets(P)
    if args.format == "json":
        payload = {
            "d": P.d,
            "t1": P.interval.t1,
            "t2": P.interval.t2,
            "count": len(facets),
            "facets": [list(S.members) for S in facets],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit("".join(",".join(map(str, S.members)) + "\n" for S in facets), args.out)
    _say(f"{len(facets)} facets of the degree-{P.d} cyclic polytope on "
         f"[{P.interval.t1}, {P.interval.t2}]")
    return 0


def cmd_slack(args) -> int:
    P = _polytope_from(args)
    M = slack_matrix(P)
    if args.format == "json":
        _emit(json.dumps(M.to_json_dict(), indent=2) + "\n", args.out)
    else:
        _emit(M.to_csv(), args.out)
    _say(f"{M.n_rows} x {M.n_cols} slack matrix")
    return 0


def _construct_ef(n: int, d: int):
    if d == 2:
        return build_ef_2d(n)
    P = CyclicPolytope.standard(d, n)
    return ef_from_factorization(P, factorize(n, d))


def cmd_factorize(args) -> int:
    P = CyclicPolytope.standard(args.d, args.n)
    report = RunReport({"n": args.n, "d": args.d})
    with report.stage("construct"):
        F = factorize(args.n, args.d)
    with report.stage("verify"):
        outcome = verify(slack_matrix(P), F)
    report.achieved = F.rank
    report.bound = rank_bound(args.n, args.d)
    report.trivial_size = facet_count(P)
    constructed = construction_rank(args.n, args.d)
    report.notes.append(f"construction rank: {constructed}, trivial rank: {args.n}")
    if args.d % 2 == 0:
        report.notes.append(f"even-dimension bound: {even_rank_bound(args.n, args.d)}")
    report.verification = "ok" if outcome.ok else f"FAILED at {outcome.first_mismatch}"
    with report.stage("serialize"):
        _emit(F.to_json_text() + "\n", args.out)
    report.emit()
    if args.report:
        _emit_comparison_table(args.d)
    return 0 if outcome.ok else 1


def _emit_comparison_table(d: int) -> None:
    _say(f"guaranteed bound vs facet description at d={d}:")
    _say(f"  {'n':>6} {'bound':>12} {'facets':>16} smaller")
    for k in range(3, 13):
        n = 2**k + 1
        if n <= d:
            continue
        bound = rank_bound(n, d)
        facets = facet_count(CyclicPolytope.standard(d, n))
        tag = "bound" if bound < facets else ("facets" if facets < bound else "tie")
        _say(f"  {n:>6} {bound:>12} {facets:>16} {tag}")


def cmd_ef(args) -> int:
    if args.check < 0:
        raise DomainError(f"--check needs K >= 0, got {args.check}")
    report = RunReport({"n": args.n, "d": args.d})
    with report.stage("construct"):
        ef = _construct_ef(args.n, args.d)
    report.achieved = ef.size
    report.bound = (
        size_bound_2d(args.n) if args.d == 2 else rank_bound(args.n, args.d)
    )
    report.trivial_size = facet_count(ef.target)
    if args.format == "json":
        _emit(json.dumps(ef_to_json_dict(ef), indent=2) + "\n", args.out)
    else:
        _emit(ef_to_text(ef), args.out)
    failures = 0
    if args.check:
        with report.stage("check"):
            failures = _check_ef(ef, args.check, args.seed)
    report.verification = None if not args.check else (
        "ok" if failures == 0 else f"{failures} objective(s) disagreed"
    )
    report.emit()
    return 0 if failures == 0 else 1


def _check_ef(ef, rounds: int, seed: int) -> int:
    """Random-objective probes: exact LP max over the lift must equal the
    brute-force max over the vertices."""
    P = ef.target
    optimizer = EfOptimizer(ef)
    rng = random.Random(seed)
    failures = 0
    for k in range(rounds):
        obj = tuple(rng.randint(-9, 9) for _ in range(P.d))
        value, _ = optimizer.maximize(obj)
        brute = max(
            sum(c * x for c, x in zip(obj, vertex(P, i)))
            for i in P.interval.indices()
        )
        ok = value == brute
        failures += 0 if ok else 1
        _say(
            f"  check {k}: objective {obj} lift {value} vertices {brute} "
            f"{'ok' if ok else 'MISMATCH'}"
        )
    return failures


def cmd_verify(args) -> int:
    try:
        data = json.loads(Path(args.path).read_text())
    # ValueError: bad JSON or bad UTF-8; RecursionError: nesting too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError(f"cannot load {args.path}: {exc}") from exc
    F = NonnegFactorization.from_json_dict(data)
    P = F.target
    if args.n is not None or args.d is not None:
        if args.n is None or args.d is None:
            raise DomainError("--n and --d must be given together")
        claimed = CyclicPolytope.standard(args.d, args.n)
        if P is not None and P != claimed:
            raise DomainError(
                f"file targets d={P.d}, n={P.n}; flags say d={args.d}, n={args.n}"
            )
        P = claimed
    if P is None:
        raise DomainError("file records no target polytope; pass --n and --d")
    report = RunReport({"path": args.path, "n": P.n, "d": P.d})
    with report.stage("verify"):
        outcome = verify(slack_matrix(P), F)
    payload = {
        "ok": outcome.ok,
        "rank": outcome.rank,
        "bound": outcome.bound,
        "first_mismatch": None,
    }
    if outcome.first_mismatch is not None:
        i, S, expected, got = outcome.first_mismatch
        payload["first_mismatch"] = {
            "vertex": i,
            "facet": list(S.members),
            "expected": format_rational(expected),
            "got": format_rational(got),
        }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    report.achieved = outcome.rank
    report.bound = outcome.bound
    report.verification = "ok" if outcome.ok else "FAILED"
    report.emit()
    return 0 if outcome.ok else 1


def cmd_minimize_poly(args) -> int:
    coeffs = tuple(map(parse_rational, args.coeffs.split(",")))
    if len(coeffs) < 3:
        raise DomainError("need coefficients c0,...,cd with d >= 2")
    d = len(coeffs) - 1
    n = args.n
    if n <= d:
        raise DomainError(f"need n > degree, got n={n}, degree={d}")
    report = RunReport({"n": n, "degree": d, "coeffs": args.coeffs})

    def p(t: int):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    with report.stage("brute force"):
        values = {t: p(t) for t in range(1, n + 1)}
        best = min(values.values())
        argmin = [t for t in range(1, n + 1) if values[t] == best]
    # the LP reads only the projection, so the lift is built at the
    # polynomial's own degree (trailing zero coefficients add nothing to the
    # objective), and above degree 2 with no facet of its polytope: the
    # convex hull of the vertices where the trivial factorization wins, the
    # product of the degree-2 equation rows elsewhere
    lift_d = max(2, max((k for k, c in enumerate(coeffs) if c), default=0))
    with report.stage("build lift"):
        if lift_d == 2:
            ef = build_ef_2d(n)
        elif trivial_wins(n, lift_d):
            ef = hull_ef(CyclicPolytope.standard(lift_d, n))
        else:
            ef = pair_product_ef(n, lift_d)
    with report.stage("lifted LP"):
        optimizer = EfOptimizer(ef)
        lp_value, _ = optimizer.minimize(coeffs[1 : lift_d + 1])
        lp_value += coeffs[0]
    match = lp_value == best
    payload = {
        "n": n,
        "degree": d,
        "coefficients": [format_rational(c) for c in coeffs],
        "minimum": format_rational(best),
        "argmin": argmin,
        "lp_minimum": format_rational(lp_value),
        "match": match,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    report.achieved = ef.size
    report.trivial_size = facet_count(ef.target)
    report.verification = (
        "lifted LP agrees with brute force"
        if match
        else f"MISMATCH: LP {lp_value}, brute force {best}"
    )
    report.emit()
    return 0 if match else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclift",
        description=(
            "Exact slack-matrix factorizations and small lifted LP"
            " descriptions of cyclic polytopes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("facets", help="enumerate facets (interval runs of even inner length)")
    _interval_flags(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("slack", help="print the slack matrix")
    _interval_flags(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_slack)

    p = sub.add_parser(
        "factorize", help="build and verify a nonnegative factorization, write JSON"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out")
    p.add_argument(
        "--report",
        action="store_true",
        help="also print the guaranteed-bound vs facet-count table",
    )
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("verify", help="check a factorization JSON against the slack matrix")
    p.add_argument("path")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ef", help="print a lifted description of the polytope")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.add_argument(
        "--check",
        type=int,
        default=0,
        metavar="K",
        help="probe K random objectives against brute force over vertices",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ef)

    p = sub.add_parser(
        "minimize-poly",
        help="minimize a univariate polynomial over 1..n via the lifted LP",
    )
    p.add_argument("--coeffs", required=True, help='e.g. "9,-6,1" for 9 - 6t + t^2')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_minimize_poly)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's tree, built on the first main call and reused by
    every later one in the process: parse_args reads it and writes only the
    fresh namespace it returns."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        _say(f"error: {exc}")
        return 2
    except InternalError as exc:
        _say(f"internal error (please report): {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
