"""One fresh process of the system under test.

Started by run.py, never imported by it. It imports cyclift from the
checkout's `src/`, does the workload's set-up, then runs jobs one at a
time (closed loop, one client) and writes what it saw to a JSON file:

- mode `setup`: only the set-up, then the instant it was ready;
- mode `stream`: whole cycles of jobs until --seconds have passed;
- mode `replay`: exactly --cycles cycles, with the tracer installed if
  --trace is given.

Job outputs (stdout, or the value of a lift query) go into the result so
that run.py can check them against its oracles after the timed region,
with a calibration time (calibration.py) taken after set-up and after
every job.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import workloads
from calibration import calibrate
from tracing import JOB, Tracer


def _import_cyclift(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import cyclift
    import cyclift.cli

    if src not in Path(cyclift.__file__).resolve().parents:
        raise SystemExit(f"cyclift was imported from {cyclift.__file__}, not {src}")
    return cyclift


def _setup(cyclift, workload: str):
    """What a workload builds once before its stream; None for CLI jobs."""
    if workload != "lift_queries":
        return None
    n, d = workloads.LIFT_N, workloads.LIFT_DEGREE
    P = cyclift.CyclicPolytope.standard(d, n)
    ef = cyclift.ef_from_factorization(P, cyclift.factorize(n, d))
    return cyclift.EfOptimizer(ef)


def _run_job(cyclift, optimizer, job) -> tuple[int, str]:
    """(exit code, output). Any exception is a failed job, not a crash."""
    if "argv" in job:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cyclift.cli.main(job["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            return 1, traceback.format_exc()
        return rc, out.getvalue()
    solve = optimizer.maximize if job["sense"] == "max" else optimizer.minimize
    try:
        value, _ = solve(tuple(job["objective"]))
    except Exception:
        return 1, traceback.format_exc()
    return 0, f"{job['sense']} {job['objective']} {Fraction(value)}\n"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "stream", "replay"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--cycles", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    cyclift = _import_cyclift(Path(args.root))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    optimizer = _setup(cyclift, args.workload)
    result = {"ready": time.monotonic(), "calibration_ready": calibrate()}

    if args.mode != "setup":
        stream = workloads.jobs(args.workload, args.seed, args.workdir)
        records = []
        t_start = time.perf_counter()
        deadline = t_start + args.seconds
        cycle = 0
        for k, job in enumerate(stream):
            # runs end on a cycle boundary, so every run does whole cycles
            if job["cycle"] != cycle:
                cycle = job["cycle"]
                if args.mode == "stream" and time.perf_counter() >= deadline:
                    break
                if args.mode == "replay" and cycle >= args.cycles:
                    break
            span = None
            if tracer is not None:
                tracer.job = k
                span = tracer.begin(JOB)
            t0 = time.perf_counter()
            rc, out = _run_job(cyclift, optimizer, job)
            t1 = time.perf_counter()
            if span is not None:
                tracer.end(span)
                tracer.job = None
            # calibrated after every job; see calibration.py
            records.append({"s": t1 - t0, "rc": rc, "out": out, "calibration": calibrate()})
        result["jobs"] = records
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.summary()

    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
