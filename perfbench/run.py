"""cyclift benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload certify2d --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Each run starts fresh worker processes (worker.py) so that set-up time and
peak memory are those of a new process; this harness never imports
cyclift. After the timed stream it checks every job's output with the
independent oracles in oracles.py.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
replays a fixed, seed-determined job list twice, untraced and then with
the outside-in tracer installed, and prints the per-layer metrics. The
last line of stdout is always the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads
from calibration import REFERENCE_S, calibrate, scale

# set-ups per run whose median is setup_s (the stream's own worker is one)
SETUP_SAMPLES = 3
# percentile reported as job_tail_s: the highest one that leaves at least
# ten jobs beyond it in a typical --seconds 25 run on the reference
# machine (2 vCPU, python 3.11), which has 36-48, 40-60 and 40 jobs
TAIL_PERCENTILE = {"certify2d": 70, "minpoly_mix": 75, "lift_queries": 75}
WORKER_TIMEOUT_S = 170


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Harness:
    def __init__(self, root: Path, workload: str, seed: int, workdir: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self._n = 0
        self._verdicts = {}  # (n, sha256 of a factorization file) -> verdict

    def worker(self, mode: str, seconds: float = 0, cycles: int = 0, trace: bool = False):
        """Run one fresh worker in a directory of its own; returns its
        result, with its set-up time measured from just before the process
        is spawned and the directory its jobs wrote to."""
        self._n += 1
        outdir = self.workdir / f"w{self._n}"
        outdir.mkdir()
        result_path = outdir / "result.json"
        cmd = [
            sys.executable, str(Path(__file__).with_name("worker.py")),
            "--root", str(self.root), "--workdir", str(outdir),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--seconds", str(seconds), "--cycles", str(cycles),
            "--result", str(result_path),
        ] + (["--trace"] if trace else [])
        before = calibrate()
        t_spawn = time.monotonic()
        proc = subprocess.run(cmd, cwd=self.root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text())
        result["setup_wall_s"] = result["ready"] - t_spawn
        result["setup_s"] = result["setup_wall_s"] * scale(before, result["calibration_ready"])
        result["outdir"] = str(outdir)
        return result

    def jobs(self, result) -> list:
        """The jobs a worker ran, rebuilt from the seed."""
        return workloads.first_jobs(self.workload, self.seed, result["outdir"],
                                    len(result["jobs"]))

    def check(self, result) -> tuple[int, str, list]:
        """Oracle verdicts, and a digest of every job's output: its stdout
        and the file it wrote, if any."""
        problems = []
        for k, (job, rec) in enumerate(zip(self.jobs(result), result["jobs"])):
            problem = self._check_job(job, rec)
            if problem is not None:
                problems.append(f"job {k}: {problem}")
        return len(problems), _digest(self, result), problems

    def _check_job(self, job, rec):
        if "out" not in job or rec["rc"] != 0:
            return oracles.check_job(self.workload, job, rec)
        # later cycles rebuild the same factorizations; check each file once
        key = (job["n"], hashlib.sha256(Path(job["out"]).read_bytes()).hexdigest())
        if key not in self._verdicts:
            self._verdicts[key] = oracles.check_job(self.workload, job, rec)
        return self._verdicts[key]


def _digest(h: Harness, result) -> str:
    digest = hashlib.sha256()
    for job, rec in zip(h.jobs(result), result["jobs"]):
        digest.update(rec["out"].encode())
        if "out" in job and rec["rc"] == 0:
            digest.update(Path(job["out"]).read_bytes())
    return digest.hexdigest()


def scaled_latencies(result) -> list:
    """Job latencies at the reference speed, each scaled by the
    calibrations taken just before and just after the job."""
    cal = [result["calibration_ready"]] + [r["calibration"] for r in result["jobs"]]
    return [r["s"] * scale(cal[k], cal[k + 1]) for k, r in enumerate(result["jobs"])]


def end_to_end(h: Harness, seconds: int):
    main = h.worker("stream", seconds=seconds)
    setups = [main] + [h.worker("setup") for _ in range(SETUP_SAMPLES - 1)]
    records = main["jobs"]
    failed, digest, problems = h.check(main)
    wall = [r["s"] for r in records]
    cal = [main["calibration_ready"]] + [r["calibration"] for r in records]
    latencies = scaled_latencies(main)
    tail = TAIL_PERCENTILE[h.workload]
    metrics = {
        "jobs_per_s": (len(records) / sum(latencies), "jobs/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (percentile(latencies, tail), "s"),
        "setup_s": (statistics.median(w["setup_s"] for w in setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
    }
    print(f"jobs {len(records)}  error_rate {failed / len(records):.4f} fraction  "
          f"job_tail_s is p{tail}  stdout_sha256 {digest}")
    print(f"wall clock, unscaled: jobs_per_s {len(records) / sum(wall)} jobs/s  "
          f"job_p50_s {statistics.median(wall)} s  job_tail_s {percentile(wall, tail)} s  "
          f"setup_s {statistics.median(w['setup_wall_s'] for w in setups)} s  "
          f"calibration {statistics.median(cal)} s (reference {REFERENCE_S} s)")
    return len(records), failed, problems, metrics


def per_layer(h: Harness, seconds: int):
    cycles = workloads.trace_cycles(h.workload, seconds)
    plain = h.worker("replay", cycles=cycles)
    traced = h.worker("replay", cycles=cycles, trace=True)
    count = len(traced["jobs"])
    failed, digest, problems = h.check(traced)
    if _digest(h, plain) != digest:
        problems.append("traced and untraced runs printed different outputs")
    tr = traced["trace"]
    self_s, calls, counts = tr["self_s"], tr["calls"], tr["counts"]

    def s(name):
        return (self_s.get(name, 0.0), "s")

    def c(name, table=counts):
        return (table.get(name, 0), "count")

    f_calls = calls.get("factorization.factorize", 0)
    rows_in = counts.get("lifting.independent_equations.rows_in", 0)
    rows_kept = counts.get("lifting.independent_equations.rows_kept", 0)
    metrics = {
        "geometry.enumerate_facets.self_s": s("geometry.enumerate_facets"),
        "geometry.enumerate_facets.facets": c("geometry.enumerate_facets.facets"),
        "geometry.slack_matrix.self_s": s("geometry.slack_matrix"),
        "geometry.slack_matrix.entries": c("geometry.slack_matrix.entries"),
        "geometry.facet_inequality.calls": c("geometry.facet_inequality", calls),
        "factorization.factorize.calls": (f_calls, "count"),
        "factorization.factorize.discarded_rank":
            c("factorization.factorize.discarded_rank"),
        "factorization.factorize.kept_share": (
            counts.get("factorization.factorize.kept", 0) / f_calls if f_calls else 1.0,
            "fraction"),
        "factorization.factorize.self_s": s("factorization.factorize"),
        "factorization.hadamard_combine.self_s": s("factorization.hadamard_combine"),
        "factorization.verify.self_s": s("factorization.verify"),
        "factorization.verify.calls_per_job": (
            calls.get("factorization.verify", 0) / count, "1/job"),
        "factorization.verify.entries": c("factorization.verify.entries"),
        "factorization.NonnegFactorization.to_json_dict.self_s":
            s("factorization.NonnegFactorization.to_json_dict"),
        "factorization.NonnegFactorization.from_json_dict.self_s":
            s("factorization.NonnegFactorization.from_json_dict"),
        "lifting.build_ef_2d.self_s": s("lifting.build_ef_2d"),
        "lifting.factorization_from_ef.self_s": s("lifting.factorization_from_ef"),
        "lifting.ef_from_factorization.self_s": s("lifting.ef_from_factorization"),
        "lifting.independent_equations.self_s": s("lifting.independent_equations"),
        "lifting.independent_equations.rows_in": (rows_in, "count"),
        "lifting.independent_equations.rows_kept": (rows_kept, "count"),
        "lifting.independent_equations.kept_ratio": (
            rows_kept / rows_in if rows_in else 1.0, "fraction"),
        "lifting.EfOptimizer.init.self_s": s("lifting.EfOptimizer.init"),
        "lifting.EfOptimizer.query.self_s": s("lifting.EfOptimizer.query"),
        "exact_lp.ReoptimizingSolver.init.calls":
            c("exact_lp.ReoptimizingSolver.init", calls),
        "exact_lp.ReoptimizingSolver.init.self_s": s("exact_lp.ReoptimizingSolver.init"),
        "exact_lp.ReoptimizingSolver.init.tableau_cells":
            c("exact_lp.ReoptimizingSolver.init.tableau_cells"),
        "exact_lp.ReoptimizingSolver.maximize.calls":
            c("exact_lp.ReoptimizingSolver.maximize", calls),
        "exact_lp.ReoptimizingSolver.maximize.self_s":
            s("exact_lp.ReoptimizingSolver.maximize"),
        "exact_lp.result_max_bits": (tr["max_bits"], "bits"),
        "rational.parse_rational.calls": c("rational.parse_rational", calls),
        "rational.format_rational.calls": c("rational.format_rational", calls),
        "cli.main.self_s": s("cli.main"),
        "trace.jobs": (count, "count"),
        "trace.job_s": (tr["job_s"], "s"),
        "trace.attributed_share": (
            tr["covered_s"] / tr["job_s"] if tr["job_s"] else 1.0, "fraction"),
        "trace.overhead_ratio": (
            sum(scaled_latencies(traced)) / sum(scaled_latencies(plain)), "ratio"),
    }
    print(f"jobs {count}  error_rate {failed / count:.4f} fraction  "
          f"stdout_sha256 {digest}")
    return count, failed, problems, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "cyclift" / "__init__.py").is_file():
        print(f"error: no cyclift sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        h = Harness(root, args.workload, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        attempted, failed, problems, metrics = measure(h, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
