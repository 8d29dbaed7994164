"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

The smoke runs use --seconds 1, which still runs one whole cycle of each
workload, about a minute in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_names_the_workloads_the_harness_runs():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload):
    lines, result = _result(_run(workload, 0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert "error_rate 0.0000" in lines[0]
    assert _units(result) == {m["name"]: m["unit"] for m in _spec()["end_to_end"]}


def test_traced_runs_repeat_counts_and_output_digest():
    """Two traced runs with one seed: every computed count and the digest
    of the jobs' output agree exactly; only times may differ."""
    runs = [_result(_run("lift_queries", 1)) for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    for lines, result in runs:
        assert result["correct"] is True and result["failed"] == 0
        assert _units(result) == expected

    def stable(lines, result):
        counts = {name: m["value"] for name, m in result["metrics"].items()
                  if m["unit"] not in ("s", "ratio") and name != "trace.attributed_share"}
        return counts, lines[0].split("stdout_sha256 ")[1]

    assert stable(*runs[0]) == stable(*runs[1])


def test_certify_oracle_rejects_one_tampered_beta_entry(tmp_path):
    out = tmp_path / "f.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "cyclift", "factorize", "--n", "33", "--d", "2",
                    "--out", str(out)], cwd=ROOT, env=env, check=True,
                   capture_output=True, timeout=120)
    doc = json.loads(out.read_text())
    assert oracles.check_factorization(doc, 33) is None
    vec = doc["beta"][5]
    k = next(i for i, x in enumerate(vec) if Fraction(x) > 0)
    vec[k] = str(Fraction(vec[k]) + Fraction(1, 7))
    assert "differs from the slack product" in oracles.check_factorization(doc, 33)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits nonzero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("certify2d", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
