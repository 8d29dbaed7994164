"""Per-layer times of the hand-measured cases in ROADMAP.md, traced.

    python3 perfbench/baseline.py

Runs `factorize --n 1025 --d 2 --out F`, then `verify F`, then the library
call `factorize(20, 6)`, once each in this process with the tracer
installed, and prints the CLI's own stage timings beside the per-layer
self times, all unscaled wall clock, with a calibration time
(calibration.py) that tells how fast the machine ran. BASELINE.md records
one result.
"""

from __future__ import annotations

import io
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from calibration import REFERENCE_S, calibrate
from tracing import JOB, Tracer


def _stage_lines(stderr: str) -> list:
    return [line.strip() for line in stderr.splitlines() if line.endswith("s") and ": " in line
            and line.startswith("  ")]


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import cyclift
    import cyclift.cli

    work = Path.cwd() / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        path = str(Path(tmp) / "f1025.json")
        cases = [
            ("factorize --n 1025 --d 2", lambda: cyclift.cli.main(
                ["factorize", "--n", "1025", "--d", "2", "--out", path])),
            ("verify (n = 1025)", lambda: cyclift.cli.main(["verify", path])),
            ("factorize(20, 6)", lambda: cyclift.factorize(20, 6)),
        ]
        for label, call in cases:
            tracer = Tracer()
            tracer.install()
            err = io.StringIO()
            t0 = time.perf_counter()
            span = tracer.begin(JOB)
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                call()
            tracer.end(span)
            wall = time.perf_counter() - t0
            tracer.uninstall()
            summary = tracer.summary()
            print(f"{label}: {wall:.2f} s traced wall, calibration {calibrate():.5f} s"
                  f" (reference {REFERENCE_S} s)")
            for line in _stage_lines(err.getvalue()):
                print(f"  cli stage {line}")
            for name, s in sorted(summary["self_s"].items(), key=lambda kv: -kv[1]):
                if s >= 0.005:
                    print(f"  {name}.self_s {s:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
