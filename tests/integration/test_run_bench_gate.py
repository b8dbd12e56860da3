"""run_bench.py must exit non-zero when a benchmark assertion fails.

``make smoke`` (and the CI smoke job) gate on ``run_bench.py --quick``;
every benchmark carries correctness assertions, so a silent exit-0 on
failure would turn the smoke lane into theatre.  These tests drive the
real script as a subprocess against the forced-failure canary in
``bench_parallel.py`` (selected with ``-k`` so only the canary runs --
a few seconds, not the whole smoke lane).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
RUN_BENCH = REPO_ROOT / "benchmarks" / "run_bench.py"


def run_quick(tmp_path, *, force_fail, keyword="forced_failure", extra_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if force_fail:
        env["REPRO_BENCH_FORCE_FAIL"] = "1"
    else:
        env.pop("REPRO_BENCH_FORCE_FAIL", None)
    command = [
        sys.executable,
        str(RUN_BENCH),
        "--quick",
        "-k",
        keyword,
        "--output",
        str(tmp_path / "trajectory.json"),
        *extra_args,
    ]
    return subprocess.run(
        command, cwd=REPO_ROOT, env=env, capture_output=True, text=True
    )


class TestSmokeGate:
    def test_failing_assertion_exits_nonzero(self, tmp_path):
        completed = run_quick(tmp_path, force_fail=True)
        assert completed.returncode != 0, (
            "run_bench.py --quick exited 0 despite a failing benchmark "
            f"assertion\nstdout:\n{completed.stdout}\nstderr:\n"
            f"{completed.stderr}"
        )
        assert "benchmark run failed" in completed.stderr

    def test_failure_never_touches_outputs(self, tmp_path):
        summary = tmp_path / "summary.json"
        completed = run_quick(
            tmp_path,
            force_fail=True,
            extra_args=("--summary", str(summary)),
        )
        assert completed.returncode != 0
        assert not (tmp_path / "trajectory.json").exists()
        assert not summary.exists()

    def test_all_skipped_run_still_fails(self, tmp_path):
        """An unarmed canary alone means zero benchmarks ran -- that
        must not count as a green smoke lane (no JSON export)."""
        completed = run_quick(tmp_path, force_fail=False)
        assert completed.returncode != 0
        assert "no JSON export" in completed.stderr

    def test_passing_run_exits_zero_and_writes_summary(self, tmp_path):
        """Positive control: one real (cheap) benchmark plus the
        skipped canary -- exit 0 and the --summary artifact appears."""
        summary = tmp_path / "summary.json"
        completed = run_quick(
            tmp_path,
            force_fail=False,
            keyword="forced_failure or auto_long",
            extra_args=("--summary", str(summary)),
        )
        assert completed.returncode == 0, (
            f"stdout:\n{completed.stdout}\nstderr:\n{completed.stderr}"
        )
        assert "smoke run ok" in completed.stdout
        payload = json.loads(summary.read_text())
        assert payload["mode"] == "quick"
        assert any(
            row["benchmark"].startswith("test_ext_par_auto_long")
            for row in payload["rows"]
        )
        # Quick mode must never rewrite the committed trajectory.
        assert not (tmp_path / "trajectory.json").exists()
