#!/usr/bin/env python
"""Run the fast-path + parallel benchmarks and trim a perf-trajectory file.

Invokes pytest-benchmark on ``benchmarks/bench_scaling.py`` (the CSR
backend rows), ``benchmarks/bench_parallel.py`` (the sharded sweep
pool rows) and ``benchmarks/bench_service.py``
(the async service rows) with ``--benchmark-json`` and distils the
machine-readable export into ``BENCH_fastpath.json``: one row per
fast-path benchmark with the graph size, backend, worker count,
mean/min seconds and derived throughput, plus the asserted speedup
rows.  Future PRs regenerate the file and diff it against the
committed trajectory to see whether the hot path moved.

Usage::

    python benchmarks/run_bench.py [--output BENCH_fastpath.json]
    python benchmarks/run_bench.py --quick [--summary smoke-summary.json]

``--quick`` is the CI smoke lane: it shrinks the workloads (see
``REPRO_BENCH_QUICK`` in ``bench_parallel.py`` / ``bench_service.py``),
still runs every correctness assertion baked into the benchmarks, and
does *not* rewrite the committed trajectory file (smoke numbers from a
scaled-down workload would poison the diff).  ``--summary PATH``
writes this run's trimmed rows to a separate file -- the CI smoke job
uploads it as a per-PR artifact so perf drift stays visible without
touching the trajectory.  The repo's smoke target (``make smoke``) is
``--quick`` plus the tier-1 suite.

Exits non-zero if the benchmark run fails -- the correctness
assertions inside each benchmark are part of the run, and an
assertion failure anywhere fails the whole command (the regression
test in ``tests/integration/test_run_bench_gate.py`` pins this, so the
CI smoke job genuinely gates).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BENCH_FILES = (
    "bench_scaling.py",
    "bench_parallel.py",
    "bench_service.py",
    "bench_variants.py",
    "bench_scenarios.py",
    "bench_api.py",
    "bench_allpairs.py",
    "bench_cache.py",
)
QUICK_BENCH_FILES = (
    "bench_parallel.py",
    "bench_service.py",
    "bench_variants.py",
    "bench_scenarios.py",
    "bench_api.py",
    "bench_allpairs.py",
    "bench_cache.py",
)
FASTPATH_PREFIXES = (
    "test_ext_scale_fastpath_backends",
    "test_ext_scale_fastpath_speedup_10k",
    "test_ext_scale_fastpath_numpy_batch",
    "test_ext_par_",
    "test_ext_svc_",
    "test_ext_var_",
    "test_ext_scn_",
    "test_ext_api_",
    "test_ext_ap_",
    "test_ext_cache_",
)
TRAJECTORY_OPTIONAL = (
    # The forced-failure benchmark is an exit-code canary: it is always
    # skipped unless REPRO_BENCH_FORCE_FAIL is set, so it never produces
    # a trajectory row.  Read by tests/integration/test_bench_trajectory.py
    # -- every other collected family matching FASTPATH_PREFIXES must
    # have a row in BENCH_fastpath.json.
    "test_ext_par_forced_failure",
)
EXTRA_ROW_KEYS = (
    "workers",
    "batch",
    "chunksize",
    "usable_cores",
    "serial_seconds",
    "simulate_seconds",
    "speedup_vs_simulate",
    "service_p50_ms",
    "session_p50_ms",
    "auto_seconds",
    "lane_seconds",
    "full_sweep_seconds",
    "auto_backend",
    "pure_seconds",
    "numpy_seconds",
    "mean_degree",
    "mean_batch",
    "variant",
    "loss_rate",
    "facade_overhead",
    "distinct",
    "hit_rate",
    "store_hits",
    "passes",
    "auto_mode",
    "pool_seconds",
    "floor_skipped",
    "skip_reason",
)


def run_benchmarks(json_path: Path, quick: bool, keyword: str = "") -> int:
    """Run the benchmark files with a JSON export."""
    env_src = str(REPO_ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        env_src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else env_src
    )
    if quick:
        env["REPRO_BENCH_QUICK"] = "1"
    files = QUICK_BENCH_FILES if quick else BENCH_FILES
    command = [
        sys.executable,
        "-m",
        "pytest",
        *(str(BENCH_DIR / name) for name in files),
        "-q",
        "--benchmark-only",
        f"--benchmark-json={json_path}",
    ]
    if keyword:
        command.extend(["-k", keyword])
    completed = subprocess.run(command, cwd=REPO_ROOT, env=env)
    return completed.returncode


def trim(raw: dict) -> list:
    """Reduce the pytest-benchmark export to the perf-trajectory rows."""
    rows = []
    for entry in raw.get("benchmarks", []):
        name = entry.get("name", "")
        if not name.startswith(FASTPATH_PREFIXES):
            continue
        info = entry.get("extra_info", {})
        stats = entry.get("stats", {})
        mean = stats.get("mean")
        rounds = info.get("measured_rounds")
        batch = info.get("batch")
        row = {
            "benchmark": name,
            "n": info.get("nodes"),
            "backend": info.get("backend"),
            "mean_seconds": mean,
            "min_seconds": stats.get("min"),
            "rounds_per_sec": (
                round(rounds / mean, 1) if rounds and mean else None
            ),
        }
        if batch and mean:
            row["runs_per_sec"] = round(batch / mean, 1)
        if "speedup" in info and "baseline" in info:
            # A row that names its baseline records the ratio under it.
            row[f"speedup_vs_{info['baseline']}"] = info["speedup"]
        elif "speedup" in info:
            # Rows without a named baseline share the extra_info key:
            # PR 1's scaling rows measure against the reference
            # simulator and the parallel rows against the serial sweep
            # -- name them apart in the trajectory.
            if name.startswith(("test_ext_par_", "test_ext_api_")):
                row["speedup_vs_serial"] = info["speedup"]
            elif name.startswith("test_ext_cache_"):
                # The cache rows measure the cache-equipped service
                # against the same service without a cache.
                row["speedup_vs_uncached"] = info["speedup"]
            elif name.startswith("test_ext_var_") and "parallel" in name:
                # The variant pool row measures against the serial
                # fast-path survey, not the reference engine.
                row["speedup_vs_serial"] = info["speedup"]
            else:
                row["speedup_vs_reference"] = info["speedup"]
        for key in EXTRA_ROW_KEYS:
            if key in info:
                row[key] = info[key]
        rows.append(row)
    rows.sort(
        key=lambda r: (r["benchmark"], str(r["backend"]), r["n"] or 0)
    )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_fastpath.json",
        help="where to write the trimmed trajectory (default: repo root)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "smoke mode: scaled-down parallel workload, assertions still "
            "run, trajectory file NOT rewritten"
        ),
    )
    parser.add_argument(
        "--summary",
        type=Path,
        default=None,
        help=(
            "also write the trimmed rows of THIS run to the given path "
            "(works in --quick mode too; this is the CI smoke artifact, "
            "separate from the committed trajectory)"
        ),
    )
    parser.add_argument(
        "-k",
        dest="keyword",
        default="",
        metavar="EXPR",
        help="forwarded to pytest -k (select a benchmark subset)",
    )
    args = parser.parse_args(argv)
    # Fail before the (slow) benchmark run, not after it.
    args.output.parent.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        code = run_benchmarks(json_path, quick=args.quick, keyword=args.keyword)
        if code != 0:
            print("benchmark run failed", file=sys.stderr)
            return code
        # pytest exiting 0 without a usable export means nothing ran
        # (pytest-benchmark pre-creates the file but leaves it empty
        # when every benchmark was skipped/deselected) -- that must
        # not pass as a green smoke lane.
        try:
            raw = json.loads(json_path.read_text())
        except (OSError, json.JSONDecodeError):
            print("benchmark run produced no JSON export", file=sys.stderr)
            return 1

    rows = trim(raw)
    if args.summary is not None:
        summary = {
            "mode": "quick" if args.quick else "full",
            "machine": raw.get("machine_info", {})
            .get("cpu", {})
            .get("brand_raw"),
            "python": raw.get("machine_info", {}).get("python_version"),
            "rows": rows,
        }
        args.summary.parent.mkdir(parents=True, exist_ok=True)
        args.summary.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote run summary ({len(rows)} rows) to {args.summary}")
    if args.quick:
        print(
            f"smoke run ok: {len(rows)} rows verified "
            f"(trajectory file left untouched)"
        )
        return 0
    payload = {
        "suite": "bench_scaling+bench_parallel+bench_service",
        "machine": raw.get("machine_info", {}).get("cpu", {}).get("brand_raw"),
        "python": raw.get("machine_info", {}).get("python_version"),
        "rows": rows,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
