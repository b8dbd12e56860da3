"""Every trajectory-scoped bench family has a committed row.

``BENCH_fastpath.json`` is the perf trajectory later changes diff
against.  A ``test_ext_*`` benchmark that ``run_bench.py`` would record
(its name matches ``FASTPATH_PREFIXES``) but that has no row in the
committed file is a perf surface with no baseline: its first regression
is invisible.  The families are the ones pytest actually collects from
``BENCH_FILES`` -- not names found by pattern in the source -- so a
parametrized, generated or renamed benchmark counts exactly as the
runner sees it.  Always-skipped families are declared in
``TRAJECTORY_OPTIONAL``, and every declaration must name a collected
family.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"


def _load_runner():
    spec = importlib.util.spec_from_file_location(
        "run_bench", BENCH_DIR / "run_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUNNER = _load_runner()


def collected_families():
    """The ``test_ext_*`` families pytest collects from ``BENCH_FILES``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [
            sys.executable, "-m", "pytest", "--collect-only", "-q",
            "-p", "no:cacheprovider",
            *(str(BENCH_DIR / name) for name in RUNNER.BENCH_FILES),
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    families = set()
    for line in completed.stdout.splitlines():
        if "::" not in line:
            continue
        name = line.rsplit("::", 1)[1].split("[", 1)[0]
        if name.startswith("test_ext_"):
            families.add(name)
    return families


def committed_families():
    payload = json.loads((REPO_ROOT / "BENCH_fastpath.json").read_text())
    return {row["benchmark"].split("[", 1)[0] for row in payload["rows"]}


def test_every_trajectory_family_has_a_row_or_is_optional():
    families = collected_families()
    recorded = {
        name for name in families
        if name.startswith(RUNNER.FASTPATH_PREFIXES)
    }
    assert recorded, "no trajectory-scoped bench family was collected"
    optional = set(RUNNER.TRAJECTORY_OPTIONAL)
    missing = sorted(recorded - committed_families() - optional)
    assert not missing, (
        f"bench families {missing} match FASTPATH_PREFIXES but have no row "
        f"in BENCH_fastpath.json; regenerate the trajectory or declare them "
        f"in TRAJECTORY_OPTIONAL"
    )
    stale = sorted(optional - recorded)
    assert not stale, (
        f"TRAJECTORY_OPTIONAL names {stale}, which matches no collected "
        f"trajectory-scoped bench family; remove the stale entries"
    )
