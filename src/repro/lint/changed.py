"""``--changed-only``: scope the file pass to what git says moved.

The pre-commit hook runs the analyzer on every commit; linting the
whole tree there is wasted latency when every rule is per-file.  This
module asks git for the working-tree delta -- files changed against
``HEAD`` plus untracked files -- and the CLI restricts the rules to
that set.

Scoping is a filter, never a discovery mechanism: the changed set is
intersected with the files the path arguments already selected, so
``--changed-only src`` cannot drag in an edited test file.  Git being
unavailable or the tree not being a repository is a usage error
(:class:`ChangedOnlyError` -> exit 2), not a silent full run.
"""

from __future__ import annotations

import os
import subprocess
from typing import List, Sequence, Set


class ChangedOnlyError(Exception):
    """--changed-only could not determine the changed set."""


def _git_lines(arguments: Sequence[str], cwd: str) -> List[str]:
    try:
        completed = subprocess.run(
            ["git", *arguments],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError as exc:
        raise ChangedOnlyError(f"--changed-only needs git: {exc}") from exc
    if completed.returncode != 0:
        detail = completed.stderr.strip() or f"git exited {completed.returncode}"
        raise ChangedOnlyError(f"--changed-only: {detail}")
    return [line for line in completed.stdout.splitlines() if line]


def changed_files(cwd: str = ".") -> Set[str]:
    """Absolute paths of files changed vs HEAD, plus untracked files."""
    top = _git_lines(["rev-parse", "--show-toplevel"], cwd)
    if not top:
        raise ChangedOnlyError("--changed-only: not inside a git repository")
    root = top[0]
    names = _git_lines(["diff", "--name-only", "HEAD"], cwd)
    names += _git_lines(
        ["ls-files", "--others", "--exclude-standard"], cwd
    )
    return {os.path.abspath(os.path.join(root, name)) for name in names}


def restrict_to_changed(files: Sequence[str], cwd: str = ".") -> List[str]:
    """The subset of ``files`` git reports as changed (order preserved)."""
    changed = changed_files(cwd)
    return [
        filename
        for filename in files
        if os.path.abspath(filename) in changed
    ]
