"""Tier-1 self-lint: the committed tree stays at zero findings.

This is the ratchet that keeps the burn-down burned down: every rule
over every file under ``src/``, no baseline, and any unsuppressed
finding fails the suite with its exact location.  The analyzer's own
package is included -- it lints itself.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_tree_has_zero_findings():
    findings = lint_paths([str(REPO_ROOT / "src")])
    assert findings == [], "\n" + "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in findings
    )


def test_the_committed_baseline_policy_is_no_baseline():
    """The adopt-then-ratchet baseline flag exists for forks; this repo
    ships none (docs/determinism.md) -- guard against one sneaking in."""
    assert not list(REPO_ROOT.glob("*lint*baseline*"))
    assert not (REPO_ROOT / ".repro-lint-baseline.json").exists()
