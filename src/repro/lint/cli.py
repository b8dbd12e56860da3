"""The ``python -m repro.lint`` command line.

Runs the per-file AST rules over every discovered ``.py`` file;
``--changed-only`` scopes the run to git's working-tree delta.

Exit codes follow the convention of the other gates in this repo:

* ``0`` -- clean (no unsuppressed, unbaselined findings)
* ``1`` -- findings reported
* ``2`` -- usage or I/O error (unknown rule id, unreadable baseline,
  ``--changed-only`` outside a git checkout...)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.changed import ChangedOnlyError, restrict_to_changed
from repro.lint.registry import known_rule_ids, rule_docs
from repro.lint.report import (
    render_github,
    render_json,
    render_sarif,
    render_text,
)
from repro.lint.walker import discover_files, lint_files

_RENDERERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
    "github": render_github,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism and cross-process-safety analyzer for "
            "the flooding reproduction (rules REP001-REP103; see "
            "docs/determinism.md and docs/static-analysis.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="REPxxx",
        help="restrict to one rule id (repeatable)",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help=(
            "only files git reports changed vs HEAD (plus untracked)"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="subtract the findings recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write the (post-suppression) findings as a new baseline and exit 0",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif", "github"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for doc in rule_docs():
        scope = f" [scope: {', '.join(doc.scope)}]" if doc.scope else ""
        lines.append(f"{doc.rule_id}  {doc.name}: {doc.summary}{scope}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        sys.stdout.write(_list_rules())
        return 0
    rules: Optional[List[str]] = options.rules
    if rules is not None:
        known = known_rule_ids()
        unknown = sorted(set(rules) - set(known))
        if unknown:
            names = ", ".join(repr(rule_id) for rule_id in unknown)
            sys.stderr.write(
                f"repro.lint: unknown rule {names}; "
                f"known rules: {', '.join(known)}\n"
            )
            return 2
    try:
        files = discover_files(options.paths)
    except (FileNotFoundError, OSError) as exc:
        sys.stderr.write(f"repro.lint: {exc}\n")
        return 2
    if options.changed_only:
        try:
            files = restrict_to_changed(files)
        except ChangedOnlyError as exc:
            sys.stderr.write(f"repro.lint: {exc}\n")
            return 2
    try:
        findings = lint_files(files, rules)
    except OSError as exc:
        sys.stderr.write(f"repro.lint: {exc}\n")
        return 2
    if options.write_baseline:
        write_baseline(options.write_baseline, findings)
        sys.stderr.write(
            f"repro.lint: wrote {len(findings)} findings to "
            f"{options.write_baseline}\n"
        )
        return 0
    if options.baseline:
        try:
            baselined = load_baseline(options.baseline)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"repro.lint: {exc}\n")
            return 2
        findings = apply_baseline(findings, baselined)
    rendered = _RENDERERS[options.format](findings, len(files))
    if options.output:
        with open(options.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 1 if findings else 0
