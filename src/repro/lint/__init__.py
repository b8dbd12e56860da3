"""repro.lint -- AST-based determinism & cross-process-safety analyzer.

The repo's correctness story is bit-identical equivalence across
engines, worker counts, and the service -- and three of five PRs
shipped fixes for nondeterminism bugs that tests could not see until
they bit (a salted ``hash()`` pickled into ``Graph._hash``, sequential
seed-stream drift, memo caches riding worker pickles, hard-coded round
budgets).  Every one of those is *statically detectable*.  This package
detects them, at ``make lint`` time, with stdlib ``ast`` only:

========  ===========================================================
REP000    suppression hygiene (disable comments need justifications)
REP001    builtin ``hash()`` flowing into pickled/stored/digest state
REP002    hash-ordered set iteration in result-producing code
REP003    ``random``/``numpy.random``/``secrets`` outside repro/rng.py
REP004    memo-cache attributes with no ``__getstate__`` strip
REP005    ``object.__setattr__`` on frozen dataclasses post-construction
REP006    integer-literal round/step budget defaults
REP007    wall-clock / module-level mutable state in worker modules
REP101    registered futures with settle-free ``except`` branches
REP102    ``await`` between future registration and settlement guard
REP103    blocking calls (``time.sleep``, file I/O...) in ``async def``
========  ===========================================================

Contracts that span modules -- every ``FloodSpec`` field reaching the
digest, every scenario and backend inside the equivalence matrix, every
trajectory bench family holding a committed row -- are not lint rules:
tier-1 tests check them at runtime, by behaviour (the table in
``docs/static-analysis.md`` names each test).

Usage::

    python -m repro.lint src/ [--rule REP001] [--format text|json|sarif]
    some_code()  # repro-lint: disable=REP002 -- why this is safe

The analyzer is itself deterministic: findings sort by ``(path, line,
col, rule)`` and nothing in the pipeline depends on ``PYTHONHASHSEED``
or directory walk order.  The full contract, rule rationale, and the
historical bug each rule encodes live in ``docs/determinism.md`` and
``docs/static-analysis.md``.
"""

from repro.lint.findings import Finding, sort_findings
from repro.lint.registry import Rule, all_rules, register_rule, rule_docs
from repro.lint.walker import lint_files, lint_paths, lint_source

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "lint_files",
    "lint_paths",
    "lint_source",
    "register_rule",
    "rule_docs",
    "sort_findings",
]
