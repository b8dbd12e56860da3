"""The pluggable rule registry.

A rule is a :class:`Rule` descriptor plus a ``check`` callable.  Rule
modules under :mod:`repro.lint.rules` register themselves at import
time via :func:`register_rule`; anything else (a project-local plugin,
a test fixture rule) can do the same.  The registry is keyed by rule id
but only ever *iterated* through :func:`all_rules`, which sorts by id --
registration order must not leak into report order.

Scoping: a rule may declare ``scope`` path prefixes (POSIX, relative to
the package root, e.g. ``"repro/fastpath"``) and ``excludes``.  The
walker normalises every linted file to such a module path (the part of
the path from the last ``repro/`` segment onward) and asks
:meth:`Rule.applies_to` before running the rule, so determinism rules
that only bind to the execution substrate never fire on, say, the viz
layer.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.lint.findings import Finding


@dataclass(frozen=True)
class FileContext:
    """Everything a rule check sees about the file under analysis.

    ``path`` is the report path (as given on the command line);
    ``module_path`` is the scope-normalised path used for rule
    applicability (``repro/fastpath/engine.py``).  ``source_lines`` is
    the raw text split into lines, for rules that need lexical context.
    """

    path: str
    module_path: str
    source_lines: Tuple[str, ...]


CheckFn = Callable[[ast.Module, FileContext], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A registered analyzer rule.

    ``scope``/``excludes`` are module-path prefixes (see module
    docstring); an empty scope means the rule applies everywhere.  A
    prefix matches a whole path segment: ``repro/core`` matches
    ``repro/core/amnesiac.py`` but not ``repro/core_utils.py``.
    """

    rule_id: str
    name: str
    summary: str
    check: CheckFn
    scope: Tuple[str, ...] = ()
    excludes: Tuple[str, ...] = ()

    def applies_to(self, module_path: str) -> bool:
        if any(_prefix_matches(prefix, module_path) for prefix in self.excludes):
            return False
        if not self.scope:
            return True
        return any(_prefix_matches(prefix, module_path) for prefix in self.scope)


def _prefix_matches(prefix: str, module_path: str) -> bool:
    return module_path == prefix or module_path.startswith(prefix.rstrip("/") + "/")


_RULES: Dict[str, Rule] = {}
# repro-lint note: module-level registry by design -- populated once at
# import time by repro.lint.rules; repro/lint is outside REP007 scope.

# The suppression-hygiene pseudo-rule: emitted by the walker itself when
# a disable comment carries no justification.  It has an id so reports
# and docs can name it, but no check function and no ability to be
# suppressed (a bad suppression must not silence itself).
SUPPRESSION_RULE_ID = "REP000"


def register_rule(rule: Rule) -> Rule:
    """Add ``rule`` to the registry (duplicate ids are a programming error)."""
    if rule.rule_id in _RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    if rule.rule_id == SUPPRESSION_RULE_ID:
        raise ValueError(f"{SUPPRESSION_RULE_ID} is reserved for suppression hygiene")
    _RULES[rule.rule_id] = rule
    return rule


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id (the only iteration order)."""
    _ensure_builtin_rules()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def get_rule(rule_id: str) -> Optional[Rule]:
    _ensure_builtin_rules()
    return _RULES.get(rule_id)


def known_rule_ids() -> List[str]:
    """All ids a suppression or ``--rule`` filter may name (incl. REP000)."""
    _ensure_builtin_rules()
    return sorted([SUPPRESSION_RULE_ID, *_RULES])


def _ensure_builtin_rules() -> None:
    # Importing the rules package registers the built-in rule set; the
    # lazy import keeps registry importable from rule modules themselves.
    import repro.lint.rules  # noqa: F401


@dataclass
class RuleDoc:
    """Presentation metadata for ``--list-rules`` and the docs table."""

    rule_id: str
    name: str
    summary: str
    scope: Tuple[str, ...] = field(default_factory=tuple)


def rule_docs() -> List[RuleDoc]:
    docs = [
        RuleDoc(
            SUPPRESSION_RULE_ID,
            "suppression-hygiene",
            "a `# repro-lint: disable=...` comment has no `-- justification`",
        )
    ]
    docs.extend(
        RuleDoc(rule.rule_id, rule.name, rule.summary, rule.scope)
        for rule in all_rules()
    )
    return docs
