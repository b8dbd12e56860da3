"""REP102: an ``await`` between registering a future and protecting it.

Companion to REP101.  Registering a pending future into a shared table
publishes it: from that statement on, other coroutines can join it and
depend on its settlement.  An ``await`` in the gap between the
registration and the start of the structure that guarantees settlement
(the covering ``try``, or the settle/hand-off itself) is a suspension
point where a cancellation or timeout can abandon the coroutine *while
the table already holds the future* -- the guard never runs and the
joiners hang.  ``FloodService._submit`` hands each pending future to
its request before its first ``await`` and publishes the leaders into
the shared in-flight table on the statement before its guarded
admission ``try``, for exactly this reason.

Flagged: every ``await`` expression lexically strictly between a
future's first registration and its first protection point within the
same function scope.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.lint.findings import Finding
from repro.lint.flow import (
    FunctionNode,
    FutureFlow,
    future_flows,
    iter_functions,
    scope_tries,
    try_body_span,
    uncovered_handlers,
    walk_scope,
)
from repro.lint.registry import FileContext, Rule, register_rule

RULE_ID = "REP102"


def _protection_line(func: FunctionNode, flow: FutureFlow) -> Optional[int]:
    """The first line at/after registration where settlement is assured.

    Candidates: the first settle, the first hand-off, and the start of
    the first ``try`` whose body overlaps the at-risk window and whose
    every handler covers the future.  ``None`` when nothing protects it
    (then REP101 already owns the complaint; no window to measure).
    """
    first_registration = flow.first_registration()
    if first_registration is None:
        return None
    candidates: List[int] = []
    candidates.extend(
        line for line in flow.settles if line >= first_registration
    )
    candidates.extend(
        line for line in flow.handoffs if line >= first_registration
    )
    for try_node in scope_tries(func):
        body_start, body_end = try_body_span(try_node)
        if body_end < first_registration or body_start > flow.end_line():
            continue
        if not uncovered_handlers(try_node, flow.name):
            candidates.append(try_node.lineno)
    return min(candidates) if candidates else None


def check(tree: ast.Module, ctx: FileContext) -> Iterable[Finding]:
    findings: List[Finding] = []
    for func in iter_functions(tree):
        flows = [
            flow
            for flow in future_flows(func)
            if flow.first_registration() is not None
        ]
        if not flows:
            continue
        awaits = [
            node for node in walk_scope(func) if isinstance(node, ast.Await)
        ]
        for flow in flows:
            registration = flow.first_registration()
            assert registration is not None
            protection = _protection_line(func, flow)
            if protection is None:
                continue
            for node in awaits:
                if registration < node.lineno < protection:
                    findings.append(
                        Finding(
                            path=ctx.path,
                            line=node.lineno,
                            col=node.col_offset + 1,
                            rule=RULE_ID,
                            message=(
                                f"await between registering future "
                                f"{flow.name!r} (line {registration}) and "
                                f"its settlement guard (line {protection}); "
                                "a cancellation here abandons the "
                                "registered future -- register immediately "
                                "before the guarded block"
                            ),
                        )
                    )
    return findings


register_rule(
    Rule(
        rule_id=RULE_ID,
        name="await-in-window",
        summary=(
            "an await sits between a pending-future registration and its "
            "settlement guard"
        ),
        check=check,
    )
)
