"""The built-in rule set.

Importing this package registers every built-in rule with
:mod:`repro.lint.registry` (each module calls ``register_rule`` at
import time).  Report order never depends on this import order -- the
registry sorts by rule id -- but the explicit list keeps the rule set
greppable and the imports deliberate.
"""

from repro.lint.rules import (  # noqa: F401
    rep001_hash_persistence,
    rep002_unordered_iteration,
    rep003_rng_discipline,
    rep004_pickled_caches,
    rep005_frozen_mutation,
    rep006_literal_budgets,
    rep007_process_state,
    rep101_unsettled_futures,
    rep102_await_in_window,
    rep103_blocking_async,
)
