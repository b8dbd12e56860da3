# Developer/CI entry points for the flooding reproduction.
#
#   make test   - tier-1 verification (the gate every change keeps green)
#   make lint   - the one lint gate: repro.lint (stdlib-only, always
#                 runs) + ruff + mypy (both skipped with a notice when
#                 not installed; CI installs and enforces them)
#   make typecheck - mypy over src/repro (config in pyproject.toml)
#   make smoke  - CI smoke lane: scaled-down benchmark run (assertions
#                 included, trajectory file untouched, summary written
#                 to $(SMOKE_SUMMARY) for the CI artifact), the
#                 benchmark drift check (quick summary vs the committed
#                 BENCH_fastpath.json; warns on >25% regressions, never
#                 fails and never rewrites the trajectory), the
#                 bitset-oracle equivalence subset (the word-packed
#                 cover sweep pinned bit-identical to the per-source
#                 oracle, fail-fast before the full suite), the
#                 cache-equivalence subset (cached/coalesced/persisted
#                 results pinned bit-identical to fresh execution,
#                 fail-fast likewise), the scenario-equivalence subset
#                 (every built-in scenario's fast path pinned
#                 bit-identical to its set-based reference across
#                 budgets, seed streams, worker counts and cache
#                 hits) + the examples suite (the
#                 facade-based examples run whole per PR) + the
#                 perfbench self-tests (its tracer fails loudly when
#                 a repro name it instruments moves) + a traced
#                 one-second perfbench pass per workload (exits
#                 non-zero unless failed == 0: catches a deleted
#                 binding name or a wrong answer end to end) + the
#                 tier-1 suite
#   make bench  - full benchmark run; rewrites BENCH_fastpath.json
#   make examples - the examples suite (quick examples run end-to-end)
#   make example- the quickstart example, as a living doc check

PYTHON ?= python
SMOKE_SUMMARY ?= smoke-summary.json
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint typecheck smoke bench example examples

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.lint src
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "ruff is not installed -- skipping ruff (CI enforces it;"; \
		echo "install with: pip install ruff)"; \
	fi
	@$(MAKE) --no-print-directory typecheck

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "mypy is not installed -- skipping typecheck (CI enforces it;"; \
		echo "install with: pip install mypy)"; \
	fi

smoke:
	$(PYTHON) benchmarks/run_bench.py --quick --summary $(SMOKE_SUMMARY)
	$(PYTHON) benchmarks/check_drift.py $(SMOKE_SUMMARY)
	$(PYTHON) -m pytest -x -q tests/fastpath/test_bitset_oracle.py
	$(PYTHON) -m pytest -x -q tests/cache/test_cache_equivalence.py
	$(PYTHON) -m pytest -x -q tests/variants/test_scenario_fastpath_equivalence.py
	$(PYTHON) -m pytest -x -q tests/integration/test_examples.py
	$(PYTHON) -m pytest -x -q perfbench/tests
	for workload in sweep_long sweep_dense serve_trickle serve_zipf; do \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 7 \
			--seconds 1 --trace 1 || exit 1; \
	done
	$(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) benchmarks/run_bench.py

examples:
	$(PYTHON) -m pytest -x -q tests/integration/test_examples.py

example:
	$(PYTHON) examples/quickstart.py
