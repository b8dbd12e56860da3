# Developer/CI entry points for the flooding reproduction.
#
#   make test   - tier-1 verification (the gate every change keeps green)
#   make lint   - the one lint gate: repro.lint (stdlib-only, always
#                 runs) + ruff + mypy (both skipped with a notice when
#                 not installed; CI installs and enforces them)
#   make typecheck - mypy over src/repro (config in pyproject.toml)
#   make smoke  - CI smoke lane, cheapest and most telling checks
#                 first, so a broken binding or a wrong answer fails
#                 before the benchmark steps run: the oracle-reference
#                 subset (the per-source double-cover oracle pinned to
#                 the frontier engines and the explicit cover,
#                 fail-fast before the full suite), the numpy-batch
#                 equivalence subset (the word-packed numpy engine
#                 pinned bit-identical to the pure engine run for run,
#                 across word widths, bit positions, pool
#                 chunk sizes and budget cut-offs, with every value a
#                 Python int/bool) and the termination-lane subset
#                 (the termination-only cover sweep pinned to the full
#                 floods' rounds, and all_pairs_termination's routing
#                 onto it), fail-fast likewise, the
#                 cache-equivalence subset (cached/coalesced/persisted
#                 results pinned bit-identical to fresh execution,
#                 fail-fast likewise), the coalescing subset (one
#                 execution per in-flight key, counter attribution,
#                 a leader's failure settling its joiners, and a
#                 failed store write settling its batch,
#                 fail-fast likewise), the variant-equivalence subset
#                 (thinning, loss and k-memory on the shared round
#                 loop pinned bit-identical to their reference
#                 engines, fail-fast likewise), the scenario-
#                 equivalence subset (every built-in scenario's fast
#                 path pinned bit-identical to its set-based
#                 reference across budgets, seed streams, collection
#                 flags, worker counts and cache hits), the spec-
#                 contract and scenario-registry subset (every spec
#                 field reaches the digest or is excluded by name;
#                 every scenario binds to a variant or the plain
#                 process, a pinned seed= winning), fail-fast
#                 likewise, the entry-point subset (the session-
#                 equivalence matrix and the parallel_sweep suite:
#                 run_spec, sweep, parallel_sweep serial and pooled,
#                 the session and the service bit-identical per
#                 backend x variant kind x budget, so drift between
#                 entry points fails early), fail-fast likewise +
#                 the examples suite (the
#                 facade-based examples run whole per PR) + the
#                 perfbench self-tests (its tracer fails loudly when
#                 a repro name it instruments moves) + a traced
#                 one-second perfbench pass per workload (exits
#                 non-zero unless failed == 0: catches a deleted
#                 binding name or a wrong answer end to end); then
#                 the scaled-down benchmark run (assertions included,
#                 trajectory file untouched, summary written to
#                 $(SMOKE_SUMMARY) for the CI artifact), the benchmark
#                 drift check (quick summary vs the committed
#                 BENCH_fastpath.json; warns on >25% regressions,
#                 never fails and never rewrites the trajectory) + the
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
	$(PYTHON) -m pytest -x -q tests/fastpath/test_oracle_backend.py
	$(PYTHON) -m pytest -x -q tests/fastpath/test_numpy_batch.py tests/fastpath/test_termination_lane.py
	$(PYTHON) -m pytest -x -q tests/cache/test_cache_equivalence.py
	$(PYTHON) -m pytest -x -q tests/cache/test_coalescing.py
	$(PYTHON) -m pytest -x -q tests/variants/test_fastpath_equivalence.py
	$(PYTHON) -m pytest -x -q tests/variants/test_scenario_fastpath_equivalence.py
	$(PYTHON) -m pytest -x -q tests/api/test_spec_contracts.py tests/api/test_scenarios.py
	$(PYTHON) -m pytest -x -q tests/api/test_session_equivalence.py tests/parallel/test_parallel_sweep.py
	$(PYTHON) -m pytest -x -q tests/integration/test_examples.py
	$(PYTHON) -m pytest -x -q perfbench/tests
	for workload in sweep_long sweep_dense serve_trickle serve_zipf; do \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 7 \
			--seconds 1 --trace 1 || exit 1; \
	done
	$(PYTHON) benchmarks/run_bench.py --quick --summary $(SMOKE_SUMMARY)
	$(PYTHON) benchmarks/check_drift.py $(SMOKE_SUMMARY)
	$(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) benchmarks/run_bench.py

examples:
	$(PYTHON) -m pytest -x -q tests/integration/test_examples.py

example:
	$(PYTHON) examples/quickstart.py
