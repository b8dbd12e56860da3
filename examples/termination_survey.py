#!/usr/bin/env python3
"""Typical-case termination: the survey a full evaluation would print.

The paper proves worst cases (e(v) exactly on bipartite graphs, 2D + 1
on the rest).  This example measures *typical* behaviour across random
graph ensembles and charts where real topologies live inside the proven
window — then runs the paper's headline batch experiment, an all-pairs
termination census, through the sharded multi-core sweep pool
(:mod:`repro.parallel`), and zooms into a single flood's per-round
heartbeat.

Run:  python examples/termination_survey.py

Expected runtime: ~10-20 s end to end on one core; the all-pairs
section (2016 two-source floods on a 64-node graph) is the part that
scales with the machine — it shards across every usable core via
``parallel_sweep`` on the auto-selected frontier engine, so on a 4-core
box it finishes ~4x sooner than the same loop run serially.
"""

import time

from repro.apps import broadcast_matrix, matrix_table
from repro.core import all_pairs_termination
from repro.experiments import check_survey_invariants, run_survey, survey_table
from repro.graphs import cycle_graph, diameter, erdos_renyi, petersen_graph
from repro.parallel import worker_count
from repro.viz import bar_chart, profile_chart


def main() -> None:
    print("=== termination-time survey (seeded ensembles, 8 samples each) ===")
    print()
    cells = run_survey(sizes=(16, 32, 64), samples=8, base_seed=2019)
    print(survey_table(cells))
    violations = check_survey_invariants(cells)
    assert not violations, violations
    print()
    print(
        "every cell sits inside the paper's window: rounds/D is exactly <= 1\n"
        "for trees (Lemma 2.1, since e(v) <= D) and never above 3 anywhere\n"
        "(Theorem 3.3's 2D + 1 bound)."
    )

    print()
    print("=== mean rounds by family at n = 64 ===")
    print()
    at_64 = {c.family: c.rounds.mean for c in cells if c.size == 64}
    print(bar_chart(at_64, unit="rounds"))

    print()
    print("=== all-pairs termination, sharded across the machine ===")
    print()
    graph = erdos_renyi(64, 8 / 64, seed=2019, connected=True)
    started = time.perf_counter()
    pairs = all_pairs_termination(graph)  # one parallel_sweep inside
    elapsed = time.perf_counter() - started
    rounds = [r for _, r in pairs]
    bound = 2 * diameter(graph) + 1
    print(
        f"{len(pairs)} two-source floods on {graph.describe()} in "
        f"{elapsed:.2f}s across {worker_count()} worker(s)"
    )
    print(
        f"termination rounds: min {min(rounds)}, max {max(rounds)}, "
        f"mean {sum(rounds) / len(rounds):.2f} (2D + 1 bound: {bound})"
    )
    assert max(rounds) <= bound
    spread_out = max(pairs, key=lambda item: item[1])
    print(f"slowest pair: {spread_out[0]} at {spread_out[1]} rounds")

    print()
    print("=== the flood's heartbeat: per-round message load ===")
    print()
    print("bipartite C12 (single BFS wave, stops at D):")
    print(profile_chart(cycle_graph(12), 0))
    print()
    print("odd C11 (two wavefronts circle until they cancel at 2D+1):")
    print(profile_chart(cycle_graph(11), 0))

    print()
    print("=== all five broadcast strategies on the Petersen graph ===")
    print()
    print(matrix_table(broadcast_matrix(petersen_graph(), 0, seed=7)))
    print()
    print(
        "amnesiac flooding: zero memory bits, no completion detection;\n"
        "echo pays roughly double the rounds to let the source *know*."
    )


if __name__ == "__main__":
    main()
