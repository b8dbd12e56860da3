"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_long --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run and writes its spans under
``.bench_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds context (sample counts, open-loop accounting,
the calibration loop).  The exit code is 0 only when every checked
result was correct; 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(
            f"perfbench: imported repro from {repro.__file__}, not from {source}",
            file=sys.stderr,
        )
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        spans = os.path.join(
            ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
        metrics, context, attempted, failed = workloads.per_layer(
            workload, args.seconds, spans
        )
        context["spans_file"] = os.path.relpath(spans, ROOT)
    else:
        metrics, context, attempted, failed = workloads.end_to_end(
            workload, args.seconds
        )
    correct = failed == 0
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
