"""Re-pin the simulated statistics the benchmark checks on its default seed.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs one pass of each named workload (all by default) on
``workloads.DEFAULT_SEED`` and writes every op's simulated statistics
(throughput, latencies, blocks and transactions decided, 2PC outcomes)
to ``pins.json``.  No block digest is pinned, so a change of encoding
that keeps the committed sequence keeps passing.  Re-pin only when a
change is meant to alter what the simulation decides, and say so.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    names = argv or sorted(workloads.WORKLOADS)
    pins = json.loads(run.PINS.read_text()) if run.PINS.is_file() else {}
    for name in names:
        workload = workloads.WORKLOADS[name]()
        run.warm_up(workload, workloads.DEFAULT_SEED)
        result = run.in_child(run.run_pass, workload, workload.ops(workloads.DEFAULT_SEED))
        failed, problems = run.pass_failures(result)
        if failed or problems:
            print(f"{name}: not pinned, the pass failed: {problems[:5]}", file=sys.stderr)
            return 1
        pins[name] = [{"label": r["label"], "stats": r["stats"]} for r in result["records"]]
        print(f"{name}: pinned {len(pins[name])} ops")
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
