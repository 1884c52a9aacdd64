"""Show that the benchmark's gates can fail, and in the right workload.

    python3 perfbench/selftest.py

Two cases, each measured against an unchanged baseline in the same
process (passes are forked from it, as in ``run.py``):

1. *Slower block hashing.*  ``Block.hash`` is wrapped with a busy wait
   of ``HASH_DELAY_PER_TX_S`` per transaction of the block, as a hash
   that costs more per byte would.  ``chain-long`` (400-transaction
   blocks, hashing-bound) must worsen by more than the ``wall_s``
   bound; ``shard-2pc`` (about 24 transactions per block) must worsen
   by less than a third of that.  A delay per *call* would not do:
   ``shard-2pc`` hashes twice as many (small) blocks as ``chain-long``.
2. *Slower set-up.*  On ``fault-campaign`` the ``instrument`` callback
   the runner calls (the harness's, chained with the benchmark's hook)
   first waits ``INSTRUMENT_DELAY_S``.  ``setup_s`` must grow by at
   least half the injected total and ``wall_s`` by less than its bound.

Exits 0 when every case holds, 1 otherwise.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import run

HASH_DELAY_PER_TX_S = 8e-6
INSTRUMENT_DELAY_S = 0.002
#: fault-campaign scenarios used by case 2 (a prefix of the seed's ops).
CAMPAIGN_OPS = 150


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _measure(workload, ops, passes: int = 3) -> dict:
    """``wall_s`` and ``setup_s`` as ``run.py`` reports them."""
    results = [
        run.in_child(run.run_pass, workload, ops, speed_probe=True)
        for _ in range(passes)
    ]
    for r in results:
        failed, problems = run.pass_failures(r)
        if failed or problems:
            raise RuntimeError(f"{workload.name}: {problems[:3]}")
    return {key: run.op_median_sum(results, key) for key in ("wall_s", "setup_s")}


def _bounds() -> dict[str, float]:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def case_block_hash(workloads, bound: float) -> list[str]:
    from repro.smr.block import Block

    prop = Block.__dict__["hash"]
    moved = {}
    for name in ("chain-long", "shard-2pc"):
        workload = workloads.WORKLOADS[name]()
        run.warm_up(workload, workloads.DEFAULT_SEED)
        ops = workload.ops(workloads.DEFAULT_SEED)
        base = _measure(workload, ops)

        def slow_hash(block, _orig=prop.func):
            _spin(HASH_DELAY_PER_TX_S * len(block.txs))
            return _orig(block)

        slow = functools.cached_property(slow_hash)
        slow.__set_name__(Block, "hash")
        Block.hash = slow
        try:
            delayed = _measure(workload, ops)
        finally:
            Block.hash = prop
        moved[name] = delayed["wall_s"] / base["wall_s"] - 1.0
        print(f"block-hash delay: {name} wall_s {base['wall_s']:.3f} -> {delayed['wall_s']:.3f} s ({moved[name]:+.1%})")
    problems = []
    if moved["chain-long"] <= bound:
        problems.append(f"chain-long moved {moved['chain-long']:+.1%}, not beyond its {bound:.0%} bound")
    if moved["shard-2pc"] >= moved["chain-long"] / 3:
        problems.append(f"shard-2pc moved {moved['shard-2pc']:+.1%}, not far less than chain-long")
    return problems


def case_instrument(workloads, bound: float) -> list[str]:
    from repro.fuzz import harness

    workload = workloads.WORKLOADS["fault-campaign"]()
    run.warm_up(workload, workloads.DEFAULT_SEED)
    ops = workload.ops(workloads.DEFAULT_SEED)[:CAMPAIGN_OPS]
    base = _measure(workload, ops)
    runner = harness.run_experiment

    def delayed_runner(config, *args, instrument=None, **kwargs):
        def slow_instrument(*objs):
            _spin(INSTRUMENT_DELAY_S)
            instrument(*objs)

        return runner(config, *args, instrument=slow_instrument, **kwargs)

    harness.run_experiment = delayed_runner
    try:
        delayed = _measure(workload, ops)
    finally:
        harness.run_experiment = runner
    injected = INSTRUMENT_DELAY_S * len(ops)
    setup_moved = delayed["setup_s"] - base["setup_s"]
    wall_moved = delayed["wall_s"] / base["wall_s"] - 1.0
    print(
        f"instrument delay: fault-campaign setup_s {base['setup_s']:.3f} -> "
        f"{delayed['setup_s']:.3f} s (+{injected:.3f} s injected), wall_s "
        f"{base['wall_s']:.3f} -> {delayed['wall_s']:.3f} s ({wall_moved:+.1%})"
    )
    problems = []
    if setup_moved < injected / 2:
        problems.append(f"setup_s grew {setup_moved:.3f} s for {injected:.3f} s injected")
    if abs(wall_moved) >= bound:
        problems.append(f"wall_s moved {wall_moved:+.1%}, beyond its {bound:.0%} bound")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    bound = _bounds()["wall_s"]
    problems = case_block_hash(workloads, bound) + case_instrument(workloads, bound)
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
