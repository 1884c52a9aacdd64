"""Paper-scale benchmark of the OneShot reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and ``README.md``) in this
single-threaded process and prints, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

How a run goes:

1. Import the program from ``src/`` next to this directory.  Nothing
   before this point is timed: interpreter start and module import are
   not set-up.
2. Warm up, untimed, on inputs no timed op uses (another seed and
   payload), so lazy first-call initialisation is paid before timing
   and no digest memo holds a timed op's digests.
3. Run *passes*.  A pass runs every op of the workload once, in a
   forked child of the warmed process, so each pass starts from the
   same state and no memo carries over from one pass to the next.
   With ``--trace 0`` passes repeat until about ``--seconds`` have been
   measured; the end-to-end metrics are medians over passes.  With
   ``--trace 1`` one untraced pass gives the exact counters, one traced
   pass the per-layer self times (``spans.py``) and one pass under
   cProfile the fold the trace is cross-checked against.

Every pass of one seed must give identical exact counters; the traced
pass must give the same counters as the untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE.parent / ".perfbench"
PINS = HERE / "pins.json"

#: Largest gap, in share points, at which the traced smr+crypto share
#: and the cProfile fold's are reported to agree.  Both are timings on
#: a noisy machine, so the check is reported, not made part of
#: ``correct``, which is about the program's outputs.
SHARE_TOLERANCE = 0.05

# ----------------------------------------------------------------------
# Forked passes
# ----------------------------------------------------------------------
def in_child(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` in a forked child; return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            # Start the cyclic collector from the same state in every
            # child, whatever the parent allocated since the last fork:
            # no young objects, and no old ones its thresholds count.
            gc.collect()
            gc.freeze()
            gc.collect()
            payload = json.dumps(fn(*args, **kwargs)).encode()
        except BaseException:  # the child must always reach os._exit
            traceback.print_exc()
            payload, code = b"", 1
        try:
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as src:
        payload = src.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"pass process failed (wait status {status})")
    return json.loads(payload)


def run_pass(workload, ops, tracer=None, check=True, probes=True, speed_probe=False) -> dict:
    """Run every op once; failures are recorded, not raised.

    With ``probes``, an op's set-up time is the median of its own build
    and the workload's ``setup_repeats`` set-up-only builds before it.
    With ``speed_probe``, the machine's speed is sampled all through the
    pass (``speed.py``) and the op times exclude the sampling.

    Every op starts after a full collection, untimed: a finished run
    leaves its simulator, network and clusters as cyclic garbage, and
    the collection that frees it would otherwise land in whichever later
    op's set-up or run the collector's thresholds pick.
    """
    records = []
    with contextlib.ExitStack() as stack:
        probe = stack.enter_context(speed.SpeedProbe()) if speed_probe else None
        stack.enter_context(workload.pass_scope())
        for op in ops:
            try:
                builds = []
                for _ in range(workload.setup_repeats if probes else 0):
                    gc.collect()
                    builds.append(workload.setup_probe(op))
                gc.collect()
                record = workload.run_op(op)
                record["setup_s"] = statistics.median(builds + [record["setup_s"]])
                records.append(record)
            except Exception as exc:  # an op that raises is a failed op
                if tracer is not None:
                    tracer.unwind()
                records.append(
                    {
                        "label": repr(op),
                        "setup_s": 0.0,
                        "wall_s": 0.0,
                        "counters": {},
                        "stats": {},
                        "problems": [f"raised {type(exc).__name__}: {exc}"],
                    }
                )
    return {
        "records": records,
        "slowdown": probe.slowdown() if probe is not None else 1.0,
        "probes": len(probe.samples) if probe is not None else 0,
        "problems": workload.check_pass() if check else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(workload, ops, spans_path) -> dict:
    import spans
    import workloads

    tracer = spans.Tracer()
    spans.install(tracer)
    build = tracer.name_id(spans.BUILD_SPAN)
    start, built = workloads.Stopwatch.__init__, workloads.Stopwatch.built

    def start_traced(self, *args, **kwargs):
        start(self, *args, **kwargs)
        tracer.begin(build)

    def built_traced(self, *args):
        tracer.end()
        built(self, *args)

    workloads.Stopwatch.__init__ = start_traced
    workloads.Stopwatch.built = built_traced
    result = run_pass(workload, ops, tracer=tracer, probes=False)
    tracer.dump(spans_path)
    result["self_s"] = tracer.self_seconds()
    result["calls"] = dict(tracer.counts)
    result["spans"] = len(tracer.starts)
    result["child_cost_s"] = tracer.child_cost
    return result


def _package(filename: str) -> str:
    parts = Path(filename).parts
    if "repro" in parts:
        rest = parts[parts.index("repro") + 1 :]
        if rest:
            return rest[0].removesuffix(".py")
    return ""


def profile_costs(rounds: int = 5, calls: int = 200_000) -> tuple[float, float]:
    """cProfile's own time per profiled call: (caller's share, callee's).

    Profiling a loop of calls to an empty function shows both: the
    loop's self time grows by the caller's share per call and the empty
    function's self time is the callee's share.  Medians over rounds.
    """

    def noop() -> None:
        return None

    def loop() -> None:
        for _ in range(calls):
            noop()

    caller, callee = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        loop()
        bare = time.perf_counter() - t0
        prof = cProfile.Profile()
        prof.runcall(loop)
        by_name = {f[2]: v[2] for f, v in pstats.Stats(prof).stats.items()}
        caller.append(max(0.0, (by_name["loop"] - bare) / calls))
        callee.append(by_name["noop"] / calls)
    return statistics.median(caller), statistics.median(callee)


def profiled_pass(workload, ops) -> dict:
    """One pass under cProfile, self time folded by ``repro.<package>``.

    cProfile adds time to every call, so code that makes many small
    calls (the canonical encoder's recursion) looks busier than it is.
    Each function's self time is first corrected by the per-call cost
    :func:`profile_costs` measures, for the calls it received and the
    calls it made.  Time in functions outside the program (builtins such
    as the hashlib and hmac C code, the standard library) is then
    charged to the packages of their callers, in proportion to the time
    each caller spent in them, as a span's self time would be.
    """
    caller_cost, callee_cost = profile_costs()
    prof = cProfile.Profile()
    prof.enable()
    result = run_pass(workload, ops, probes=False)
    prof.disable()
    stats = pstats.Stats(prof).stats
    calls_made: dict = defaultdict(int)
    for _, (_, _, _, _, callers) in stats.items():
        for caller, (_, nc, _, _) in callers.items():
            calls_made[caller] += nc
    fold: dict[str, float] = defaultdict(float)
    for func, (_, nc, tottime, _, callers) in stats.items():
        own = max(0.0, tottime - nc * callee_cost - calls_made[func] * caller_cost)
        pkg = _package(func[0])
        if pkg:
            fold[pkg] += own
            continue
        by_caller = {c: v[3] for c, v in callers.items()}
        total = sum(by_caller.values())
        if total <= 0:
            fold["other"] += own
            continue
        for caller, cum in by_caller.items():
            fold[_package(caller[0]) or "other"] += own * cum / total
    result["fold"] = dict(fold)
    result["profile_costs_s"] = [caller_cost, callee_cost]
    return result


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
def load_pins(name: str) -> list:
    if not PINS.is_file():
        return []
    return json.loads(PINS.read_text()).get(name, [])


def _close(a, b) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def pin_problems(records: list, pins: list) -> list[str]:
    if len(pins) != len(records):
        return [f"{len(pins)} pinned ops for {len(records)} ops"]
    problems = []
    for rec, pin in zip(records, pins):
        if rec["label"] != pin["label"]:
            problems.append(f"op {rec['label']!r} pinned as {pin['label']!r}")
            continue
        for key, want in pin["stats"].items():
            got = rec["stats"].get(key)
            if got is None or not _close(got, want):
                problems.append(f"{rec['label']}: {key} = {got}, pinned {want}")
    return problems


def pass_failures(result: dict) -> tuple[int, list[str]]:
    """Failed ops and every problem of one pass."""
    failed = sum(1 for r in result["records"] if r["problems"])
    problems = [f"{r['label']}: {p}" for r in result["records"] for p in r["problems"]]
    return failed, problems + result["problems"]


def counters_of(result: dict) -> list:
    return [r["counters"] for r in result["records"]]


def totals(result: dict) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for c in counters_of(result):
        for k, v in c.items():
            out[k] += v
    return dict(out)


def op_median_sum(passes: list[dict], key: str) -> float:
    """Sum over ops of each op's median over passes, at unloaded speed.

    Each pass's times are divided by the machine's slowdown the speed
    probe measured during it (``speed.py``).  A burst of load slows the
    few ops that ran during it; the per-op median then drops them, where
    a median of pass totals would keep every pass's share of the burst.
    """
    per_op = zip(*([r[key] / p["slowdown"] for r in p["records"]] for p in passes))
    return sum(statistics.median(times) for times in per_op)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it."""
    if n < 11:
        return 100.0
    return 100.0 * (n - 10) / n


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[idx]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer_metrics(ref: dict, traced: dict, profiled: dict) -> dict:
    import spans

    t = totals(ref)
    blocks = max(1, t["blocks"])
    self_s = traced["self_s"]
    calls = traced["calls"]
    traced_total = sum(r["setup_s"] + r["wall_s"] for r in traced["records"])
    ref_wall = sum(r["wall_s"] for r in ref["records"])
    traced_wall = sum(r["wall_s"] for r in traced["records"])
    by_layer: dict[str, float] = defaultdict(float)
    for name, secs in self_s.items():
        by_layer[spans.layer_of(name)] += secs
    fold = profiled["fold"]
    submitted = t.get("2pc.submitted", 0)
    count = "count"
    m = {
        "sim.events_per_block": _metric(t["events"] / blocks, "1/block"),
        "sim.queue_s": _metric(self_s.get("sim.queue", 0.0), "s"),
        "net.msgs_per_block": _metric(t["messages"] / blocks, "1/block"),
        "net.bytes_per_block": _metric(t["bytes"] / blocks, "B/block"),
        "net.send_s": _metric(self_s.get("net.send", 0.0), "s"),
        "crypto.verify_s": _metric(self_s.get("crypto.verify", 0.0), "s"),
        "crypto.verifies_per_block": _metric(calls.get("verifies", 0) / blocks, "1/block"),
        "crypto.sign_s": _metric(self_s.get("crypto.sign", 0.0), "s"),
        "crypto.hash_s": _metric(self_s.get("crypto.hash", 0.0), "s"),
        "crypto.hashes_per_block": _metric(calls.get("hashes", 0) / blocks, "1/block"),
        "tee.ecalls_per_block": _metric(t["ecalls"] / blocks, "1/block"),
        "tee.ecall_s": _metric(self_s.get(spans.TEE_SPAN, 0.0), "s"),
        "protocols.handle_s": _metric(self_s.get(spans.HANDLER_SPAN, 0.0), "s"),
        "protocols.timeouts": _metric(t["timeouts"], count),
        "core.exec_kind.normal": _metric(t["exec.normal"], count),
        "core.exec_kind.piggyback": _metric(t["exec.piggyback"], count),
        "core.exec_kind.catchup": _metric(t["exec.catchup"], count),
        "smr.mint_s": _metric(self_s.get("smr.mint", 0.0), "s"),
        "smr.minted_per_decided_tx": _metric(
            calls.get("minted", 0) / max(1, t["txs"]), "1/tx"
        ),
        "smr.txs_per_block": _metric(t["txs"] / blocks, "1/block"),
        "smr.block_hash_s": _metric(self_s.get("smr.block_hash", 0.0), "s"),
        "smr.block_s": _metric(self_s.get("smr.block", 0.0), "s"),
        "smr.chain_s": _metric(self_s.get("smr.chain", 0.0), "s"),
        "smr.mempool_s": _metric(self_s.get("smr.mempool", 0.0), "s"),
        "smr.execute_s": _metric(self_s.get("smr.execute", 0.0), "s"),
        "smr.log_blocks_end": _metric(t["blocks"], count),
        "workload.slabs": _metric(t.get("slabs", 0), count),
        "workload.emit_s": _metric(self_s.get("workload.emit", 0.0), "s"),
        "shard.route_s": _metric(self_s.get("shard.route", 0.0), "s"),
        "shard.coordinator_s": _metric(self_s.get("shard.coordinator", 0.0), "s"),
        "shard.commit_ratio": _metric(
            t.get("2pc.committed", 0) / submitted if submitted else 0.0, "ratio"
        ),
        "metrics.record_s": _metric(self_s.get("metrics.record", 0.0), "s"),
        "fuzz.judge_s": _metric(self_s.get("fuzz.judge", 0.0), "s"),
        "experiments.build_s": _metric(self_s.get(spans.BUILD_SPAN, 0.0), "s"),
        "trace.overhead": _metric(traced_wall / ref_wall, "ratio"),
        "trace.coverage": _metric(sum(by_layer.values()) / traced_total, "ratio"),
        "trace.spans": _metric(traced["spans"], count),
        "trace.smr_crypto_share": _metric(
            (by_layer["smr"] + by_layer["crypto"]) / traced_total, "ratio"
        ),
        "profile.smr_crypto_share": _metric(
            (fold.get("smr", 0.0) + fold.get("crypto", 0.0)) / sum(fold.values()),
            "ratio",
        ),
    }
    return m


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def measure(workload, ops, seconds: float) -> list[dict]:
    """Forked passes until about ``seconds`` of them have run."""
    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        passes.append(in_child(run_pass, workload, ops, speed_probe=True))
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


def warm_up(workload, seed: int) -> None:
    run_pass(workload, workload.warmup_ops(seed), check=False, probes=False)
    gc.collect()
    gc.freeze()


def untraced_report(name: str, seed: int, passes: list[dict], ops: list, pins) -> dict:
    attempted = len(ops) * len(passes)
    failed = 0
    problems: list[str] = []
    for p in passes:
        f, probs = pass_failures(p)
        failed += f
        problems += probs
    first = counters_of(passes[0])
    if any(counters_of(p) != first for p in passes[1:]):
        problems.append("exact counters differ between passes of one seed")
    if pins is not None:
        problems += pin_problems(passes[0]["records"], pins)
    walls = [sum(r["wall_s"] for r in p["records"]) for p in passes]
    setups = [sum(r["setup_s"] for r in p["records"]) for p in passes]
    metrics = {
        "wall_s": _metric(op_median_sum(passes, "wall_s"), "s"),
        "setup_s": _metric(op_median_sum(passes, "setup_s"), "s"),
        "peak_rss_mb": _metric(max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    op_ms = [r["wall_s"] * 1e3 for p in passes for r in p["records"]]
    t = totals(passes[0])
    blocks = max(1, t["blocks"])
    q = tail_percentile(len(op_ms))
    info = {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "pass_wall_s": walls,
        "pass_setup_s": setups,
        "pass_slowdown": [p["slowdown"] for p in passes],
        "pass_probes": [p["probes"] for p in passes],
        "run_ms.p50": statistics.median(op_ms),
        f"run_ms.p{q:g}": _percentile(op_ms, q),
        "run_ms.samples": len(op_ms),
        "per_block": {k: v / blocks for k, v in t.items() if k != "blocks"},
        "counters": t,
        "problems": problems[:20],
    }
    return {"info": info, "correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_report(name: str, seed: int, workload, ops: list, pins) -> dict:
    spans_path = OUT_DIR / f"spans-{name}.npz"
    ref = in_child(run_pass, workload, ops)
    traced = in_child(traced_pass, workload, ops, spans_path)
    profiled = in_child(profiled_pass, workload, ops)
    failed = 0
    problems: list[str] = []
    for p in (ref, traced, profiled):
        f, probs = pass_failures(p)
        failed += f
        problems += probs
    if counters_of(traced) != counters_of(ref):
        problems.append("the traced pass's exact counters differ from the untraced pass's")
    if counters_of(profiled) != counters_of(ref):
        problems.append("the profiled pass's exact counters differ from the untraced pass's")
    if pins is not None:
        problems += pin_problems(ref["records"], pins)
    metrics = per_layer_metrics(ref, traced, profiled)
    gap = abs(
        metrics["trace.smr_crypto_share"]["value"]
        - metrics["profile.smr_crypto_share"]["value"]
    )
    info = {
        "workload": name,
        "seed": seed,
        "smr_crypto_share_gap": gap,
        "smr_crypto_share_agrees": gap <= SHARE_TOLERANCE,
        "spans_file": str(spans_path.relative_to(HERE.parent)),
        "self_s": traced["self_s"],
        "child_cost_s": traced["child_cost_s"],
        "profile_fold_s": profiled["fold"],
        "profile_costs_s": profiled["profile_costs_s"],
        "problems": problems[:20],
    }
    return {"info": info, "correct": not problems and failed == 0,
            "attempted": 3 * len(ops), "failed": failed, "metrics": metrics}


def spec_mismatch(metrics: dict, section: str) -> list[str]:
    """Differences between ``metrics`` and the names and units of
    ``section`` in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m["unit"] for name, m in metrics.items()}
    return [
        f"{name}: {got.get(name)!r} reported, {want.get(name)!r} specified"
        for name in sorted(want.keys() | got.keys())
        if want.get(name) != got.get(name)
    ]


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"known: {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    ops = workload.ops(args.seed)
    pins = load_pins(args.workload) if args.seed == workloads.DEFAULT_SEED else None
    warm_up(workload, args.seed)
    if args.trace:
        report = traced_report(args.workload, args.seed, workload, ops, pins)
    else:
        passes = measure(workload, ops, args.seconds)
        report = untraced_report(args.workload, args.seed, passes, ops, pins)
    info = report.pop("info")
    print(json.dumps(info, sort_keys=True))
    mismatch = spec_mismatch(report["metrics"], "per_layer" if args.trace else "end_to_end")
    if mismatch:
        print(f"error: metrics do not match BENCHMARK.json: {mismatch}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
