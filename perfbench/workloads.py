"""The four benchmark workloads.

A workload is a fixed list of *ops* made from the benchmark seed.  One
op is one run of the program through a public entry point: a Fig. 7
point (``run_experiment``), a long chain (``run_experiment``), a fuzz
scenario (``generate_scenario`` then ``run_scenario``) or a shard point
(``run_sharded``).  :meth:`Workload.run_op` times an op in two parts:

* set-up: from before the op's inputs are made (config, scenario) until
  the run's ``instrument`` hook fires, after the simulator, network,
  key rings, enclaves and clusters are built and before the first
  simulated event;
* wall: from that hook until the entry point returns.

It also reads the op's exact work counters from public attributes
(``Simulator.events_executed``, ``Network.messages_sent/bytes_sent``,
``Enclave.ecalls``, ``ExecutionLog.txs_executed``) and the simulated
statistics that are pinned for the default seed.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig7 import (
    PAPER_F_VALUES,
    PAPER_PAYLOADS,
    PROTOCOLS,
    Fig7Result,
    check_shape,
)
from repro.experiments.runner import run_experiment
from repro.experiments.shard import run_sharded
from repro.fuzz import harness as fuzz_harness
from repro.fuzz.generator import generate_scenario
from repro.smr.execution import prefix_agreement
from repro.tee.enclave import Enclave
from speed import clock

#: The seed whose simulated statistics are pinned in ``pins.json``.
DEFAULT_SEED = 0

#: Payload of every warm-up run.  No timed op uses it, so the digests
#: the warm-up memoizes (block digests cover the payload size) are never
#: the ones a timed op looks up.
WARMUP_PAYLOAD = 7


class BuildProbe(Exception):
    """Raised from the instrument hook to stop a set-up-only repeat."""


class Stopwatch:
    """Set-up / wall split of one op; ``built`` is the instrument hook.

    With ``probe`` set, ``built`` raises :class:`BuildProbe` once the
    run is built, so the op's set-up is measured and nothing is run.
    """

    def __init__(self, probe: bool = False) -> None:
        self.probe = probe
        self.t0 = clock()
        self.t1: Optional[float] = None
        self.t2: Optional[float] = None
        self.run_objects: tuple = ()

    def built(self, sim, networks, clusters) -> None:
        self.t1 = clock()
        self.run_objects = (sim, networks, clusters)
        if self.probe:
            raise BuildProbe

    def stop(self) -> None:
        """Called as soon as the entry point returns."""
        self.t2 = clock()

    def split(self) -> tuple[float, float]:
        if self.t1 is None or self.t2 is None:
            raise RuntimeError("the run returned without calling its instrument hook")
        return self.t1 - self.t0, self.t2 - self.t1


def _enclaves(replica) -> list[Enclave]:
    return [v for v in vars(replica).values() if isinstance(v, Enclave)]


def read_counters(sim, networks, clusters, reference_pid: int) -> dict[str, int]:
    """Exact work counters of one finished run (all public attributes)."""
    refs = [c.replicas[reference_pid] for c in clusters]
    kinds: Counter = Counter()
    for c in clusters:
        kinds.update(c.collector.execution_kinds().values())
    return {
        "events": sim.events_executed,
        "messages": sum(n.messages_sent for n in networks),
        "bytes": sum(n.bytes_sent for n in networks),
        "ecalls": sum(
            e.ecalls for c in clusters for r in c.replicas for e in _enclaves(r)
        ),
        "blocks": sum(len(r.log) for r in refs),
        "txs": sum(r.log.txs_executed for r in refs),
        "timeouts": sum(c.collector.timeouts() for c in clusters),
        "exec.normal": kinds["normal"],
        "exec.piggyback": kinds["piggyback"],
        "exec.catchup": kinds["catchup"],
    }


def _run_stats(stats) -> dict[str, float]:
    return {
        "throughput_tps": stats.throughput_tps,
        "mean_latency_s": stats.mean_latency_s,
        "p50_latency_s": stats.p50_latency_s,
        "p99_latency_s": stats.p99_latency_s,
        "blocks_decided": stats.blocks_decided,
        "txs_decided": stats.txs_decided,
    }


def _op_record(label: str, sw: Stopwatch, counters: dict, stats: dict, problems) -> dict:
    setup_s, wall_s = sw.split()
    return {
        "label": label,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "counters": counters,
        "stats": stats,
        "problems": list(problems),
    }


class Workload:
    """One benchmark workload: ops made from a seed, run and checked.

    ``setup_repeats`` extra set-up-only builds of each op are made in
    every pass, for workloads whose ops are too few for a steady median
    of set-up time.
    """

    name = ""
    setup_repeats = 0

    def ops(self, seed: int) -> list:
        raise NotImplementedError

    def warmup_ops(self, seed: int) -> list:
        raise NotImplementedError

    def run_op(self, op) -> dict:
        raise NotImplementedError

    def build_op(self, op, sw: Stopwatch):
        """Make the op's inputs and run it with ``sw`` as its hook."""
        raise NotImplementedError

    def setup_probe(self, op) -> float:
        """Set-up seconds of one set-up-only build of ``op``."""
        sw = Stopwatch(probe=True)
        try:
            self.build_op(op, sw)
        except BuildProbe:
            return sw.t1 - sw.t0
        raise RuntimeError("the run returned without calling its instrument hook")

    @contextmanager
    def pass_scope(self) -> Iterator[None]:
        """Entered around every pass (warm-up included)."""
        yield

    def check_pass(self) -> list[str]:
        """Checks over a whole pass, after its last op."""
        return []


def _target_problem(cfg: ExperimentConfig, run) -> list[str]:
    done = len(run.cluster.replicas[0].log)
    target = cfg.target_blocks + cfg.warmup_blocks
    if done < target:
        return [f"stopped at {done}/{target} blocks (max_sim_time {cfg.max_sim_time}s)"]
    return []


class PaperWorld(Workload):
    """The world Fig. 7 panel: f in {1,2,4,10,20,30} x {0 B, 256 B} x 3."""

    name = "paper-world"
    target_blocks = 10

    def __init__(self) -> None:
        self._panel: Optional[Fig7Result] = None

    def ops(self, seed: int) -> list:
        return [
            (protocol, f, payload, seed, self.target_blocks)
            for payload in PAPER_PAYLOADS
            for protocol in PROTOCOLS
            for f in PAPER_F_VALUES
        ]

    def warmup_ops(self, seed: int) -> list:
        return [(p, 1, WARMUP_PAYLOAD, seed + 1, 3) for p in PROTOCOLS]

    @contextmanager
    def pass_scope(self) -> Iterator[None]:
        self._panel = Fig7Result(
            deployment="world", f_values=PAPER_F_VALUES, payloads=PAPER_PAYLOADS
        )
        yield

    def run_op(self, op) -> dict:
        protocol, f, payload, seed, target = op
        sw = Stopwatch()
        cfg = ExperimentConfig(
            protocol=protocol,
            f=f,
            payload_bytes=payload,
            deployment="world",
            target_blocks=target,
            seed=seed,
        )
        run = run_experiment(cfg, instrument=sw.built)
        sw.stop()
        record = _op_record(
            f"{protocol} f={f} {payload}B",
            sw,
            read_counters(run.sim, [run.network], [run.cluster], 0),
            _run_stats(run.stats),
            _target_problem(cfg, run),
        )
        self._panel.runs.setdefault((protocol, payload), {})[f] = run.stats
        return record

    def check_pass(self) -> list[str]:
        return [f"check_shape: {p}" for p in check_shape(self._panel)]


class ChainLong(Workload):
    """One saturated OneShot chain at f=1 over 2 ms local links."""

    name = "chain-long"
    target_blocks = 2000
    setup_repeats = 8

    def ops(self, seed: int) -> list:
        return [(seed, self.target_blocks, 0)]

    def warmup_ops(self, seed: int) -> list:
        return [(seed + 1, 20, WARMUP_PAYLOAD)]

    def _config(self, op) -> ExperimentConfig:
        seed, target, payload = op
        return ExperimentConfig(
            protocol="oneshot",
            f=1,
            payload_bytes=payload,
            deployment="local",
            local_latency_s=0.002,
            target_blocks=target,
            seed=seed,
        )

    def build_op(self, op, sw: Stopwatch):
        return run_experiment(self._config(op), instrument=sw.built)

    def run_op(self, op) -> dict:
        target = op[1]
        sw = Stopwatch()
        run = self.build_op(op, sw)
        sw.stop()
        problems = _target_problem(run.config, run)
        if not prefix_agreement(run.cluster.logs()):
            problems.append("replicas' execution logs are not prefix-consistent")
        return _op_record(
            f"oneshot chain {target} blocks",
            sw,
            read_counters(run.sim, [run.network], [run.cluster], 0),
            _run_stats(run.stats),
            problems,
        )


class FaultCampaign(Workload):
    """Fuzz scenarios through ``generate_scenario`` -> ``run_scenario``.

    ``run_scenario`` builds its run inside the harness, so set-up is
    timed by wrapping the runner entry the harness calls and chaining
    the harness's own ``instrument``: the op's set-up ends once the
    harness has installed its network conditions and adversary.
    """

    name = "fault-campaign"
    #: The campaign is a fixed corpus, fuzz seeds 200, 201, ..., whatever
    #: the benchmark seed.  Drawing new scenarios per benchmark seed made
    #: the work itself vary by about 4 % from seed to seed, and turns the
    #: benchmark into a fuzzer: fuzz seed 7237 (a damysus scenario with
    #: two withholding replicas) never returns.
    first_scenario = 200
    scenarios = 500

    def __init__(self) -> None:
        self._current: Optional[Stopwatch] = None
        self._result = None

    def ops(self, seed: int) -> list:
        return list(range(self.first_scenario, self.first_scenario + self.scenarios))

    def warmup_ops(self, seed: int) -> list:
        # Fuzz seeds below the campaign's, so no timed scenario is warm.
        return list(range(30))

    @contextmanager
    def pass_scope(self) -> Iterator[None]:
        runner = fuzz_harness.run_experiment

        def timed_runner(config, *args, instrument=None, **kwargs):
            def chained(sim, network, cluster) -> None:
                if instrument is not None:
                    instrument(sim, network, cluster)
                self._current.built(sim, [network], [cluster])

            self._result = runner(config, *args, instrument=chained, **kwargs)
            return self._result

        fuzz_harness.run_experiment = timed_runner
        try:
            yield
        finally:
            fuzz_harness.run_experiment = runner

    def run_op(self, op) -> dict:
        sw = self._current = Stopwatch()
        self._result = None
        scenario = generate_scenario(op)
        result = fuzz_harness.run_scenario(scenario)
        sw.stop()
        sim, networks, clusters = sw.run_objects
        problems = [] if result.ok else [result.describe()]
        stats = _run_stats(self._result.stats) if self._result is not None else {}
        stats["oracle_blocks_decided"] = result.report.blocks_decided
        return _op_record(
            f"fuzz seed {op} ({scenario.protocol} f={scenario.f})",
            sw,
            read_counters(sim, networks, clusters, scenario.reference_pid),
            stats,
            problems,
        )


class ShardTwoPC(Workload):
    """k=4 OneShot shards, open loop, cross-shard 2PC and hot keys."""

    name = "shard-2pc"
    sim_seconds = 12.0
    setup_repeats = 8

    def ops(self, seed: int) -> list:
        return [(seed, 4, self.sim_seconds, 0)]

    def warmup_ops(self, seed: int) -> list:
        return [(seed + 1, 2, 0.5, WARMUP_PAYLOAD)]

    def _config(self, op) -> ExperimentConfig:
        seed, k, seconds, payload = op
        return ExperimentConfig(
            protocol="oneshot",
            f=1,
            payload_bytes=payload,
            deployment="local",
            local_latency_s=0.002,
            workload="open",
            offered_tps=6000.0,
            virtual_clients=10_000,
            shards=k,
            cross_shard_permille=150,
            hot_key_permille=200,
            shard_epoch_s=1.0,
            max_sim_time=seconds,
            seed=seed,
        )

    def build_op(self, op, sw: Stopwatch):
        return run_sharded(self._config(op), instrument=sw.built)

    def run_op(self, op) -> dict:
        k, seconds = op[1], op[2]
        sw = Stopwatch()
        run = self.build_op(op, sw)
        sw.stop()
        problems = []
        if not run.atomicity.ok:
            problems.append(f"2PC atomicity: {run.atomicity.describe()}")
        if run.duration_s < seconds:
            problems.append(f"stopped at {run.duration_s}s of {seconds}s simulated")
        if run.committed_txs == 0:
            problems.append("no transaction committed")
        coord = run.coordinator
        counters = read_counters(run.sim, run.networks, run.clusters, 0)
        counters["slabs"] = run.pump.slabs_sent
        counters["2pc.submitted"] = coord.submitted
        counters["2pc.committed"] = coord.committed
        counters["2pc.aborted"] = coord.aborted
        return _op_record(
            f"oneshot k={k} {seconds}s",
            sw,
            counters,
            {
                "committed_txs": run.committed_txs,
                "aggregate_tps": run.aggregate_tps,
                "mean_latency_s": run.mean_latency_s,
                "cross_mean_latency_s": run.cross_mean_latency_s,
                "cross_p99_latency_s": run.cross_p99_latency_s,
                "2pc_committed": coord.committed,
                "2pc_aborted": coord.aborted,
            },
            problems,
        )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PaperWorld, ChainLong, FaultCampaign, ShardTwoPC)
}
