"""Layer spans for the traced run.

:func:`install` wraps the calls into each layer of the program (the
boundaries listed in ``BOUNDARIES``) so that every call records a span
(name, start, end, parent) in a :class:`Tracer`.  The wrappers live in
this file; the program is not changed.  Spans are kept in memory in
flat arrays and written out by :meth:`Tracer.dump` when the traced pass
ends.  A span's self time is its duration minus the time its child
spans cover; the tracer folds that as each span closes.

A call into a layer from inside a span of the same name (``digest_of``
calling ``sha256``, ``verify_all`` calling ``verify``) is counted but
opens no new span: its time is already that layer's.

Each wrapped call costs the caller a little time outside the callee's
span (the wrapper's own call and bookkeeping).  :func:`install`
measures that cost once (:func:`calibrate`, as the standard library's
``profile`` calibrates its bias) and the fold charges it to the child,
not to the parent's self time, so that a handler that calls many small
wrapped functions is not made to look busy by the tracing itself.

:func:`install` patches classes and module globals for the life of the
process, so it is only ever called inside a forked child that runs one
traced pass and exits.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

#: Span name -> boundaries it wraps.  A boundary is
#: ``(module, "Class.method")`` or ``(module, "function")``.  The layer
#: of a span is the part of its name before the first dot.
BOUNDARIES: dict[str, list[tuple[str, str]]] = {
    "sim.queue": [
        ("repro.sim.event", "EventQueue.push"),
        ("repro.sim.event", "EventQueue.push_many"),
        ("repro.sim.event", "EventQueue.pop_next"),
    ],
    "net.send": [
        ("repro.net.network", "Network.send"),
        ("repro.net.network", "Network.multicast"),
    ],
    "crypto.verify": [
        ("repro.crypto.keys", "KeyRing.verify"),
        ("repro.crypto.keys", "KeyRing.verify_all"),
    ],
    "crypto.sign": [("repro.crypto.keys", "KeyPair.sign")],
    "crypto.hash": [
        ("repro.crypto.hashing", "digest_of"),
        ("repro.crypto.hashing", "digest_of_boolfree"),
        ("repro.crypto.hashing", "sha256"),
    ],
    "smr.mint": [
        ("repro.smr.transaction", "TxFactory.batch"),
        ("repro.smr.transaction", "TxBatch.mint"),
    ],
    "smr.block_hash": [("repro.smr.block", "Block.hash")],
    "smr.block": [
        ("repro.smr.block", "create_leaf"),
        ("repro.smr.block", "Block._tx_keys"),
        ("repro.smr.block", "Block._wire_size"),
    ],
    "smr.chain": [
        ("repro.smr.chain", "BlockStore.add"),
        ("repro.smr.chain", "BlockStore.ancestors"),
        ("repro.smr.chain", "BlockStore.extends_plus"),
        ("repro.smr.chain", "BlockStore.conflicts"),
        ("repro.smr.chain", "BlockStore.path_from"),
    ],
    "smr.mempool": [
        ("repro.smr.mempool", "Mempool.submit"),
        ("repro.smr.mempool", "Mempool.submit_batch"),
        ("repro.smr.mempool", "Mempool.mark_committed"),
        ("repro.smr.mempool", "Mempool.mark_committed_many"),
        ("repro.smr.mempool", "Mempool.mark_committed_keys"),
        ("repro.smr.mempool", "Mempool.next_batch"),
    ],
    "smr.execute": [("repro.smr.execution", "ExecutionLog.execute")],
    "metrics.record": [
        ("repro.metrics.collector", "MetricsCollector.on_propose"),
        ("repro.metrics.collector", "MetricsCollector.on_execute"),
        ("repro.metrics.collector", "MetricsCollector.on_view_outcome"),
    ],
    "workload.emit": [
        ("repro.workload.arrivals", "SuperposedArrivals.next_slab"),
        ("repro.workload.engine", "WorkloadEngine._emit"),
        ("repro.shard.workload", "ShardedWorkload._emit"),
    ],
    "shard.route": [
        ("repro.shard.router", "Router.classify"),
        ("repro.shard.router", "Router.partition"),
        ("repro.shard.router", "Router.advance"),
        ("repro.shard.rebalance", "Rebalancer.plan"),
    ],
    "shard.coordinator": [
        ("repro.shard.coordinator", "Coordinator.submit_transfer"),
        ("repro.shard.coordinator", "Coordinator.on_shard_message"),
        ("repro.shard.coordinator", "Coordinator.on_message"),
        ("repro.shard.coordinator", "ShardPort.on_message"),
    ],
    "fuzz.judge": [
        ("repro.fuzz.oracles", "judge"),
        ("repro.fuzz.oracles", "judge_sharded"),
        ("repro.analysis.sanitizer", "fingerprint_of"),
    ],
}

#: Span names whose boundaries are found by walking a class hierarchy:
#: every public method of every ``Enclave`` subclass is an ecall, and
#: every ``on_message`` of a replica class is a protocol handler.
TEE_SPAN = "tee.ecall"
HANDLER_SPAN = "protocols.handle"
#: Opened by the benchmark from an op's start to its ``instrument`` hook.
BUILD_SPAN = "experiments.build"

#: Counted calls: (module, "Class.method" or "function") -> counter
#: name.  ``items`` counters add ``len(result)`` instead of one.
COUNTED: dict[tuple[str, str], str] = {
    ("repro.crypto.keys", "KeyRing.verify"): "verifies",
    ("repro.crypto.hashing", "sha256"): "hashes",
}
ITEMS: dict[tuple[str, str], str] = {
    ("repro.smr.transaction", "TxFactory.batch"): "minted",
    ("repro.smr.transaction", "TxBatch.mint"): "minted",
}


class Tracer:
    """In-memory span recorder with an online self-time fold."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        #: Open spans: [span index, child seconds, name id, nested calls].
        self._stack: list[list] = []
        self._self_s: list[float] = []
        self.counts: Counter = Counter()
        #: Wrapper time a child span costs its parent (see calibrate).
        self.child_cost = 0.0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._self_s.append(0.0)
        return nid

    def begin(self, nid: int) -> None:
        stack = self._stack
        if stack:
            top = stack[-1]
            if top[2] == nid:
                top[3] += 1
                return
            parent = top[0]
        else:
            parent = -1
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(parent)
        self.ends.append(0.0)
        stack.append([idx, 0.0, nid, 0])
        self.starts.append(time.perf_counter())

    def end(self) -> None:
        t = time.perf_counter()
        stack = self._stack
        top = stack[-1]
        if top[3]:
            top[3] -= 1
            return
        stack.pop()
        idx = top[0]
        self.ends[idx] = t
        dur = t - self.starts[idx]
        self._self_s[top[2]] += dur - top[1]
        if stack:
            stack[-1][1] += dur + self.child_cost

    def unwind(self) -> None:
        """Close spans left open by an op that raised mid-span."""
        while self._stack:
            self._stack[-1][3] = 0
            self.end()

    def self_seconds(self) -> dict[str, float]:
        return dict(zip(self.names, self._self_s))

    def dump(self, path: Path) -> None:
        """Write every span to ``path`` (NumPy ``.npz``).

        Arrays: ``names`` (span names), and per span ``name_id`` (into
        ``names``), ``start`` and ``end`` (``perf_counter`` seconds) and
        ``parent`` (index of the enclosing span, -1 for none).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
        )


def _wrapper(tracer: Tracer, name: str, fn: Callable, counter=None, items=None):
    nid = tracer.name_id(name)
    begin, end, counts = tracer.begin, tracer.end, tracer.counts

    if items is not None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                end()
            counts[items] += len(out)
            return out
    elif counter is not None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[counter] += 1
            begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
    return traced


def calibrate(rounds: int = 7, calls: int = 20_000) -> float:
    """Median seconds a wrapped call adds to its caller's self time."""

    def noop() -> None:
        return None

    costs = []
    for _ in range(rounds):
        probe = Tracer()
        outer = probe.name_id("outer")
        wrapped = _wrapper(probe, "inner", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        probe.begin(outer)
        for _ in range(calls):
            wrapped()
        probe.end()
        costs.append(max(0.0, (probe.self_seconds()["outer"] - bare) / calls))
    return sorted(costs)[rounds // 2]


def _rebind_function(orig: Callable, new: Callable) -> None:
    """Point every loaded ``repro`` module's reference to ``orig`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _wrap_method(tracer: Tracer, name: str, cls: type, meth: str, **kw) -> None:
    raw = cls.__dict__[meth]
    if isinstance(raw, functools.cached_property):
        prop = functools.cached_property(_wrapper(tracer, name, raw.func, **kw))
        prop.__set_name__(cls, meth)
        setattr(cls, meth, prop)
    else:
        setattr(cls, meth, _wrapper(tracer, name, raw, **kw))


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the loaded program with spans."""
    tracer.child_cost = calibrate()
    for name, targets in BOUNDARIES.items():
        for module, qual in targets:
            key = (module, qual)
            kw = {"counter": COUNTED.get(key), "items": ITEMS.get(key)}
            mod = sys.modules[module]
            if "." in qual:
                cls_name, meth = qual.split(".")
                _wrap_method(tracer, name, getattr(mod, cls_name), meth, **kw)
            else:
                orig = getattr(mod, qual)
                _rebind_function(orig, _wrapper(tracer, name, orig, **kw))

    from repro.protocols.common.base import BaseReplica
    from repro.tee.enclave import Enclave

    for cls in _subclasses(Enclave)[1:]:
        for meth, value in list(vars(cls).items()):
            if inspect.isfunction(value) and not meth.startswith("_"):
                _wrap_method(tracer, TEE_SPAN, cls, meth)
    for cls in _subclasses(BaseReplica):
        if "on_message" in vars(cls):
            _wrap_method(tracer, HANDLER_SPAN, cls, "on_message")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
