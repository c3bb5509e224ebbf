"""Per-layer metrics of a traced run, under the names ``BENCHMARK.json``
lists.  Every workload reports every name; a layer the workload bypasses
reads 0.

Conventions: ``*.calls`` are calls per committed transaction (per
committed simulated job on ``sim-prefix``), so runs of different length
compare; ``*.ns`` are mean nanoseconds per call, timer included;
``*_us`` / ``*_ms`` / ``*_s`` are times; ``*_per_commit`` and ``*_ratio``
/ ``*_share`` / ``*_frac`` are ratios.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

from loadgen import percentile
from tracer import Tracer

_LEAVES = (
    "engine.kernel.decide", "engine.kernel.decide_batch",
    "engine.kernel.system_ceiling", "engine.event_queue.push",
    "engine.event_queue.pop", "engine.lock_table.grant",
    "engine.lock_table.release", "engine.inheritance.find_cycle",
    "engine.inheritance.recompute_priorities", "trace.recorder.lock",
    "trace.recorder.sched", "trace.recorder.sysceil", "protocols.decide",
    "db.history.record", "wire.encode", "wire.decode",
)
_OPS = ("begin", "read", "write", "commit")
_FRAME_KINDS = (
    "request", "response", "decision", "churn.wait", "churn.unwait",
    "churn.constraint", "churn.abort", "churn.finish",
)
_COORD_COUNTERS = (
    "constraint_merges", "gate_waits", "guard_waits",
    "cross_shard_deadlocks", "cascade_aborts",
)
_VERIFY = (
    "db.history_from_events_s", "db.check_serializable_fast_s",
    "service.history_events_s", "verify.serializable_s",
    "verify.single_blocking_s", "verify.deadlock_free_s",
    "verify.no_restarts_s", "verify.object_rerun_s",
)
_PATH = ("coverage", "loadgen_share", "manager_share", "coordinator_share",
         "proxy_share", "engine_share", "trace_share")


def names() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("engine.simulator.run_s", "s")]
    for leaf in _LEAVES:
        out += [(f"{leaf}.calls", "count"), (f"{leaf}.ns", "ns")]
    out.append(("engine.kernel.decide_batch.candidates", "count"))
    for op in _OPS:
        out += [(f"manager.{op}.p50_us", "us"), (f"manager.{op}.p99_us", "us")]
    out += [
        ("manager.redecide_per_grant", "ratio"),
        ("manager.denials_per_commit", "ratio"),
        ("manager.lock_wait_p99_ms", "ms"),
        ("manager.deadlocks", "count"),
    ]
    out += [(f"coordinator.{op}.self_p50_us", "us") for op in _OPS]
    out += [(f"coordinator.{c}_per_commit", "ratio") for c in _COORD_COUNTERS]
    out += [
        ("coordinator.gate_wait_p99_ms", "ms"),
        ("coordinator.guard_wait_p99_ms", "ms"),
        ("coordinator.cross_shard_ratio", "ratio"),
        ("coordinator.aborted_between_ops", "count"),
        ("wire.frames_per_commit", "ratio"),
    ]
    out += [(f"wire.frames_per_commit.{k}", "ratio") for k in _FRAME_KINDS]
    out += [
        ("wire.bytes_per_commit", "bytes"),
        ("procs.proxy.rtt_p50_us", "us"),
        ("procs.proxy.rtt_p99_us", "us"),
        ("procs.supervisor.start_s", "s"),
        ("procs.supervisor.stop_s", "s"),
    ]
    out += [(name, "s") for name in _VERIFY]
    out += [
        ("bench.loadgen.late_p99_ms", "ms"),
        ("bench.loadgen.late_max_ms", "ms"),
        ("bench.failed_frac", "ratio"),
        ("bench.trace.overhead_s", "s"),
        ("bench.trace.overhead_frac", "ratio"),
    ]
    out += [(f"bench.path.{p}", "ratio") for p in _PATH]
    return out


def _hist_p99_ms(docs: Sequence[Any]) -> float:
    """p99 (ms) of several passes' latency histograms merged."""
    from repro.service.stats import LatencyHistogram

    merged = LatencyHistogram()
    for doc in docs:
        if doc:
            merged.merge(LatencyHistogram.from_dict(doc))
    return merged.percentile(99) * 1e3


def _span_values(tracer: Tracer, selfs: Sequence[int],
                 name: str) -> List[float]:
    return [selfs[i] for i, s in enumerate(tracer.spans) if s[0] == name]


def _durations(tracer: Tracer, name: str) -> List[float]:
    return [s[2] - s[1] for s in tracer.spans if s[0] == name]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def collect(tracer: Tracer, *, commits: int,
            stats_docs: Sequence[Dict[str, Any]],
            verify: Dict[str, float], lateness: Sequence[float],
            committed: Sequence[Tuple[int, float, float]],
            failed_frac: float, aborted_between_ops: int,
            overhead: Tuple[float, float], sim_run_s: float,
            busy_ns: float) -> Dict[str, float]:
    """Assemble every per-layer metric of one traced run.

    ``committed`` holds (txn id, due->ack s, due->start s) of the open
    phase's committed transactions, the latencies the blocking-path
    shares divide; ``busy_ns`` is the time the layers' shares of
    ``engine``/``trace`` leaf time are taken against (simulator runs on
    ``sim-prefix``, the drive on the service workloads).
    """
    m: Dict[str, float] = {name: 0.0 for name, _ in names()}
    selfs = tracer.self_times()
    m["engine.simulator.run_s"] = sim_run_s
    for leaf in _LEAVES:
        calls, ns = tracer.calls.get(leaf, (0, 0))
        m[f"{leaf}.calls"] = _ratio(calls, commits)
        m[f"{leaf}.ns"] = _ratio(ns, calls)
    candidates = tracer.counts.get("engine.kernel.decide_batch.candidates", 0)
    m["engine.kernel.decide_batch.candidates"] = _ratio(candidates, commits)

    for op in _OPS:
        values = _span_values(tracer, selfs, f"manager.{op}")
        if values:
            m[f"manager.{op}.p50_us"] = percentile(values, 50) / 1e3
            m[f"manager.{op}.p99_us"] = percentile(values, 99) / 1e3
        values = _span_values(tracer, selfs, f"coordinator.{op}")
        if values:
            m[f"coordinator.{op}.self_p50_us"] = percentile(values, 50) / 1e3
    if stats_docs:
        def total(key: str) -> float:
            return sum(doc[key] for doc in stats_docs)

        coords = [doc.get("coordinator") or {} for doc in stats_docs]
        m["manager.redecide_per_grant"] = _ratio(candidates, total("grants"))
        m["manager.denials_per_commit"] = _ratio(total("denials"), commits)
        m["manager.lock_wait_p99_ms"] = _hist_p99_ms(
            [doc["lock_wait"] for doc in stats_docs]
        )
        m["manager.deadlocks"] = total("deadlocks")
        for counter in _COORD_COUNTERS:
            m[f"coordinator.{counter}_per_commit"] = _ratio(
                sum(c.get(counter, 0) for c in coords), commits
            )
        for wait in ("gate", "guard"):
            m[f"coordinator.{wait}_wait_p99_ms"] = _hist_p99_ms(
                [c.get(f"{wait}_wait") for c in coords]
            )
        sessions = sum(c.get("local_sessions", 0) + c.get(
            "cross_shard_sessions", 0) for c in coords)
        m["coordinator.cross_shard_ratio"] = _ratio(
            sum(c.get("cross_shard_sessions", 0) for c in coords), sessions
        )
    m["coordinator.aborted_between_ops"] = aborted_between_ops

    frames = 0
    for kind in _FRAME_KINDS:
        n = tracer.counts.get(f"wire.frames.{kind}", 0)
        frames += n
        m[f"wire.frames_per_commit.{kind}"] = _ratio(n, commits)
    m["wire.frames_per_commit"] = _ratio(frames, commits)
    m["wire.bytes_per_commit"] = _ratio(
        tracer.counts.get("wire.bytes", 0), commits
    )
    rtt = _durations(tracer, "procs.proxy.call")
    if rtt:
        m["procs.proxy.rtt_p50_us"] = percentile(rtt, 50) / 1e3
        m["procs.proxy.rtt_p99_us"] = percentile(rtt, 99) / 1e3
    for which in ("start", "stop"):
        values = _durations(tracer, f"procs.supervisor.{which}")
        if values:
            m[f"procs.supervisor.{which}_s"] = statistics.median(values) / 1e9
    for name in _VERIFY:
        m[name] = verify.get(name, 0.0)

    if lateness:
        m["bench.loadgen.late_p99_ms"] = percentile(lateness, 99) * 1e3
        m["bench.loadgen.late_max_ms"] = max(lateness) * 1e3
    m["bench.failed_frac"] = failed_frac
    m["bench.trace.overhead_s"] = overhead[0]
    m["bench.trace.overhead_frac"] = overhead[1]
    _path(m, tracer, selfs, committed, busy_ns)
    return m


def _path(m: Dict[str, float], tracer: Tracer, selfs: Sequence[int],
          committed: Sequence[Tuple[int, float, float]],
          busy_ns: float) -> None:
    """Shares of latency along the blocking path.

    Service workloads: per committed open-phase transaction, the time
    before its task started (generator and loop queueing) plus the self
    time of its manager, coordinator and shard-proxy spans, summed and
    divided by the summed due->ack latency.  ``sim-prefix``: engine and
    trace-recorder leaf time divided by simulator run time (the rest is
    the simulator's own event loop).
    """
    # decide_batch is left out: its time is the decides it makes (counted
    # already) plus the manager's blame-refresh callbacks.
    engine_ns = sum(
        ns for name, (_, ns) in tracer.calls.items()
        if name.startswith("engine.") and name != "engine.kernel.decide_batch"
    )
    trace_ns = tracer.calls.get("trace.recorder.lock", (0, 0))[1] \
        + tracer.calls.get("trace.recorder.sched", (0, 0))[1] \
        + tracer.calls.get("trace.recorder.sysceil", (0, 0))[1]
    m["bench.path.engine_share"] = _ratio(engine_ns, busy_ns)
    m["bench.path.trace_share"] = _ratio(trace_ns, busy_ns)
    if not committed:
        m["bench.path.coverage"] = _ratio(engine_ns + trace_ns, busy_ns)
        return
    wanted = {txn for txn, _, _ in committed}
    layer_ns = {"manager": 0, "coordinator": 0, "procs": 0}
    for index, span in enumerate(tracer.spans):
        if span[4] in wanted:
            layer = span[0].split(".", 1)[0]
            if layer in layer_ns:
                layer_ns[layer] += selfs[index]
    total_ns = sum(lat for _, lat, _ in committed) * 1e9
    late_ns = sum(late for _, _, late in committed) * 1e9
    m["bench.path.loadgen_share"] = _ratio(late_ns, total_ns)
    m["bench.path.manager_share"] = _ratio(layer_ns["manager"], total_ns)
    m["bench.path.coordinator_share"] = _ratio(
        layer_ns["coordinator"], total_ns
    )
    m["bench.path.proxy_share"] = _ratio(layer_ns["procs"], total_ns)
    m["bench.path.coverage"] = _ratio(
        late_ns + sum(layer_ns.values()), total_ns
    )
