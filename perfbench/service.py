"""``svc-1sh`` and ``svc-2proc``: a live deployment under open- then
closed-loop load, then the serializability oracle and conservation."""

from __future__ import annotations

import asyncio
import gc
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.db.serializability import check_serializable_fast
from repro.exceptions import SerializationViolation
from repro.service.loadgen import history_from_events
from repro.service.manager import LockManager, ServiceConfig

from loadgen import (
    COMMITTED, LoadGenerator, Tally, conservation, merge, percentile,
    supported_percentile,
)
from inputs import ServiceInputs, fingerprint, service_document
from tracer import Tracer

#: Closed-phase span ids start here so they never collide with the
#: open phase's arrival sequence numbers.
CLOSED_TXN_BASE = 10_000_000
#: Timed runs of a deployment's oracle, at least this many and until
#: ``VERIFY_MIN_S`` have passed; the fastest counts.
VERIFY_REPEATS = 3
VERIFY_MIN_S = 0.5
#: A drive phase still running after this long has wedged (a session
#: that never finishes); the run fails instead of hanging.
PHASE_TIMEOUT_S = 30.0
#: Windows a closed phase's commit rate is measured over.
CLOSED_WINDOWS = 8
#: Seconds of arrival due time per open-phase latency window.
WINDOW_S = 1.0


class PhaseTimeout(Exception):
    """A drive phase did not finish within :data:`PHASE_TIMEOUT_S`."""


@dataclass
class PassResult:
    """What one pass (deploy, drive, verify, tear down) measured."""

    setup_s: float = 0.0
    #: Seconds of each build of the pass's inputs and deployment.
    setups: List[float] = field(default_factory=list)
    inputs_digest: str = ""
    open: Tally = field(default_factory=Tally)
    closed: Tally = field(default_factory=Tally)
    total: Tally = field(default_factory=Tally)
    #: History rows recorded during the closed phase.
    closed_events: int = 0
    drive_s: float = 0.0
    verify: Dict[str, float] = field(default_factory=dict)
    #: Per deployment, its oracle's fastest run (``verify_s``).
    verify_parts: List[float] = field(default_factory=list)
    #: Seconds of every timed oracle run.
    verify_runs: List[float] = field(default_factory=list)
    #: ``stats_document()`` of each deployment the pass used.
    stats_docs: List[Dict[str, Any]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


@dataclass
class ServiceRun:
    passes: List[PassResult] = field(default_factory=list)

    @property
    def fingerprint(self) -> str:
        return fingerprint([p.inputs_digest for p in self.passes])

    @property
    def total(self) -> Tally:
        return merge([p.total for p in self.passes])

    @property
    def problems(self) -> List[str]:
        return [f"pass {i}: {problem}" for i, p in enumerate(self.passes)
                for problem in p.problems]



async def _maybe_await(value: Any) -> Any:
    """Remote deployments return coroutines where in-process ones return
    values (``stats_document``, ``history_events``)."""
    if asyncio.iscoroutine(value):
        return await value
    return value


async def _deploy(inputs: ServiceInputs, catalog: Any) -> Tuple[Any, Any]:
    config = ServiceConfig(max_sessions=512, kernel=True)
    if inputs.shard_procs:
        from repro.service.sharding.procs import start_proc_deployment

        return await start_proc_deployment(
            catalog, "pcp-da", shards=inputs.shard_procs, config=config,
            partitioner="hash",
        )
    return None, LockManager(catalog, "pcp-da", config)


async def run_service(inputs: ServiceInputs,
                      tracer: Optional[Tracer] = None) -> ServiceRun:
    run = ServiceRun()
    for index in range(len(inputs.specs)):
        run.passes.append(await _one_pass(inputs, index, tracer))
    return run


async def _one_pass(inputs: ServiceInputs, index: int,
                    tracer: Optional[Tracer]) -> PassResult:
    result = PassResult()
    # Earlier passes' garbage is collected here, not inside this pass.
    gc.collect()
    setups = []
    for repeat in range(inputs.setup_repeats):
        if repeat:
            await _shutdown(deployment)
        started = time.perf_counter()
        catalog = inputs.catalog()
        open_arrivals = inputs.open_arrivals(index)
        closed_arrivals = inputs.closed_arrivals(index)
        deployment = await _deploy(inputs, catalog)
        setups.append(time.perf_counter() - started)
    result.setups = setups
    result.setup_s = statistics.median(setups)
    try:
        result.inputs_digest = fingerprint(service_document(
            inputs, catalog, open_arrivals, closed_arrivals
        ))
        programs = {name: catalog[name].operations for name in catalog.names}
        top = max(catalog, key=lambda spec: spec.priority).name
        manager = deployment[1]
        started = time.perf_counter()
        result.open = await _bounded(
            LoadGenerator(manager, programs, top, tracer)
            .open_loop(open_arrivals), "open", index,
        )
        result.drive_s = time.perf_counter() - started
        if inputs.closed_apart:
            await _verify(result, manager, result.open, tracer)
            await _shutdown(deployment)
            deployment = None  # not shut down twice if the next fails
            deployment = await _deploy(inputs, catalog)
            manager = deployment[1]
        closed_from = manager.now()
        started = time.perf_counter()
        result.closed = await _bounded(
            LoadGenerator(manager, programs, top, tracer).closed_loop(
                closed_arrivals, inputs.closed_clients, CLOSED_TXN_BASE
            ),
            "closed", index,
        )
        result.drive_s += time.perf_counter() - started
        result.total = merge([result.open, result.closed])
        events = await _verify(
            result, manager,
            result.closed if inputs.closed_apart else result.total, tracer,
        )
        result.closed_events = sum(
            1 for row in events if row["time"] >= closed_from
        )
    finally:
        if deployment is not None:
            await _shutdown(deployment)
    return result


async def _shutdown(deployment: Tuple[Any, Any]) -> None:
    supervisor, manager = deployment
    try:
        await manager.shutdown()
    finally:
        if supervisor is not None:
            await supervisor.stop()


async def _bounded(phase: Any, label: str, index: int) -> Tally:
    try:
        return await asyncio.wait_for(phase, PHASE_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise PhaseTimeout(
            f"pass {index}: {label} phase still running after "
            f"{PHASE_TIMEOUT_S:.0f} s"
        ) from None


async def _verify(result: PassResult, manager: Any, tally: Tally,
                  tracer: Optional[Tracer]) -> List[Dict[str, Any]]:
    """Serializability of a deployment's whole history, then
    conservation against ``tally``, the load it was given.  Returns the
    history rows.

    The history is fetched once (``service.history_events_s``: on
    ``svc-2proc`` a round trip to every shard host).  The oracle proper
    (rebuild the history, check it; ``verify_s``) then runs at least
    :data:`VERIFY_REPEATS` times on it, and until :data:`VERIFY_MIN_S`
    have passed, each run from a collected heap; the fastest counts.
    The fetch stays out of ``verify_s``: it is the deployment's
    transport, not the oracle's work.
    """
    gc.collect()
    started = time.perf_counter()
    events = await _maybe_await(manager.history_events())
    fetch_s = time.perf_counter() - started
    best: Dict[str, float] = {}
    repeats = 0
    began = time.perf_counter()
    while repeats < VERIFY_REPEATS \
            or time.perf_counter() - began < VERIFY_MIN_S:
        repeats += 1
        gc.collect()
        timings: Dict[str, float] = {"service.history_events_s": fetch_s}
        # The oracle's own History rebuild is not the manager's history.
        with tracer.paused() if tracer is not None else nullcontext():
            started = time.perf_counter()
            history = history_from_events(events)
            mark = time.perf_counter()
            timings["db.history_from_events_s"] = mark - started
            try:
                check_serializable_fast(history)
            except SerializationViolation as exc:
                result.problems.append(f"not serializable: {exc}")
            timings["db.check_serializable_fast_s"] = \
                time.perf_counter() - mark
        del history
        timings["verify_s"] = time.perf_counter() - started
        result.verify_runs.append(timings["verify_s"])
        if not best or timings["verify_s"] < best["verify_s"]:
            best = timings
        if result.problems:
            break
    result.verify_parts.append(best["verify_s"])
    # A pass with two deployments adds up the oracle's time on both.
    for key, value in best.items():
        result.verify[key] = result.verify.get(key, 0.0) + value
    doc = await _maybe_await(manager.stats_document())
    result.stats_docs.append(doc)
    result.problems += [
        f"conservation: {p}" for p in conservation(
            tally, doc, len(manager.live_sessions())
        )
    ]
    result.problems += [f"violation: {v}" for v in tally.violations]
    return events


def closed_rates(tally: Tally, clients: int) -> List[float]:
    """Commit rates (1/s) of consecutive windows of a closed phase.

    The phase is cut into :data:`CLOSED_WINDOWS` windows of equal commit
    count, up to the commit from which clients start running out of
    transactions (the last ``clients`` commits run with fewer clients).
    """
    steady = tally.commit_at[:len(tally.commit_at) - clients]
    k = max(1, (len(steady) - 1) // CLOSED_WINDOWS)
    return [k / (steady[i + k] - steady[i])
            for i in range(0, len(steady) - k, k)
            if steady[i + k] > steady[i]]


def fast_windows(tallies: Sequence[Tally]) -> Tuple[List[float],
                                                   List[float]]:
    """Latencies (all, and top-priority only) of the open-phase windows
    that ran at the host's fast end.

    Each phase is cut into :data:`WINDOW_S` windows of arrival due time.
    Windows are ranked by their median latency and the faster half is
    pooled (a window holding under half the median window's samples, at
    a phase's end, is left out).  On the shared 2-vCPU reference host
    the same code runs at one of two speeds, about 1.6x apart, switching
    every few seconds; a run's latency otherwise measured how much of it
    the slow speed caught.  A window whose transactions queue behind a
    stall still ranks by its median, so the tail stays in the pool.
    """
    windows: Dict[Tuple[int, int], Tuple[List[float], List[float]]] = {}
    for index, tally in enumerate(tallies):
        for latency, due, top in zip(tally.latencies, tally.due_at,
                                     tally.is_top):
            key = (index, int((due - tally.started_at) // WINDOW_S))
            pair = windows.setdefault(key, ([], []))
            pair[0].append(latency)
            if top:
                pair[1].append(latency)
    if not windows:
        return [], []
    least = statistics.median(len(w[0]) for w in windows.values()) / 2
    full = sorted(
        (w for w in windows.values() if len(w[0]) >= least),
        key=lambda w: percentile(w[0], 50),
    )
    kept = full[:(len(full) + 1) // 2]
    return ([x for w in kept for x in w[0]],
            [x for w in kept for x in w[1]])


def end_to_end(run: ServiceRun, clients: int) -> Dict[str, float]:
    """End-to-end metrics (the caller adds wall_s).

    Latency percentiles are over the open-phase windows that ran at the
    host's fast end (:func:`fast_windows`).  ``verify_s`` is the
    oracle's time on one pass's output: per deployment of a pass (one,
    or two with ``closed_apart``) the fastest of its timed runs, then
    the fastest pass, summed over the deployments; the passes verify
    outputs of one size at moments spread over the run.  ``peak_tps`` is the 90th
    percentile of the closed phases' window rates (:func:`closed_rates`),
    and ``sim_events_per_s`` that rate times the history events each
    closed-phase commit recorded: interference only ever slows a window,
    so the fast end tracks the code.  ``setup_s`` is the median build
    over all passes.
    """
    passes = run.passes
    latencies, top = fast_windows([p.open for p in passes])
    peak = percentile(
        [r for p in passes for r in closed_rates(p.closed, clients)], 90
    )
    return {
        "setup_s": statistics.median(x for p in passes for x in p.setups),
        "verify_s": sum(
            min(p.verify_parts[i] for p in passes)
            for i in range(len(passes[0].verify_parts))
        ),
        "sim_events_per_s": peak * statistics.median(
            p.closed_events / p.closed.outcomes[COMMITTED] for p in passes
        ),
        "txn_p50_ms": percentile(latencies, 50) * 1e3,
        "hi_prio_p50_ms": percentile(top, 50) * 1e3,
        "peak_tps": peak,
    }


def samples_report(run: ServiceRun, clients: int) -> Dict[str, Any]:
    """Behind each latency metric: the sample count, the median, the
    highest percentile with at least ten samples beyond it, and a few
    more percentiles, over all windows; the sample counts in the fast
    windows the end-to-end metrics pool; each pass's worst latency; how
    late the generator fired."""
    out: Dict[str, Any] = {}
    for label, attr in (("txn", "latencies"), ("hi_prio", "top_latencies")):
        values = [lat for p in run.passes for lat in getattr(p.open, attr)]
        top = supported_percentile(len(values))
        out[label] = {
            "n": len(values),
            "highest_supported_percentile": top,
            **{f"p{q:g}_ms": percentile(values, q) * 1e3
               for q in (50, 90, 95, 99, 99.9) if q <= (top or 50)},
        }
    fast, fast_top = fast_windows([p.open for p in run.passes])
    out["fast_windows"] = {
        f"{label}_n": len(values) for label, values
        in (("txn", fast), ("hi_prio", fast_top))
    }
    out["fast_windows"]["hi_prio_highest_supported_percentile"] = \
        supported_percentile(len(fast_top))
    # The tail of the gated median, for the record.
    out["fast_windows"]["hi_prio_p95_ms"] = percentile(fast_top, 95) * 1e3
    out["txn"]["max_ms_per_pass"] = [
        max(p.open.latencies) * 1e3 for p in run.passes
    ]
    out["txn"]["p99_ms_per_pass"] = [
        percentile(p.open.latencies, 99) * 1e3
        for p in run.passes
    ]
    out["per_pass"] = {
        "setup_s": [p.setup_s for p in run.passes],
        "verify_s": [p.verify["verify_s"] for p in run.passes],
        "verify_repeats_s": [p.verify_runs for p in run.passes],
        "closed_window_tps": [closed_rates(p.closed, clients)
                              for p in run.passes],
        "hi_prio_p50_ms": [percentile(p.open.top_latencies, 50) * 1e3
                           for p in run.passes],
        "txn_p50_ms": [percentile(p.open.latencies, 50) * 1e3
                       for p in run.passes],
    }
    late = [x for p in run.passes for x in p.open.lateness]
    out["loadgen_late_ms"] = {
        "n": len(late),
        "p50": percentile(late, 50) * 1e3,
        "p99": percentile(late, 99) * 1e3,
        "max": max(late) * 1e3,
    }
    return out
