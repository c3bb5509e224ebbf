"""``sim-prefix``: the stress schedule's first arrivals as one-shot jobs
in virtual time, under PCP-DA and the paper's comparison protocols,
followed by the kernel/object byte-identity check and the Theorem 1–3
oracles."""

from __future__ import annotations

import gc
import statistics
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.simulator import SimConfig, SimulationResult, Simulator
from repro.exceptions import InvariantViolation, SerializationViolation
from repro.protocols import make_protocol
from repro.trace.export import result_to_json
from repro.verify.invariants import (
    assert_deadlock_free,
    assert_no_restarts,
    assert_serializable,
    assert_single_blocking,
)

from loadgen import percentile, supported_percentile
from inputs import (
    SIM_PROTOCOLS, SimInputs, fingerprint, instance_taskset, taskset_document,
)
from tracer import Tracer

#: Input builds per pass, one before the first round and one after
#: each of the next; the run's ``setup_s`` is the median of all builds.
SETUP_REPEATS = 5
#: Latency of a job that never committed.
NEVER = float("inf")


@dataclass
class SimPass:
    """What one pass measured."""

    setup_s: float = 0.0
    #: Seconds of each build of the pass's inputs.
    setups: List[float] = field(default_factory=list)
    inputs_digest: str = ""
    #: per simulator run: (calendar events, committed jobs, seconds,
    #: protocol)
    runs: List[Tuple[int, int, float, str]] = field(default_factory=list)
    #: per protocol, its fastest run's (calendar events, committed jobs,
    #: seconds)
    fastest: Dict[str, Tuple[int, int, float]] = field(default_factory=dict)
    #: seconds of each committed job's commit instant, per protocol at
    #: its fastest repetition
    latencies: array = field(default_factory=lambda: array("d"))
    #: the same, for the top-priority type ``S1`` only
    top_latencies: array = field(default_factory=lambda: array("d"))
    jobs: int = 0
    committed: int = 0
    verify_s: float = 0.0
    #: oracle seconds by oracle
    verify: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


@dataclass
class SimRun:
    passes: List[SimPass] = field(default_factory=list)

    @property
    def fingerprint(self) -> str:
        return fingerprint([p.inputs_digest for p in self.passes])

    @property
    def problems(self) -> List[str]:
        return [f"pass {i}: {problem}" for i, p in enumerate(self.passes)
                for problem in p.problems]


def stepped_run(taskset: Any, protocol: str,
                tracer: Optional[Tracer]) -> Tuple[SimulationResult, int,
                                                   float,
                                                   List[Optional[float]]]:
    """Run in kernel mode one calendar instant at a time.

    Returns the result, the events processed, the run's seconds, and per
    job (in ``result.jobs`` order) the wall-clock seconds the engine
    spent on the instant that committed it (``None`` if it never did).
    The stepping costs every protocol the same small per-instant call.
    """
    sim = Simulator(taskset, make_protocol(protocol), SimConfig(kernel=True))
    queue = sim.queue
    # Earlier runs' garbage is collected here, not inside this run's clock.
    gc.collect()
    instant_s: Dict[float, float] = {}
    span = tracer.span("engine.simulator.run") if tracer else nullcontext()
    with span:
        started = last = time.perf_counter()
        sim.start()
        while queue:
            at = queue.peek_time()
            sim.advance(at)
            now = time.perf_counter()
            instant_s[at] = now - last
            last = now
            if queue and queue.peek_time() == at:
                break  # halted (deadlock): finalize records it
        result = sim.finalize()
        elapsed = time.perf_counter() - started
    latencies = [
        None if job.finish_time is None else instant_s[job.finish_time]
        for job in result.jobs
    ]
    return result, sim.events_processed, elapsed, latencies


def run_sim(inputs: SimInputs, tracer: Optional[Tracer] = None) -> SimRun:
    """Set up every pass, then run rounds (each pass's task set under
    each protocol once) until the simulator has run for
    ``inputs.seconds``, verifying pass ``k``'s first results after round
    ``k``.  Interleaving the passes spreads each (pass, protocol)'s
    repetitions, the oracles and the task-set builds over the whole run,
    so their fastest one (the builds: their median) is not one moment of
    the host's."""
    run = SimRun()
    tasksets = []
    for spec in inputs.specs:
        result = SimPass()
        tasksets.append(_build(result, inputs, spec))
        run.passes.append(result)
    kept: List[Dict[str, SimulationResult]] = [{} for _ in tasksets]
    latencies: List[Dict[str, Tuple[array, array]]] = [{} for _ in tasksets]
    simulated = 0.0
    rounds = 0
    while rounds < len(tasksets) or simulated < inputs.seconds:
        for index, taskset in enumerate(tasksets):
            started = time.perf_counter()
            _round(run.passes[index], taskset, kept[index],
                   latencies[index], tracer)
            simulated += time.perf_counter() - started
        if rounds < len(tasksets):
            _check(run.passes[rounds], tasksets[rounds], kept[rounds],
                   tracer)
            kept[rounds] = {}
        rounds += 1
        if rounds < SETUP_REPEATS:
            for index, spec in enumerate(inputs.specs):
                tasksets[index] = _build(run.passes[index], inputs, spec)
    for result, by_protocol in zip(run.passes, latencies):
        for fastest, is_top in by_protocol.values():
            for latency, top in zip(fastest, is_top):
                if latency != NEVER:
                    result.latencies.append(latency)
                    if top:
                        result.top_latencies.append(latency)
    return run


def _build(result: SimPass, inputs: SimInputs, spec: Any) -> Any:
    """Build the pass's task set (and intern it into a kernel), adding
    the seconds to its ``setups``, and return it."""
    started = time.perf_counter()
    taskset = instance_taskset(spec, inputs.arrivals)
    # Kernel interning happens in the constructor.
    Simulator(taskset, make_protocol("pcp-da"), SimConfig(kernel=True))
    result.setups.append(time.perf_counter() - started)
    result.setup_s = statistics.median(result.setups)
    result.inputs_digest = fingerprint(taskset_document(taskset))
    return taskset


def _round(result: SimPass, taskset: Any, kept: Dict[str, SimulationResult],
           latencies: Dict[str, Tuple[array, array]],
           tracer: Optional[Tracer]) -> None:
    """One simulator run per protocol.  The first result of each is kept
    for the oracles; ``latencies`` keeps, per protocol and job, the
    fastest its commit instant ran in any repetition (the simulator is
    deterministic, so a job commits at the same instant in every one)
    and whether the job is of the top-priority type."""
    for protocol in SIM_PROTOCOLS:
        outcome, events, elapsed, instants = stepped_run(
            taskset, protocol, tracer
        )
        committed = len(outcome.committed_jobs)
        result.runs.append((events, committed, elapsed, protocol))
        if protocol not in result.fastest:
            kept[protocol] = outcome
            result.jobs += len(outcome.jobs)
            result.committed += committed
            latencies[protocol] = (
                array("d", (NEVER if x is None else x for x in instants)),
                array("b", (job.name.startswith("S1@")
                            for job in outcome.jobs)),
            )
        else:
            fastest = latencies[protocol][0]
            for index, latency in enumerate(instants):
                if latency is not None and latency < fastest[index]:
                    fastest[index] = latency
        if protocol not in result.fastest \
                or elapsed < result.fastest[protocol][2]:
            result.fastest[protocol] = (events, committed, elapsed)


def _check(result: SimPass, taskset: Any, kept: Dict[str, SimulationResult],
           tracer: Optional[Tracer]) -> None:
    # The oracles start from a collected heap, so the collections they
    # trigger do not depend on what the timing loop left behind.
    gc.collect()
    started = time.perf_counter()
    _verify(result, taskset, kept, tracer)
    result.verify_s = time.perf_counter() - started
    if result.committed != result.jobs:
        result.problems.append(
            f"{result.jobs - result.committed} simulated job(s) did not commit"
        )


def _timed(result: SimPass, key: str, tracer: Optional[Tracer],
           check: Any, *args: Any) -> None:
    """Run one oracle, adding its seconds under ``key``."""
    span = tracer.span(key) if tracer else nullcontext()
    started = time.perf_counter()
    try:
        with span:
            check(*args)
    except (InvariantViolation, SerializationViolation) as exc:
        result.problems.append(f"{key}: {exc}")
    result.verify[key] = result.verify.get(key, 0.0) \
        + time.perf_counter() - started


def _verify(result: SimPass, taskset: Any, kept: Dict[str, SimulationResult],
            tracer: Optional[Tracer]) -> None:
    pcp_da = kept["pcp-da"]

    def object_rerun() -> None:
        protocol = make_protocol("pcp-da")
        if tracer is not None:
            tracer.leaf(protocol, "decide", "protocols.decide")
        reference = Simulator(
            taskset, protocol, SimConfig(kernel=False)
        ).run()
        if result_to_json(reference) != result_to_json(pcp_da):
            raise InvariantViolation("kernel and object paths diverge")

    _timed(result, "verify.object_rerun_s", tracer, object_rerun)
    _timed(result, "verify.deadlock_free_s", tracer, assert_deadlock_free,
           pcp_da)
    _timed(result, "verify.no_restarts_s", tracer, assert_no_restarts, pcp_da)
    _timed(result, "verify.single_blocking_s", tracer, assert_single_blocking,
           pcp_da)
    _timed(result, "verify.serializable_s", tracer, assert_serializable,
           pcp_da)
    for protocol in SIM_PROTOCOLS[1:]:
        _timed(result, "verify.deadlock_free_s", tracer, assert_deadlock_free,
               kept[protocol])


def end_to_end(run: SimRun) -> Dict[str, float]:
    """End-to-end metrics, each from the fast end of repeated work: on a
    shared host interference only ever slows a sample, and the reference
    host runs the same code at one of two speeds, about 1.6x apart,
    switching every few seconds.

    The simulator is deterministic, so every repetition of a (pass,
    protocol) run does the same work: the rates are the events (jobs)
    of each one's fastest repetition over their summed seconds, and the
    latency percentiles pool each job's commit instant at its fastest
    repetition.
    ``verify_s`` adds up, oracle by oracle, its fastest pass.
    ``setup_s`` is the median of every pass's builds.
    """
    passes = run.passes
    fastest = [f for p in passes for f in p.fastest.values()]
    seconds = sum(f[2] for f in fastest)
    latencies = [x for p in passes for x in p.latencies]
    top = [x for p in passes for x in p.top_latencies]
    return {
        "setup_s": statistics.median(x for p in passes for x in p.setups),
        "verify_s": sum(
            min(p.verify[key] for p in passes) for key in passes[0].verify
        ),
        "sim_events_per_s": sum(f[0] for f in fastest) / seconds,
        "txn_p50_ms": percentile(latencies, 50) * 1e3,
        "hi_prio_p50_ms": percentile(top, 50) * 1e3,
        "peak_tps": sum(f[1] for f in fastest) / seconds,
    }


def samples_report(run: SimRun) -> Dict[str, Any]:
    """Per pass, the sample count behind each latency metric with the
    highest percentile the smallest pass supports, and the simulator
    runs."""
    out: Dict[str, Any] = {}
    for label, attr in (("txn", "latencies"), ("hi_prio", "top_latencies")):
        counts = [len(getattr(p, attr)) for p in run.passes]
        out[label] = {
            "n_per_pass": counts,
            "highest_supported_percentile": supported_percentile(min(counts)),
        }
    out["simulator_runs_per_pass"] = [len(p.runs) for p in run.passes]
    out["events_per_s_per_run"] = [
        round(e / s) for p in run.passes for e, _, s, _ in p.runs
    ]
    out["verify_s_per_pass"] = [p.verify_s for p in run.passes]
    out["setup_s_per_pass"] = [p.setup_s for p in run.passes]
    return out
