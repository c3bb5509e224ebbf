"""Open- and closed-loop load from one asyncio process, with outcome
accounting that loses nothing.

Every attempt at a transaction ends in exactly one outcome class;
unexpected exceptions are classified as ``errored`` with their message
kept, never dropped.  A ``SessionStateError`` saying the session is
already aborted is the coordinator aborting a session *between* two of
its operations and surfacing that on the client's next call instead of
raising ``TransactionAborted`` — a known program defect, counted on its
own (``aborted_between_ops``) and as a failed attempt, not hidden.

A client retries a transaction the service turned away or aborted
(admission reject, forced abort, deadline miss, abort between
operations), as an application would, up to :data:`MAX_ATTEMPTS`
times; every attempt is its own session and is counted as such.  A
transaction fails when its last attempt failed or it hit an error of
unknown cause, which is never retried.  Which attempts the service
aborts depends on timing, so failed *attempts* differ from run to run
of one seed; failed *transactions* do not (none, on the benchmark's
workloads).

Open-loop latency runs from each arrival's *due* time, so a stall that
delays the generator also shows in the latency of every arrival queued
behind it; how late the generator fired is reported separately.
"""

from __future__ import annotations

import asyncio
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import (
    AdmissionError,
    DeadlineExceeded,
    InvariantViolation,
    SerializationViolation,
    ServiceError,
    SessionStateError,
    TransactionAborted,
)

COMMITTED = "committed"
CHAOS = "chaos_abort"
REJECTED = "admission_reject"
FORCED = "forced_abort"
DEADLINE = "deadline_miss"
ERRORED = "errored"
#: Outcome classes that count as failures (chaos aborts are intended).
FAILURES = (REJECTED, FORCED, DEADLINE, ERRORED)
#: Attempts a client makes at one transaction before it gives up.
MAX_ATTEMPTS = 8
#: Outcomes a client retries (besides an abort between operations).
RETRIED = (REJECTED, FORCED, DEADLINE)
#: What ``_program`` returns for an errored attempt worth retrying.
RETRY_ERRORED = "errored_retry"


@dataclass
class Tally:
    """Outcome counts of one phase plus the samples the metrics need.

    ``outcomes`` counts attempts (sessions and admission rejects), which
    the service's own counters must agree with; ``transactions`` and
    ``gave_up`` count transactions.
    """

    outcomes: Dict[str, int] = field(default_factory=lambda: {
        name: 0 for name in (COMMITTED, CHAOS) + FAILURES
    })
    #: Sessions that reached ``begin`` successfully.
    begun: int = 0
    #: Transactions run, and those that failed after their last attempt.
    transactions: int = 0
    gave_up: int = 0
    #: Errored outcomes that were the between-operations abort defect.
    aborted_between_ops: int = 0
    #: Errored sessions the client aborted itself after the error.
    error_aborts: int = 0
    #: Exceptions that break a correctness guarantee (must be empty).
    violations: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    # Samples live in arrays, which the garbage collector does not scan:
    # lists of tuples here would lengthen the program's collection pauses
    # in every later pass.
    #: Due->ack seconds of committed transactions.
    latencies: array = field(default_factory=lambda: array("d"))
    #: The same, for the top-priority transaction type only.
    top_latencies: array = field(default_factory=lambda: array("d"))
    #: Loop-clock due instant of each committed transaction, and whether
    #: it is of the top-priority type, parallel to ``latencies``.
    due_at: array = field(default_factory=lambda: array("d"))
    is_top: array = field(default_factory=lambda: array("b"))
    #: Span id and due->task-start seconds of each committed transaction,
    #: parallel to ``latencies``.
    txn_ids: array = field(default_factory=lambda: array("q"))
    started_late: array = field(default_factory=lambda: array("d"))
    #: Seconds each arrival fired after its due time.
    lateness: array = field(default_factory=lambda: array("d"))
    #: Loop-clock instants of each commit acknowledgement, in order.
    commit_at: array = field(default_factory=lambda: array("d"))
    #: Loop-clock instant the phase started, and how long it ran.
    started_at: float = 0.0
    elapsed_s: float = 0.0

    @property
    def attempts(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed_attempts(self) -> int:
        return sum(self.outcomes[name] for name in FAILURES)

    @property
    def attempted(self) -> int:
        return self.transactions

    @property
    def failed(self) -> int:
        return self.gave_up


class LoadGenerator:
    """Runs catalog programs against anything with the manager surface
    (``begin/read/write/commit/abort``); ``top_type`` names the
    top-priority transaction type, whose latencies are also kept apart."""

    def __init__(self, manager: Any, programs: Dict[str, Sequence[Any]],
                 top_type: str, tracer: Any = None) -> None:
        self.manager = manager
        self.programs = programs
        self.top_type = top_type
        self.tracer = tracer

    async def _program(self, tally: Tally, arrival: Any) -> str:
        """One attempt at a transaction.  Requests are awaited back to
        back, as ``repro.verify.stress.run_stress`` does: an in-process
        call runs on until it blocks (see the README's findings for what
        happens when every request yields first).  Returns the outcome;
        an errored attempt the client may retry is ``RETRY_ERRORED``."""
        manager = self.manager
        try:
            session = await manager.begin(arrival.name)
        except AdmissionError:
            return REJECTED
        tally.begun += 1
        try:
            for op in self.programs[arrival.name]:
                if op.kind.value == "read":
                    await manager.read(session, op.item)
                else:
                    await manager.write(
                        session, op.item, f"{session.name}@{op.item}"
                    )
            if arrival.chaos_abort:
                await manager.abort(session, "loadgen-chaos")
                return CHAOS
            await manager.commit(session)
            return COMMITTED
        except DeadlineExceeded:
            return DEADLINE
        except TransactionAborted:
            return FORCED
        except SessionStateError as exc:
            tally.errors.append(f"{type(exc).__name__}: {exc}")
            if "already aborted" in str(exc):
                tally.aborted_between_ops += 1
                return RETRY_ERRORED
            return ERRORED
        except Exception as exc:  # noqa: BLE001 - classified, not dropped
            message = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, (InvariantViolation, SerializationViolation)):
                tally.violations.append(message)
            else:
                tally.errors.append(message)
            # A client gives up on a transaction whose request failed; a
            # session left live would hold its locks for ever.
            if session.state.live:
                try:
                    await manager.abort(session, "client-error")
                    tally.error_aborts += 1
                except ServiceError as abort_exc:
                    tally.errors.append(f"abort after error: {abort_exc}")
            return ERRORED

    async def _attempt(self, tally: Tally, arrival: Any, txn: int) -> str:
        try:
            if self.tracer is not None:
                with self.tracer.span("txn", txn=txn):
                    return await self._program(tally, arrival)
            return await self._program(tally, arrival)
        except Exception as exc:  # noqa: BLE001 - e.g. a failed begin
            tally.errors.append(f"{type(exc).__name__}: {exc}")
            return ERRORED

    async def one(self, tally: Tally, arrival: Any, due: float,
                  txn: int) -> None:
        """Run one arrival, retrying what the service turned away or
        aborted, and classify each attempt exactly once; ``txn`` tags
        the spans of every attempt."""
        loop = asyncio.get_running_loop()
        fired = loop.time()
        tally.transactions += 1
        for attempt in range(1, MAX_ATTEMPTS + 1):
            outcome = await self._attempt(tally, arrival, txn)
            retry = outcome in RETRIED or outcome == RETRY_ERRORED
            if outcome == RETRY_ERRORED:
                outcome = ERRORED
            tally.outcomes[outcome] += 1
            if not retry or attempt == MAX_ATTEMPTS:
                break
            # Let the transaction that won the conflict move on first.
            await asyncio.sleep(0)
        if outcome in FAILURES:
            tally.gave_up += 1
        if outcome == COMMITTED:
            now = loop.time()
            latency = now - due
            tally.commit_at.append(now)
            tally.latencies.append(latency)
            tally.due_at.append(due)
            top = arrival.name == self.top_type
            tally.is_top.append(top)
            if top:
                tally.top_latencies.append(latency)
            tally.txn_ids.append(txn)
            tally.started_late.append(fired - due)

    async def open_loop(self, arrivals: Sequence[Any]) -> Tally:
        """Fire each arrival at its schedule time, regardless of replies."""
        tally = Tally()
        loop = asyncio.get_running_loop()
        tasks: List[asyncio.Task] = []
        started = tally.started_at = loop.time()
        for arrival in arrivals:
            due = started + arrival.at_s
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tally.lateness.append(max(loop.time() - due, 0.0))
            tasks.append(asyncio.ensure_future(
                self.one(tally, arrival, due, arrival.seq)
            ))
        # ``one`` classifies every exception itself; gather re-raises
        # anything that escaped it instead of discarding it.
        await asyncio.gather(*tasks)
        tally.elapsed_s = loop.time() - started
        return tally

    async def closed_loop(self, arrivals: Sequence[Any], clients: int,
                          txn_base: int = 0) -> Tally:
        """``clients`` coroutines, each sending its next transaction as
        soon as the previous one resolved; span ids start at
        ``txn_base``."""
        tally = Tally()
        loop = asyncio.get_running_loop()
        pending = iter(arrivals)

        async def client() -> None:
            for arrival in pending:
                await self.one(
                    tally, arrival, loop.time(), txn_base + arrival.seq
                )

        started = tally.started_at = loop.time()
        await asyncio.gather(*(client() for _ in range(clients)))
        tally.elapsed_s = loop.time() - started
        return tally


def merge(tallies: Sequence[Tally]) -> Tally:
    """Outcome totals of several phases (samples are not merged)."""
    out = Tally()
    for tally in tallies:
        for name, count in tally.outcomes.items():
            out.outcomes[name] += count
        out.begun += tally.begun
        out.transactions += tally.transactions
        out.gave_up += tally.gave_up
        out.aborted_between_ops += tally.aborted_between_ops
        out.error_aborts += tally.error_aborts
        out.violations += tally.violations
        out.errors += tally.errors
    return out


def conservation(total: Tally, doc: Dict[str, Any],
                 live_sessions: int) -> List[str]:
    """Client-side totals against the service's ``stats_document()``.

    Returns the mismatches (empty = conserved).
    """
    problems: List[str] = []
    out = total.outcomes
    resolved = out[COMMITTED] + out[CHAOS] + out[FORCED] + out[DEADLINE] \
        + out[ERRORED]
    if total.begun != resolved:
        problems.append(f"client begun={total.begun} != resolved={resolved}")
    checks = (
        ("sessions_started", total.begun),
        ("sessions_rejected", out[REJECTED]),
        ("commits", out[COMMITTED]),
        ("client_aborts", out[CHAOS] + total.error_aborts),
        # Deadline and between-ops aborts are service-forced aborts.
        ("forced_aborts",
         out[FORCED] + out[DEADLINE] + out[ERRORED] - total.error_aborts),
        ("deadline_aborts", out[DEADLINE]),
    )
    for key, client_value in checks:
        if doc.get(key) != client_value:
            problems.append(
                f"service {key}={doc.get(key)} != client {client_value}"
            )
    unexplained = out[ERRORED] - total.aborted_between_ops \
        - len(total.violations)
    if unexplained:
        problems.append(
            f"{unexplained} errored operation(s) of unknown cause: "
            f"{total.errors[:3]}"
        )
    if live_sessions:
        problems.append(f"{live_sessions} session(s) still live")
    return problems


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(min(rank, len(ordered))) - 1]


def supported_percentile(count: int,
                         candidates: Sequence[float] = (99.9, 99, 95, 90, 50)
                         ) -> Optional[float]:
    """Highest candidate percentile leaving at least ten samples beyond."""
    for p in candidates:
        if count * (100 - p) / 100 >= 10:
            return p
    return None
