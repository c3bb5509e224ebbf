"""The asyncio lock-manager runtime: sessions, grant queues, commit.

This is the transport-agnostic heart of the service.  One
:class:`LockManager` owns exactly the objects a :class:`Simulator` owns —
a :class:`~repro.engine.lock_table.LockTable`, a
:class:`~repro.engine.inheritance.WaitForGraph`, a
:class:`~repro.db.database.Database`, a committed
:class:`~repro.db.history.History`, a
:class:`~repro.trace.recorder.TraceRecorder` — and drives them from client
requests arriving on the event loop instead of from a virtual-time
calendar.  Admission decisions are made by the *same* protocol objects the
simulator uses (``protocol.decide``), so the service's grant/deny
behaviour is the simulator's by construction; the differential battery in
``tests/test_service_differential.py`` pins that claim.

Concurrency model (docs/SERVICE.md has the full write-up):

* every state mutation happens synchronously between ``await`` points on
  one event loop, so decide→grant pairs are atomic and the lock table is
  never observed mid-update;
* a denied request parks in the **grant queue** — an ordered table of
  waiters — and its blockers inherit the requester's priority through the
  shared wait-for graph, exactly as in the engine;
* every lock release re-services the grant queue in (running priority,
  earliest deadline, FIFO) order, re-evaluating against the protocol's
  locking conditions exactly the waiters the release can affect (an
  item→waiters index plus each denial's blame set select them; every
  other denial is invariant under the churn); "wake" and "grant" are one
  atomic step here because there is no CPU to schedule, unlike the
  simulator's wake-then-retry dance;
* commits install deferred writes from the session workspace into the
  shared database under a monotonic service clock, so the recorded
  history replays through :func:`repro.db.serializability.check_serializable`
  unchanged.

Deadlines are *firm*: an expired session is aborted at its next operation
boundary, or mid-wait via the grant-queue timeout, mirroring the
simulator's ``on_miss="abort"`` policy.

Serialization-order enforcement (the concurrency delta vs the simulator):

PCP-DA's LC3/LC4 let a reader pass an item's *write* lock — the paper's
"dynamic adjustment": the reader observes the committed version and is
therefore serialized *before* the still-running writer.  On a single CPU
the priority scheduler enforces that order for free (the higher-priority
reader runs to completion before the writer regains the CPU); with truly
concurrent clients nothing does, and the writer could commit mid-flight
and leak its installs to the reader — a cycle the serializability oracle
duly reports.  The manager therefore makes the adjusted order explicit:

* a granted read on an item with live write holders records a
  ``reader ≺ writer`` constraint for each holder (the constraint graph
  stays acyclic because the order guard below refuses reads that would
  close a cycle);
* **commit gate** — a session with live ``≺``-predecessors parks its
  commit until they finish, so its installs can never be observed by a
  transaction serialized before it;
* **order guard** — a read of an item inside a live predecessor's write
  set is held back (this is the Table-1 footnote condition
  ``DataRead ∩ WriteSet = ∅`` carried forward in time: the footnote
  checks past reads at grant, the guard prevents future ones).

Gate and guard waits are service-level: they join the shared wait-for
graph (so blockers inherit priority and cycles are visible), and a cycle
that involves one is resolved by aborting its lowest-priority member —
the one place the live service may abort under a protocol the paper
proves abort-free, and the honest price of dropping the single-CPU
assumption.  Pure lock cycles under a ``can_deadlock=False`` protocol
remain :class:`InvariantViolation`s, exactly as in the simulator.
"""

from __future__ import annotations

import asyncio
import enum
import heapq
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.db.database import Database
from repro.db.history import History
from repro.engine.inheritance import WaitForGraph
from repro.engine.interfaces import (
    AbortAndGrant,
    ConcurrencyControlProtocol,
    Deny,
    Grant,
    InstallPolicy,
)
from repro.engine.job import Job
from repro.engine.kernel import build_kernel
from repro.engine.lock_table import LockTable
from repro.engine.simulator import SimulationResult
from repro.exceptions import (
    AdmissionError,
    DeadlineExceeded,
    InvariantViolation,
    ServiceError,
    SessionStateError,
    SpecificationError,
    TransactionAborted,
)
from repro.model.spec import LockMode, TaskSet
from repro.model.validation import validate_taskset
from repro.protocols import make_protocol
from repro.service.stats import ServiceStats
from repro.trace.recorder import (
    LockEvent,
    LockOutcome,
    SchedEventKind,
    TraceRecorder,
)


def catalog_document(catalog: TaskSet) -> List[Dict[str, Any]]:
    """JSON-friendly description of a catalog's transaction types.

    Shared by :meth:`LockManager.catalog_document` and the remote shard
    proxy, which answers the same query from its local catalog copy
    without a round-trip (the catalog is static and identical on every
    host by construction).
    """
    return [
        {
            "name": spec.name,
            "priority": spec.priority,
            "operations": [
                {
                    "kind": op.kind.value,
                    "item": op.item,
                    "duration": op.duration,
                }
                for op in spec.operations
            ],
            "reads": sorted(spec.read_set),
            "writes": sorted(spec.write_set),
        }
        for spec in catalog
    ]


class SessionState(enum.Enum):
    """Lifecycle of a service session (one transaction instance)."""

    ACTIVE = "active"        # may issue operations
    WAITING = "waiting"      # parked in the grant queue
    COMMITTED = "committed"  # terminal: writes installed
    ABORTED = "aborted"      # terminal: workspace discarded

    @property
    def live(self) -> bool:
        return self in (SessionState.ACTIVE, SessionState.WAITING)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`LockManager`.

    Attributes:
        max_sessions: admission-control cap on concurrently live sessions;
            ``begin`` raises :class:`AdmissionError` beyond it (``None`` =
            unbounded).
        default_deadline_s: relative deadline applied to sessions that do
            not specify one (``None`` = no deadline).
        deadlock_action: ``"abort_lowest"`` (default) aborts the
            lowest-base-priority session in a detected wait cycle —
            relevant only for protocols declaring ``can_deadlock``;
            ``"raise"`` surfaces the cycle as an error to the requester.
            For deadlock-free protocols (PCP-DA and family) a cycle is
            *always* reported as an :class:`InvariantViolation`: the paper
            proves it cannot happen, so it must not be silently resolved.
        record_sysceil: sample the protocol's global system ceiling into
            the trace after every lock churn (cheap with the incremental
            ceiling index; disable for maximum throughput).
        honor_early_release: apply the protocol's ``after_operation``
            early-unlock hook (CCP).  Off by default: releasing read locks
            before commit is only safe under the single-CPU scheduling
            the simulator provides, so the service holds every lock to
            commit unless explicitly asked to reproduce simulator
            behaviour.
        kernel: serve admissions from the array kernel
            (:mod:`repro.engine.kernel`) when the protocol compiles to a
            decision table; the object path remains the reference.  The
            grant/deny behaviour is identical by construction (the
            simulator's golden corpus and the service differential battery
            both pin it), so this is purely a throughput switch.
    """

    max_sessions: Optional[int] = None
    default_deadline_s: Optional[float] = None
    deadlock_action: str = "abort_lowest"
    record_sysceil: bool = True
    honor_early_release: bool = False
    kernel: bool = True

    def __post_init__(self) -> None:
        if self.deadlock_action not in ("abort_lowest", "raise"):
            raise SpecificationError(
                f"unknown deadlock_action {self.deadlock_action!r}"
            )
        if self.max_sessions is not None and self.max_sessions < 1:
            raise SpecificationError("max_sessions must be >= 1")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise SpecificationError("default_deadline_s must be positive")


class Session:
    """One live transaction: a :class:`Job` plus service bookkeeping.

    The embedded job is a *real* engine job — the protocols read its
    ``running_priority`` / ``data_read`` / ``spec`` exactly as they would
    inside the simulator, and its block intervals accumulate the same
    blocking statistics the paper's figures are built from.
    """

    __slots__ = ("id", "job", "state", "deadline", "opened_at", "op_count",
                 "abort_reason", "committing")

    def __init__(self, session_id: int, job: Job, opened_at: float,
                 deadline: Optional[float]):
        self.id = session_id
        self.job = job
        self.state = SessionState.ACTIVE
        #: Absolute deadline on the service clock, or None.
        self.deadline = deadline
        self.opened_at = opened_at
        #: Completed data operations (drives the CCP early-unlock hook).
        self.op_count = 0
        self.abort_reason = ""
        #: Commit fence flag (see :meth:`LockManager.prepare_commit`).
        self.committing = False

    @property
    def name(self) -> str:
        """The underlying job's instance name (``"T2#7"``)."""
        return self.job.name

    @property
    def priority(self) -> int:
        """The job's base priority (wire ``begin`` reports this; the
        sharded coordinator exposes the same attribute on its sessions)."""
        return self.job.base_priority


@dataclass
class _Waiter:
    """Grant-queue entry for one parked lock request."""

    session: Session
    item: str
    mode: LockMode
    future: "asyncio.Future[str]"
    parked_at: float
    #: Latest denial reason; "order guard ..." marks a service-level wait.
    reason: str = ""
    #: Blame set of the latest denial — the jobs whose lock churn could
    #: flip this decision.  Drives the partial re-decide in
    #: :meth:`LockManager._service_grant_queue`.
    blockers: Tuple[Job, ...] = ()
    #: The requester's running priority when last decided; a later change
    #: can flip LC2/LC3, so any delta re-queues the waiter.
    decided_priority: int = 0


class LockManager:
    """Serve lock requests from concurrent clients under one protocol.

    Args:
        catalog: the registered transaction types (a :class:`TaskSet` with
            total-order priorities).  Ceilings are static information, so
            the protocol family needs the catalog up front — a session is
            an *instance* of a catalog transaction, exactly like a job is
            an instance of a spec in the simulator.
        protocol: a protocol name (``"pcp-da"``) or a pre-built instance.
        config: see :class:`ServiceConfig`.
    """

    def __init__(
        self,
        catalog: TaskSet,
        protocol: Union[str, ConcurrencyControlProtocol] = "pcp-da",
        config: Optional[ServiceConfig] = None,
    ) -> None:
        validate_taskset(catalog, require_priorities=True)
        self.catalog = catalog
        self.config = config or ServiceConfig()
        if isinstance(protocol, str):
            protocol = make_protocol(protocol)
        self.protocol = protocol
        self.table = LockTable()
        self.waits = WaitForGraph()
        self.db = Database(sorted(catalog.items))
        self.history = History()
        self.trace = TraceRecorder()
        #: Callbacks fired synchronously on every recorded lock decision
        #: (grants, denials, abort-grants) with the :class:`LockEvent`.
        #: The parity harness (:mod:`repro.verify.parity`) uses this to
        #: capture a decision sequence in global order — including across
        #: the shards of a coordinator, where per-shard traces interleave.
        self.decision_listeners: List[Callable[[LockEvent], None]] = []
        #: Callbacks fired synchronously on lock churn, for embedders that
        #: maintain derived state (the shard coordinator).  Signature is
        #: ``listener(kind, job, other)`` with kinds:
        #:
        #: * ``"constraint"`` — an LC3/LC4 read recorded ``job ≺ other``;
        #: * ``"finish"`` / ``"abort"`` — ``job`` reached a terminal state
        #:   (``"abort"`` fires after the teardown is complete);
        #: * ``"wait"`` — ``job`` parked on (or re-pointed) a wait edge;
        #: * ``"unwait"`` — ``job`` left the wait-for graph without
        #:   terminating (grant, gate exit).  In-process consumers can
        #:   ignore it; remote wait-graph mirrors need it.
        self.churn_listeners: List[
            Callable[[str, Job, Optional[Job]], None]
        ] = []
        self.stats = ServiceStats()
        self.protocol.bind(catalog, self.table)
        self.protocol.bind_runtime(self.waits)
        #: Array kernel serving decide/system_ceiling when the protocol
        #: compiles to a table; ``None`` keeps the object path.
        self.kernel = (
            build_kernel(self.protocol, self.table, self.waits)
            if self.config.kernel
            else None
        )
        if self.kernel is not None:
            self._decide = self.kernel.decide
            self._sysceil = self.kernel.system_ceiling
        else:
            self._decide = self.protocol.decide
            self._sysceil = self.protocol.system_ceiling
        # Skip priority_floor calls for protocols using the inert default
        # (recompute_priorities then resets to base without N floor calls).
        self._floor = (
            None
            if type(self.protocol).priority_floor
            is ConcurrencyControlProtocol.priority_floor
            else self.protocol.priority_floor
        )

        self._sessions: Dict[int, Session] = {}
        self._by_job: Dict[Job, Session] = {}
        self._live: Dict[Session, None] = {}   # insertion-ordered set
        self._waiters: Dict[Session, _Waiter] = {}
        #: item -> sessions parked on it (partial re-decide index).
        self._item_waiters: Dict[str, Set[Session]] = {}
        #: Lock churn since the last grant-queue drain: items whose locks
        #: were released and the jobs that released them.  Terminal
        #: transitions and early unlocks feed these; the drain re-decides
        #: only the waiters they can affect.
        self._churn_items: Set[str] = set()
        self._churn_jobs: Set[Job] = set()
        # Serialization-order constraints among LIVE jobs (see module
        # docstring): _pred[w] = {s: s ≺ w}, _succ[s] = {w: s ≺ w}.
        self._pred: Dict[Job, Set[Job]] = {}
        self._succ: Dict[Job, Set[Job]] = {}
        #: Memoized transitive closures over ``_pred``, dirtied wholesale
        #: on any constraint-graph edit (see :meth:`_transitive_preds`).
        self._preds_cache: Dict[Job, Set[Job]] = {}
        #: Sessions parked at the commit gate, with their wake-up futures.
        self._gate_futures: Dict[Session, "asyncio.Future[None]"] = {}
        #: Commit-fenced sessions (see :meth:`prepare_commit`): while a
        #: job is in here, reads may not pass its write locks.
        self._committing: Dict[Job, Session] = {}
        self._next_session_id = 0
        self._instances: Dict[str, int] = {}
        self._t0 = time.monotonic()
        self._closed = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the manager started (the service clock)."""
        return time.monotonic() - self._t0

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    async def begin(
        self,
        transaction: str,
        *,
        deadline_s: Optional[float] = None,
        instance: Optional[int] = None,
    ) -> Session:
        """Open a session executing one instance of ``transaction``.

        ``instance`` pins the instance number instead of drawing from the
        manager's own counter — the shard coordinator uses this so every
        leg of one global transaction carries the same name on every
        shard (the counter is bumped past the pin, so mixed use stays
        collision-free).

        Raises:
            AdmissionError: the ``max_sessions`` backpressure cap is hit.
            SpecificationError: unknown transaction name.
            ServiceError: the manager is shut down.
        """
        self._ensure_open()
        spec = self.catalog[transaction]
        limit = self.config.max_sessions
        if limit is not None and len(self._live) >= limit:
            self.stats.sessions_rejected += 1
            raise AdmissionError(
                f"session limit reached ({limit} live sessions); retry later"
            )
        now = self.now()
        if instance is None:
            instance = self._instances.get(transaction, 0)
            self._instances[transaction] = instance + 1
        else:
            self._instances[transaction] = max(
                self._instances.get(transaction, 0), instance + 1
            )
        job = Job(spec, instance, now)
        session = Session(self._next_session_id, job, now, None)
        self._next_session_id += 1
        relative = (
            deadline_s if deadline_s is not None
            else self.config.default_deadline_s
        )
        if relative is not None:
            session.deadline = now + relative
        self._sessions[session.id] = session
        self._by_job[job] = session
        self._live[session] = None
        self.stats.sessions_started += 1
        self.trace.sched(now, SchedEventKind.ARRIVAL, job.name)
        return session

    def session(self, session_id: int) -> Session:
        """Look up a session by id (for the wire layer)."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionStateError(f"unknown session {session_id}") from None

    async def read(self, session: Session, item: str) -> Any:
        """Read ``item``, acquiring the read lock first if needed.

        Returns the observed value: the session's own buffered write when
        one exists, otherwise the committed version bound on first read
        (re-reads return the same version — locks are held to commit).
        """
        self._pre_op(session, item, LockMode.READ)
        job = session.job
        if job.workspace.has_write(item):
            # Own deferred write: intra-transaction, no lock, no history.
            return job.workspace.written_value(item)
        if not (
            self.table.holds(job, item, LockMode.READ)
            or self.table.holds(job, item, LockMode.WRITE)
        ):
            await self._acquire(session, item, LockMode.READ)
        record = job.workspace.read_record(item)
        if record is not None:
            return record.value  # re-read under the held lock
        now = self.now()
        version = self.db.read_committed(item)
        job.data_read.add(item)
        job.workspace.note_read(item, version.seq, now, value=version.value)
        self.history.record_read(job.name, item, version.seq, now)
        self._after_data_op(session)
        return version.value

    async def write(self, session: Session, item: str, value: Any) -> None:
        """Buffer a deferred write of ``value`` to ``item``.

        The write-lock request goes through the protocol (LC1 for PCP-DA);
        the value stays in the session workspace until commit.
        """
        self._pre_op(session, item, LockMode.WRITE)
        job = session.job
        if not self.table.holds(job, item, LockMode.WRITE):
            await self._acquire(session, item, LockMode.WRITE)
        job.workspace.buffer_write(item, value)
        self._after_data_op(session)

    async def commit(self, session: Session) -> Dict[str, Any]:
        """Commit: install buffered writes atomically, release all locks.

        Returns a summary dict (installed items, latency, blocking time).
        """
        self._pre_op(session, None, None)
        job = session.job
        # Commit gate: transactions serialized before this one (they read
        # past its write locks) must finish first, or they could observe
        # this commit's installs and close a serialization cycle.
        while True:
            predecessors = tuple(sorted(
                self._pred.get(job, ()), key=lambda j: j.seq
            ))
            if not predecessors:
                break
            await self._gate_on(session, predecessors)
        victims = self.protocol.before_commit(job)
        if victims:
            # Validation-based protocols (OCC-BC): broadcast-abort the
            # readers this commit invalidates.  Unlike the simulator there
            # is no restart — the client owning the session retries.
            for victim in tuple(victims):
                self._abort_session(
                    self._by_job[victim], "validation",
                    exc=TransactionAborted(
                        f"{victim.name} aborted by {job.name}'s commit "
                        "(validation)"
                    ),
                )
        now = self.now()
        installed = []
        if self.protocol.install_policy is InstallPolicy.AT_COMMIT:
            for item in sorted(job.workspace.pending_writes):
                value = job.workspace.written_value(item)
                version = self.db.install(item, value, job.name, now)
                self.history.record_install(job.name, item, version.seq, now)
                installed.append(item)
        self.history.record_commit(job.name, now)
        self._finish(session, SessionState.COMMITTED, now)
        job.finish_time = now
        self.trace.sched(now, SchedEventKind.COMMIT, job.name)
        latency = now - session.opened_at
        blocking = job.total_blocking_time()
        self.stats.record_commit(job.base_priority, latency)
        self._service_grant_queue()
        return {
            "installed": installed,
            "latency_s": latency,
            "blocking_s": blocking,
        }

    def prepare_commit(self, session: Session) -> Tuple[str, ...]:
        """Fence the session for a coordinator-driven cross-shard install.

        Used by the multi-process deployment, where installing one
        global commit leg per shard takes a wire round-trip each: the
        coordinator fences every leg first, so no reader can slip past a
        write lock (recording a ``reader ≺ committer`` constraint) after
        the coordinator's last merged-gate check.  Reads denied by the
        fence park in the grant queue and are re-decided when the fence
        drops — at the leg's commit (they then read the installed
        version) or at :meth:`unprepare_commit` (the coordinator backed
        off to wait at its gate).

        Returns the names of the session's current live local
        ``≺``-predecessors, so the coordinator can re-check its merged
        gate once every leg is fenced.  Sync on purpose: the in-process
        coordinator calls it inside its atomic commit section.
        """
        if not session.state.live:
            raise TransactionAborted(
                f"{session.name}: {session.abort_reason or 'not live'}"
            )
        session.committing = True
        self._committing[session.job] = session
        return tuple(sorted(
            p.name for p in self._pred.get(session.job, ())
        ))

    def unprepare_commit(self, session: Session) -> None:
        """Drop a commit fence without committing (coordinator back-off).

        Re-services the grant queue so reads the fence parked are
        re-decided — they pass the write locks again (LC3/LC4) exactly
        as if the fence had never existed.
        """
        if self._committing.pop(session.job, None) is None:
            return
        session.committing = False
        # Fence denials blame the fenced job; dropping the fence is churn
        # on that job, which re-selects exactly those waiters.
        self._note_release_churn(session.job, ())
        self._service_grant_queue()

    async def abort(self, session: Session, reason: str = "client") -> None:
        """Abort the session: discard its workspace, release its locks."""
        if not session.state.live:
            raise SessionStateError(
                f"{session.name}: cannot abort a {session.state.value} session"
            )
        if session.state is SessionState.WAITING:
            raise SessionStateError(
                f"{session.name}: another operation is waiting for a lock"
            )
        self._abort_session(session, reason, forced=False)
        self._service_grant_queue()

    async def shutdown(self) -> None:
        """Abort every live session and refuse further requests."""
        if self._closed:
            return
        self._closed = True
        for session in list(self._live):
            self._abort_session(
                session, "shutdown",
                exc=TransactionAborted("service shutting down"),
            )
        self._service_grant_queue()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_sessions(self) -> Tuple[Session, ...]:
        """Currently live (active or waiting) sessions, oldest first."""
        return tuple(self._live)

    def system_ceiling(self) -> int:
        """The current global system ceiling (kernel-backed when active)."""
        return self._sysceil(None)

    def stats_document(self) -> Dict[str, Any]:
        """The ``stats`` command payload: counters + live-state gauges."""
        doc = self.stats.to_dict()
        doc["live_sessions"] = len(self._live)
        doc["waiting_sessions"] = len(self._waiters)
        doc["protocol"] = self.protocol.name
        doc["uptime_s"] = self.now()
        doc["system_ceiling"] = self.system_ceiling()
        doc["decision_path"] = "kernel" if self.kernel is not None else "object"
        return doc

    def history_events(self) -> List[Dict[str, Any]]:
        """The observable history as JSON-friendly rows (oracle replay)."""
        return [
            {
                "kind": event.kind.value,
                "job": event.job,
                "item": event.item,
                "version_seq": event.version_seq,
                "time": event.time,
            }
            for event in self.history
        ]

    def catalog_document(self) -> List[Dict[str, Any]]:
        """The registered transaction types (the ``catalog`` command)."""
        return catalog_document(self.catalog)

    def snapshot_result(self) -> SimulationResult:
        """Package the run so far as a :class:`SimulationResult`.

        This is what lets the live path reuse the simulator's oracles
        verbatim: ``check_serializable()`` replays the history, and the
        trace metrics/exports consume the recorder exactly as they would a
        simulated run.
        """
        return SimulationResult(
            taskset=self.catalog,
            protocol_name=self.protocol.name,
            jobs=tuple(s.job for s in self._sessions.values()),
            history=self.history,
            trace=self.trace,
            database=self.db,
            end_time=self.now(),
        )

    # ------------------------------------------------------------------
    # Operation plumbing
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("lock manager is shut down")

    def _trace_lock(
        self,
        time: float,
        job_name: str,
        item: str,
        mode: LockMode,
        outcome: LockOutcome,
        rule: str,
        blockers: Tuple[str, ...] = (),
    ) -> None:
        """Record one lock decision and fan it out to the listeners."""
        event = LockEvent(time, job_name, item, mode, outcome, rule, blockers)
        self.trace.lock_events.append(event)
        for listener in self.decision_listeners:
            listener(event)

    def _notify_churn(
        self, kind: str, job: Job, other: Optional[Job] = None
    ) -> None:
        """Fan one churn event out to the registered listeners."""
        for listener in self.churn_listeners:
            listener(kind, job, other)

    def _note_release_churn(self, job: Job, items) -> None:
        """Record released locks for the next grant-queue drain."""
        self._churn_jobs.add(job)
        self._churn_items.update(items)

    def _pre_op(
        self,
        session: Session,
        item: Optional[str],
        mode: Optional[LockMode],
    ) -> None:
        """Shared entry checks: session state, deadline, access sets."""
        self._ensure_open()
        if session.state is SessionState.WAITING:
            raise SessionStateError(
                f"{session.name}: a previous operation is still waiting "
                "for a lock (one in-flight operation per session)"
            )
        if not session.state.live:
            raise SessionStateError(
                f"{session.name}: session already {session.state.value}"
            )
        if session.deadline is not None and self.now() > session.deadline:
            self.stats.deadline_aborts += 1
            self._abort_session(session, "deadline", forced=True)
            self._service_grant_queue()
            raise DeadlineExceeded(
                f"{session.name}: deadline passed before the operation"
            )
        if item is None or mode is None:
            return
        spec = session.job.spec
        allowed = spec.access_set if mode is LockMode.READ else spec.write_set
        if item not in allowed:
            raise SessionStateError(
                f"{session.name}: {mode.value} of {item!r} is outside the "
                f"declared {'access' if mode is LockMode.READ else 'write'} "
                f"set of {spec.name} (ceilings are static — register the "
                "item in the catalog)"
            )

    def _after_data_op(self, session: Session) -> None:
        """Post-operation hook: CCP-style early unlocks."""
        op_index = session.op_count
        session.op_count += 1
        if not self.config.honor_early_release:
            return
        released: List[str] = []
        for item, mode in self.protocol.after_operation(session.job, op_index):
            # A free-form client may diverge from the declared program; an
            # early-unlock suggestion for a lock not actually held is
            # skipped rather than treated as corruption.
            if self.table.holds(session.job, item, mode):
                self.table.release(session.job, item, mode)
                released.append(item)
        if released:
            self._note_release_churn(session.job, released)
            self._recompute_priorities()
            self._service_grant_queue()

    # ------------------------------------------------------------------
    # Lock acquisition and the grant queue
    # ------------------------------------------------------------------
    async def _acquire(self, session: Session, item: str, mode: LockMode) -> str:
        """Acquire ``mode`` on ``item``, parking in the grant queue on deny.

        Returns the grant rule string.  Everything before the ``await`` is
        synchronous, so decide→grant is atomic with respect to other
        clients.
        """
        job = session.job
        decision = self._service_decide(job, item, mode)
        now = self.now()
        if isinstance(decision, Grant):
            self._apply_grant(session, item, mode, decision.rule, now)
            return decision.rule
        if isinstance(decision, AbortAndGrant):
            self._resolve_abort_grant(session, item, mode, decision, now)
            return decision.reason

        assert isinstance(decision, Deny)
        self.stats.record_denial(job.base_priority)
        blocker_names = tuple(sorted(b.name for b in decision.blockers))
        job.begin_block(now, item, mode, blocker_names, decision.reason)
        self._trace_lock(
            now, job.name, item, mode, LockOutcome.DENIED, decision.reason,
            blocker_names,
        )
        future: "asyncio.Future[str]" = asyncio.get_running_loop().create_future()
        waiter = _Waiter(session, item, mode, future, now,
                         reason=decision.reason,
                         blockers=decision.blockers,
                         decided_priority=job.running_priority)
        self._waiters[session] = waiter
        self._item_waiters.setdefault(item, set()).add(session)
        session.state = SessionState.WAITING
        self.waits.block(job, decision.blockers, inherit=decision.inherit)
        self._notify_churn("wait", job)
        self._recompute_priorities()
        try:
            self._check_deadlock(session)
        except BaseException:
            # The request itself is rejected (deadlock_action="raise" or an
            # invariant violation): unpark before propagating so the grant
            # queue never holds a dead entry.
            if self._pop_waiter(session) is not None:
                session.state = SessionState.ACTIVE
            raise
        self._sample_sysceil()

        timeout = None
        if session.deadline is not None:
            timeout = max(0.0, session.deadline - self.now())
        try:
            if timeout is None:
                rule = await future
            else:
                rule = await asyncio.wait_for(future, timeout)
            return rule
        except asyncio.TimeoutError:
            # Deadline expired mid-wait: leave the queue and abort firmly.
            # (_abort_session also covers the race where the grant landed
            # just before the timeout — deadline semantics win.)
            self._pop_waiter(session)
            if session.state.live:
                self.stats.deadline_aborts += 1
                self._abort_session(session, "deadline", forced=True)
                self._service_grant_queue()
            raise DeadlineExceeded(
                f"{session.name}: deadline passed waiting for "
                f"{mode.value}({item})"
            ) from None
        except asyncio.CancelledError:
            # The client's task was cancelled (connection dropped) while
            # parked: tear the session down so its queue entry and wait
            # edges do not outlive the client.
            if self._pop_waiter(session) is not None:
                self._abort_session(session, "cancelled", forced=True)
                self._service_grant_queue()
            raise

    def _order_guard(
        self, job: Job, item: str, mode: LockMode
    ) -> Optional[Deny]:
        """The service-level guard decision, or ``None`` to pass through.

        A read of an item inside a live transitive ``≺``-predecessor's
        write set must wait: granting it would let the requester observe
        state that a transaction serialized *before* it is about to
        overwrite (or would close a cycle in the constraint graph).  This
        is the Table-1 footnote condition applied forward in time.
        """
        if mode is not LockMode.READ or not self._pred:
            return None
        guard = tuple(sorted(
            (p for p in self._transitive_preds(job)
             if item in p.spec.write_set),
            key=lambda j: j.seq,
        ))
        if guard:
            return Deny(
                guard,
                "order guard: item is writable by a transaction "
                "serialized before the requester",
            )
        return None

    def _commit_fence(
        self, job: Job, item: str, mode: LockMode
    ) -> Optional[Deny]:
        """Deny reads past a fenced (committing) session's write locks.

        Between :meth:`prepare_commit` and the commit (or
        :meth:`unprepare_commit`), an LC3/LC4 read passing one of the
        fenced session's write locks would record a new ``reader ≺
        committer`` constraint that the coordinator's merged gate check
        can no longer see in time — so the read parks until the install
        completes (it then reads the new version, serialized after) or
        the fence is dropped (it then passes as usual).
        """
        if not self._committing or mode is not LockMode.READ:
            return None
        holders = tuple(sorted(
            (w for w in self.table.writers_of(item)
             if w is not job and w in self._committing),
            key=lambda j: j.seq,
        ))
        if holders:
            return Deny(
                holders,
                "commit fence: a write holder is installing across shards",
            )
        return None

    def _service_predecide(
        self, job: Job, item: str, mode: LockMode
    ) -> Optional[Deny]:
        """The service-level pre-decision (fence, then order guard), or
        ``None`` to fall through to the protocol."""
        fence = self._commit_fence(job, item, mode)
        if fence is not None:
            return fence
        return self._order_guard(job, item, mode)

    def _service_decide(
        self, job: Job, item: str, mode: LockMode
    ) -> Union[Grant, AbortAndGrant, Deny]:
        """The protocol's decision (kernel or object path), tightened by
        the commit fence and the order guard."""
        deny = self._service_predecide(job, item, mode)
        if deny is not None:
            return deny
        return self._decide(job, item, mode)

    def _transitive_preds(self, job: Job) -> Set[Job]:
        """All live jobs serialized before ``job`` (transitively).

        Memoized per job: the cache is dirtied wholesale on every
        constraint-graph edit (:meth:`_apply_grant` adds edges,
        :meth:`_drop_constraints` removes them), so the order guard's
        repeated closure walks between lock churns are O(1).  Callers
        must not mutate the returned set.
        """
        cached = self._preds_cache.get(job)
        if cached is not None:
            return cached
        seen: Set[Job] = set()
        stack = [job]
        while stack:
            for pred in self._pred.get(stack.pop(), ()):
                if pred not in seen:
                    seen.add(pred)
                    stack.append(pred)
        self._preds_cache[job] = seen
        return seen

    def _apply_grant(
        self,
        session: Session,
        item: str,
        mode: LockMode,
        rule: str,
        now: float,
        outcome: LockOutcome = LockOutcome.GRANTED,
        blockers: Tuple[str, ...] = (),
    ) -> None:
        job = session.job
        self.table.grant(job, item, mode)
        self.protocol.on_granted(job, item, mode)
        if mode is LockMode.READ:
            # Reading past a write lock (LC3/LC4) serializes this session
            # before every current write holder — record the adjusted
            # order so commit gating can enforce it (see module docstring).
            writers = self.table.writers_of(item) - {job}
            if writers:
                self._preds_cache.clear()
                for writer in writers:
                    self._succ.setdefault(job, set()).add(writer)
                    self._pred.setdefault(writer, set()).add(job)
                    self._notify_churn("constraint", job, writer)
        self._recompute_priorities()
        job.grant_rules.append((now, item, mode, rule))
        self.stats.record_grant(job.base_priority)
        self._trace_lock(now, job.name, item, mode, outcome, rule, blockers)
        self._sample_sysceil()

    def _resolve_abort_grant(
        self,
        session: Session,
        item: str,
        mode: LockMode,
        decision: AbortAndGrant,
        now: float,
    ) -> None:
        """2PL-HP-style decision: abort the victims, then take the lock."""
        victim_names = tuple(v.name for v in decision.victims)
        for victim in decision.victims:
            self._abort_session(
                self._by_job[victim], "victim",
                exc=TransactionAborted(
                    f"{victim.name} aborted by higher-priority "
                    f"{session.name} ({decision.reason or 'conflict'})"
                ),
            )
        self.stats.abort_grants += 1
        self._apply_grant(
            session, item, mode, decision.reason, now,
            outcome=LockOutcome.ABORT_GRANTED, blockers=victim_names,
        )
        self._service_grant_queue()

    def _grant_queue_order(self, waiter: _Waiter) -> Tuple[int, float, int]:
        """Priority-and-deadline-aware queue key: highest running priority
        first, then earliest deadline, then FIFO by job release."""
        deadline = (
            waiter.session.deadline
            if waiter.session.deadline is not None
            else float("inf")
        )
        return (-waiter.session.job.running_priority, deadline,
                waiter.session.job.seq)

    def _drain_candidates(self) -> Dict[Session, _Waiter]:
        """Consume the churn sets and pick the waiters they can affect.

        A parked request is a re-decide candidate iff (a) a lock on *its
        item* was released, (b) a job *it blames* released any lock (the
        denial reports exactly the holders whose departure can flip it:
        LC1's readers, the ceiling's T*, the footnote's violators, the
        guard's writing predecessors), or (c) its own running priority
        moved since it was last decided (LC2 compares the requester's
        priority against the system ceiling).  Every other denial is
        invariant under the drained churn, so skipping it changes only
        the work done, never the decisions.
        """
        churn_items = self._churn_items
        churn_jobs = self._churn_jobs
        self._churn_items = set()
        self._churn_jobs = set()
        if not self._waiters:
            return {}
        picked: Dict[Session, _Waiter] = {}
        for item in churn_items:
            for session in self._item_waiters.get(item, ()):
                waiter = self._waiters.get(session)
                if waiter is not None:
                    picked[session] = waiter
        for session, waiter in self._waiters.items():
            if session in picked:
                continue
            if waiter.session.job.running_priority != waiter.decided_priority:
                picked[session] = waiter
                continue
            if churn_jobs:
                for blocker in waiter.blockers:
                    if blocker in churn_jobs:
                        picked[session] = waiter
                        break
        return picked

    def _service_grant_queue(self) -> None:
        """Re-decide the parked requests the latest lock churn can flip.

        Releases accumulate in ``_churn_items`` / ``_churn_jobs`` between
        drains; each pass re-evaluates only the candidates
        :meth:`_drain_candidates` selects, ordered through a heap in
        (running priority, earliest deadline, FIFO) order.  Each
        candidate is decided *at most once per drain*: a denial removes
        it from the working set (its refreshed blame re-selects it on
        the next relevant churn), and a grant resumes the pass over the
        still-undecided suffix plus whatever fresh churn the grant's
        teardown produced (an ``AbortAndGrant`` feeds its victims'
        releases back through the churn sets).  A pure grant never frees
        a lock, so re-deciding the already-denied prefix after one could
        only flip through a priority ripple — which the next drain's
        priority-delta rule catches.  This is the service counterpart of
        the simulator's wake-then-retry loop, collapsed into one atomic
        step because waiters need no CPU to proceed — minus the
        full-queue re-sort (and per-grant re-decide storm) the simulator
        never needed either.
        """
        candidates = self._drain_candidates()
        progressed = True
        while progressed and candidates:
            progressed = False
            heap = [
                (self._grant_queue_order(w), w.session.job.seq, w)
                for s, w in candidates.items()
                if self._waiters.get(s) is w and not w.future.done()
            ]
            heapq.heapify(heap)
            ordered: List[_Waiter] = []
            while heap:
                ordered.append(heapq.heappop(heap)[2])
            decisions = self._decide_queue(ordered)
            for waiter, decision in zip(ordered, decisions):
                session = waiter.session
                now = self.now()
                if isinstance(decision, Grant):
                    self._pop_waiter(session)
                    candidates.pop(session, None)
                    session.state = SessionState.ACTIVE
                    self._apply_grant(
                        session, waiter.item, waiter.mode, decision.rule, now
                    )
                    waiter.future.set_result(decision.rule)
                    progressed = True
                    break  # table changed: resume over the suffix
                if isinstance(decision, AbortAndGrant):
                    self._pop_waiter(session)
                    candidates.pop(session, None)
                    session.state = SessionState.ACTIVE
                    self._resolve_abort_grant(
                        session, waiter.item, waiter.mode, decision, now
                    )
                    waiter.future.set_result(decision.reason)
                    progressed = True
                    break
                assert isinstance(decision, Deny)
                # Decided this drain: out of the working set until churn
                # that can actually flip it re-selects it.
                candidates.pop(session, None)
            if progressed:
                # The grant (or its victims' teardown) is fresh churn:
                # fold any newly affected waiters into the working set.
                candidates.update(self._drain_candidates())
        self._recompute_priorities()
        # Blocker refreshes above can *redirect* wait edges (the denial's
        # blame set tracks the current holders), so a cycle can appear
        # here without any new request parking — sweep for it, or two
        # redirected waiters could starve each other forever.
        if self._waiters:
            self._check_deadlock(None)

    def _decide_queue(self, ordered: List[_Waiter]) -> List[
        Union[Grant, AbortAndGrant, Deny]
    ]:
        """Decisions for one grant-queue pass, stopping after the first
        non-``Deny``; every denial's blame is refreshed *before* the next
        waiter is decided (the new inheritance edges feed the next
        decision's transitive-waiter exemption).

        With the kernel active this is one :meth:`Kernel.decide_batch`
        call — the order guard rides along as a per-request pre-decision,
        and the blame refresh plugs into the batch's ``on_deny`` hook.
        """
        if self.kernel is not None:
            requests = []
            for waiter in ordered:
                job = waiter.session.job
                deny = self._service_predecide(job, waiter.item, waiter.mode)
                if deny is None:
                    requests.append((job, waiter.item, waiter.mode))
                else:
                    requests.append((job, waiter.item, waiter.mode, deny))
            # Denials are exactly the processed prefix of ``ordered`` (the
            # batch stops at the first grant), so the callback walks the
            # same list in lock-step.
            denied = iter(ordered)
            return self.kernel.decide_batch(
                requests,
                on_deny=lambda request, decision: self._refresh_blame(
                    next(denied), decision
                ),
            )
        out: List[Union[Grant, AbortAndGrant, Deny]] = []
        for waiter in ordered:
            decision = self._service_decide(
                waiter.session.job, waiter.item, waiter.mode
            )
            out.append(decision)
            if not isinstance(decision, Deny):
                break
            self._refresh_blame(waiter, decision)
        return out

    def _refresh_blame(self, waiter: _Waiter, decision: Deny) -> None:
        """Point a still-parked waiter's blame at the *current* holders
        (the open block interval keeps its original start — one wait is
        one interval)."""
        waiter.reason = decision.reason
        waiter.blockers = decision.blockers
        job = waiter.session.job
        waiter.decided_priority = job.running_priority
        self.waits.block(job, decision.blockers, inherit=decision.inherit)
        self._notify_churn("wait", job)
        if job.block_intervals and job.block_intervals[-1].end is None:
            last = job.block_intervals[-1]
            last.blockers = tuple(
                sorted(b.name for b in decision.blockers)
            )
            last.reason = decision.reason

    def _pop_waiter(self, session: Session) -> Optional[_Waiter]:
        """Remove a session's grant-queue entry and close its wait.

        Idempotent: returns ``None`` when another path already cleaned up.
        """
        waiter = self._waiters.pop(session, None)
        if waiter is None:
            return None
        parked = self._item_waiters.get(waiter.item)
        if parked is not None:
            parked.discard(session)
            if not parked:
                self._item_waiters.pop(waiter.item, None)
        job = session.job
        now = self.now()
        if job.block_intervals and job.block_intervals[-1].end is None:
            job.end_block(now)
            self.stats.record_wait(
                job.base_priority, job.block_intervals[-1].duration
            )
        self.waits.unblock(job)
        self._notify_churn("unwait", job)
        return waiter

    # ------------------------------------------------------------------
    # The commit gate (serialization-order enforcement)
    # ------------------------------------------------------------------
    async def _gate_on(
        self, session: Session, predecessors: Tuple[Job, ...]
    ) -> None:
        """Park ``session``'s commit until a ``≺``-predecessor finishes.

        The wait joins the shared wait-for graph, so predecessors inherit
        the committer's priority and cycles involving the gate are visible
        to :meth:`_check_deadlock`.  Returns after *any* predecessor ends;
        the caller's loop re-evaluates the remaining set.
        """
        job = session.job
        now = self.now()
        names = tuple(sorted(p.name for p in predecessors))
        reason = (
            "commit gate: transactions serialized before this one "
            "are still running"
        )
        future: "asyncio.Future[None]" = (
            asyncio.get_running_loop().create_future()
        )
        self._gate_futures[session] = future
        session.state = SessionState.WAITING
        job.begin_block(now, "<commit>", LockMode.WRITE, names, reason)
        self.waits.block(job, predecessors, inherit=True)
        self._notify_churn("wait", job)
        self._recompute_priorities()
        try:
            self._check_deadlock(session)
        except BaseException:
            self._close_gate(session)
            raise
        self._sample_sysceil()

        timeout = None
        if session.deadline is not None:
            timeout = max(0.0, session.deadline - self.now())
        try:
            if timeout is None:
                await future
            else:
                await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._close_gate(session)
            if session.state.live:
                self.stats.deadline_aborts += 1
                self._abort_session(session, "deadline", forced=True)
                self._service_grant_queue()
            raise DeadlineExceeded(
                f"{session.name}: deadline passed at the commit gate"
            ) from None
        except asyncio.CancelledError:
            self._close_gate(session)
            if session.state.live:
                self._abort_session(session, "cancelled", forced=True)
                self._service_grant_queue()
            raise
        else:
            self._close_gate(session)

    def _close_gate(self, session: Session) -> None:
        """Leave the commit gate (idempotent; abort paths call it too)."""
        self._gate_futures.pop(session, None)
        job = session.job
        if job.block_intervals and job.block_intervals[-1].end is None:
            job.end_block(self.now())
            self.stats.record_wait(
                job.base_priority, job.block_intervals[-1].duration
            )
        if session.state is SessionState.WAITING:
            session.state = SessionState.ACTIVE
        if session.state.live:
            self.waits.unblock(job)
            self._notify_churn("unwait", job)
            self._recompute_priorities()

    def _wake_gates(self) -> None:
        """Re-check every gated commit after a session finished."""
        for future in self._gate_futures.values():
            if not future.done():
                future.set_result(None)

    def _drop_constraints(self, job: Job) -> None:
        """Remove a finished job from the serialization-constraint graph."""
        if self._preds_cache:
            self._preds_cache.clear()
        for succ in self._succ.pop(job, ()):
            preds = self._pred.get(succ)
            if preds is not None:
                preds.discard(job)
                if not preds:
                    self._pred.pop(succ, None)
        for pred in self._pred.pop(job, ()):
            succs = self._succ.get(pred)
            if succs is not None:
                succs.discard(job)
                if not succs:
                    self._succ.pop(pred, None)

    # ------------------------------------------------------------------
    # Abort / deadlock machinery
    # ------------------------------------------------------------------
    def force_abort(
        self,
        session: Session,
        reason: str,
        *,
        exc: Optional[ServiceError] = None,
    ) -> None:
        """Service-initiated abort, then re-service the grant queue.

        The public entry the shard coordinator uses to cascade a global
        abort onto a leg (and that embedders can use for policy-level
        kills).  Idempotent: a session that already finished is left
        alone.
        """
        if not session.state.live:
            return
        self._abort_session(session, reason, forced=True, exc=exc)
        self._service_grant_queue()

    def _abort_session(
        self,
        session: Session,
        reason: str,
        *,
        forced: bool = True,
        exc: Optional[ServiceError] = None,
    ) -> None:
        """Tear one session down: locks, workspace, graph, history."""
        if not session.state.live:
            return
        waiter = self._pop_waiter(session)
        if waiter is not None and not waiter.future.done():
            waiter.future.set_exception(
                exc or TransactionAborted(f"{session.name}: {reason}")
            )
        now = self.now()
        job = session.job
        gate = self._gate_futures.pop(session, None)
        if gate is not None:
            if job.block_intervals and job.block_intervals[-1].end is None:
                job.end_block(now)
                self.stats.record_wait(
                    job.base_priority, job.block_intervals[-1].duration
                )
            if not gate.done():
                gate.set_exception(
                    exc or TransactionAborted(f"{session.name}: {reason}")
                )
        released = self.table.release_all(job)
        self.protocol.on_release_all(job)
        self.waits.forget(job)
        if self.kernel is not None:
            self.kernel.retire(job)
        job.workspace.discard()
        session.state = SessionState.ABORTED
        session.abort_reason = reason
        session.committing = False
        self._committing.pop(job, None)
        self._live.pop(session, None)
        self._drop_constraints(job)
        self._note_release_churn(job, (item for item, _ in released))
        self.history.record_abort(job.name, now)
        self.stats.record_abort(job.base_priority, forced=forced)
        self.trace.sched(now, SchedEventKind.ABORT, job.name)
        self._recompute_priorities()
        self._sample_sysceil()
        self._wake_gates()
        self._notify_churn("abort", job)

    def _finish(self, session: Session, state: SessionState, now: float) -> None:
        """Common terminal transition for commit."""
        job = session.job
        released = self.table.release_all(job)
        self.protocol.on_release_all(job)
        self.waits.forget(job)
        if self.kernel is not None:
            self.kernel.retire(job)
        session.state = state
        session.committing = False
        self._committing.pop(job, None)
        self._live.pop(session, None)
        self._drop_constraints(job)
        self._note_release_churn(job, (item for item, _ in released))
        self._recompute_priorities()
        self._sample_sysceil()
        self._wake_gates()
        self._notify_churn("finish", job)

    def _is_service_cycle(self, cycle: Tuple[Job, ...]) -> bool:
        """True when the cycle involves a service-level wait (gate/guard).

        Those waits exist only because the service drops the paper's
        single-CPU scheduling assumption; the deadlock-freedom theorem
        does not cover them, so the cycle is resolved by victim abort
        rather than reported as an invariant violation.
        """
        for job in cycle:
            session = self._by_job.get(job)
            if session is None:
                continue
            if session in self._gate_futures:
                return True
            waiter = self._waiters.get(session)
            if waiter is not None and waiter.reason.startswith(
                ("order guard", "commit fence")
            ):
                return True
        return False

    def _check_deadlock(self, requester: Optional[Session]) -> None:
        cycle = self.waits.find_cycle()
        if cycle is None:
            return
        names = tuple(j.name for j in cycle)
        resolvable = (
            self.protocol.can_deadlock
            # IPCP-style guarantees hold only under the simulator's
            # single-CPU dispatching; with concurrent clients a cycle is
            # an expected (resolvable) event, not a broken invariant.
            or getattr(self.protocol, "deadlock_free_requires_scheduler",
                       False)
            or self._is_service_cycle(cycle)
        )
        if not resolvable:
            # Paper guarantee (Theorem 2): this must be unreachable for
            # PCP-DA.  Surfacing it loudly is the whole point of running
            # the live path against the proven protocol.
            raise InvariantViolation(
                f"wait-for cycle under deadlock-free protocol "
                f"{self.protocol.name}: {' -> '.join(names)}"
            )
        self.stats.deadlocks += 1
        if self.config.deadlock_action == "raise":
            raise ServiceError(
                f"deadlock detected: {' -> '.join(names)}"
            )
        victim_job = min(cycle, key=lambda j: (j.base_priority, -j.seq))
        victim = self._by_job[victim_job]
        self._abort_session(
            victim, "deadlock",
            exc=TransactionAborted(
                f"{victim.name} chosen as deadlock victim "
                f"({' -> '.join(names)})"
            ),
        )
        self._service_grant_queue()

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _recompute_priorities(self) -> None:
        active_jobs = [s.job for s in self._live]
        before = [(j, j.running_priority) for j in active_jobs]
        self.waits.recompute_priorities(active_jobs, floor=self._floor)
        now = self.now()
        for job, prev in before:
            if job.running_priority != prev:
                self.trace.priority(now, job.name, job.running_priority)

    def _sample_sysceil(self) -> None:
        if self.config.record_sysceil:
            self.trace.sysceil(self.now(), self._sysceil(None))
