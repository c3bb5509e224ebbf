"""In-memory spans and counters around calls into the program's layers.

The wrappers live here, in the benchmark, and are installed onto the
program's classes and modules at run time; nothing under ``src/``
knows about them.  Two kinds:

* **leaf counters** (``calls``, total ns) around hot synchronous calls
  — the engine's kernel, event queue, lock table and inheritance graph,
  the trace recorder, the history, the wire codec.  Recording a span
  per call would dwarf the calls themselves.
* **spans** (name, start, end, parent, transaction id) around the
  coarse boundaries a transaction crosses — manager and coordinator
  operations, shard-proxy round trips, supervisor start/stop, simulator
  runs, oracles.  The transaction id and the benchmark's own enclosing
  span travel in :class:`contextvars.ContextVar` s, so concurrent
  transactions (one asyncio task each) never mix.  Spans around the
  program's coroutines do not set the parent variable: the coordinator
  starts an operation on the caller's stack and may finish it in a task
  of its own, a different context.  Their nesting inside one
  transaction is recovered from the intervals instead (:meth:`Tracer.
  resolve_parents`).

Install before building a deployment: the simulator and the manager
bind ``Kernel.decide`` / ``protocol.decide`` at construction.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter_ns
_MISSING = object()

#: One span: [name, start_ns, end_ns, parent index (-1 = root), txn id].
Span = List[Any]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.enabled = True
        #: leaf name -> [calls, total ns]
        self.calls: Dict[str, List[int]] = {}
        #: free-form counters (candidates, frames by kind, bytes)
        self.counts: Dict[str, int] = {}
        self.spans: List[Span] = []
        self._parent: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_parent", default=-1
        )
        self._txn: contextvars.ContextVar[Optional[int]] = (
            contextvars.ContextVar("perfbench_txn", default=None)
        )
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _open(self, name: str) -> int:
        self.spans.append(
            [name, _now(), 0, self._parent.get(), self._txn.get()]
        )
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str, txn: Optional[int] = None) -> Iterator[None]:
        """Record a span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        txn_token = self._txn.set(txn) if txn is not None else None
        index = self._open(name)
        token = self._parent.set(index)
        try:
            yield
        finally:
            self.spans[index][2] = _now()
            self._parent.reset(token)
            if txn_token is not None:
                self._txn.reset(txn_token)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (e.g. the oracle's own
        ``History`` rebuild, which is not the manager's history)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def leaf(self, owner: Any, attr: str, name: str,
             on_call: Optional[Callable[..., None]] = None) -> None:
        """Count calls and ns of a synchronous function or method.

        ``on_call(result, *args)`` may add counters from the call.
        """
        original = getattr(owner, attr)
        acc = self.calls.setdefault(name, [0, 0])
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return original(*args, **kwargs)
            start = _now()
            try:
                result = original(*args, **kwargs)
            finally:
                acc[0] += 1
                acc[1] += _now() - start
            if on_call is not None:
                on_call(result, *args)
            return result

        self._patch(owner, attr, wrapper)

    def async_span(self, owner: Any, attr: str, name: str) -> None:
        """Record a span around every await of a coroutine method."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return await original(*args, **kwargs)
            index = tracer._open(name)
            try:
                return await original(*args, **kwargs)
            finally:
                tracer.spans[index][2] = _now()

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def resolve_parents(self) -> None:
        """Within each transaction, make every span's parent the
        innermost span of that transaction whose interval contains it."""
        by_txn: Dict[Any, List[int]] = {}
        for index, span in enumerate(self.spans):
            if span[4] is not None:
                by_txn.setdefault(span[4], []).append(index)
        for indices in by_txn.values():
            indices.sort(key=lambda i: (self.spans[i][1], -self.spans[i][2]))
            stack: List[int] = []
            for index in indices:
                start, end = self.spans[index][1], self.spans[index][2]
                while stack and self.spans[stack[-1]][2] < end:
                    stack.pop()
                if stack and self.spans[stack[-1]][1] <= start:
                    self.spans[index][3] = stack[-1]
                stack.append(index)

    def self_times(self) -> List[int]:
        """Per span: duration minus the union of its children's intervals."""
        self.resolve_parents()
        children: Dict[int, List[Tuple[int, int]]] = {}
        for span in self.spans:
            if span[3] >= 0:
                children.setdefault(span[3], []).append((span[1], span[2]))
        out = []
        for index, span in enumerate(self.spans):
            start, end = span[1], span[2]
            covered = 0
            cursor = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out.append(max(end - start - covered, 0))
        return out

    def dump(self, path: str) -> None:
        """Write spans (one JSON array per line) and counters to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "calls": self.calls, "counts": self.counts,
                "span_fields": ["name", "start_ns", "end_ns", "parent",
                                "txn"],
            }) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install_engine(tracer: Tracer) -> None:
    """Leaf counters on the engine, trace recorder and history layers."""
    from repro.db.history import History
    from repro.engine.event_queue import EventQueue
    from repro.engine.inheritance import WaitForGraph
    from repro.engine.kernel.core import Kernel
    from repro.engine.lock_table import LockTable
    from repro.trace.recorder import TraceRecorder

    def candidates(result: Any, *args: Any) -> None:
        tracer.count("engine.kernel.decide_batch.candidates", len(result))

    tracer.leaf(Kernel, "decide", "engine.kernel.decide")
    tracer.leaf(Kernel, "decide_batch", "engine.kernel.decide_batch",
                on_call=candidates)
    tracer.leaf(Kernel, "system_ceiling", "engine.kernel.system_ceiling")
    tracer.leaf(EventQueue, "push", "engine.event_queue.push")
    tracer.leaf(EventQueue, "pop", "engine.event_queue.pop")
    tracer.leaf(LockTable, "grant", "engine.lock_table.grant")
    tracer.leaf(LockTable, "release", "engine.lock_table.release")
    tracer.leaf(WaitForGraph, "find_cycle", "engine.inheritance.find_cycle")
    tracer.leaf(WaitForGraph, "recompute_priorities",
                "engine.inheritance.recompute_priorities")
    tracer.leaf(TraceRecorder, "lock", "trace.recorder.lock")
    tracer.leaf(TraceRecorder, "sched", "trace.recorder.sched")
    tracer.leaf(TraceRecorder, "sysceil", "trace.recorder.sysceil")
    for kind in ("read", "install", "commit", "abort"):
        tracer.leaf(History, f"record_{kind}", "db.history.record")


def install_service(tracer: Tracer) -> None:
    """Spans on manager, coordinator, proxy and supervisor boundaries,
    plus frame/byte counters around the wire codec."""
    from repro.service import wire
    from repro.service.manager import LockManager
    from repro.service.sharding.coordinator import ShardedLockManager
    from repro.service.sharding.procs.proxy import RemoteShardProxy
    from repro.service.sharding.procs.supervisor import ShardSupervisor

    install_engine(tracer)
    for op in ("begin", "read", "write", "commit", "abort"):
        tracer.async_span(LockManager, op, f"manager.{op}")
        tracer.async_span(ShardedLockManager, op, f"coordinator.{op}")
    tracer.async_span(RemoteShardProxy, "_call", "procs.proxy.call")
    tracer.async_span(ShardSupervisor, "start", "procs.supervisor.start")
    tracer.async_span(ShardSupervisor, "stop", "procs.supervisor.stop")

    def encoded(result: bytes, document: Dict[str, Any]) -> None:
        tracer.count("wire.frames.request")
        tracer.count("wire.bytes", len(result))

    def decoded(result: Dict[str, Any], line: bytes) -> None:
        if "event" in result and "id" not in result:
            kind = result.get("event")
            if kind == "churn":
                kind = f"churn.{result.get('kind')}"
        else:
            kind = "response"
        tracer.count(f"wire.frames.{kind}")
        tracer.count("wire.bytes", len(line))

    tracer.leaf(wire, "encode", "wire.encode", on_call=encoded)
    tracer.leaf(wire, "decode", "wire.decode", on_call=decoded)
