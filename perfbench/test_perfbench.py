"""Self-tests of the benchmark's own machinery (not of the program).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import asyncio
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.exceptions import (  # noqa: E402
    AdmissionError,
    SessionStateError,
    TransactionAborted,
)
from repro.model.spec import read, write  # noqa: E402
from repro.service.manager import SessionState  # noqa: E402
from repro.verify.stress import Arrival  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import run as bench  # noqa: E402
import service  # noqa: E402
from tracer import Tracer  # noqa: E402

PROGRAMS = {"S1": (read("x1"), write("x2")), "S2": (read("x2"),)}


class FakeSession:
    def __init__(self, name):
        self.name = name
        self.state = SessionState.ACTIVE


class FakeManager:
    """The manager surface, with scripted behaviour per transaction."""

    def __init__(self, stall_at=None, stall_s=0.0, fail=None, always=None):
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.fail = fail or {}
        self.always = always
        self.begun = 0

    async def begin(self, name):
        n = self.begun
        self.begun += 1
        if self.always:
            self.fail[n] = self.always
        if self.fail.get(n) == "reject":
            raise AdmissionError("full")
        return FakeSession(f"{name}#{n}")

    async def read(self, session, item):
        n = int(session.name.split("#")[1])
        if self.fail.get(n) == "forced":
            raise TransactionAborted("victim")
        if self.fail.get(n) == "between":
            raise SessionStateError(f"{session.name}: session already aborted")
        if self.fail.get(n) == "bug":
            raise RuntimeError("unexpected")
        await asyncio.sleep(0)
        return 0

    async def write(self, session, item, value):
        await asyncio.sleep(0)

    async def abort(self, session, reason="client"):
        session.state = SessionState.ABORTED
        await asyncio.sleep(0)

    async def commit(self, session):
        if int(session.name.split("#")[1]) == self.stall_at:
            time.sleep(self.stall_s)  # blocks the event loop, like a stall
        await asyncio.sleep(0)
        return {}


def _schedule(count, gap_s, name="S1"):
    return [Arrival(seq=i, at_s=i * gap_s, name=name, chaos_abort=False)
            for i in range(count)]


def _open_loop(manager, arrivals):
    return asyncio.run(
        loadgen.LoadGenerator(manager, PROGRAMS, "S1").open_loop(arrivals)
    )


def test_stall_raises_p99_for_arrivals_queued_behind_it():
    arrivals = _schedule(200, 0.002)
    calm = _open_loop(FakeManager(), arrivals)
    stalled = _open_loop(FakeManager(stall_at=20, stall_s=0.15), arrivals)
    calm_p99 = loadgen.percentile(calm.latencies, 99)
    stalled_lat = stalled.latencies
    assert calm_p99 < 0.05
    # About 75 arrivals fall due during the 150 ms stall; timed from
    # their due time, each carries what was left of it.
    assert loadgen.percentile(stalled_lat, 99) > 0.1
    assert sum(1 for lat in stalled_lat if lat > 0.05) >= 20
    # Timed from when they were finally sent, the stall would vanish.
    from_send = [
        lat - late for lat, late in zip(stalled.latencies, stalled.started_late)
    ]
    assert loadgen.percentile(from_send, 99) < 0.05
    assert max(stalled.lateness) > 0.1


def test_every_attempt_is_classified_exactly_once():
    # Begins 0-5 are the six first attempts; retries begin from 6 on.
    fail = {1: "reject", 2: "forced", 3: "between", 4: "bug"}
    arrivals = _schedule(6, 0.0)
    arrivals[5] = Arrival(seq=5, at_s=0.0, name="S2", chaos_abort=True)
    tally = _open_loop(FakeManager(fail=fail), arrivals)
    assert tally.attempts == 9
    assert tally.outcomes == {
        loadgen.COMMITTED: 4, loadgen.CHAOS: 1, loadgen.REJECTED: 1,
        loadgen.FORCED: 1, loadgen.DEADLINE: 0, loadgen.ERRORED: 2,
    }
    assert tally.failed_attempts == 4
    assert tally.aborted_between_ops == 1
    assert tally.errors[-1] == "RuntimeError: unexpected"
    assert tally.error_aborts == 1  # the failed session was not left live
    # Rejected, forced and between-ops transactions were retried and
    # committed; the error of unknown cause was not retried.
    assert (tally.attempted, tally.failed) == (6, 1)
    assert len(tally.latencies) == 4
    assert len(tally.commit_at) == 4


def test_a_transaction_gives_up_after_its_last_attempt():
    tally = _open_loop(FakeManager(always="forced"), _schedule(1, 0.0))
    assert tally.outcomes[loadgen.FORCED] == loadgen.MAX_ATTEMPTS
    assert tally.begun == loadgen.MAX_ATTEMPTS
    assert (tally.attempted, tally.failed) == (1, 1)
    assert len(tally.latencies) == 0


def test_closed_rates_leave_out_the_clients_running_dry():
    tally = loadgen.Tally()
    # 100 commits 1 ms apart, then the last 4 clients trickle out.
    tally.commit_at.extend(i * 0.001 for i in range(100))
    tally.commit_at.extend(0.099 + k * 0.05 for k in range(1, 5))
    rates = service.closed_rates(tally, clients=4)
    assert len(rates) == service.CLOSED_WINDOWS
    assert all(abs(rate - 1000) < 1e-6 for rate in rates)


def test_fast_windows_pool_the_faster_half_with_their_tails():
    tally = loadgen.Tally()
    window = service.WINDOW_S
    # Four windows of 10 samples; medians 1, 2, 3 and 4 ms.  The 1 ms
    # window also holds a 50 ms tail sample of the top type.
    for index, median in enumerate((0.003, 0.001, 0.004, 0.002)):
        for k in range(10):
            latency = 0.05 if (median, k) == (0.001, 9) else median
            tally.latencies.append(latency)
            tally.due_at.append(index * window + k * window / 20)
            tally.is_top.append(k == 9)
    # A window at the phase's end with too few samples to rank.
    tally.latencies.append(0.0001)
    tally.due_at.append(4 * window)
    tally.is_top.append(False)
    every, top = service.fast_windows([tally])
    assert sorted(set(every)) == [0.001, 0.002, 0.05]
    assert sorted(top) == [0.002, 0.05]


def test_conservation_flags_unknown_errors_and_mismatches():
    tally = _open_loop(FakeManager(fail={0: "bug"}), _schedule(2, 0.0))
    doc = {"sessions_started": 2, "sessions_rejected": 0, "commits": 1,
           "client_aborts": 0, "forced_aborts": 1, "deadline_aborts": 0}
    problems = loadgen.conservation(tally, doc, live_sessions=1)
    assert any("unknown cause" in p for p in problems)
    assert any("still live" in p for p in problems)
    clean = _open_loop(FakeManager(), _schedule(2, 0.0))
    doc.update(commits=2, forced_aborts=0)
    assert loadgen.conservation(clean, doc, live_sessions=0) == []


def test_spans_keep_concurrent_transactions_apart_and_self_time():
    tracer = Tracer()

    async def txn(txn_id):
        with tracer.span("txn", txn=txn_id):
            with tracer.span("child"):
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.01)

    async def main():
        await asyncio.gather(txn(1), txn(2))

    asyncio.run(main())
    spans = tracer.spans
    selfs = tracer.self_times()
    for index, span in enumerate(spans):
        if span[0] == "child":
            parent = spans[span[3]]
            assert parent[0] == "txn" and parent[4] == span[4]
        else:
            # about 10 ms of the 20 ms root is its own
            assert 0.005e9 < selfs[index] < 0.018e9


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        layers.names()


def test_inputs_depend_only_on_the_seed():
    a = inputs.svc_2proc_inputs(5, 4)
    b = inputs.svc_2proc_inputs(5, 4)
    digest = inputs.fingerprint(inputs.arrivals_document(a.open_arrivals(0)))
    assert digest == inputs.fingerprint(
        inputs.arrivals_document(b.open_arrivals(0))
    )
    other = inputs.svc_2proc_inputs(6, 4)
    assert digest != inputs.fingerprint(
        inputs.arrivals_document(other.open_arrivals(0))
    )


def test_program_span_finished_in_another_task_nests_by_interval():
    """The coordinator runs an operation's first step on the caller's
    stack and may finish it in a task of its own (another context)."""
    tracer = Tracer()

    class Proxy:
        async def call(self):
            await asyncio.sleep(0.005)

    class Coordinator:
        async def read(self):
            coro = Proxy().call()
            yielded = coro.send(None)

            async def settle():
                # The task step protocol, as the coordinator's _settle.
                yielded._asyncio_future_blocking = False
                waiter = asyncio.get_running_loop().create_future()
                yielded.add_done_callback(lambda _: waiter.set_result(None))
                await waiter
                try:
                    coro.send(None)
                except StopIteration:
                    pass

            await asyncio.ensure_future(settle())

    tracer.async_span(Proxy, "call", "procs.proxy.call")
    tracer.async_span(Coordinator, "read", "coordinator.read")

    async def main():
        with tracer.span("txn", txn=7):
            await Coordinator().read()

    try:
        asyncio.run(main())
    finally:
        tracer.restore()
    selfs = tracer.self_times()
    by_name = {span[0]: (i, span) for i, span in enumerate(tracer.spans)}
    proxy_index, proxy = by_name["procs.proxy.call"]
    coord_index, coord = by_name["coordinator.read"]
    assert proxy[2] > 0 and proxy[4] == 7
    assert proxy[3] == coord_index
    assert selfs[coord_index] < (coord[2] - coord[1]) - 0.004e9
    assert "call" in vars(Proxy) and vars(Proxy)["call"].__name__ == "call"
