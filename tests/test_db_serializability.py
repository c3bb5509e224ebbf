"""Unit tests for the conflict-serializability checker (repro.db.serializability)."""

import pytest

from repro.db.history import History
from repro.db.serializability import (
    build_serialization_graph,
    check_serializable,
    serialization_order,
)
from repro.exceptions import SerializationViolation


def _serial_history():
    """T1 reads x then T2 overwrites x: plain wr/rw order T1 -> ... -> T2."""
    h = History()
    h.record_read("T1#0", "x", 0, 1.0)
    h.record_commit("T1#0", 2.0)
    h.record_install("T2#0", "x", 1, 3.0)
    h.record_commit("T2#0", 3.0)
    return h


class TestBuildGraph:
    def test_rw_edge(self):
        g = build_serialization_graph(_serial_history())
        assert g.has_edge("T1#0", "T2#0")
        assert "rw" in g.edge_labels("T1#0", "T2#0")

    def test_wr_edge(self):
        h = History()
        h.record_install("T1#0", "x", 1, 1.0)
        h.record_commit("T1#0", 1.0)
        h.record_read("T2#0", "x", 1, 2.0)
        h.record_commit("T2#0", 3.0)
        g = build_serialization_graph(h)
        assert g.edge_labels("T1#0", "T2#0") == ("wr",)

    def test_ww_edges_follow_install_order(self):
        h = History()
        h.record_install("T1#0", "x", 1, 1.0)
        h.record_commit("T1#0", 1.0)
        h.record_install("T2#0", "x", 2, 2.0)
        h.record_commit("T2#0", 2.0)
        g = build_serialization_graph(h)
        assert g.edge_labels("T1#0", "T2#0") == ("ww",)

    def test_uncommitted_writers_ignored(self):
        h = History()
        h.record_read("T1#0", "x", 0, 1.0)
        h.record_commit("T1#0", 2.0)
        h.record_install("ghost#0", "x", 1, 3.0)  # never commits
        g = build_serialization_graph(h)
        assert "ghost#0" not in g.nodes or not g.has_edge("T1#0", "ghost#0")

    def test_own_write_read_makes_no_self_edge(self):
        h = History()
        h.record_install("T1#0", "x", 1, 1.0)
        h.record_read("T1#0", "x", 1, 1.5)
        h.record_commit("T1#0", 2.0)
        g = build_serialization_graph(h)
        assert g.edges == ()


class TestCheckSerializable:
    def test_serializable_history_passes(self):
        graph = check_serializable(_serial_history())
        assert graph.is_acyclic()

    def test_nonserializable_history_raises_with_cycle(self):
        # T1 reads x before T2's write of x (rw: T1 -> T2), and T2 reads y
        # before T1's write of y (rw: T2 -> T1): classic write skew cycle.
        h = History()
        h.record_read("T1#0", "x", 0, 1.0)
        h.record_read("T2#0", "y", 0, 1.5)
        h.record_install("T2#0", "x", 1, 2.0)
        h.record_commit("T2#0", 2.0)
        h.record_install("T1#0", "y", 2, 3.0)
        h.record_commit("T1#0", 3.0)
        with pytest.raises(SerializationViolation) as exc:
            check_serializable(h)
        assert set(exc.value.cycle) == {"T1#0", "T2#0"}

    def test_serialization_order_respects_edges(self):
        order = serialization_order(_serial_history())
        assert order.index("T1#0") < order.index("T2#0")

    def test_empty_history_serializable(self):
        assert serialization_order(History()) == ()

    def test_blind_writes_never_cycle(self):
        """ww edges alone follow the global install order: acyclic by
        construction (the paper's Case 3 argument)."""
        h = History()
        h.record_install("T1#0", "x", 1, 1.0)
        h.record_install("T1#0", "y", 2, 1.0)
        h.record_commit("T1#0", 1.0)
        h.record_install("T2#0", "y", 3, 2.0)
        h.record_install("T2#0", "x", 4, 2.0)
        h.record_commit("T2#0", 2.0)
        order = serialization_order(h)
        assert order == ("T1#0", "T2#0")


class TestSparseChecker:
    """check_serializable_fast must render the same verdict as the dense
    check — its sparse graph keeps only the first rw successor plus the
    ww chain, which preserves reachability among committed jobs."""

    def _fast(self):
        from repro.db.serializability import check_serializable_fast

        return check_serializable_fast

    def test_serializable_history_passes(self):
        graph = self._fast()(_serial_history())
        assert graph.is_acyclic()

    def test_write_skew_cycle_detected(self):
        h = History()
        h.record_read("T1#0", "x", 0, 1.0)
        h.record_read("T2#0", "y", 0, 1.5)
        h.record_install("T2#0", "x", 1, 2.0)
        h.record_commit("T2#0", 2.0)
        h.record_install("T1#0", "y", 2, 3.0)
        h.record_commit("T1#0", 3.0)
        with pytest.raises(SerializationViolation) as exc:
            self._fast()(h)
        assert set(exc.value.cycle) == {"T1#0", "T2#0"}

    def test_uncommitted_installers_skipped_for_rw(self):
        # the first later installer never commits; the rw edge must land
        # on the *committed* one behind it for the cycle to be found
        h = History()
        h.record_read("T1#0", "x", 0, 1.0)
        h.record_install("ghost#0", "x", 1, 1.5)  # never commits
        h.record_read("T2#0", "y", 0, 2.0)
        h.record_install("T2#0", "x", 2, 2.5)
        h.record_commit("T2#0", 2.5)
        h.record_install("T1#0", "y", 3, 3.0)
        h.record_commit("T1#0", 3.0)
        with pytest.raises(SerializationViolation):
            self._fast()(h)

    def test_random_histories_agree_with_dense_verdict(self):
        import random

        fast = self._fast()
        for trial in range(60):
            rng = random.Random(trial)
            h = History()
            jobs = [f"T{j}#0" for j in range(rng.randint(2, 6))]
            items = ["x", "y", "z"]
            versions = {item: [0] for item in items}
            seq = 0
            for _ in range(rng.randint(3, 14)):
                job = rng.choice(jobs)
                item = rng.choice(items)
                if rng.random() < 0.5:
                    h.record_read(
                        job, item, rng.choice(versions[item]), seq
                    )
                else:
                    seq += 1
                    versions[item].append(seq)
                    h.record_install(job, item, seq, seq)
            for job in jobs:
                if rng.random() < 0.8:
                    h.record_commit(job, 100 + seq)
            try:
                check_serializable(h)
                dense_ok = True
            except SerializationViolation:
                dense_ok = False
            try:
                fast(h)
                fast_ok = True
            except SerializationViolation:
                fast_ok = False
            assert dense_ok == fast_ok, f"trial {trial} diverged"


def _zipf_write_heavy_history(
    transactions, *, seed=0, stale_reads=0.0, uncommitted=0.0
):
    """Zipf-hot, write-heavy history: each transaction reads three items
    and overwrites two of them, drawn from 32 items with Zipf(1.2)
    popularity, so the hottest item collects a third of all versions.

    Transactions run back to back, so every read observes the latest
    version (serializable) unless ``stale_reads`` makes a read observe a
    random older one.  ``uncommitted`` is the share of transactions that
    install but never commit.
    """
    import random

    rng = random.Random(seed)
    items = [f"i{k}" for k in range(32)]
    weights = [1.0 / (rank + 1) ** 1.2 for rank in range(len(items))]
    versions = {item: [0] for item in items}
    seq = 0
    h = History()
    for t in range(transactions):
        job = f"T{t}#0"
        picked = rng.choices(items, weights, k=3)
        for item in picked:
            observed = versions[item][-1]
            if rng.random() < stale_reads:
                observed = rng.choice(versions[item])
            h.record_read(job, item, observed, float(seq))
        for item in picked[:2]:
            seq += 1
            versions[item].append(seq)
            h.record_install(job, item, seq, float(seq))
        if rng.random() >= uncommitted:
            h.record_commit(job, float(seq))
    return h


class TestSparseCheckerScaling:
    """The sparse checker's documented bound, O(events · log versions):
    per-item indexes are built once, so a hot item's version list is
    never rebuilt per read."""

    def test_doubling_a_hot_history_costs_less_than_3x(self):
        import gc
        import statistics
        import time

        from repro.db.serializability import check_serializable_fast

        small = _zipf_write_heavy_history(4000)
        large = _zipf_write_heavy_history(8000)
        # Paired rounds, small then large back to back, so a change in
        # host speed hits both halves of a round alike; the median ratio
        # discards the rounds it splits.  GC is off while timing, as in
        # timeit, so collector pauses do not scale with the heap.
        ratios = []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(7):
                t0 = time.perf_counter()
                check_serializable_fast(small)
                t1 = time.perf_counter()
                check_serializable_fast(large)
                t2 = time.perf_counter()
                ratios.append((t2 - t1) / (t1 - t0))
        finally:
            if gc_was_enabled:
                gc.enable()
        ratio = statistics.median(ratios)
        assert ratio < 3.0, f"2x history cost {ratio:.2f}x: {sorted(ratios)}"

    def test_hot_histories_agree_with_dense_verdict(self):
        from repro.db.serializability import check_serializable_fast

        verdicts = set()
        for seed in range(12):
            h = _zipf_write_heavy_history(
                30, seed=seed, stale_reads=0.02, uncommitted=0.1
            )
            try:
                check_serializable(h)
                dense_ok = True
            except SerializationViolation:
                dense_ok = False
            try:
                check_serializable_fast(h)
                fast_ok = True
            except SerializationViolation:
                fast_ok = False
            assert dense_ok == fast_ok, f"seed {seed} diverged"
            verdicts.add(dense_ok)
        assert verdicts == {True, False}  # both verdicts exercised
