"""Tests for the ledger runner's ordering and ``--jobs`` equivalence.

``run_all(jobs=N)`` must return reports in :func:`experiment_order` and
render byte-identically to the serial runner for every ``N``
(docs/PERFORMANCE.md).
"""

from repro.experiments import (
    EXPERIMENT_ORDER,
    EXTENSION_ORDER,
    all_experiments,
    experiment_order,
    render_summary,
    run_all,
)


class TestOrdering:
    def test_all_experiments_in_documented_order(self):
        assert tuple(all_experiments()) == EXPERIMENT_ORDER
        assert tuple(all_experiments(extended=True)) == (
            EXPERIMENT_ORDER + EXTENSION_ORDER
        )

    def test_experiment_order_helper(self):
        assert experiment_order() == EXPERIMENT_ORDER
        assert experiment_order(extended=True)[-len(EXTENSION_ORDER):] == (
            EXTENSION_ORDER
        )

    def test_mutating_the_returned_dict_is_harmless(self):
        snapshot = all_experiments()
        snapshot["bogus"] = lambda: None
        snapshot.pop("table1")
        assert tuple(all_experiments()) == EXPERIMENT_ORDER

    def test_run_all_reports_follow_registration_order(self):
        names = [r.experiment for r in run_all()]
        # Experiment display names are distinct per entry; the summary
        # must list them in EXPERIMENT_ORDER positions.
        assert len(names) == len(EXPERIMENT_ORDER)
        assert names[0].startswith("Table 1")
        assert names[-1].startswith("Section 9 (schedulable-fraction")


class TestSerialEquivalence:
    def test_parallel_full_ledger_is_byte_identical(self):
        serial = render_summary(run_all())
        parallel = render_summary(run_all(jobs=4))
        assert parallel == serial

    def test_runner_preserves_submission_order(self):
        serial = [r.experiment for r in run_all(extended=True)]
        parallel = [r.experiment for r in run_all(extended=True, jobs=2)]
        assert parallel == serial
        assert len(parallel) == len(EXPERIMENT_ORDER + EXTENSION_ORDER)
