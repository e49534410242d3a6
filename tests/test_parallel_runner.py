"""Tests for the parallel experiment harness (experiments/parallel.py)."""

import pytest

from repro.experiments.parallel import (
    ExperimentTask,
    derive_seed,
    run_tasks,
)


def _square(x, offset=0):
    return x * x + offset


class TestDeriveSeed:
    def test_stable_and_order_independent(self):
        a = derive_seed(7, "sweep/ber=1e-9")
        assert a == derive_seed(7, "sweep/ber=1e-9")
        assert a != derive_seed(7, "sweep/ber=1e-8")
        assert a != derive_seed(8, "sweep/ber=1e-9")

    def test_fits_in_63_bits(self):
        for name in ("a", "b", "c", "long/task/name=42"):
            assert 0 <= derive_seed(123, name) < (1 << 63)


class TestRunTasks:
    def _tasks(self):
        return [
            ExperimentTask(f"t{i}", _square, (i,), {"offset": i % 3})
            for i in range(8)
        ]

    def test_serial_results_in_task_order(self):
        results = run_tasks(self._tasks(), jobs=1)
        assert results == [i * i + i % 3 for i in range(8)]

    def test_parallel_matches_serial(self):
        serial = run_tasks(self._tasks(), jobs=1)
        parallel = run_tasks(self._tasks(), jobs=2)
        assert parallel == serial

    def test_jobs_none_runs_all_tasks(self):
        assert len(run_tasks(self._tasks())) == 8

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_tasks(
                [ExperimentTask("a", _square, (1,)),
                 ExperimentTask("a", _square, (2,))]
            )

