"""Tests for the parallel experiment fan-out (`repro.parallel`)."""

import os

import pytest

from repro import obs
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig1_properties import run_fig1
from repro.experiments.fig3_auc import run_fig3
from repro.parallel import (
    SerialExecutor,
    available_cpus,
    effective_jobs,
    parallel_map,
)


def square(value):
    return value * value


def fail_on_three(value):
    if value == 3:
        raise ValueError("boom")
    return value


class RecordingExecutor:
    """Injectable executor that records what it was asked to map."""

    def __init__(self):
        self.calls = 0

    def map(self, function, tasks):
        self.calls += 1
        return [function(task) for task in tasks]


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_empty_tasks(self):
        assert parallel_map(square, [], jobs=4) == []

    def test_single_task_stays_in_process(self):
        assert parallel_map(square, [7], jobs=8) == [49]

    def test_process_pool_preserves_input_order(self):
        tasks = list(range(20))
        assert parallel_map(square, tasks, jobs=2) == [t * t for t in tasks]

    def test_process_pool_matches_serial(self):
        tasks = list(range(12))
        assert parallel_map(square, tasks, jobs=3) == parallel_map(
            square, tasks, jobs=1
        )

    def test_injected_executor_wins_over_jobs(self):
        executor = RecordingExecutor()
        result = parallel_map(square, [1, 2, 3], jobs=64, executor=executor)
        assert result == [1, 4, 9]
        assert executor.calls == 1

    def test_serial_executor(self):
        executor = SerialExecutor()
        assert list(executor.map(square, [2, 4])) == [4, 16]
        executor.shutdown()  # no-op, must not raise

    def test_exceptions_propagate_serial(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(fail_on_three, [1, 3], jobs=1)

    def test_exceptions_propagate_across_processes(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(fail_on_three, [1, 2, 3, 4], jobs=2)


def die_on_five(value):
    if value == 5:
        raise RuntimeError("task 5 died")
    return value * 10


class FlakyCounter:
    """Picklable worker that fails until a file holds ``succeed_after`` marks.

    The file is the cross-process state: every call appends one line, so
    retried runs (same or different worker process) see prior attempts.
    """

    def __init__(self, path, succeed_after):
        self.path = str(path)
        self.succeed_after = succeed_after

    def __call__(self, value):
        if value != 5:
            return value * 10
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write("attempt\n")
        with open(self.path, "r", encoding="utf-8") as handle:
            attempts = len(handle.readlines())
        if attempts < self.succeed_after:
            raise RuntimeError(f"flaky: attempt {attempts}")
        return value * 10


class TestOnErrorPolicies:
    def test_skip_kills_one_of_eight(self):
        # The regression the policy exists for: one poisoned task out of
        # eight must not take down the whole map — the seven survivors come
        # back, deterministic and in input order.
        tasks = list(range(1, 9))
        expected = [value * 10 for value in tasks if value != 5]
        assert parallel_map(die_on_five, tasks, jobs=1, on_error="skip") == expected
        assert parallel_map(die_on_five, tasks, jobs=2, on_error="skip") == expected
        assert (
            parallel_map(die_on_five, tasks, executor=SerialExecutor(), on_error="skip")
            == expected
        )

    def test_skip_is_counted_and_logged(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            result = parallel_map(
                die_on_five, [4, 5, 6], jobs=1, on_error="skip"
            )
        assert result == [40, 60]
        assert registry.counter_value("parallel.tasks_skipped") == 1

    def test_retry_recovers_transient_failure(self, tmp_path):
        flaky = FlakyCounter(tmp_path / "attempts", succeed_after=2)
        result = parallel_map(flaky, [4, 5, 6], jobs=1, on_error="retry", retries=1)
        assert result == [40, 50, 60]

    def test_retry_recovers_across_processes(self, tmp_path):
        flaky = FlakyCounter(tmp_path / "attempts", succeed_after=2)
        result = parallel_map(flaky, [4, 5, 6], jobs=2, on_error="retry", retries=1)
        assert result == [40, 50, 60]

    def test_retry_exhaustion_raises_original_error(self, tmp_path):
        flaky = FlakyCounter(tmp_path / "attempts", succeed_after=100)
        with pytest.raises(RuntimeError, match="flaky"):
            parallel_map(flaky, [5], jobs=1, on_error="retry", retries=2)

    def test_retry_counts_attempts(self, tmp_path):
        flaky = FlakyCounter(tmp_path / "attempts", succeed_after=3)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            parallel_map(flaky, [5], jobs=1, on_error="retry", retries=2)
        assert registry.counter_value("parallel.task_retries") == 2

    def test_raise_policy_is_default_and_unchanged(self):
        with pytest.raises(RuntimeError, match="task 5 died"):
            parallel_map(die_on_five, [1, 5], jobs=1)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            parallel_map(square, [1], on_error="ignore")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            parallel_map(square, [1], on_error="retry", retries=-1)


class TestEffectiveJobs:
    def test_positive_passthrough(self):
        assert effective_jobs(1) == 1
        assert effective_jobs(5) == 5

    def test_zero_means_available_cpus(self):
        assert effective_jobs(0) == available_cpus()

    def test_affinity_mask_wins_over_cpu_count(self, monkeypatch):
        # In a container pinned to 3 of N cores, jobs=0 must mean 3 workers
        # (os.cpu_count() reports the machine, not the process).
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_cpus() == 3
        assert effective_jobs(0) == 3

    def test_cpu_count_fallback_without_affinity(self, monkeypatch):
        # macOS / Windows have no sched_getaffinity.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert available_cpus() == 6
        assert effective_jobs(0) == 6

    def test_cpu_count_none_means_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_cpus() == 1

    def test_negative_is_an_error(self):
        # Only 0 means auto; a negative count is almost certainly a typo and
        # used to silently mean "all CPUs".
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            effective_jobs(-1)
        with pytest.raises(ValueError, match="-8"):
            effective_jobs(-8)


def count_and_square(value):
    """Worker that leaves deterministic tracks on the active registry."""
    obs.counter("test.calls").inc()
    obs.digest("test.value").observe(value)
    with obs.span("test.task"):
        pass
    return value * value


def count_then_fail_on_three(value):
    obs.counter("test.calls").inc()
    if value == 3:
        raise ValueError("boom")
    return value


class ReverseExecutor:
    """Executes tasks in reverse order but returns results in input order —
    models out-of-order worker scheduling for the determinism test."""

    def map(self, function, tasks):
        tasks = list(tasks)
        return list(reversed([function(task) for task in reversed(tasks)]))


def _structure(snapshot):
    """Snapshot minus wall-clock fields (which legitimately vary run-to-run)."""
    return (
        snapshot["counters"],
        snapshot["gauges"],
        snapshot["digests"],
        [
            (tuple(record["path"]), record["count"], record["values"])
            for record in snapshot["spans"]
        ],
    )


class TestParallelMapObservability:
    def test_worker_metrics_merged_across_processes(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("driver"):
                result = parallel_map(count_and_square, [1, 2, 3, 4, 5, 6], jobs=2)
        assert result == [1, 4, 9, 16, 25, 36]
        assert registry.counter_value("test.calls") == 6
        snapshot = registry.snapshot()
        # Worker span trees are grafted under the caller's active span.
        span_paths = {tuple(record["path"]): record["count"] for record in snapshot["spans"]}
        assert span_paths[("driver", "test.task")] == 6

    def test_merge_is_deterministic_under_worker_scheduling(self):
        tasks = [1, 2, 3, 4, 5]
        snapshots = []
        for executor in (SerialExecutor(), ReverseExecutor()):
            registry = obs.MetricsRegistry()
            with obs.use_registry(registry):
                parallel_map(count_and_square, tasks, executor=executor)
            snapshots.append(registry.snapshot())
        assert _structure(snapshots[0]) == _structure(snapshots[1])

    def test_serial_and_parallel_metrics_agree(self):
        tasks = [1, 2, 3, 4]
        structures = []
        for jobs in (1, 2):
            registry = obs.MetricsRegistry()
            with obs.use_registry(registry):
                parallel_map(count_and_square, tasks, jobs=jobs)
            snapshot = registry.snapshot()
            # parallel.workers gauge is only set on the pool path; drop it.
            snapshot["gauges"] = []
            structures.append(_structure(snapshot))
        assert structures[0] == structures[1]

    def test_midmap_exception_keeps_partial_metrics_process_pool(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with pytest.raises(ValueError, match="boom"):
                parallel_map(count_then_fail_on_three, [1, 2, 3, 4], jobs=2)
        # Tasks 1 and 2 complete (in input order) before task 3's exception
        # surfaces; their snapshots must already be merged.
        assert registry.counter_value("test.calls") >= 2

    def test_midmap_exception_keeps_partial_metrics_serial(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with pytest.raises(ValueError, match="boom"):
                parallel_map(count_then_fail_on_three, [1, 2, 3], jobs=1)
        # Serial path runs on the caller's registry directly: tasks 1 and 2
        # plus the failing task's own pre-raise increment are all retained.
        assert registry.counter_value("test.calls") == 3

    def test_empty_tasks_with_registry(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            assert parallel_map(count_and_square, [], jobs=4) == []
        assert registry.counter_value("test.calls") == 0

    def test_disabled_registry_does_not_wrap_workers(self):
        executor = RecordingExecutor()
        assert parallel_map(square, [2, 3], executor=executor) == [4, 9]
        assert executor.calls == 1


class TestExperimentFanOut:
    """The experiment grid gives identical results on every execution path."""

    def test_fig1_executor_injection_matches_serial(self):
        config = ExperimentConfig(scale="small")
        serial = run_fig1("network", config)
        injected = run_fig1("network", config, executor=SerialExecutor())
        assert serial == injected

    def test_fig3_processes_match_serial(self):
        serial = run_fig3("network", ExperimentConfig(scale="small", jobs=1))
        parallel = run_fig3("network", ExperimentConfig(scale="small", jobs=2))
        assert serial.scheme_labels == parallel.scheme_labels
        for distance_name, per_scheme in serial.auc.items():
            for label, value in per_scheme.items():
                assert parallel.auc[distance_name][label] == pytest.approx(
                    value, abs=1e-12
                )
