"""Tests for the ring-buffer series store and background sampler."""

import threading
import time

import pytest

from repro import obs
from repro.obs.timeseries import Sampler, Series, TimeSeriesStore


class TestSeries:
    def test_append_and_points(self):
        series = Series("x", max_points=10)
        series.append(1.0, 2.0)
        series.append(2.0, 3.0)
        assert series.points() == [(1.0, 2.0), (2.0, 3.0)]
        assert series.values() == [2.0, 3.0]
        assert series.last() == (2.0, 3.0)
        assert len(series) == 2

    def test_ring_buffer_evicts_oldest(self):
        series = Series("x", max_points=3)
        for t in range(6):
            series.append(float(t), float(t * 10))
        assert series.points() == [(3.0, 30.0), (4.0, 40.0), (5.0, 50.0)]

    def test_empty_series(self):
        series = Series("x")
        assert series.last() is None
        assert series.points() == []

    def test_bad_max_points(self):
        with pytest.raises(ValueError):
            Series("x", max_points=0)


class TestTimeSeriesStore:
    def test_record_and_retrieve(self):
        store = TimeSeriesStore()
        store.record("a", 1.0, 10.0)
        store.record("a", 2.0, 20.0)
        store.record("b", 1.0, 1.0)
        assert store.keys() == ["a", "b"]
        assert store.last("a") == (2.0, 20.0)
        assert store.last("missing") is None
        assert len(store) == 2

    def test_sample_folds_registry_snapshot(self):
        registry = obs.MetricsRegistry()
        registry.counter("pipeline.windows", mode="exact").inc(3)
        registry.gauge("parallel.workers").set(4)
        digest = registry.digest("latency")
        digest.observe(1.5)
        digest.observe(1.5)

        store = TimeSeriesStore()
        store.sample(registry, t=7.0)
        assert store.last("pipeline.windows{mode=exact}") == (7.0, 3.0)
        assert store.last("parallel.workers") == (7.0, 4.0)
        assert store.last("latency:count") == (7.0, 2.0)
        assert store.last("latency:mean") == (7.0, 1.5)
        t, p50 = store.last("latency:p50")
        assert t == 7.0 and p50 == pytest.approx(1.5, rel=0.01)
        assert store.last("latency:p99") is not None

    def test_repeated_samples_build_trajectories(self):
        registry = obs.MetricsRegistry()
        counter = registry.counter("ticks")
        store = TimeSeriesStore()
        for step in range(4):
            counter.inc()
            store.sample(registry, t=float(step))
        assert store.series("ticks").values() == [1.0, 2.0, 3.0, 4.0]

    def test_to_dict_is_json_plain_and_sorted(self):
        store = TimeSeriesStore()
        store.record("b", 1.0, 2.0)
        store.record("a", 1.0, 3.0)
        dump = store.to_dict()
        assert list(dump) == ["a", "b"]
        assert dump["a"] == [[1.0, 3.0]]

    def test_store_bound_applies_to_new_series(self):
        store = TimeSeriesStore(max_points=2)
        for step in range(5):
            store.record("x", float(step), float(step))
        assert store.series("x").points() == [(3.0, 3.0), (4.0, 4.0)]

    def test_concurrent_record_and_dump(self):
        store = TimeSeriesStore()
        stop = threading.Event()

        def writer():
            step = 0
            while not stop.is_set():
                store.record("w", float(step), float(step))
                step += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                dump = store.to_dict()  # must never raise mid-mutation
                for key, points in dump.items():
                    assert all(len(point) == 2 for point in points)
        finally:
            stop.set()
            thread.join()


class TestSampler:
    def test_sample_once_uses_injected_clock(self):
        registry = obs.MetricsRegistry()
        registry.counter("c").inc()
        ticks = iter([10.0, 11.0, 12.0])
        sampler = Sampler(registry, interval=0.01, clock=lambda: next(ticks))
        sampler.sample_once()
        sampler.sample_once()
        assert sampler.store.series("c").points() == [(10.0, 1.0), (11.0, 1.0)]

    def test_background_thread_samples_periodically(self):
        registry = obs.MetricsRegistry()
        registry.counter("c").inc()
        sampler = Sampler(registry, interval=0.01)
        with sampler:
            assert sampler.running
            deadline = time.time() + 5.0
            while len(sampler.store.series("c") or ()) < 3 and time.time() < deadline:
                time.sleep(0.01)
        assert not sampler.running
        assert len(sampler.store.series("c")) >= 3

    def test_stop_takes_final_sample(self):
        registry = obs.MetricsRegistry()
        registry.counter("c").inc()
        sampler = Sampler(registry, interval=60.0)
        sampler.start()
        store = sampler.stop()
        # Interval never elapsed, but stop() sampled the end state.
        assert store.last("c") is not None

    def test_double_start_rejected(self):
        sampler = Sampler(obs.MetricsRegistry(), interval=1.0)
        sampler.start()
        try:
            with pytest.raises(RuntimeError):
                sampler.start()
        finally:
            sampler.stop()

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            Sampler(obs.MetricsRegistry(), interval=0.0)
