"""Unit tests for the metrics registry: instruments, spans, merging."""

import pickle

import pytest

from repro import obs
from repro.obs.registry import render_key


class TestRenderKey:
    def test_bare_name(self):
        assert render_key("kernel.calls", ()) == "kernel.calls"

    def test_labels_in_given_order(self):
        key = render_key("kernel.calls", (("op", "pairwise"), ("path", "batch")))
        assert key == "kernel.calls{op=pairwise,path=batch}"


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = obs.MetricsRegistry()
        assert registry.counter_value("hits") == 0.0
        registry.counter("hits").inc()
        registry.counter("hits").inc(2.5)
        assert registry.counter_value("hits") == 3.5

    def test_labels_partition_the_counts(self):
        registry = obs.MetricsRegistry()
        registry.counter("calls", path="batch").inc(3)
        registry.counter("calls", path="scalar").inc()
        assert registry.counter_value("calls", path="batch") == 3
        assert registry.counter_value("calls", path="scalar") == 1
        assert registry.counter_total("calls") == 4

    def test_label_order_does_not_matter(self):
        registry = obs.MetricsRegistry()
        registry.counter("calls", a="1", b="2").inc()
        registry.counter("calls", b="2", a="1").inc()
        assert registry.counter_value("calls", a="1", b="2") == 2

    def test_negative_increment_rejected(self):
        registry = obs.MetricsRegistry()
        with pytest.raises(ValueError, match="only go up"):
            registry.counter("hits").inc(-1)

    def test_counters_flat_renders_and_filters(self):
        registry = obs.MetricsRegistry()
        registry.counter("kernel.calls", op="pairwise").inc(2)
        registry.counter("pipeline.retries").inc()
        flat = registry.counters_flat("kernel.")
        assert flat == {"kernel.calls{op=pairwise}": 2.0}


class TestGauge:
    def test_set_overwrites(self):
        registry = obs.MetricsRegistry()
        registry.gauge("workers").set(4)
        registry.gauge("workers").set(2)
        snapshot = registry.snapshot()
        assert snapshot["gauges"] == [["workers", {}, 2.0]]

    def test_merge_takes_max(self):
        first = obs.MetricsRegistry()
        second = obs.MetricsRegistry()
        first.gauge("workers").set(2)
        second.gauge("workers").set(5)
        first.merge(second.snapshot())
        assert first.snapshot()["gauges"] == [["workers", {}, 5.0]]


class TestDigest:
    def test_observations_and_stats(self):
        registry = obs.MetricsRegistry()
        digest = registry.digest("delay")
        for value in (0.5, 1.0, 5.0, 100.0):
            digest.observe(value)
        [[name, _labels, state]] = registry.snapshot()["digests"]
        assert name == "delay"
        assert state["count"] == 4
        assert state["sum"] == pytest.approx(106.5)
        assert state["min"] == 0.5
        assert state["max"] == 100.0
        p50 = registry.digest_state("delay").quantile(0.5)
        assert p50 == pytest.approx(5.0, rel=state["relative_accuracy"])

    def test_merge_requires_matching_accuracy(self):
        first = obs.MetricsRegistry()
        second = obs.MetricsRegistry()
        first.digest("delay", relative_accuracy=0.01).observe(0.5)
        second.digest("delay", relative_accuracy=0.05).observe(0.5)
        with pytest.raises(ValueError, match="relative accuracies differ"):
            first.merge(second.snapshot())

    def test_merge_sums_counts_and_extremes(self):
        first = obs.MetricsRegistry()
        second = obs.MetricsRegistry()
        first.digest("delay").observe(0.5)
        second.digest("delay").observe(3.0)
        first.merge(second.snapshot())
        [[_name, _labels, state]] = first.snapshot()["digests"]
        assert state["count"] == 2
        assert state["sum"] == pytest.approx(3.5)
        assert state["min"] == 0.5
        assert state["max"] == 3.0


class TestSpans:
    def test_nesting_builds_paths(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass
        paths = {tuple(record["path"]): record for record in registry.snapshot()["spans"]}
        assert set(paths) == {("outer",), ("outer", "inner")}
        assert paths[("outer",)]["count"] == 1
        assert paths[("outer", "inner")]["count"] == 2
        outer = paths[("outer",)]
        assert 0.0 <= outer["min_s"] <= outer["max_s"] <= outer["total_s"] + 1e-9

    def test_string_attrs_are_identity(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("cell", scheme="TT"):
                pass
            with obs.span("cell", scheme="UT"):
                pass
        paths = {tuple(record["path"]) for record in registry.snapshot()["spans"]}
        assert paths == {("cell{scheme=TT}",), ("cell{scheme=UT}",)}

    def test_numeric_attrs_accumulate_as_values(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("kernel", pairs=100):
                pass
            with obs.span("kernel", pairs=50):
                pass
        [record] = registry.snapshot()["spans"]
        assert record["count"] == 2
        assert record["values"] == {"pairs": 150.0}

    def test_span_records_even_when_body_raises(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with pytest.raises(RuntimeError):
                with obs.span("failing"):
                    raise RuntimeError("boom")
        [record] = registry.snapshot()["spans"]
        assert record["path"] == ["failing"]
        assert record["count"] == 1

    def test_current_span_path_tracks_nesting(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            assert obs.current_span_path() == ()
            with obs.span("a"):
                with obs.span("b"):
                    assert obs.current_span_path() == ("a", "b")
            assert obs.current_span_path() == ()

    def test_detached_span_path_resets_and_restores(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("parent"):
                with obs.detached_span_path():
                    assert obs.current_span_path() == ()
                    with obs.span("worker"):
                        pass
                assert obs.current_span_path() == ("parent",)
        paths = {tuple(record["path"]) for record in registry.snapshot()["spans"]}
        assert ("worker",) in paths  # not ("parent", "worker")


class TestMerge:
    def test_counters_sum(self):
        first = obs.MetricsRegistry()
        second = obs.MetricsRegistry()
        first.counter("hits").inc(2)
        second.counter("hits").inc(3)
        second.counter("misses").inc()
        first.merge(second.snapshot())
        assert first.counter_value("hits") == 5
        assert first.counter_value("misses") == 1

    def test_merge_is_commutative_on_counters_and_digests(self):
        def build(values):
            registry = obs.MetricsRegistry()
            for value in values:
                registry.counter("n").inc(value)
                registry.digest("v").observe(value)
            return registry

        ab = obs.MetricsRegistry()
        ab.merge(build([0.5, 1.5]).snapshot())
        ab.merge(build([2.5]).snapshot())
        ba = obs.MetricsRegistry()
        ba.merge(build([2.5]).snapshot())
        ba.merge(build([0.5, 1.5]).snapshot())
        assert ab.snapshot() == ba.snapshot()

    def test_span_prefix_grafts_under_existing_tree(self):
        worker = obs.MetricsRegistry()
        with obs.use_registry(worker):
            with obs.span("task"):
                pass
        parent = obs.MetricsRegistry()
        with obs.use_registry(parent):
            with obs.span("driver"):
                obs.merge_into_active(worker.snapshot())
        paths = {tuple(record["path"]) for record in parent.snapshot()["spans"]}
        assert paths == {("driver",), ("driver", "task")}

    def test_merge_into_active_is_noop_without_registry(self):
        worker = obs.MetricsRegistry()
        worker.counter("hits").inc()
        obs.merge_into_active(worker.snapshot())  # must not raise

    def test_snapshot_is_picklable_and_json_plain(self):
        registry = obs.MetricsRegistry()
        registry.counter("hits", kind="a").inc()
        registry.digest("delay").observe(0.5)
        with obs.use_registry(registry):
            with obs.span("root"):
                pass
        snapshot = registry.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot


class TestNullRegistry:
    def test_default_registry_is_null(self):
        assert obs.get_registry() is obs.NULL_REGISTRY
        assert not obs.enabled()

    def test_instruments_are_shared_noops(self):
        assert obs.counter("x") is obs.counter("y", any="label")
        obs.counter("x").inc(5)
        obs.gauge("g").set(1)
        obs.digest("d").observe(2)
        assert obs.NULL_REGISTRY.snapshot() == {
            "counters": [], "gauges": [], "digests": [], "spans": []
        }

    def test_snapshot_keys_match_the_collecting_registry(self):
        assert set(obs.NULL_REGISTRY.snapshot()) == set(obs.MetricsRegistry().snapshot())

    def test_null_span_is_reentrant(self):
        with obs.span("a"):
            with obs.span("a"):
                pass
        assert obs.current_span_path() == ()

    def test_use_registry_enables_and_restores(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            assert obs.enabled()
            obs.counter("hits").inc()
        assert not obs.enabled()
        assert registry.counter_value("hits") == 1
