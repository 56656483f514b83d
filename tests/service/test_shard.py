"""Shard engine: apply, checkpointing, rebuild byte-identity; sketch tier."""

import pytest

from repro.exceptions import CheckpointError
from repro.service import ServiceConfig, ShardEngine, SketchTier
from repro.service.chaos import corrupt_checkpoint


def chunk(records, size):
    return [records[start:start + size] for start in range(0, len(records), size)]


@pytest.fixture
def config() -> ServiceConfig:
    return ServiceConfig(num_shards=1, window_records=25, queue_capacity=100, k=5)


@pytest.fixture
def buckets(records_factory):
    return chunk(records_factory(100, nodes=10, seed=7), 25)


class TestApply:
    def test_windows_advance_and_signatures_appear(self, config, buckets):
        engine = ShardEngine(0, config)
        assert engine.window == -1
        for bucket in buckets:
            engine.apply(bucket)
        assert engine.window == 3
        assert engine.signatures
        node = next(iter(engine.signatures))
        assert engine.signature(node) is engine.signatures[node]
        assert engine.signature("no-such-node") is None

    def test_apply_is_order_invariant_within_bucket(self, config, buckets):
        forward = ShardEngine(0, config)
        shuffled = ShardEngine(0, config)
        for bucket in buckets:
            forward.apply(bucket)
            shuffled.apply(list(reversed(bucket)))
        assert forward.signatures == shuffled.signatures

    def test_checkpoints_every_window(self, config, buckets, tmp_path):
        from repro.pipeline.checkpoint import CheckpointStore

        engine = ShardEngine(0, config, store=CheckpointStore(tmp_path))
        for bucket in buckets:
            engine.apply(bucket)
        scan = CheckpointStore(tmp_path).scan()
        assert [entry.window for entry in scan.good] == [0, 1, 2, 3]
        assert not scan.issues

    def test_window_published_only_after_history_append(self, config, buckets):
        """A window readers can see must already be answerable by /history:
        when the append fails, the shard keeps serving the previous one."""

        class FailingHistory:
            def append(self, windows, metas=None):
                raise OSError("history volume full")

        engine = ShardEngine(0, config)
        engine.apply(buckets[0])
        window, signatures = engine.window, engine.signatures
        engine.history = FailingHistory()
        with pytest.raises(OSError):
            engine.apply(buckets[1])
        assert engine.window == window
        assert engine.signatures is signatures

    def test_persistence_needs_two_windows(self, config, buckets):
        engine = ShardEngine(0, config)
        engine.apply(buckets[0])
        node = next(iter(engine.signatures))
        assert engine.persistence(node) is None
        engine.apply(buckets[1])
        survivors = [n for n in engine.signatures if n in engine.prev_signatures]
        assert survivors
        value = engine.persistence(survivors[0])
        assert value is not None and 0.0 <= value <= 1.0

    def test_persistence_clamped_when_distance_exceeds_one(
        self, config, buckets, monkeypatch
    ):
        import repro.service.shard as shard_module

        monkeypatch.setattr(
            shard_module, "get_distance", lambda name: lambda a, b: 1.5
        )
        engine = ShardEngine(0, config)
        engine.apply(buckets[0])
        engine.apply(buckets[1])
        survivors = [n for n in engine.signatures if n in engine.prev_signatures]
        assert survivors
        assert engine.persistence(survivors[0]) == 0.0
        assert engine.registry.counter_total("distance.out_of_range") == 1.0

    def test_query_index_matches_signatures(self, config, buckets):
        engine = ShardEngine(0, config)
        for bucket in buckets:
            engine.apply(bucket)
        index = engine.query_index()
        assert len(index) == len(engine.signatures)
        node = next(iter(engine.signatures))
        neighbours = index.query(engine.signatures[node], k=3)
        assert all(owner != node for owner, _score in neighbours)


class TestRebuild:
    def assert_identical(self, rebuilt, reference):
        assert rebuilt.window == reference.window
        assert rebuilt.signatures == reference.signatures
        assert rebuilt.prev_signatures == reference.prev_signatures

    def run_reference(self, config, buckets, store=None):
        engine = ShardEngine(0, config, store=store)
        for bucket in buckets:
            engine.apply(bucket)
        return engine

    def test_rebuild_without_store_recomputes_identically(self, config, buckets):
        reference = self.run_reference(config, buckets)
        rebuilt = ShardEngine(0, config)
        issues = rebuilt.rebuild(buckets)
        assert issues == []
        self.assert_identical(rebuilt, reference)

    def test_rebuild_from_verified_checkpoints(self, config, buckets, tmp_path):
        from repro.pipeline.checkpoint import CheckpointStore

        reference = self.run_reference(
            config, buckets, store=CheckpointStore(tmp_path)
        )
        rebuilt = ShardEngine(0, config, store=CheckpointStore(tmp_path))
        issues = rebuilt.rebuild(buckets)
        assert issues == []
        self.assert_identical(rebuilt, reference)
        # The chain must keep working after a checkpoint-seeded rebuild:
        # the next applied window equals the reference's next window.
        extra = sorted(buckets[0], key=lambda r: r.time)
        reference.apply(extra)
        rebuilt.apply(extra)
        self.assert_identical(rebuilt, reference)

    def test_rebuild_detects_and_heals_corrupt_checkpoint(
        self, config, buckets, tmp_path, records_factory
    ):
        from repro.pipeline.checkpoint import CheckpointStore

        reference = self.run_reference(config, buckets)
        store = CheckpointStore(tmp_path)
        damaged = self.run_reference(config, buckets, store=store)
        assert damaged.signatures == reference.signatures
        corrupt_checkpoint(tmp_path, window=2)
        rebuilt = ShardEngine(0, config, store=CheckpointStore(tmp_path))
        issues = rebuilt.rebuild(buckets)
        assert any("hash verification" in issue for issue in issues)
        self.assert_identical(rebuilt, reference)
        # The store was healed: a fresh scan verifies every window again.
        scan = CheckpointStore(tmp_path).scan()
        assert [entry.window for entry in scan.good] == [0, 1, 2, 3]

    def test_rebuild_with_missing_checkpoint_suffix(self, config, buckets, tmp_path):
        from repro.pipeline.checkpoint import CheckpointStore

        reference = self.run_reference(config, buckets)
        store = CheckpointStore(tmp_path)
        partial = ShardEngine(0, config, store=store)
        for bucket in buckets[:2]:
            partial.apply(bucket)
        # Two windows checkpointed, four ingested: the rebuild loads the
        # verified prefix and recomputes (and persists) the rest.
        rebuilt = ShardEngine(0, config, store=CheckpointStore(tmp_path))
        rebuilt.rebuild(buckets)
        self.assert_identical(rebuilt, reference)


class TestSketchTier:
    def test_answers_after_one_window(self, config, buckets):
        tier = SketchTier(config)
        tier.advance(buckets[0])
        sources = {record.src for record in buckets[0]}
        node = next(iter(sources))
        signature = tier.signature(node)
        assert signature is not None
        assert signature.entries
        assert tier.signature("never-seen") is None

    def test_persistence_needs_two_windows(self, config, buckets):
        tier = SketchTier(config)
        tier.advance(buckets[0])
        node = next(record.src for record in buckets[0])
        assert tier.persistence(node) is None
        tier.advance(buckets[0])
        value = tier.persistence(node)
        assert value is not None and value == pytest.approx(1.0)

    def test_sliding_window_retention(self, records_factory):
        config = ServiceConfig(
            num_shards=1, window_records=25, window_buckets=2, queue_capacity=100, k=5
        )
        tier = SketchTier(config)
        only_first = records_factory(20, nodes=4, seed=1)
        tier.advance(only_first)
        tier.advance(records_factory(20, nodes=4, seed=2, start=100.0))
        # One bucket later the first window's records are still retained...
        assert tier.signature(only_first[0].src) is not None
        tier.advance(records_factory(20, nodes=4, seed=3, start=200.0))
        # ...and the window has rolled fully past the first bucket.
        assert tier.window == 2

    def test_advance_merges_instead_of_reobserving(self, records_factory):
        config = ServiceConfig(
            num_shards=1, window_records=25, window_buckets=3, queue_capacity=100, k=5
        )
        tier = SketchTier(config)
        for i in range(5):
            tier.advance(records_factory(20, nodes=4, seed=i, start=i * 100.0))
        # 0 merges for the first bucket, 1 for the second, 2 per advance
        # once the three-bucket window is full.
        assert tier.registry.counter_total("sketch.merges") == 1 + 2 + 2 + 2

    def test_each_record_observed_exactly_once(self, records_factory, monkeypatch):
        """The tentpole contract: advancing re-observes nothing — each
        record enters exactly one bucket builder, and windows are built by
        sketch merging (the old path re-read every retained record)."""
        from repro.streaming.stream_schemes import StreamingTopTalkers

        calls = {"observe": 0}
        original = StreamingTopTalkers.observe

        def counting(self, src, dst, weight=1.0):
            calls["observe"] += 1
            return original(self, src, dst, weight)

        monkeypatch.setattr(StreamingTopTalkers, "observe", counting)
        config = ServiceConfig(
            num_shards=1, window_records=25, window_buckets=3, queue_capacity=100, k=5
        )
        tier = SketchTier(config)
        total = 0
        for i in range(5):
            bucket = records_factory(20, nodes=4, seed=i, start=i * 100.0)
            total += len(bucket)
            tier.advance(bucket)
        assert calls["observe"] == total

    def test_persistence_clamped_when_distance_exceeds_one(
        self, config, buckets, monkeypatch
    ):
        """Regression: the sketch tier computed ``1 - distance`` without the
        range clamp the exact path got, so a distance > 1 surfaced as a
        negative persistence in /anomaly responses."""
        import repro.service.shard as shard_module
        from repro import obs

        monkeypatch.setattr(
            shard_module, "get_distance", lambda name: lambda a, b: 1.5
        )
        tier = SketchTier(config)
        tier.advance(buckets[0])
        tier.advance(buckets[0])
        node = next(record.src for record in buckets[0])
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            value = tier.persistence(node)
        assert value == 0.0
        assert registry.counter_total("distance.out_of_range") == 1.0

    def test_ut_scheme_uses_unexpected_talkers(self, buckets):
        from repro.streaming.stream_schemes import StreamingUnexpectedTalkers

        config = ServiceConfig(
            num_shards=1, window_records=25, queue_capacity=100, k=5, scheme="ut"
        )
        tier = SketchTier(config)
        tier.advance(buckets[0])
        assert isinstance(tier.current, StreamingUnexpectedTalkers)
