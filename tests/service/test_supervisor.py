"""Supervision: routing, lockstep windows, restart budget, escalation, heal."""

import pytest

from repro.pipeline.faults import SimulatedCrash
from repro.service import (
    HEALTH_DEGRADED,
    HEALTH_DOWN,
    HEALTH_HEALTHY,
    STATE_CLOSED,
    BreakSketch,
    KillShard,
    ShardFaultInjector,
    ShardSupervisor,
)


def windows_of(records, size=30):
    return [records[start:start + size] for start in range(0, len(records), size)]


@pytest.fixture
def traffic(records_factory):
    return windows_of(records_factory(120, nodes=12, seed=5))


class TestRouting:
    def test_shard_assignment_is_stable_and_total(self, small_config):
        supervisor = ShardSupervisor(small_config)
        for node in ("h0", "h1", "alice", "10.0.0.1"):
            shard = supervisor.shard_for(node)
            assert 0 <= shard < small_config.num_shards
            assert supervisor.shard_for(node) == shard
            assert supervisor.state_for(node).shard_id == shard

    def test_records_routed_by_source(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        supervisor.ingest(traffic[0])
        for state in supervisor.shards:
            for record in state.buckets[0]:
                assert supervisor.shard_for(record.src) == state.shard_id

    def test_lockstep_windows(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        for bucket in traffic:
            supervisor.ingest(bucket)
        assert supervisor.window == 3
        for state in supervisor.shards:
            assert state.engine.window == 3
            assert state.sketch.window == 3
            assert len(state.buckets) == 4

    def test_shards_cover_all_signatures(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        for bucket in traffic:
            supervisor.ingest(bucket)
        owned = set()
        for state in supervisor.shards:
            for node in state.engine.signatures:
                assert supervisor.shard_for(node) == state.shard_id
                owned.add(node)
        # Signatures cover the current window's active sources (the
        # population is per-window, exactly as in the pipeline).
        sources = {record.src for record in traffic[-1]}
        assert owned == sources


class TestRecovery:
    def test_crash_recovers_byte_identical(self, small_config, traffic, tmp_path):
        reference = ShardSupervisor(small_config, checkpoint_dir=tmp_path / "ref")
        chaotic = ShardSupervisor(small_config, checkpoint_dir=tmp_path / "chaos")
        chaotic.install_injector(1, KillShard(at_window=2))
        for bucket in traffic:
            reference.ingest(bucket)
            chaotic.ingest(bucket)
        state = chaotic.shards[1]
        assert state.health == HEALTH_HEALTHY
        assert state.restarts == 1
        for ref_state, chaos_state in zip(reference.shards, chaotic.shards):
            assert chaos_state.engine.signatures == ref_state.engine.signatures
            assert chaos_state.engine.prev_signatures == ref_state.engine.prev_signatures

    def test_no_acknowledged_records_lost_across_crash(
        self, small_config, traffic
    ):
        supervisor = ShardSupervisor(small_config)
        supervisor.install_injector(0, KillShard(at_window=1))
        for bucket in traffic:
            supervisor.ingest(bucket)
        ingested = sum(state.records_ingested() for state in supervisor.shards)
        assert ingested == sum(len(bucket) for bucket in traffic)

    def test_restart_budget_exhaustion_degrades(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        injector = KillShard(at_window=1, rebuild_failures=100)
        supervisor.install_injector(0, injector)
        for bucket in traffic:
            supervisor.ingest(bucket)
        state = supervisor.shards[0]
        assert state.health == HEALTH_DEGRADED
        assert state.engine is None
        # Budgeted attempts at the crash window, then one opportunistic
        # attempt per later window.
        assert injector.rebuild_attempts >= small_config.max_restarts + 1
        # Other shards are untouched.
        assert supervisor.shards[1].health == HEALTH_HEALTHY
        assert supervisor.shards[2].health == HEALTH_HEALTHY

    def test_degraded_shard_heals_when_fault_clears(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        # Fail the crash-window budget (1 + max_restarts attempts), then the
        # next window's opportunistic rebuild succeeds.
        injector = KillShard(
            at_window=1, rebuild_failures=small_config.max_restarts + 1
        )
        supervisor.install_injector(0, injector)
        for bucket in traffic:
            supervisor.ingest(bucket)
        state = supervisor.shards[0]
        assert state.health == HEALTH_HEALTHY
        assert state.engine is not None
        assert state.engine.window == supervisor.window
        # The healed engine serves the same signatures as a clean run.
        reference = ShardSupervisor(small_config)
        for bucket in traffic:
            reference.ingest(bucket)
        assert state.engine.signatures == reference.shards[0].engine.signatures

    def test_sketch_failure_goes_down_then_heals(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        supervisor.install_injector(2, BreakSketch(at_window=1))
        for bucket in traffic[:3]:
            supervisor.ingest(bucket)
        state = supervisor.shards[2]
        assert state.health == HEALTH_DOWN
        # Ingest log keeps accumulating while DOWN...
        assert len(state.buckets) == 3
        # ...so an explicit heal rebuilds both tiers completely.
        supervisor.install_injector(2, None)
        assert supervisor.heal(2)
        assert state.health == HEALTH_HEALTHY
        supervisor.ingest(traffic[3])
        reference = ShardSupervisor(small_config)
        for bucket in traffic:
            reference.ingest(bucket)
        assert state.engine.signatures == reference.shards[2].engine.signatures


class WindowProbe(ShardFaultInjector):
    """Records the published window while a shard applies a bucket."""

    def __init__(self, supervisor, crash_at=None):
        self.supervisor = supervisor
        self.crash_at = crash_at
        self.seen = []

    def on_apply(self, shard_id, window):
        self.seen.append(
            (window, self.supervisor.window, self.supervisor.status()["window"])
        )
        if window == self.crash_at:
            raise SimulatedCrash(f"probe: crashed shard {shard_id} at {window}")


class TestStatus:
    def test_published_window_trails_shard_apply(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        probes = [
            WindowProbe(supervisor, crash_at=2 if state.shard_id == 1 else None)
            for state in supervisor.shards
        ]
        for state, probe in zip(supervisor.shards, probes):
            supervisor.install_injector(state.shard_id, probe)
        for index, bucket in enumerate(traffic):
            supervisor.ingest(bucket)
            # Published only once every shard — the crashed and rebuilt
            # one included — has had its turn.
            assert supervisor.window == index
            assert supervisor.status()["window"] == index
        for probe in probes:
            assert probe.seen == [
                (window, window - 1, window - 1) for window in range(len(traffic))
            ]
        assert supervisor.shards[1].restarts == 1
        assert supervisor.shards[1].health == HEALTH_HEALTHY

    def test_status_shape(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        for bucket in traffic:
            supervisor.ingest(bucket)
        status = supervisor.status()
        assert status["window"] == 3
        assert status["num_shards"] == 3
        for shard in status["shards"]:
            assert shard["health"] == HEALTH_HEALTHY
            assert shard["breaker"] == STATE_CLOSED
            assert shard["window"] == 3
            assert shard["restarts"] == 0

    def test_breaker_state_reported_as_degraded(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        for bucket in traffic:
            supervisor.ingest(bucket)
        state = supervisor.shards[0]
        for _ in range(4):
            state.breaker.record_failure()
        assert supervisor.shard_health(state) == HEALTH_DEGRADED

    def test_metrics_snapshot_prefixes_shards(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        for bucket in traffic:
            supervisor.ingest(bucket)
        snapshot = supervisor.metrics_snapshot()
        windows = {
            labels["shard"]: value
            for name, labels, value in snapshot["counters"]
            if name == "shard.windows"
        }
        assert windows == {"0": 4.0, "1": 4.0, "2": 4.0}
