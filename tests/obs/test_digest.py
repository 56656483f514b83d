"""Tests for the mergeable log-bucketed latency digest."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_RELATIVE_ACCURACY,
    EXPORT_QUANTILES,
    LatencyDigest,
    MetricsRegistry,
    NULL_REGISTRY,
    merge_digest_states,
    quantile_from_state,
)


def lognormal_values(count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [math.exp(rng.gauss(-7.0, 1.5)) for _ in range(count)]


class TestAccuracy:
    def test_relative_error_bound_on_random_workloads(self):
        """The headline guarantee: every quantile within alpha of the true
        order statistic, across seeds, sizes and alphas."""
        for seed in range(5):
            for count in (10, 100, 2000):
                for alpha in (0.01, 0.05):
                    values = lognormal_values(count, seed)
                    digest = LatencyDigest(alpha)
                    digest.observe_many(values)
                    arr = np.asarray(values)
                    for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0):
                        exact = float(np.quantile(arr, q, method="higher"))
                        estimate = digest.quantile(q)
                        assert abs(estimate - exact) <= alpha * exact + 1e-12, (
                            f"seed={seed} n={count} alpha={alpha} q={q}: "
                            f"{estimate} vs {exact}"
                        )

    def test_extremes_are_exact(self):
        digest = LatencyDigest()
        values = [0.001, 0.5, 0.25, 0.125]
        digest.observe_many(values)
        assert digest.quantile(0.0) == pytest.approx(min(values), rel=0.01)
        # min/max clamping makes the endpoints exactly the observed extremes.
        assert digest.quantile(1.0) == max(values)

    def test_uniform_and_heavy_tail_shapes(self):
        rng = random.Random(3)
        for values in (
            [rng.uniform(0.001, 1.0) for _ in range(500)],
            [0.0001] * 990 + [2.0] * 10,  # spike tail
            [5e-9, 1e-8, 2e-8],  # near the trackable floor
        ):
            digest = LatencyDigest(0.01)
            digest.observe_many(values)
            arr = np.asarray(values)
            for q in (0.5, 0.99):
                exact = float(np.quantile(arr, q, method="higher"))
                assert digest.quantile(q) == pytest.approx(exact, rel=0.011)

    def test_mean_and_count(self):
        values = lognormal_values(200, 9)
        digest = LatencyDigest()
        digest.observe_many(values)
        assert digest.count == 200
        assert digest.mean == pytest.approx(sum(values) / 200)

    def test_rejects_bad_observations(self):
        digest = LatencyDigest()
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                digest.observe(bad)

    def test_empty_digest_quantile_is_zero(self):
        assert LatencyDigest().quantile(0.99) == 0.0


class TestMerge:
    def test_merge_matches_single_digest(self):
        left_values = lognormal_values(300, 1)
        right_values = lognormal_values(400, 2)
        combined = LatencyDigest()
        combined.observe_many(left_values + right_values)
        left = LatencyDigest()
        left.observe_many(left_values)
        right = LatencyDigest()
        right.observe_many(right_values)
        left.merge(right)
        assert left.count == combined.count
        for q in EXPORT_QUANTILES:
            assert left.quantile(q) == combined.quantile(q)

    def test_merge_is_order_independent(self):
        """Bucket contents, count, extremes and every quantile are exactly
        merge-order independent; only the float ``sum`` may differ in the
        last ulp (addition is not associative)."""
        parts = []
        for seed in range(4):
            digest = LatencyDigest()
            digest.observe_many(lognormal_values(150, seed + 10))
            parts.append(digest)

        order1 = LatencyDigest()
        for part in parts:
            order1.merge(part)
        order2 = LatencyDigest()
        for part in reversed(parts):
            order2.merge(part)

        state1, state2 = order1.to_dict(), order2.to_dict()
        assert state1["buckets"] == state2["buckets"]
        assert state1["zero_count"] == state2["zero_count"]
        assert state1["count"] == state2["count"]
        assert state1["min"] == state2["min"]
        assert state1["max"] == state2["max"]
        assert state1["sum"] == pytest.approx(state2["sum"], rel=1e-9)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert order1.quantile(q) == order2.quantile(q)

    def test_merge_rejects_mismatched_accuracy(self):
        with pytest.raises(ValueError):
            LatencyDigest(0.01).merge(LatencyDigest(0.05))

    def test_merge_empty_is_identity(self):
        digest = LatencyDigest()
        digest.observe_many([0.1, 0.2])
        before = digest.to_dict()
        digest.merge(LatencyDigest())
        assert digest.to_dict() == before

    def test_merge_digest_states_helper(self):
        digests = []
        for seed in range(3):
            digest = LatencyDigest()
            digest.observe_many(lognormal_values(100, seed + 50))
            digests.append(digest)
        merged = merge_digest_states([d.to_dict() for d in digests])
        assert merged.count == 300
        state = digests[0].to_dict()
        assert quantile_from_state(state, 0.5) == digests[0].quantile(0.5)
        assert merge_digest_states([]).count == 0


class TestSerialization:
    def test_round_trip(self):
        digest = LatencyDigest(0.02)
        digest.observe_many(lognormal_values(250, 4))
        digest.observe(0.0)  # exercise the zero bucket
        restored = LatencyDigest.from_dict(digest.to_dict())
        assert restored == digest
        assert restored.quantile(0.99) == digest.quantile(0.99)

    def test_state_is_json_plain(self):
        import json

        digest = LatencyDigest()
        digest.observe_many([0.01, 0.02, 0.5])
        state = json.loads(json.dumps(digest.to_dict()))
        assert LatencyDigest.from_dict(state) == digest


class TestRegistryIntegration:
    def test_digest_instrument_snapshot_and_merge(self):
        registry = MetricsRegistry()
        instrument = registry.digest("request.latency_s", endpoint="/similar")
        for value in (0.01, 0.02, 0.04):
            instrument.observe(value)
        snapshot = registry.snapshot()
        entries = snapshot["digests"]
        assert len(entries) == 1
        name, labels, state = entries[0]
        assert name == "request.latency_s"
        assert labels == {"endpoint": "/similar"}
        assert state["count"] == 3

        other = MetricsRegistry()
        other.merge(snapshot)
        other.merge(snapshot)
        merged_state = other.digest_state("request.latency_s", endpoint="/similar")
        assert merged_state.count == 6

    def test_digest_accuracy_conflict_raises(self):
        registry = MetricsRegistry()
        registry.digest("latency", relative_accuracy=0.01)
        with pytest.raises(ValueError):
            registry.digest("latency", relative_accuracy=0.05)

    def test_default_accuracy(self):
        registry = MetricsRegistry()
        registry.digest("latency").observe(0.1)
        state = registry.digest_state("latency")
        assert state.relative_accuracy == DEFAULT_RELATIVE_ACCURACY

    def test_null_registry_digest_is_noop(self):
        NULL_REGISTRY.digest("latency").observe(0.5)
        assert NULL_REGISTRY.digest_state("latency") is None
        assert NULL_REGISTRY.snapshot() == {
            "counters": [],
            "gauges": [],
            "digests": [],
            "spans": [],
        }

    def test_merge_accepts_pre_digest_snapshots(self):
        registry = MetricsRegistry()
        registry.counter("events").inc()
        old_snapshot = {
            key: value
            for key, value in registry.snapshot().items()
            if key != "digests"
        }
        fresh = MetricsRegistry()
        fresh.merge(old_snapshot)  # must not KeyError
        assert fresh.counters_flat() == {"events": 1}
