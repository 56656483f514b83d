"""Mergeable log-bucketed quantile digests with guaranteed relative error.

Fixed-bucket histograms answer "how many requests were slower than
100 ms", but their quantile estimates are only as good as the hand-picked
edges — a p99 that lands between two coarse edges can be off by the whole
bucket; that is why the registry carries no such instrument.
:class:`LatencyDigest` is a DDSketch-style sketch (Masson, Rim & Lee, VLDB 2019): values map to
geometric buckets ``gamma^(i-1) < v <= gamma^i`` with
``gamma = (1 + alpha) / (1 - alpha)``, so *every* quantile estimate is
within a factor ``1 ± alpha`` of a true order statistic, at any scale,
with no edges to configure.

The contract that matters for the sharded service:

* **Guaranteed relative error.**  ``quantile(q)`` returns a value within
  relative error ``alpha`` of the exact ``ceil(q * (n - 1))``-th order
  statistic of everything observed (``numpy.quantile(..., method="higher")``).
* **Mergeable, exactly like counters.**  Bucket counts add; ``merge`` is
  commutative and associative, so per-shard / per-worker digests fold into
  one fleet-wide digest in any order with an identical result.
* **Plain-data snapshots.**  ``to_dict`` / ``from_dict`` round-trip through
  JSON and pickle, which is how digests ride inside registry snapshots
  across process boundaries.

Bounded memory: with ``alpha = 0.01`` the whole latency range from 1 ns to
30 s spans ~1200 buckets, stored sparsely — only buckets that saw traffic
exist.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Tuple

#: Default relative-error bound (1%): p99 = 120 ms is really in
#: [118.8 ms, 121.2 ms].
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Values at or below this observe into the zero bucket (exactly
#: representable; latencies this small are clock noise anyway).
MIN_TRACKABLE = 1e-9


class LatencyDigest:
    """Sparse DDSketch: log-bucketed counts plus exact count/sum/min/max."""

    __slots__ = (
        "relative_accuracy",
        "_gamma",
        "_log_gamma",
        "_buckets",
        "_zero_count",
        "count",
        "sum",
        "min",
        "max",
    )

    def __init__(self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        self.relative_accuracy = float(relative_accuracy)
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        #: Sparse ``bucket index -> count``; value v > 0 lands in
        #: ``ceil(log(v) / log(gamma))``.
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Fold one non-negative value in (latencies are never negative)."""
        value = float(value)
        if value < 0.0 or math.isnan(value) or math.isinf(value):
            raise ValueError(f"digest values must be finite and >= 0, got {value}")
        if value <= MIN_TRACKABLE:
            self._zero_count += 1
        else:
            index = math.ceil(math.log(value) / self._log_gamma)
            self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """The ``q``-quantile within relative error ``relative_accuracy``.

        Targets the ``ceil(q * (count - 1))``-th order statistic (0-based)
        — :func:`numpy.quantile` with ``method="higher"``.  Returns 0.0 on
        an empty digest.  The bucket midpoint estimate
        ``2 * gamma^i / (gamma + 1)`` sits within ``1 ± alpha`` of every
        value the bucket can hold, which is the whole guarantee.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = math.ceil(q * (self.count - 1)) + 1  # 1-based target rank
        if rank <= self._zero_count:
            return 0.0
        cumulative = self._zero_count
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= rank:
                estimate = 2.0 * self._gamma ** index / (self._gamma + 1.0)
                # Clamping to the observed range can only move the
                # estimate toward the true order statistic.
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - counts always sum to count

    def quantiles(self, qs: Iterable[float]) -> Dict[str, float]:
        """``{"p50": ..., "p99": ...}`` for the requested quantiles."""
        return {f"p{_quantile_label(q)}": self.quantile(q) for q in qs}

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def __len__(self) -> int:
        return self.count

    # ------------------------------------------------------------------
    # Merging and serialization
    # ------------------------------------------------------------------
    def merge(self, other: "LatencyDigest") -> "LatencyDigest":
        """Fold ``other`` in (commutative + associative); returns ``self``."""
        if not math.isclose(self.relative_accuracy, other.relative_accuracy):
            raise ValueError(
                f"cannot merge digests with different accuracies: "
                f"{self.relative_accuracy} vs {other.relative_accuracy}"
            )
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self._zero_count += other._zero_count
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        return self

    def copy(self) -> "LatencyDigest":
        return LatencyDigest(self.relative_accuracy).merge(self)

    def to_dict(self) -> Dict:
        """Plain-data image (JSON-able; bucket keys sorted for stability)."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "buckets": [
                [index, self._buckets[index]] for index in sorted(self._buckets)
            ],
            "zero_count": self._zero_count,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    @classmethod
    def from_dict(cls, state: Dict) -> "LatencyDigest":
        digest = cls(state["relative_accuracy"])
        digest._buckets = {int(index): int(count) for index, count in state["buckets"]}
        digest._zero_count = int(state["zero_count"])
        digest.count = int(state["count"])
        digest.sum = float(state["sum"])
        if digest.count:
            digest.min = float(state["min"])
            digest.max = float(state["max"])
        return digest

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyDigest):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"LatencyDigest(alpha={self.relative_accuracy}, count={self.count}, "
            f"p50={self.quantile(0.5):.6f}, p99={self.quantile(0.99):.6f})"
        )


def _quantile_label(q: float) -> str:
    """``0.5 -> "50"``, ``0.99 -> "99"``, ``0.999 -> "99.9"``."""
    scaled = q * 100.0
    if math.isclose(scaled, round(scaled)):
        return str(int(round(scaled)))
    return f"{scaled:g}"


def merge_digest_states(states: Iterable[Dict]) -> LatencyDigest:
    """Merge plain-data digest states (as found in registry snapshots).

    No states merge to an empty digest (count 0, quantiles 0.0), so
    callers folding a possibly-absent label family need no special case.
    """
    merged: LatencyDigest | None = None
    for state in states:
        digest = LatencyDigest.from_dict(state)
        merged = digest if merged is None else merged.merge(digest)
    return merged if merged is not None else LatencyDigest()


def quantile_from_state(state: Dict, q: float) -> float:
    """Quantile straight off a snapshot's plain-data digest state."""
    return LatencyDigest.from_dict(state).quantile(q)


#: Quantiles the service exports per endpoint/shard.
EXPORT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)
