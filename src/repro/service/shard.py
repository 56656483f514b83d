"""One shard of the online signature service.

:class:`ShardEngine` is the exact tier: it owns a sliding-window aggregator
(PR 5), the scheme's incremental ``compute_all`` chain, a per-shard
checkpoint store (PR 1) and a per-shard metrics registry.  Service node ids
are strings (they arrive over the wire), so the raw-keyed incremental chain
and the string-keyed checkpoint payloads coincide — which is what lets a
rebuilt engine seed its chain directly from verified checkpoints.

:meth:`ShardEngine.rebuild` is the recovery path: given the shard's
acknowledged ingest log (every bucket the supervisor accepted for it), it
replays the aggregator to the exact graph state, reuses the longest
hash-verified checkpoint prefix, recomputes only the unverified suffix, and
re-persists it.  By the byte-identity contract of the incremental engine
this reproduces the signatures of a shard that never crashed.

:class:`SketchTier` is the degraded tier: per-window Count-Min / SpaceSaving
(and Flajolet-Martin, for ``ut``) sketch builders fed from the same buckets.
It is deliberately engine-independent so a shard whose exact engine is dead
keeps answering — approximately, and saying so.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro import obs
from repro.core.distances import OUT_OF_RANGE_TOL, get_distance
from repro.core.scheme import SignatureScheme, create_scheme
from repro.core.signature import Signature
from repro.exceptions import CheckpointError
from repro.graph.stream import EdgeRecord
from repro.graph.windows import SlidingWindowAggregator
from repro.matching.index import SignatureIndex
from repro.pipeline.checkpoint import CheckpointStore
from repro.service.config import ServiceConfig
from repro.streaming.stream_schemes import (
    StreamingTopTalkers,
    StreamingUnexpectedTalkers,
)
from repro.types import NodeId


def _clamp_persistence(value: float, counter) -> float:
    """Clamp ``1 - distance`` to [0, 1], counting genuine excursions.

    Registered distances clamp themselves, but custom distances (or a
    distance that exceeds 1 on disjoint supports) would otherwise surface
    as negative persistence in ``/anomaly`` responses.
    """
    if value < 0.0:
        if value < -OUT_OF_RANGE_TOL:
            counter.inc()
        return 0.0
    if value > 1.0:
        if value > 1.0 + OUT_OF_RANGE_TOL:
            counter.inc()
        return 1.0
    return value


class ShardEngine:
    """Exact incremental signature engine for one shard."""

    def __init__(
        self,
        shard_id: int,
        config: ServiceConfig,
        *,
        store: Optional[CheckpointStore] = None,
        history=None,
        registry: Optional[obs.MetricsRegistry] = None,
        shm_engine=None,
        sketch_engine=None,
    ) -> None:
        self.shard_id = shard_id
        self.config = config
        self.store = store
        #: Optional :class:`repro.store.history.HistoryStore`: every applied
        #: window is appended, and :meth:`restore_from_history` can bring a
        #: fresh process back to answering without any ingest log.
        self.history = history
        # Supervisor-owned shared-memory pool (strategy="shm"); the shard
        # never closes it — its lifecycle belongs to whoever shares it.
        self._shm_engine = shm_engine
        # Supervisor-owned budgeted sketch tier (strategy="sketch").
        self._sketch_engine = sketch_engine
        self.registry = registry if registry is not None else obs.MetricsRegistry()
        self.scheme: SignatureScheme = create_scheme(
            config.scheme, k=config.k, **config.scheme_params
        )
        self.aggregator = SlidingWindowAggregator(window_buckets=config.window_buckets)
        #: Index of the last applied window; -1 before any bucket arrived.
        self.window = -1
        #: Current / previous window signatures, string-keyed.
        self.signatures: Dict[str, Signature] = {}
        self.prev_signatures: Dict[str, Signature] = {}
        self._previous_raw: Optional[Dict[NodeId, Signature]] = None
        self._index: Optional[SignatureIndex] = None
        self._distance = get_distance(config.distance)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def apply(self, bucket: Sequence[EdgeRecord]) -> None:
        """Advance one window with ``bucket`` and recompute signatures.

        Records are sorted first (float aggregation is order-sensitive;
        sorting makes output invariant to arrival order, exactly as the
        pipeline does), then the scheme recomputes only its dirty set.
        """
        with obs.use_registry(self.registry):
            self._apply(sorted(bucket))

    def _compute_kwargs(self) -> Dict:
        """Forward the configured execution strategy when the supervisor
        gave us an engine: ``"shm"`` stays byte-identical to serial,
        ``"sketch"`` trades exactness for a memory budget (deterministic
        for a fixed seed, so rebuilds still converge)."""
        if self._shm_engine is not None and self.config.strategy == "shm":
            return {"strategy": "shm", "engine": self._shm_engine}
        if self._sketch_engine is not None and self.config.strategy == "sketch":
            return {"strategy": "sketch", "engine": self._sketch_engine}
        return {}

    def _apply(self, records: List[EdgeRecord]) -> None:
        delta = self.aggregator.advance(records)
        graph = self.aggregator.graph
        use_delta = delta if (self._previous_raw is not None and self.window >= 0) else None
        population = [node for node in graph.nodes() if graph.out_strength(node) > 0]
        raw = self.scheme.compute_all(
            graph,
            population,
            delta=use_delta,
            previous=self._previous_raw,
            **self._compute_kwargs(),
        )
        window = self.window + 1
        signatures = {str(node): sig for node, sig in raw.items()}
        meta = {
            "shard": self.shard_id,
            "num_records": len(records),
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
        }
        # Persist before publishing: once readers see the new window,
        # /history must already be able to answer it.
        if self.store is not None:
            self.store.save_window(window, signatures, meta=meta)
            self.registry.counter("shard.checkpoint_writes").inc()
        if self.history is not None:
            self.history.append([(window, signatures)], metas={window: meta})
        self.window = window
        self.prev_signatures = self.signatures
        self.signatures = signatures
        self._previous_raw = raw
        self._index = None
        self.registry.counter("shard.windows").inc()
        self.registry.counter("shard.records").inc(len(records))
        self.registry.gauge("shard.nodes").set(graph.num_nodes)
        self.registry.gauge("shard.edges").set(graph.num_edges)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def rebuild(
        self,
        buckets: Sequence[Sequence[EdgeRecord]],
        *,
        base_window: int = -1,
    ) -> List[str]:
        """Restore engine state from the acknowledged ingest log.

        Replays every bucket through a fresh aggregator (identical mutation
        sequence, identical graph state).  Windows covered by the longest
        hash-verified checkpoint prefix are *loaded*, not recomputed; the
        rest — including any window whose checkpoint is missing or corrupt
        — is recomputed through the incremental chain and re-persisted.
        Returns the scan issues encountered (corrupt/missing checkpoints),
        so the supervisor can surface them as health events.

        ``base_window`` handles the restarted-process case: when this
        process began by restoring window ``base_window`` from the history
        store, its ingest log only covers windows after that point, so
        bucket ``i`` replays as global window ``base_window + 1 + i`` (and
        window ``base_window`` itself is re-seeded from history).
        """
        issues: List[str] = []
        verified = 0
        if self.store is not None:
            scan = self.store.scan()
            issues.extend(scan.issues)
            verified = min(scan.next_window, base_window + 1 + len(buckets))
        with obs.use_registry(self.registry):
            if base_window >= 0:
                self._seed_from_history(base_window)
            self._replay(buckets, verified, base_window)
        if issues:
            self.registry.counter("shard.checkpoint_issues").inc(len(issues))
        self.registry.counter("shard.rebuilds").inc()
        return issues

    def _seed_from_history(self, base_window: int) -> None:
        """Re-seed query state at ``base_window`` before replaying the log.

        Lenient on a damaged history (the window may have been compacted
        away or corrupted): the engine then serves the replayed suffix
        only, but global window numbering stays correct.
        """
        self.window = base_window
        self._previous_raw = None
        if self.history is not None and base_window in set(self.history.windows()):
            self.signatures = self.history.load_window(base_window)
        else:
            self.signatures = {}

    def _replay(
        self,
        buckets: Sequence[Sequence[EdgeRecord]],
        verified: int,
        base_window: int = -1,
    ) -> None:
        for offset, bucket in enumerate(buckets):
            index = base_window + 1 + offset
            records = sorted(bucket)
            delta = self.aggregator.advance(records)
            graph = self.aggregator.graph
            self.window = index
            if index < verified:
                # Checkpoint verified: loading reproduces the original
                # signatures exactly (atomic JSON round-trip, canonical
                # entry ordering), without recomputing the window.
                assert self.store is not None
                signatures, _meta = self.store.load_window(index)
                raw: Dict[NodeId, Signature] = dict(signatures)
            else:
                use_delta = delta if (self._previous_raw is not None and offset > 0) else None
                population = [
                    node for node in graph.nodes() if graph.out_strength(node) > 0
                ]
                raw = self.scheme.compute_all(
                    graph,
                    population,
                    delta=use_delta,
                    previous=self._previous_raw,
                    **self._compute_kwargs(),
                )
                if self.store is not None:
                    # Heal the store: re-persist the recomputed window so the
                    # directory converges back to the uninterrupted run's.
                    self.store.save_window(
                        index,
                        {str(node): sig for node, sig in raw.items()},
                        meta={"shard": self.shard_id, "recovered": True},
                    )
            self.prev_signatures = self.signatures
            self.signatures = {str(node): sig for node, sig in raw.items()}
            self._previous_raw = raw
            if self.history is not None and index > self.history.max_window():
                # Heal history holes at the tail only; windows already
                # recorded are byte-identical by the rebuild contract, and
                # re-appending them would needlessly supersede good segments.
                self.history.append(
                    [(index, self.signatures)],
                    metas={index: {"shard": self.shard_id, "recovered": True}},
                )
        self._index = None

    def restore_from_history(self) -> bool:
        """Restore query state from the shard's history store alone.

        The path a restarted *process* takes before any ingest log exists:
        the last two recorded windows become ``signatures`` /
        ``prev_signatures``, so ``/signature``, ``/history`` and
        ``/anomaly`` answer immediately from durable state.  The
        incremental chain is deliberately broken (``_previous_raw = None``)
        because the aggregator's graph is gone — the next applied window
        recomputes its population in full, which is byte-identical for
        ``window_buckets=1`` (each window's graph is exactly its bucket).
        Returns whether any window was restored.
        """
        if self.history is None:
            return False
        last = self.history.max_window()
        if last < 0:
            return False
        with obs.use_registry(self.registry):
            self.signatures = self.history.load_window(last)
            self.prev_signatures = (
                self.history.load_window(last - 1)
                if last - 1 in set(self.history.windows())
                else {}
            )
        self.window = last
        self._previous_raw = None
        self._index = None
        self.registry.counter("shard.history_restores").inc()
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def signature(self, node: str) -> Optional[Signature]:
        """The node's current-window signature, or ``None`` if unknown."""
        return self.signatures.get(node)

    def query_index(self) -> SignatureIndex:
        """Similarity index over the current window (rebuilt lazily per window)."""
        if self._index is None:
            index = SignatureIndex(self._distance)
            index.add_all(self.signatures.values())
            self._index = index
        return self._index

    def persistence(self, node: str) -> Optional[float]:
        """``1 - dist(sig_prev, sig_now)`` for the node, or ``None`` when the
        node is missing from either of the last two windows."""
        now = self.signatures.get(node)
        prev = self.prev_signatures.get(node)
        if now is None or prev is None:
            return None
        return _clamp_persistence(
            1.0 - self._distance(prev, now),
            self.registry.counter("distance.out_of_range", path="shard.persistence"),
        )


class SketchTier:
    """Per-window streaming sketches backing a shard's degraded answers.

    Fed the same buckets as the exact engine but structurally independent
    of it: rebuilding a crashed engine (or losing it for good) does not
    disturb the sketch tier.  Each arriving bucket gets its own builder
    (observing only that bucket, once); the window's builder is the *merge*
    of the retained last ``window_buckets`` bucket builders.  Advancing
    therefore costs one bucket observation plus O(window_buckets) sketch
    merges, instead of the old full re-observation of every retained
    record per window.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        registry: Optional[obs.MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else obs.MetricsRegistry()
        self._bucket_builders: Deque[StreamingTopTalkers] = deque(
            maxlen=config.window_buckets
        )
        self.current: Optional[StreamingTopTalkers] = None
        self.previous: Optional[StreamingTopTalkers] = None
        self.window = -1

    def _builder(self) -> StreamingTopTalkers:
        cls = (
            StreamingUnexpectedTalkers
            if self.config.scheme == "ut"
            else StreamingTopTalkers
        )
        return cls(k=self.config.k, seed=self.config.seed)

    def advance(self, bucket: Sequence[EdgeRecord]) -> None:
        """Roll the sketch window forward by one bucket (merge, not rebuild).

        Bucket builders are immutable once observed, so the fold below
        never re-reads a record: evicting the oldest bucket is just the
        deque dropping its builder, and the window summary is rebuilt from
        ``window_buckets`` sketch merges.
        """
        builder = self._builder()
        builder.observe_records(sorted(bucket))
        self._bucket_builders.append(builder)
        window_builder: Optional[StreamingTopTalkers] = None
        for part in self._bucket_builders:
            if window_builder is None:
                window_builder = part
            else:
                window_builder = window_builder.merge(part)
                self.registry.counter("sketch.merges").inc()
        self.previous = self.current
        self.current = window_builder
        self.window += 1

    def signature(self, node: str) -> Optional[Signature]:
        """Approximate signature for the node, ``None`` when never seen."""
        if self.current is None or node not in self.current.sources:
            return None
        return self.current.signature(node)

    def persistence(self, node: str) -> Optional[float]:
        """Approximate persistence across the last two sketch windows."""
        if self.current is None or self.previous is None:
            return None
        if node not in self.current.sources or node not in self.previous.sources:
            return None
        distance = get_distance(self.config.distance)
        return _clamp_persistence(
            1.0 - distance(self.previous.signature(node), self.current.signature(node)),
            obs.counter("distance.out_of_range", path="sketch.persistence"),
        )
