"""Shard supervision: routing, lockstep windows, restarts and escalation.

:class:`ShardSupervisor` owns one :class:`~repro.service.shard.ShardEngine`
plus one :class:`~repro.service.shard.SketchTier` per shard and applies
every accepted window bucket to all of them in lockstep.  Its job is the
failure envelope:

* a shard whose engine raises mid-apply is **rebuilt** from the shard's
  acknowledged ingest log (and verified checkpoints) under the PR 1
  :class:`~repro.pipeline.retry.RetryPolicy` — backoff between attempts,
  a bounded restart budget;
* when the budget is exhausted the shard **escalates to DEGRADED**: the
  engine is dropped and the sketch tier answers (flagged approximate)
  until a later window's rebuild succeeds;
* if even the sketch tier fails the shard is **DOWN** — it stops
  answering, but its ingest log keeps accumulating so a later heal can
  recover everything, and no other shard is affected.

Acknowledged-ingest durability: a bucket is appended to the shard's log
*before* the engine sees it, so a crash mid-apply can never lose accepted
records — the rebuild replays the log including the in-flight bucket.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.graph.stream import EdgeRecord
from repro.pipeline.checkpoint import CheckpointStore
from repro.pipeline.retry import RetryPolicy, call_with_retry
from repro.service.breaker import STATE_CLOSED, STATE_CODES, CircuitBreaker
from repro.service.config import (
    HEALTH_DEGRADED,
    HEALTH_DOWN,
    HEALTH_HEALTHY,
    ServiceConfig,
)
from repro.service.shard import ShardEngine, SketchTier
from repro.streaming.hashing import stable_hash64


@dataclass
class ShardState:
    """Everything the supervisor tracks about one shard."""

    shard_id: int
    engine: Optional[ShardEngine]
    sketch: SketchTier
    breaker: CircuitBreaker
    registry: obs.MetricsRegistry
    store: Optional[CheckpointStore] = None
    #: Per-shard signature history (``None`` without ``history_dir``).
    history: Optional[object] = None
    #: Supervision verdict from the ingest path (the breaker adds the
    #: query-path view on top; see :meth:`ShardSupervisor.shard_health`).
    health: str = HEALTH_HEALTHY
    #: Acknowledged ingest log: every bucket routed to this shard, in order.
    buckets: List[List[EdgeRecord]] = field(default_factory=list)
    #: Window restored from history at process start (-1 for a fresh
    #: process).  The ingest log only covers windows after this point, so
    #: rebuilds replay bucket ``i`` as global window ``window_base + 1 + i``.
    window_base: int = -1
    restarts: int = 0
    last_error: str = ""
    #: Chaos hook; ``None`` in production.
    injector: Optional[object] = None

    def records_ingested(self) -> int:
        return sum(len(bucket) for bucket in self.buckets)


class ShardSupervisor:
    """Owns the shard fleet; applies windows, restarts and demotes shards."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        checkpoint_dir: Optional[str | Path] = None,
        history_dir: Optional[str | Path] = None,
        retry: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config or ServiceConfig()
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.history_dir = Path(history_dir) if history_dir else None
        self.retry = retry or RetryPolicy(
            max_attempts=self.config.max_restarts + 1,
            base_delay=self.config.restart_base_delay_s,
            jitter=0.0,
        )
        self._clock = clock
        self._sleep = sleep
        # One shared-memory worker pool for the whole fleet: shards
        # advance sequentially from the pump thread, so a single pool of
        # config.jobs workers serves every shard's window recompute
        # without serializing graphs (strategy="shm" only).
        self._shm_engine = None
        if self.config.strategy == "shm":
            from repro.parallel.shm import ShmEngine

            self._shm_engine = ShmEngine(jobs=self.config.jobs)
        # One budgeted sketch tier for the whole fleet (strategy="sketch"):
        # every shard's exact-engine recompute answers hot sources exactly
        # and the tail from budget-sized sketches, so total tier state
        # tracks config.sketch_budget_bytes instead of the node universe.
        self._sketch_engine = None
        if self.config.strategy == "sketch":
            from repro.streaming.tier import SketchTierEngine

            self._sketch_engine = SketchTierEngine(
                budget_bytes=self.config.sketch_budget_bytes,
                seed=self.config.seed,
            )
        #: Global window index; -1 before the first bucket closes.
        self.window = -1
        self.shards: List[ShardState] = [
            self._new_state(shard_id) for shard_id in range(self.config.num_shards)
        ]
        self._restore_from_history()

    def _restore_from_history(self) -> None:
        """Bring a restarted process back to answering from durable history.

        Each shard engine restores its last recorded window from the
        shard's history store; the global window index resumes at the
        highest restored window so status and responses stay truthful.
        Shards fall back to empty (fresh) state when the stores are empty.
        """
        restored = -1
        for state in self.shards:
            if state.engine is not None and state.engine.restore_from_history():
                state.window_base = state.engine.window
                restored = max(restored, state.engine.window)
        if restored >= 0:
            self.window = restored
            obs.emit(
                "service.restored_from_history",
                level="info",
                window=restored,
                shards=len(self.shards),
            )

    def close(self) -> None:
        """Release the shared-memory pool and its segments (idempotent).

        Only needed under ``strategy="shm"``; serial supervisors hold no
        process-level resources.
        """
        if self._shm_engine is not None:
            self._shm_engine.close()
            self._shm_engine = None

    def _new_state(self, shard_id: int) -> ShardState:
        store = None
        if self.checkpoint_dir is not None:
            store = CheckpointStore(self.checkpoint_dir / f"shard-{shard_id:02d}")
        history = None
        if self.history_dir is not None:
            from repro.store.history import HistoryStore

            history = HistoryStore(self.history_dir / f"shard-{shard_id:02d}")
        registry = obs.MetricsRegistry()
        return ShardState(
            shard_id=shard_id,
            engine=ShardEngine(
                shard_id,
                self.config,
                store=store,
                history=history,
                registry=registry,
                shm_engine=self._shm_engine,
                sketch_engine=self._sketch_engine,
            ),
            sketch=SketchTier(self.config, registry=registry),
            breaker=CircuitBreaker(
                self.config.breaker,
                name=f"shard-{shard_id}",
                clock=self._clock,
                registry=registry,
                digest_relative_accuracy=self.config.digest_relative_accuracy,
            ),
            registry=registry,
            store=store,
            history=history,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_for(self, node: str) -> int:
        """Stable shard assignment of a node (hash of its string form)."""
        return stable_hash64(str(node)) % self.config.num_shards

    def state_for(self, node: str) -> ShardState:
        return self.shards[self.shard_for(node)]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, bucket: Sequence[EdgeRecord]) -> None:
        """Close one global window: route the bucket and advance every shard.

        Records are routed by source node (signatures are owner-centric);
        every shard advances even on an empty sub-bucket so windows stay in
        lockstep.  Shard failures are contained — one shard crashing,
        degrading or going down never blocks the others.  ``self.window``
        moves to the new window only once every shard has had its turn, so
        ``/status`` and response stamps never name a window no shard
        serves yet.
        """
        window = self.window + 1
        routed: Dict[int, List[EdgeRecord]] = {
            state.shard_id: [] for state in self.shards
        }
        for record in bucket:
            routed[self.shard_for(record.src)].append(record)
        for state in self.shards:
            sub = routed[state.shard_id]
            # Acknowledge durability first: once logged, the records survive
            # any engine crash below (the rebuild replays the log).
            state.buckets.append(list(sub))
            self._advance_sketch(state, sub, window)
            self._advance_engine(state, sub, window)
        self.window = window

    def _advance_sketch(
        self, state: ShardState, sub: List[EdgeRecord], window: int
    ) -> None:
        if state.health == HEALTH_DOWN:
            return
        try:
            if state.injector is not None:
                state.injector.on_sketch(state.shard_id, window)
            state.sketch.advance(sub)
        except Exception as error:  # noqa: BLE001 - escalation, not masking
            state.health = HEALTH_DOWN
            state.last_error = str(error)
            obs.emit(
                "service.shard.down",
                level="error",
                shard=state.shard_id,
                window=window,
                error=str(error),
            )
            state.registry.counter("shard.down_transitions").inc()

    def _advance_engine(
        self, state: ShardState, sub: List[EdgeRecord], window: int
    ) -> None:
        if state.health == HEALTH_DOWN:
            return
        if state.engine is None:
            # Previously demoted: try one opportunistic rebuild per window,
            # so clearing the underlying fault heals the shard.
            self._try_restart(state, opportunistic=True, window=window)
            return
        try:
            if state.injector is not None:
                state.injector.on_apply(state.shard_id, window)
            state.engine.apply(sub)
        except Exception as error:  # noqa: BLE001 - supervised restart below
            state.last_error = str(error)
            obs.emit(
                "service.shard.crashed",
                level="error",
                shard=state.shard_id,
                window=window,
                error=str(error),
            )
            state.registry.counter("shard.crashes").inc()
            self._try_restart(state, opportunistic=False, window=window)

    def _try_restart(
        self, state: ShardState, opportunistic: bool, window: Optional[int] = None
    ) -> None:
        """Rebuild the shard engine under the retry policy; demote on failure.

        ``window`` (default: the published window) is stamped on the events;
        ingest passes the window it is applying.
        """
        if window is None:
            window = self.window

        def attempt() -> ShardEngine:
            state.restarts += 1
            if state.injector is not None:
                state.injector.on_rebuild(state.shard_id)
            engine = ShardEngine(
                state.shard_id,
                self.config,
                store=state.store,
                history=state.history,
                registry=state.registry,
                shm_engine=self._shm_engine,
                sketch_engine=self._sketch_engine,
            )
            issues = engine.rebuild(state.buckets, base_window=state.window_base)
            for issue in issues:
                obs.emit(
                    "service.shard.checkpoint_issue",
                    level="warning",
                    shard=state.shard_id,
                    issue=issue,
                )
            return engine

        def count_restart(attempt_no: int, error: BaseException, delay: float) -> None:
            state.registry.counter("shard.restart_retries").inc()
            obs.emit(
                "service.shard.restart_retry",
                level="warning",
                shard=state.shard_id,
                attempt=attempt_no,
                error=str(error),
                delay_s=round(delay, 6),
            )

        policy = (
            RetryPolicy(max_attempts=1) if opportunistic else self.retry
        )
        try:
            engine = call_with_retry(
                attempt,
                policy,
                retry_on=(Exception,),
                sleep=self._sleep,
                clock=self._clock,
                rng=self.config.seed + state.shard_id,
                on_retry=count_restart,
            )
        except Exception as error:  # noqa: BLE001 - budget exhausted
            state.engine = None
            state.last_error = str(error)
            if state.health != HEALTH_DEGRADED:
                state.health = HEALTH_DEGRADED
                obs.emit(
                    "service.shard.degraded",
                    level="error",
                    shard=state.shard_id,
                    window=window,
                    error=str(error),
                )
                state.registry.counter("shard.degradations").inc()
            return
        state.engine = engine
        if state.health != HEALTH_HEALTHY:
            obs.emit(
                "service.shard.recovered",
                level="info",
                shard=state.shard_id,
                window=window,
            )
        state.health = HEALTH_HEALTHY
        state.registry.counter("shard.restarts").inc()
        obs.emit(
            "service.shard.restarted",
            level="info",
            shard=state.shard_id,
            window=window,
        )

    # ------------------------------------------------------------------
    # Chaos / administration
    # ------------------------------------------------------------------
    def install_injector(self, shard_id: int, injector: Optional[object]) -> None:
        """Attach (or with ``None``, remove) a chaos injector to one shard."""
        self.shards[shard_id].injector = injector

    def heal(self, shard_id: int) -> bool:
        """Force one rebuild attempt for a demoted/down shard.

        Returns whether the shard is HEALTHY afterwards.  A DOWN shard's
        sketch tier is rebuilt from the retained recent buckets as well.
        """
        state = self.shards[shard_id]
        if state.health == HEALTH_DOWN:
            state.sketch = SketchTier(self.config, registry=state.registry)
            recent = state.buckets[-self.config.window_buckets:]
            for bucket in recent:
                state.sketch.advance(bucket)
            state.health = HEALTH_DEGRADED
        self._try_restart(state, opportunistic=True)
        return state.health == HEALTH_HEALTHY

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_health(self, state: ShardState) -> str:
        """Effective health: supervision verdict + breaker state.

        An open (or half-open) breaker reports DEGRADED even while the
        engine object is alive — clients are being served sketches either
        way, and that is what health must describe.
        """
        if state.health == HEALTH_DOWN:
            return HEALTH_DOWN
        if state.health == HEALTH_DEGRADED or state.engine is None:
            return HEALTH_DEGRADED
        if state.breaker.state != STATE_CLOSED:
            return HEALTH_DEGRADED
        return HEALTH_HEALTHY

    def status(self) -> Dict:
        """Per-shard health/breaker/window snapshot for ``/status``."""
        shards = []
        for state in self.shards:
            breaker_state = state.breaker.state
            state.registry.gauge("shard.breaker_state").set(
                STATE_CODES[breaker_state]
            )
            shards.append(
                {
                    "shard": state.shard_id,
                    "health": self.shard_health(state),
                    "breaker": breaker_state,
                    "window": state.engine.window if state.engine else state.sketch.window,
                    "exact_nodes": len(state.engine.signatures) if state.engine else 0,
                    "records_ingested": state.records_ingested(),
                    "restarts": state.restarts,
                    "last_error": state.last_error,
                }
            )
        return {
            "window": self.window,
            "num_shards": len(self.shards),
            "shards": shards,
        }

    def metrics_snapshot(self) -> Dict:
        """All shard registries merged into one snapshot (for ``/metrics``).

        Each shard's metrics gain a ``shard`` label before merging, so
        per-shard series stay distinguishable the Prometheus way instead
        of blurring into one fleet-wide sum.
        """
        merged = obs.MetricsRegistry()
        for state in self.shards:
            snapshot = state.registry.snapshot()
            label = str(state.shard_id)
            merged.merge(
                {
                    "counters": [
                        (name, {**labels, "shard": label}, value)
                        for name, labels, value in snapshot["counters"]
                    ],
                    "gauges": [
                        (name, {**labels, "shard": label}, value)
                        for name, labels, value in snapshot["gauges"]
                    ],
                    "digests": [
                        (name, {**labels, "shard": label}, payload)
                        for name, labels, payload in snapshot["digests"]
                    ],
                    "spans": snapshot["spans"],
                },
                prefix=(f"shard-{state.shard_id}",),
            )
        return merged.snapshot()
