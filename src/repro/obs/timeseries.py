"""Bounded time series over registry snapshots: the *trajectory* layer.

A registry snapshot is one point in time; monitoring deployments care
about the trajectory — the paper's persistence signal
``1 - Dist(sigma_t(v), sigma_{t+1}(v))`` is only an anomaly detector when
watched *over* windows.  This module provides:

* :class:`Series` — a bounded ring buffer of ``(t, value)`` points;
* :class:`TimeSeriesStore` — named series plus :meth:`TimeSeriesStore.sample`,
  which folds a whole registry snapshot in (counters, gauges, digest
  quantiles) keyed by the rendered ``name{label=value,...}`` form;
* :class:`Sampler` — a daemon thread that samples a registry every
  ``interval`` seconds, so long runs record trajectories with no
  cooperation from the instrumented code.

Everything is thread-safe: the sampler (or an HTTP scrape thread) may read
while the run mutates the registry.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.digest import LatencyDigest
from repro.obs.registry import render_key

#: Digest quantiles sampled into series (suffixes ``:p50`` etc.).
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


class Series:
    """A bounded ring buffer of ``(t, value)`` points (oldest evicted first)."""

    __slots__ = ("name", "_points")

    def __init__(self, name: str, max_points: int = 512) -> None:
        if max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {max_points}")
        self.name = name
        self._points: deque = deque(maxlen=max_points)

    def append(self, t: float, value: float) -> None:
        self._points.append((float(t), float(value)))

    def points(self) -> List[Tuple[float, float]]:
        return list(self._points)

    def values(self) -> List[float]:
        return [value for _t, value in self._points]

    def last(self) -> Optional[Tuple[float, float]]:
        return self._points[-1] if self._points else None

    def __len__(self) -> int:
        return len(self._points)


class TimeSeriesStore:
    """Named bounded series; knows how to ingest a registry snapshot.

    ``max_points`` bounds every series (ring-buffer semantics), so a
    sampler running for days holds a sliding window, not unbounded memory.
    """

    def __init__(self, max_points: int = 512) -> None:
        self.max_points = max_points
        self._lock = threading.Lock()
        self._series: Dict[str, Series] = {}

    def record(self, key: str, t: float, value: float) -> None:
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = Series(key, self.max_points)
            series.append(t, value)

    def series(self, key: str) -> Optional[Series]:
        with self._lock:
            return self._series.get(key)

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def last(self, key: str) -> Optional[Tuple[float, float]]:
        series = self.series(key)
        return series.last() if series is not None else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def sample(
        self,
        registry,
        t: Optional[float] = None,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> float:
        """Fold one snapshot of ``registry`` into the series; returns ``t``.

        Counters and gauges become one series each (rendered key);
        digests contribute ``<key>:count``, ``<key>:mean`` and one
        ``<key>:p<NN>`` series per requested quantile.
        """
        stamp = time.time() if t is None else float(t)
        snapshot = registry.snapshot()
        for name, labels, value in snapshot.get("counters", []):
            self.record(render_key(name, tuple(sorted(labels.items()))), stamp, value)
        for name, labels, value in snapshot.get("gauges", []):
            self.record(render_key(name, tuple(sorted(labels.items()))), stamp, value)
        for name, labels, state in snapshot.get("digests", []):
            key = render_key(name, tuple(sorted(labels.items())))
            count = state["count"]
            self.record(f"{key}:count", stamp, count)
            if count:
                self.record(f"{key}:mean", stamp, state["sum"] / count)
                digest = LatencyDigest.from_dict(state)
                for q in quantiles:
                    self.record(
                        f"{key}:p{int(round(q * 100))}", stamp, digest.quantile(q)
                    )
        return stamp

    def to_dict(self) -> Dict[str, List[List[float]]]:
        """Plain-JSON image: ``{key: [[t, value], ...]}``, sorted by key."""
        with self._lock:
            return {
                key: [[t, value] for t, value in series.points()]
                for key, series in sorted(self._series.items())
            }


class Sampler:
    """Background thread snapshotting ``registry`` into ``store`` periodically.

    ``clock`` stamps the sample times (injectable for deterministic
    tests); :meth:`sample_once` is the synchronous path tests and
    window-boundary hooks use.  Stopping joins the thread, and the final
    :meth:`stop` takes one last sample so short runs always record at
    least the end state.
    """

    def __init__(
        self,
        registry,
        store: Optional[TimeSeriesStore] = None,
        interval: float = 1.0,
        clock=time.time,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.registry = registry
        self.store = store if store is not None else TimeSeriesStore()
        self.interval = interval
        self.quantiles = tuple(quantiles)
        self._clock = clock
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def sample_once(self, t: Optional[float] = None) -> float:
        return self.store.sample(
            self.registry,
            t=self._clock() if t is None else t,
            quantiles=self.quantiles,
        )

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def start(self) -> "Sampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-obs-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> TimeSeriesStore:
        """Stop the thread (if running), take a final sample, return the store."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.sample_once()
        return self.store

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
