"""Serving metrics: latency percentiles, throughput, queue/cache health.

Every served request is timed from submission to completion; the recorder
keeps a bounded reservoir of recent latencies (enough for stable tail
percentiles) plus exact counts and totals — backed by the shared
:class:`repro.obs.metrics.Histogram` ring buffer, so a long-lived server
holds constant memory per model version no matter how many requests it
serves.  :class:`ModelStats` is the per-model snapshot assembled by
:meth:`ModelServer.stats`; :class:`ServerStats` aggregates the fleet
and renders the report.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.metrics import Histogram


class LatencyRecorder:
    """Thread-safe latency accumulator with bounded-reservoir percentiles.

    The distribution lives in an :class:`repro.obs.metrics.Histogram`
    (fixed-size ring buffer of recent samples; exact count and total kept
    separately), exposed as :attr:`histogram`.
    """

    def __init__(self, window: int = 8192):
        self._lock = threading.Lock()
        self.histogram = Histogram("latency_seconds", window=window)
        self.errors = 0
        self.first_at: Optional[float] = None
        self.last_at: Optional[float] = None

    def record(self, seconds: float, error: bool = False) -> None:
        now = time.perf_counter()
        self.histogram.observe(seconds)
        with self._lock:
            if error:
                self.errors += 1
            if self.first_at is None:
                self.first_at = now - seconds
            self.last_at = now

    def percentile(self, q: float) -> float:
        """Latency at quantile ``q`` in [0, 1] over the recent window
        (nearest-rank: the smallest value covering a ``q`` fraction)."""
        return self.histogram.percentile(q)

    @property
    def count(self) -> int:
        return self.histogram.count

    @property
    def total_seconds(self) -> float:
        return self.histogram.total

    @property
    def mean_seconds(self) -> float:
        return self.histogram.mean

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second over the observed span."""
        if self.count < 2 or self.first_at is None or self.last_at is None:
            return 0.0
        span = self.last_at - self.first_at
        return self.count / span if span > 0 else 0.0


@dataclass
class ModelStats:
    """One model version's serving counters at a point in time."""

    name: str
    version: str
    requests: int = 0
    errors: int = 0
    throughput_rps: float = 0.0
    mean_ms: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    queue_depth: int = 0
    batches: int = 0
    mean_batch_size: float = 0.0
    max_batch_size: int = 0
    shed_requests: int = 0
    replicas: int = 0
    replica_batches: int = 0
    replica_restarts: int = 0
    slo_target_p99_ms: float = 0.0
    effective_batch: float = 0.0
    effective_delay_ms: float = 0.0
    slo_adjustments: int = 0
    slo_pressure_events: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_rate: float = 0.0
    cache_entries: int = 0
    cache_used_bytes: int = 0
    plan_ops: int = 0
    cached_nodes: int = 0

    def describe(self) -> str:
        lines = [
            f"{self.name}@{self.version}: {self.requests} requests "
            f"({self.errors} errors), {self.throughput_rps:.0f} req/s",
            f"  latency ms: mean {self.mean_ms:.2f}  p50 {self.p50_ms:.2f}"
            f"  p95 {self.p95_ms:.2f}  p99 {self.p99_ms:.2f}",
            f"  plan: {self.plan_ops} ops, {self.cached_nodes} cache-marked",
            f"  queue depth {self.queue_depth}; {self.batches} batches, "
            f"mean size {self.mean_batch_size:.1f}, "
            f"max {self.max_batch_size}",
        ]
        if self.shed_requests:
            lines.append(f"  shed: {self.shed_requests} requests "
                         f"(priority watermarks)")
        if self.replicas:
            lines.append(
                f"  replicas: {self.replicas} processes, "
                f"{self.replica_batches} batches, "
                f"{self.replica_restarts} restarts")
        if self.slo_target_p99_ms:
            lines.append(
                f"  slo: target p99 {self.slo_target_p99_ms:.1f} ms; "
                f"effective batch {self.effective_batch:.0f}, "
                f"delay {self.effective_delay_ms:.2f} ms "
                f"({self.slo_adjustments} adjustments, "
                f"{self.slo_pressure_events} under pressure)")
        if self.cache_hits or self.cache_misses or self.cache_entries:
            lines.append(
                f"  cache: hit rate {self.cache_hit_rate:.2f} "
                f"({self.cache_hits} hits / {self.cache_misses} misses), "
                f"{self.cache_entries} entries, "
                f"{self.cache_used_bytes} bytes")
        return "\n".join(lines)


@dataclass
class ServerStats:
    """Fleet-wide snapshot: per-model stats plus totals."""

    models: Dict[str, ModelStats] = field(default_factory=dict)

    @property
    def total_requests(self) -> int:
        return sum(m.requests for m in self.models.values())

    @property
    def total_errors(self) -> int:
        return sum(m.errors for m in self.models.values())

    def describe(self) -> str:
        lines = [f"ModelServer: {len(self.models)} model(s), "
                 f"{self.total_requests} requests, "
                 f"{self.total_errors} errors"]
        for key in sorted(self.models):
            lines.append(self.models[key].describe())
        return "\n".join(lines)
