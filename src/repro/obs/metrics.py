"""A process-local metrics registry: counters, gauges, bounded histograms.

:class:`~repro.core.executor.TrainingReport` renders its counters into
a :class:`MetricsRegistry` via ``fill_registry``, giving a single flat
``to_dict()`` view of a fit.  The serving tier (``ModelServer.stats()``)
reads its latency distribution from a :class:`Histogram` per model
version.  All instruments are thread-safe and hold bounded memory — a
:class:`Histogram` keeps a fixed-size reservoir of recent samples
(exact counts and totals are kept separately), so long-lived servers
never grow an unbounded latency list.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Dict, List, Optional


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (queue depth, bytes resident, ratios)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bounded-reservoir distribution: exact count/total, recent window.

    The reservoir is a ring buffer of the last ``window`` observations —
    enough for stable tail percentiles at serving rates while holding
    memory constant.  ``percentile(q)`` is nearest-rank over the window
    with ``q`` in [0, 1] (the smallest value covering a ``q`` fraction).
    """

    __slots__ = ("name", "_lock", "_window", "count", "total")

    def __init__(self, name: str, window: int = 8192):
        self.name = name
        self._lock = threading.Lock()
        self._window: deque = deque(maxlen=window)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self._window.append(value)

    @property
    def window_size(self) -> int:
        return self._window.maxlen or 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def values(self) -> List[float]:
        """A snapshot of the current reservoir (at most ``window`` items)."""
        with self._lock:
            return list(self._window)

    def percentile(self, q: float) -> float:
        with self._lock:
            window = sorted(self._window)
        if not window:
            return 0.0
        idx = min(max(math.ceil(q * len(window)) - 1, 0), len(window) - 1)
        return window[idx]

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """A named collection of instruments with a flat dict rendering.

    Instruments are created on first use (``counter``/``gauge``/
    ``histogram``) and identified by name; asking for an existing name
    with a different instrument type raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, cls, *args) -> Any:
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = cls(name, *args)
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, window: int = 8192) -> Histogram:
        return self._get(name, Histogram, window)

    # -- convenience ---------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def get(self, name: str) -> Optional[Any]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    # -- rendering -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Flat snapshot: counters/gauges to numbers, histograms to
        ``{count, mean, p50, p95, p99}`` sub-dicts."""
        with self._lock:
            items = list(self._instruments.items())
        out: Dict[str, Any] = {}
        for name, inst in sorted(items):
            if isinstance(inst, Histogram):
                out[name] = inst.snapshot()
            else:
                out[name] = inst.value
        return out

    def describe(self) -> str:
        lines = []
        for name, value in self.to_dict().items():
            if isinstance(value, dict):
                detail = ", ".join(f"{k}={v:.4g}" for k, v in value.items())
                lines.append(f"{name}: {detail}")
            elif isinstance(value, float):
                lines.append(f"{name}: {value:.4g}")
            else:
                lines.append(f"{name}: {value}")
        return "\n".join(lines)
