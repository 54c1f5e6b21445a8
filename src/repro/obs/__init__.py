"""Observability: content-keyed tracing, metrics, cost-model calibration.

Three pieces, layered bottom-up:

- :mod:`repro.obs.trace` — a :class:`Tracer` recording spans keyed by op
  content key across every execution path (parent process, actor
  workers, serving), with Chrome ``trace_event`` export
  and per-op aggregation.  Disabled by default; the no-op fast path
  costs one global read per instrumentation site.
- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and bounded-reservoir histograms unifying training-report
  counters and serving stats.
- :mod:`repro.obs.calibrate` — a :class:`CostModelCalibrator` replaying
  observed spans against the cluster simulator's predictions and
  fitting the correction that feeds back into
  ``ShardingPass(workers="auto", calibration=...)``.
"""

from repro.obs.calibrate import CalibrationResult, CostModelCalibrator
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    Tracer,
    aggregate,
    aggregate_table,
    chrome_trace,
    export_chrome_trace,
)
from repro.obs import trace

__all__ = [
    "CalibrationResult",
    "CostModelCalibrator",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "aggregate",
    "aggregate_table",
    "chrome_trace",
    "export_chrome_trace",
    "trace",
]
