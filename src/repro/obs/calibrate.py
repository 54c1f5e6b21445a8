"""Cost-model calibration: replay observed spans against the simulator.

The optimizer's sharding and backend decisions rest on
:class:`~repro.cluster.simulator.ClusterSimulator` predictions built from
warmup-time profiles.  The :class:`CostModelCalibrator` closes the loop:
it joins the *measured* per-node seconds of a real run (from tracer
spans, see :func:`repro.obs.trace.node_seconds`, or from a
:class:`~repro.core.executor.TrainingReport`) with the simulator's
predicted stage seconds for the same nodes, then fits a single
multiplicative compute-rate correction.

The correction is the geometric mean of observed/predicted ratios — the
scale minimizing the root-mean-square log error, so calibration never
increases the error metric it reports.  The result feeds back into
``ShardingPass(workers="auto", calibration=...)`` (scaling the simulated
compute seconds and coordination bytes), and the before/after error
ratio is recorded to ``BENCH_costmodel_eval`` so CI gates prediction
truthfulness alongside speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import trace as _trace


@dataclass(frozen=True)
class CalibrationResult:
    """A fitted correction plus the error it removed.

    ``compute_scale`` multiplies predicted compute seconds (>1 means the
    simulator was optimistic); ``network_scale`` multiplies coordinated
    bytes.  Errors are RMS |log(predicted/observed)| before and after
    applying the scale.
    """

    compute_scale: float = 1.0
    network_scale: float = 1.0
    error_before: float = 0.0
    error_after: float = 0.0
    samples: int = 0

    @property
    def error_ratio(self) -> float:
        """Before/after error — >1 means calibration helped (gated)."""
        if self.samples == 0:
            return 1.0
        return self.error_before / max(self.error_after, 1e-9)

    def describe(self) -> str:
        return (
            f"calibration over {self.samples} stages: "
            f"compute x{self.compute_scale:.3f}, "
            f"network x{self.network_scale:.3f}; "
            f"rms log error {self.error_before:.4f} -> "
            f"{self.error_after:.4f} "
            f"(ratio {self.error_ratio:.2f}x)"
        )


class CostModelCalibrator:
    """Accumulates (predicted, observed) stage pairs and fits the scale.

    Feed it either raw pairs via :meth:`observe` or a whole run via
    :meth:`observe_plan`, which prices every profiled node of the plan
    with the same stage rule ``ShardingPass(workers="auto")`` uses
    (:func:`repro.core.passes.simulated_node_stages`, at one worker —
    the serial prediction) and joins it against measured seconds.
    """

    def __init__(self, resources=None):
        self.resources = resources
        self._pairs: List[Tuple[str, float, float]] = []

    # -- feeding -------------------------------------------------------
    def observe(
        self, label: str, predicted_seconds: float, observed_seconds: float
    ) -> None:
        """Record one stage; pairs with a non-positive side are ignored
        (log-space ratios are undefined for them)."""
        if predicted_seconds > 0.0 and observed_seconds > 0.0:
            self._pairs.append((label, predicted_seconds, observed_seconds))

    def observe_plan(self, plan, spans=None, report=None) -> int:
        """Join a profiled plan's predictions with a run's measurements.

        ``spans`` supplies worker/parent op spans (category ``"op"``,
        carrying ``node_id`` args); ``report`` supplies
        ``TrainingReport.node_seconds`` as a fallback for nodes without
        spans.  Estimator fits are already in ``node_seconds``
        (``estimator_seconds`` is a view of the same timer), so they are
        counted once.  Returns the number of pairs added.
        """
        from repro.cluster.resources import ResourceDescriptor
        from repro.cluster.simulator import ClusterSimulator
        from repro.core.passes import simulated_node_stages

        state = plan.state
        resources = self.resources or state.resources or ResourceDescriptor()
        observed: Dict[int, float] = {}
        if report is not None:
            observed.update(report.node_seconds)
        if spans is not None:
            # Span measurements win over report fallback where both exist.
            observed.update(_trace.node_seconds(spans, cats=("op",)))
        sim = ClusterSimulator(resources.with_nodes(1), overhead_per_stage=0.0)
        added = 0
        for node, stage in simulated_node_stages(state, resources=resources):
            seconds = observed.get(node.id)
            if seconds is None:
                continue
            before = len(self._pairs)
            self.observe(node.label, sim.time_stage(stage), seconds)
            added += len(self._pairs) - before
        return added

    # -- fitting -------------------------------------------------------
    @property
    def pairs(self) -> List[Tuple[str, float, float]]:
        return list(self._pairs)

    def error(self, scale: float = 1.0) -> float:
        """RMS |log(scale * predicted / observed)| over recorded pairs."""
        if not self._pairs:
            return 0.0
        total = 0.0
        for _, predicted, observed in self._pairs:
            total += math.log(scale * predicted / observed) ** 2
        return math.sqrt(total / len(self._pairs))

    def calibrate(self) -> CalibrationResult:
        """Fit the compute scale; identity when nothing was observed."""
        if not self._pairs:
            return CalibrationResult()
        mean_log = sum(
            math.log(observed / predicted) for _, predicted, observed in self._pairs
        ) / len(self._pairs)
        scale = math.exp(mean_log)
        return CalibrationResult(
            compute_scale=scale,
            network_scale=1.0,
            error_before=self.error(1.0),
            error_after=self.error(scale),
            samples=len(self._pairs),
        )

    # -- rendering -----------------------------------------------------
    def table(self, scale: float = 1.0) -> List[str]:
        """Observed-vs-predicted lines, one per recorded stage."""
        lines = [f"{'stage':<34} {'predicted s':>12} {'observed s':>12} {'ratio':>7}"]
        for label, predicted, observed in self._pairs:
            lines.append(
                f"{label[:34]:<34} {predicted * scale:>12.4f} "
                f"{observed:>12.4f} {observed / (predicted * scale):>7.2f}"
            )
        return lines
