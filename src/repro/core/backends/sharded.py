"""ShardedBackend: simulated-cluster execution of a real physical plan.

We cannot run a real cluster, but the paper's scaling results (Figure 12,
Table 6) only need per-stage times as a function of worker count — which
the cost model already expresses.  The backend therefore trains the plan
in-process with the exact :class:`LocalBackend` semantics (so predictions
are byte-identical), treats the measured serial time of each executed node
as the work of *one* worker's shard, and prices the whole plan on an
``N``-worker simulated cluster via
:class:`~repro.cluster.simulator.ClusterSimulator`:

- data-parallel nodes (transformers, applies) split their measured work
  across the ``N`` shards — per-shard time is ``t / N``;
- coordinated nodes (estimators, and anything a
  :class:`~repro.core.passes.ShardingPass` marked ``coordinated``) also
  split compute but pay a network term that grows with ``log2 N`` — the
  aggregation tree / solver coordination of the paper's Eq. 1, sized by
  the profiled output bytes when the plan carries a profile.

With ``workers=1`` and zero per-stage overhead the simulated time equals
the measured serial time exactly, anchoring the simulation to reality.
The per-stage list is kept on the training report
(``report.simulated_stages``) so :func:`plan_scaling_sweep` can re-price
the *same trained plan* at many cluster sizes without retraining — this is
what ``benchmarks/bench_fig12_scalability.py`` sweeps.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.cluster.resources import ResourceDescriptor
from repro.cluster.simulator import (
    ClusterSimulator,
    SimulatedStage,
    scaling_sweep,
)
from repro.core import graph as g
from repro.core.backends.base import ExecutionBackend, TrainingSession
from repro.core.passes import ShardingPass
from repro.cost.profile import CostProfile
from repro.dataset.context import Context
from repro.dataset.dataset import Dataset

if TYPE_CHECKING:
    from repro.core.executor import TrainingReport
    from repro.core.pipeline import FittedPipeline
    from repro.core.plan import PhysicalPlan

#: node roles recorded by ShardingPass and consumed here
DATA_PARALLEL = ShardingPass.DATA_PARALLEL
COORDINATED = ShardingPass.COORDINATED

_CATEGORIES = {g.ESTIMATOR: "Model Solve", g.SOURCE: "Loading"}


def _stage_for_node(
    node: g.OpNode,
    seconds: float,
    role: str,
    coord_bytes: float,
    resources: ResourceDescriptor,
) -> SimulatedStage:
    """Price one executed node as a simulated stage.

    The measured serial ``seconds`` calibrate the stage's flops against the
    descriptor's per-node compute rate, so at ``w=1`` the simulator returns
    the measurement exactly; the descriptor choice cancels for the compute
    term and only shapes the network/overhead terms.
    """
    flops_total = seconds * resources.cpu_flops

    def profile_fn(w: int) -> CostProfile:
        network = 0.0
        if role == COORDINATED and coord_bytes > 0.0 and w > 1:
            network = coord_bytes * math.log2(w)
        return CostProfile(flops=flops_total / w, network=network)

    category = _CATEGORIES.get(node.kind, "Featurization")
    return SimulatedStage(node.label, profile_fn, category)


class ShardedBackend(ExecutionBackend):
    """Train in-process, price per-shard stage times on N simulated workers.

    ``workers`` defaults to the plan's :class:`~repro.core.passes.
    ShardingPass` decision (``state.shard_workers``) and falls back to the
    plan's resource descriptor node count.  ``resources`` overrides the
    descriptor used for pricing (default: the plan's).
    """

    name = "sharded"

    def __init__(
        self,
        workers: Optional[int] = None,
        resources: Optional[ResourceDescriptor] = None,
        overhead_per_stage: float = 0.0,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.resources = resources
        self.overhead_per_stage = overhead_per_stage

    def _resolve_workers(self, plan: "PhysicalPlan") -> int:
        if self.workers is not None:
            return self.workers
        if plan.state.shard_workers is not None:
            return plan.state.shard_workers
        return plan.state.resources.num_nodes

    def execute(
        self, plan: "PhysicalPlan", ctx: Optional[Context] = None
    ) -> "FittedPipeline":
        workers = self._resolve_workers(plan)
        session = TrainingSession(
            plan, ctx, backend_name=f"{self.name}[workers={workers}]"
        )
        session.run_serial()
        fitted = session.finish()

        report = fitted.training_report
        resources = self.resources or plan.state.resources
        stages = self._build_stages(plan, report, resources)
        sim = ClusterSimulator(resources.with_nodes(workers), self.overhead_per_stage)
        report.simulated_workers = workers
        report.simulated_resources = resources
        report.simulated_overhead_per_stage = self.overhead_per_stage
        report.simulated_stages = stages
        # run() memoizes, so these two price each stage exactly once.
        report.simulated_seconds = sim.total_seconds(stages)
        report.simulated_breakdown = sim.breakdown(stages)
        return fitted

    def _build_stages(
        self,
        plan: "PhysicalPlan",
        report: "TrainingReport",
        resources: ResourceDescriptor,
    ) -> List[SimulatedStage]:
        """One simulated stage per executed node of the plan.

        Timed nodes (transformers, applies, estimators) price their
        measured compute; untimed *coordinated* nodes (gathers — realized
        as zero-copy zips locally) still get a compute-free stage so their
        network term is paid at ``w > 1``.  Sources are not priced: their
        load time is not separately measurable in-process.
        """
        nodes = {n.id: n for n in g.ancestors([plan.sink])}
        roles = plan.state.shard_roles
        profile = plan.state.profile
        stages: List[SimulatedStage] = []
        # ancestors() order keeps the stage list in execution order.
        for nid, node in nodes.items():
            seconds = report.node_seconds.get(nid, 0.0)
            role = roles.get(nid) or ShardingPass.role_for(node)
            coord_bytes = 0.0
            if role == COORDINATED and profile is not None and nid in profile.nodes:
                # Coordination moves the node's output through the tree:
                # a fitted model for solvers, merged partials elsewhere.
                coord_bytes = profile.size(nid)
            if nid not in report.node_seconds and coord_bytes == 0.0:
                continue  # nothing measurable and nothing to coordinate
            stages.append(_stage_for_node(node, seconds, role, coord_bytes, resources))
        return stages

    def apply_batch(self, fitted: "FittedPipeline", data: Dataset) -> Dataset:
        """Batch inference over worker-count shards.

        Re-partitions the input into one contiguous shard per simulated
        worker (order-preserving, so results stay byte-identical) and
        evaluates the inference DAG shard-wise.  With ``workers=None``
        the count comes from the sharded training run recorded on the
        fitted pipeline's report, if any.
        """
        shards = self.workers
        if shards is None:
            report = getattr(fitted, "training_report", None)
            shards = getattr(report, "simulated_workers", None) or 1
        if shards > 1 and data.num_partitions != shards:
            data = data.ctx.parallelize(data.collect(), shards)
        return super().apply_batch(fitted, data)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(workers={self.workers}, "
            f"overhead_per_stage={self.overhead_per_stage})"
        )


def plan_scaling_sweep(
    fitted_or_report, node_counts: List[int], overhead_per_stage: Optional[float] = None
) -> Dict[int, Dict[str, float]]:
    """Re-price a sharded-trained plan at several cluster sizes.

    Takes the :class:`~repro.core.pipeline.FittedPipeline` (or its
    training report) produced by a :class:`ShardedBackend` execution and
    returns ``{nodes: {category: seconds}}`` — the Figure 12 sweep, driven
    by a *real* plan's measured stages instead of hand-built ones.
    """
    report = getattr(fitted_or_report, "training_report", fitted_or_report)
    stages = getattr(report, "simulated_stages", None)
    if not stages:
        raise ValueError(
            "no simulated stages on this report: train the plan with "
            "plan.execute(backend=ShardedBackend(...)) first"
        )
    overhead = (
        report.simulated_overhead_per_stage
        if overhead_per_stage is None
        else overhead_per_stage
    )
    return scaling_sweep(
        stages, report.simulated_resources, node_counts, overhead_per_stage=overhead
    )
