"""Optimizer passes: the units of the two-level optimizer.

Each :class:`Pass` is a thin adapter over one existing optimization module,
transforming a :class:`~repro.core.plan.PlanState`:

- :class:`CSEPass` — whole-pipeline common sub-expression elimination
  (:mod:`repro.core.cse`, paper §4.2).
- :class:`FusionPass` — pack single-consumer transformer chains into one
  stage (:mod:`repro.core.fusion`, paper §2.3).
- :class:`ProfilingPass` — sample-based profiling of per-node time/size
  (:mod:`repro.core.profiler`, paper §4.1).
- :class:`OperatorSelectionPass` — profiling interleaved with cost-based
  physical operator selection (paper §3; selection needs the input
  statistics that profiling produces, so the two are one pass).
- :class:`MaterializationPass` — choose the cache set under the memory
  budget (:mod:`repro.core.materialization`, paper §4.3).
- :class:`ShardingPass` — partition the training flow across simulated
  workers (paper Figure 12's cluster axis); its stage rule,
  :func:`simulated_node_stages`, also prices any fit's measured seconds
  for :func:`plan_scaling_sweep`.

Ordering matters: DAG-rewriting passes (CSE, fusion) must run before
profiling, because the profile is keyed by node identity; the
materialization pass checks for a stale profile and raises.  User-defined
passes subclass :class:`Pass` and drop into
:class:`~repro.core.optimizer.Optimizer` without touching core modules.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Tuple, Union

from repro.core import graph as g
from repro.core import materialization as mat
from repro.core.cse import eliminate_common_subexpressions
from repro.core.fusion import fuse_transformer_chains
from repro.core.plan import PlanState
from repro.core.profiler import profile_pipeline


class Pass:
    """One step of the optimizer: transforms a :class:`PlanState`.

    Subclasses implement :meth:`run`, mutating ``state`` in place (or
    returning a replacement state — remember to carry ``decisions`` over).
    Decision details recorded via ``state.annotate(...)`` show up in
    :meth:`PhysicalPlan.explain`.
    """

    @property
    def name(self) -> str:
        return type(self).__name__

    def run(self, state: PlanState) -> Optional[PlanState]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{self.name}()"


class CSEPass(Pass):
    """Merge structurally identical sub-DAGs (whole-pipeline rewrite)."""

    def run(self, state: PlanState) -> None:
        before = len(g.ancestors([state.sink]))
        state.sink = eliminate_common_subexpressions([state.sink])[0]
        removed = before - len(g.ancestors([state.sink]))
        state.cse_nodes_removed += removed
        state.annotate(nodes_removed=removed)
        g.validate_dag([state.sink])


class FusionPass(Pass):
    """Fuse single-consumer transformer chains into one stage."""

    def run(self, state: PlanState) -> None:
        before = len(g.ancestors([state.sink]))
        state.sink = fuse_transformer_chains([state.sink])[0]
        removed = before - len(g.ancestors([state.sink]))
        state.fused_nodes_removed += removed
        state.annotate(nodes_fused=removed)
        g.validate_dag([state.sink])


class ProfilingPass(Pass):
    """Profile the DAG on data samples; attaches a pipeline profile.

    With ``select_operators`` set, cost-based physical operator selection
    is interleaved with profiling (see :class:`OperatorSelectionPass`).
    """

    def __init__(self, sample_sizes: Tuple[int, int] = (256, 512),
                 select_operators: bool = False):
        self.sample_sizes = tuple(sample_sizes)
        self.select_operators = select_operators

    def run(self, state: PlanState) -> None:
        profile = profile_pipeline([state.sink], state.resources,
                                   sample_sizes=self.sample_sizes,
                                   select_operators=self.select_operators)
        state.profile = profile
        state.selections.update(profile.selections)
        self._annotate(state, profile)

    def _annotate(self, state: PlanState, profile) -> None:
        state.annotate(sample_sizes=self.sample_sizes,
                       profiled_nodes=len(profile.nodes),
                       profiling_seconds=round(profile.profiling_seconds, 3))
        if self.select_operators:
            labels = state.node_labels()
            names = {nid: labels.get(nid, f"#{nid}")
                     for nid in profile.selections}
            counts = Counter(names.values())
            # Same-labeled nodes (e.g. two LinearSolvers on gathered
            # branches) get id suffixes so no selection is shadowed.
            state.annotate(selections={
                (f"{names[nid]}#{nid}" if counts[names[nid]] > 1
                 else names[nid]): phys
                for nid, phys in profile.selections.items()})
            # Entries estimated from cost models instead of sample fits.
            state.annotate(pruned=[labels.get(nid, f"#{nid}")
                                   for nid in profile.pruned])

    def __repr__(self) -> str:
        return f"{self.name}(sample_sizes={self.sample_sizes})"


class OperatorSelectionPass(ProfilingPass):
    """Profiling + per-operator physical selection (paper Section 3).

    Selection uses the input statistics gathered while profiling, so this
    pass subsumes :class:`ProfilingPass` — use one or the other.  The
    chosen physical operator replaces the logical one on the DAG node, and
    the attached profile reflects the selected implementations.
    """

    def __init__(self, sample_sizes: Tuple[int, int] = (256, 512)):
        super().__init__(sample_sizes, select_operators=True)


class MaterializationPass(Pass):
    """Choose the cache set under the memory budget (Algorithm 1).

    ``strategy`` is one of :data:`repro.core.materialization.STRATEGIES`
    (``greedy``/``lru``/``rule``/``none``/``all``) or ``None`` to default:
    greedy when a profile is available, none otherwise.  Also records the
    memory budget that execution will enforce.
    """

    def __init__(self, strategy: Optional[str] = None,
                 mem_budget_bytes: float = float("inf")):
        if strategy is not None and strategy not in mat.STRATEGIES:
            raise ValueError(f"unknown caching strategy {strategy!r}; "
                             f"expected one of {mat.STRATEGIES}")
        self.strategy = strategy
        self.mem_budget_bytes = mem_budget_bytes

    def run(self, state: PlanState) -> None:
        strategy = self.strategy
        if strategy is None:
            strategy = (mat.GREEDY if state.profile is not None
                        else mat.NONE)
        cache_ids, use_lru = set(), False
        if strategy != mat.NONE and state.profile is not None:
            missing = state.unprofiled_nodes()
            if missing:
                raise ValueError(
                    "profile is stale: the DAG was rewritten after "
                    "profiling; order rewrite passes (CSE, fusion) before "
                    f"ProfilingPass (unprofiled: {missing[:3]})")
            problem = mat.MaterializationProblem([state.sink], state.profile)
            cache_ids, use_lru = mat.choose_cache_set(strategy, problem,
                                                      self.mem_budget_bytes)
        elif strategy in (mat.LRU, mat.ALL):
            # Unprofiled LRU: mark everything cacheable, let the cache
            # decide what stays.
            cache_ids = {n.id for n in g.ancestors([state.sink])
                         if n.kind not in (g.ESTIMATOR,)
                         and not n.is_pipeline_input}
            use_lru = True
        state.cache_ids = set(cache_ids)
        state.use_lru = use_lru
        state.mem_budget_bytes = self.mem_budget_bytes
        state.annotate(strategy=strategy, use_lru=use_lru,
                       cache=state.cache_set_labels())

    def __repr__(self) -> str:
        return (f"{self.name}(strategy={self.strategy!r}, "
                f"mem_budget_bytes={self.mem_budget_bytes})")


class LoweringPass(Pass):
    """Register :class:`~repro.core.program.ProgramPass` rewrites.

    The optimizer's passes rewrite the *DAG*; lowering passes rewrite the
    flat :class:`~repro.core.program.OpProgram` the DAG lowers into —
    after CSE/fusion decisions are already baked in.  This pass only
    records the list on the :class:`~repro.core.plan.PlanState` (the
    handoff point); the rewrites run wherever the plan is lowered: the
    serving compiler (via the fitted pipeline) and the actor backend's
    shard programs.  Defaults to dead-op elimination, the reference
    program rewrite.

    Rewrites nothing at the DAG level, so it can run anywhere in the
    pass list.
    """

    def __init__(self, program_passes: Optional[list] = None):
        from repro.core.program import DeadOpElimination, ProgramPass

        if program_passes is None:
            program_passes = [DeadOpElimination()]
        for p in program_passes:
            if not isinstance(p, ProgramPass):
                raise TypeError(
                    f"expected ProgramPass instances, got {type(p).__name__}")
        self.program_passes = list(program_passes)

    def run(self, state: PlanState) -> None:
        state.program_passes = list(self.program_passes)
        state.annotate(
            program_passes=[p.name for p in self.program_passes])

    def __repr__(self) -> str:
        names = [p.name for p in self.program_passes]
        return f"{self.name}(program_passes={names})"


#: stage categories of the Figure 12 breakdown; every other node is
#: featurization
_STAGE_CATEGORIES = {g.ESTIMATOR: "Model Solve", g.SOURCE: "Loading"}


def simulated_node_stages(state: PlanState,
                          resources=None,
                          compute_scale: float = 1.0,
                          network_scale: float = 1.0,
                          node_seconds: Optional[Dict[int, float]] = None):
    """Price every profiled plan node as one simulated cluster stage.

    The one stage-construction rule behind ``ShardingPass(workers="auto")``,
    the observability layer's :class:`~repro.obs.calibrate.
    CostModelCalibrator` and :func:`plan_scaling_sweep`: each node's serial
    seconds calibrate the stage's flops against the descriptor's per-node
    compute rate (so the simulator prices it back to those seconds at
    ``w=1``), and coordinated nodes (:meth:`ShardingPass.role_for`)
    additionally move their profiled output bytes through a ``log2 w``
    aggregation tree.

    The serial seconds are the profile's extrapolated estimates, or, with
    ``node_seconds`` (a fit's ``TrainingReport.node_seconds``), the
    measured ones; a node the fit did not time then prices zero compute,
    so an untimed gather on the training flow is a network-only stage.
    ``compute_scale``/``network_scale`` are measured correction factors
    (observed / predicted, from :mod:`repro.obs.calibrate`) multiplying
    the compute seconds and coordination bytes respectively.  Returns
    ``[(node, SimulatedStage), ...]`` in dependency order; raises if the
    plan is unprofiled or the profile is stale.
    """
    import math

    from repro.cluster.simulator import SimulatedStage
    from repro.cost.profile import CostProfile

    if state.profile is None:
        raise ValueError(
            "pricing simulated stages needs a profiled plan: run "
            "ProfilingPass or OperatorSelectionPass first")
    if state.unprofiled_nodes():
        raise ValueError(
            "profile is stale: the DAG was rewritten after profiling; "
            "order rewrite passes before pricing stages")
    if resources is None:
        resources = state.resources
    profile = state.profile

    def make_stage(node, seconds, coord_bytes):
        flops_total = seconds * compute_scale * resources.cpu_flops
        moved_bytes = coord_bytes * network_scale

        def profile_fn(w: int) -> CostProfile:
            network = 0.0
            if moved_bytes > 0.0 and w > 1:
                network = moved_bytes * math.log2(w)
            return CostProfile(flops=flops_total / w, network=network)

        return SimulatedStage(
            node.label, profile_fn,
            _STAGE_CATEGORIES.get(node.kind, "Featurization"))

    stages = []
    for node in g.ancestors([state.sink]):
        if node.is_pipeline_input:
            continue
        seconds = (profile.t(node.id) if node_seconds is None
                   else node_seconds.get(node.id, 0.0))
        coord_bytes = (profile.size(node.id)
                       if ShardingPass.role_for(node) == ShardingPass.COORDINATED
                       else 0.0)
        if seconds <= 0.0 and coord_bytes <= 0.0:
            continue
        stages.append((node, make_stage(node, seconds, coord_bytes)))
    return stages


def plan_scaling_sweep(plan, fitted, node_counts, resources=None,
                       overhead_per_stage: float = 0.0):
    """Re-price one fit of ``plan`` at several cluster sizes (Figure 12).

    Any backend's fit will do: the measured ``node_seconds`` of
    ``fitted.training_report`` go through :func:`simulated_node_stages`,
    so the *same trained plan* sweeps the strong-scaling axis without
    retraining.  ``resources`` is the descriptor whose node count is
    swept (default: the plan's); ``overhead_per_stage`` is the simulated
    task-launch cost of every stage.  Returns ``{nodes: {category:
    seconds}}``; raises if the plan is unprofiled.
    """
    from repro.cluster.simulator import scaling_sweep

    resources = resources or plan.state.resources
    stages = [stage for _, stage in simulated_node_stages(
        plan.state, resources,
        node_seconds=fitted.training_report.node_seconds)]
    return scaling_sweep(stages, resources, node_counts,
                         overhead_per_stage=overhead_per_stage)


class ShardingPass(Pass):
    """Partition the training flow across N simulated workers.

    Assigns every executable node a role: *data-parallel* nodes (sources,
    transformers, applies) split their work evenly across the workers;
    *coordinated* nodes (estimators, gathers) also shard their compute but
    pay per-worker coordination — the solver aggregation trees of the
    paper's Table 1.  The decision (worker count plus the role of every
    node) is recorded on the :class:`~repro.core.plan.PlanState` and in
    the plan's decision log, so ``explain()`` shows it before execution
    and :class:`~repro.core.backends.ActorBackend` defaults its worker
    count to it.

    ``workers`` defaults to the plan's resource descriptor node count.
    With ``workers="auto"`` the count is chosen cost-optimally: every
    profiled node is priced as a simulated stage (compute splits ``1/w``,
    coordinated nodes pay a network term growing with ``log2 w``) and the
    candidate in ``[1, max_workers]`` minimizing total simulated seconds
    wins — the resource budget defaults to the descriptor's node count.
    Auto mode therefore requires a profiled plan (run
    ``ProfilingPass``/``OperatorSelectionPass`` first).

    This pass rewrites nothing, so it can run anywhere in the pass list;
    conventionally it goes last, after MaterializationPass.
    """

    #: role names, read by :func:`simulated_node_stages`
    DATA_PARALLEL = "data-parallel"
    COORDINATED = "coordinated"
    AUTO = "auto"
    #: in auto mode, recommend the multi-process actor runtime when the
    #: simulated network (coordination) share of total time — amortized
    #: over the passes of an iterative solver — is below this fraction:
    #: cheap coordination means worker-process shards pay off; above it
    #: serial in-process execution (no IPC) is the better real execution
    PROCESS_NETWORK_FRACTION = 0.15

    def __init__(self, workers: Optional[Union[int, str]] = None,
                 max_workers: Optional[int] = None,
                 overhead_per_stage: float = 0.0,
                 calibration=None):
        if isinstance(workers, str):
            if workers != self.AUTO:
                raise ValueError(
                    f"workers must be an int >= 1, None, or "
                    f"{self.AUTO!r}; got {workers!r}")
        elif workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {max_workers}")
        self.workers = workers
        self.max_workers = max_workers
        self.overhead_per_stage = overhead_per_stage
        #: optional :class:`~repro.obs.calibrate.CalibrationResult` (or
        #: any object with ``compute_scale``/``network_scale``): measured
        #: correction factors applied to the simulated stages in auto
        #: mode, closing the loop from observed spans back into the cost
        #: model.
        self.calibration = calibration

    @classmethod
    def role_for(cls, node) -> str:
        """The single classification rule, shared with
        :func:`simulated_node_stages`."""
        if node.kind in (g.ESTIMATOR, g.GATHER):
            return cls.COORDINATED
        return cls.DATA_PARALLEL

    def run(self, state: PlanState) -> None:
        labels = state.node_labels()
        roles = {}
        coordinated = []
        for node in g.ancestors([state.sink]):
            if node.is_pipeline_input:
                continue
            roles[node.id] = self.role_for(node)
            if roles[node.id] == self.COORDINATED:
                coordinated.append(labels[node.id])
        if self.workers == self.AUTO:
            workers, simulated, network_fraction = \
                self._choose_workers(state)
            iterative_passes = self._iterative_passes(state)
            state.shard_backend = self._recommend_backend(
                workers, network_fraction, iterative_passes)
            state.annotate(auto=True,
                           budget=self.max_workers
                           or state.resources.num_nodes,
                           simulated_seconds=round(simulated, 4),
                           network_fraction=round(network_fraction, 4),
                           iterative_passes=iterative_passes,
                           recommended_backend=state.shard_backend)
        else:
            workers = self.workers or state.resources.num_nodes
        state.shard_workers = workers
        state.shard_roles = roles
        state.annotate(
            workers=workers,
            data_parallel=sum(1 for r in roles.values()
                              if r == self.DATA_PARALLEL),
            coordinated=sorted(set(coordinated)))

    def _recommend_backend(self, workers: int, network_fraction: float,
                           iterative_passes: int = 1) -> str:
        """Map the auto decision onto a *real* execution backend.

        One worker: serial.  Otherwise the network share decides: cheap
        coordination means worker processes (featurization dominates,
        shards independent); expensive coordination stays serial and
        in-process.  Persistent actors pay the shard movement
        once per fit, not once per pass, so for an iterative workload
        the share is judged *amortized* over the passes
        (:func:`~repro.cluster.simulator.amortized_profile`).
        """
        from repro.cluster.simulator import amortized_profile
        from repro.cost.profile import CostProfile

        if workers <= 1:
            return "local"
        if iterative_passes > 1:
            network_fraction = amortized_profile(
                CostProfile(network=network_fraction),
                iterative_passes).network
        if network_fraction <= self.PROCESS_NETWORK_FRACTION:
            return "actors"
        return "local"

    @staticmethod
    def _iterative_passes(state: PlanState) -> int:
        """Most passes any pass-based solver makes over its input.

        Counts only :class:`~repro.core.operators.
        IterativeShardableEstimator` heads — the solvers the actor
        runtime actually iterates in-worker; other iterative operators
        re-featurize regardless of runtime, so they do not amortize.
        """
        from repro.core.operators import IterativeShardableEstimator

        passes = 1
        for node in g.ancestors([state.sink]):
            if (not node.is_pipeline_input
                    and isinstance(node.op, IterativeShardableEstimator)):
                passes = max(passes, int(getattr(node.op, "weight", 1)))
        return passes

    def _choose_workers(self, state: PlanState) -> Tuple[int, float, float]:
        """Minimize simulated seconds over worker counts in the budget.

        Each profiled node becomes one simulated stage: its extrapolated
        serial time calibrates the stage's flops against the descriptor's
        per-node compute rate; coordinated nodes additionally move their
        profiled output bytes through a ``log2 w`` aggregation tree.
        Ties break toward fewer workers (cheapest cluster that achieves
        the optimum).  Also returns the network share of the optimum's
        simulated time, which drives the backend recommendation.
        """
        from repro.cluster.simulator import ClusterSimulator

        resources = state.resources
        budget = self.max_workers or resources.num_nodes
        compute_scale = network_scale = 1.0
        if self.calibration is not None:
            compute_scale = getattr(self.calibration, "compute_scale", 1.0)
            network_scale = getattr(self.calibration, "network_scale", 1.0)
        stages = [stage for _, stage in simulated_node_stages(
            state, resources,
            compute_scale=compute_scale, network_scale=network_scale)]

        best_w, best_seconds = 1, float("inf")
        for w in range(1, budget + 1):
            sim = ClusterSimulator(resources.with_nodes(w),
                                   self.overhead_per_stage)
            seconds = sim.total_seconds(stages)
            if seconds < best_seconds - 1e-12:
                best_w, best_seconds = w, seconds
        network_seconds = sum(
            stage.profile_fn(best_w).network
            for stage in stages) / resources.network_bandwidth
        network_fraction = (network_seconds / best_seconds
                            if best_seconds > 0 else 0.0)
        return best_w, best_seconds, network_fraction

    def __repr__(self) -> str:
        return f"{self.name}(workers={self.workers!r})"
