"""Plan state and physical plans: the optimizer's working objects.

The optimizer (:mod:`repro.core.optimizer`) threads a :class:`PlanState`
through an ordered list of passes; each pass rewrites the DAG or attaches
decisions (profile, operator selections, cache set).  The result is wrapped
in a :class:`PhysicalPlan` — an inspectable artifact that can report what
the optimizer decided (:meth:`PhysicalPlan.explain`,
:meth:`PhysicalPlan.to_dot`, :meth:`PhysicalPlan.estimated_runtime_seconds`)
*before* any training happens, and then train the pipeline with
:meth:`PhysicalPlan.execute`.

``execute`` delegates to a pluggable
:class:`~repro.core.backends.ExecutionBackend` (serial ``LocalBackend`` by
default): depth-first training with estimators as pipeline breakers,
followed by extraction of the inference-only DAG into a
:class:`~repro.core.pipeline.FittedPipeline`.  Pass ``backend=`` to train
the same plan on the multi-process actor runtime; price any fit on a
simulated cluster with :func:`~repro.core.passes.plan_scaling_sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.cluster.resources import ResourceDescriptor
from repro.core import graph as g
from repro.core import materialization as mat
from repro.core.profiler import PipelineProfile
from repro.dataset.context import Context


@dataclass
class PassDecision:
    """One pass's entry in the plan's decision log."""

    name: str
    details: Dict[str, Any] = field(default_factory=dict)
    seconds: float = 0.0

    def describe(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{self.name} [{self.seconds:.3f}s]" + (f" {parts}" if parts
                                                       else "")


@dataclass
class PlanState:
    """Mutable optimizer state threaded through the pass pipeline.

    Passes may rewrite ``sink`` (DAG rewrites such as CSE and fusion must
    run *before* profiling — node ids change), attach a ``profile``, record
    operator ``selections`` and choose the cache set.  ``decisions`` is the
    ordered log rendered by :meth:`PhysicalPlan.explain`; passes add to the
    current entry with :meth:`annotate`.
    """

    sink: g.OpNode
    input_node: g.OpNode
    resources: ResourceDescriptor
    profile: Optional[PipelineProfile] = None
    cache_ids: Set[int] = field(default_factory=set)
    use_lru: bool = False
    mem_budget_bytes: float = float("inf")
    selections: Dict[int, str] = field(default_factory=dict)
    cse_nodes_removed: int = 0
    fused_nodes_removed: int = 0
    decisions: List[PassDecision] = field(default_factory=list)
    #: worker count chosen by ShardingPass (None: no sharding decision)
    shard_workers: Optional[int] = None
    #: node id -> "data-parallel" | "coordinated" (see ShardingPass)
    shard_roles: Dict[int, str] = field(default_factory=dict)
    #: FitStore (repro.incremental) attached for this execution: the
    #: training session splices stored fitted state by training key and
    #: stores new fits back (None: cold fit, no reuse)
    fit_store: Optional[Any] = None

    def annotate(self, **details: Any) -> None:
        """Attach decision details to the pass currently running."""
        if not self.decisions:
            raise RuntimeError("annotate() called outside a pass run")
        self.decisions[-1].details.update(details)

    def node_labels(self) -> Dict[int, str]:
        return {n.id: n.label for n in g.ancestors([self.sink])}

    def cache_set_labels(self) -> List[str]:
        labels = self.node_labels()
        return sorted(labels[i] for i in self.cache_ids if i in labels)

    def unprofiled_nodes(self) -> List[g.OpNode]:
        """Nodes the attached profile does not cover.

        Non-empty means the profile is stale: a rewrite pass changed node
        identities after profiling.  The single staleness definition
        shared by MaterializationPass and plan inspection.
        """
        if self.profile is None:
            return []
        return [n for n in g.ancestors([self.sink])
                if n.id not in self.profile.nodes]


class PhysicalPlan:
    """An optimized, executable pipeline plan.

    Produced by :meth:`repro.core.optimizer.Optimizer.optimize`.  Holds the
    rewritten DAG plus every optimizer decision; inspect with
    :meth:`explain` / :meth:`to_dot`, then train with :meth:`execute`.
    """

    def __init__(self, state: PlanState, level: str = "custom",
                 optimize_seconds: float = 0.0):
        self.state = state
        self.level = level
        self.optimize_seconds = optimize_seconds

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def sink(self) -> g.OpNode:
        return self.state.sink

    @property
    def input_node(self) -> g.OpNode:
        return self.state.input_node

    @property
    def profile(self) -> Optional[PipelineProfile]:
        return self.state.profile

    @property
    def decisions(self) -> List[PassDecision]:
        return list(self.state.decisions)

    @property
    def passes(self) -> List[str]:
        """Names of the passes applied, in order."""
        return [d.name for d in self.state.decisions]

    @property
    def cache_set(self) -> Set[int]:
        return set(self.state.cache_ids)

    @property
    def cache_set_labels(self) -> List[str]:
        return self.state.cache_set_labels()

    @property
    def selections(self) -> Dict[int, str]:
        return dict(self.state.selections)

    def num_nodes(self) -> int:
        return len(g.ancestors([self.sink]))

    def _profile_stale(self) -> bool:
        """True when the DAG was rewritten after profiling."""
        return bool(self.state.unprofiled_nodes())

    def estimated_runtime_seconds(self) -> Optional[float]:
        """Modelled training execution time under the chosen cache set.

        ``None`` when the plan carries no profile (e.g. level ``"none"``)
        or the profile is stale (the DAG was rewritten after profiling).
        """
        if self.state.profile is None or self._profile_stale():
            return None
        problem = mat.MaterializationProblem([self.sink], self.state.profile)
        return problem.estimate_runtime(self.state.cache_ids)

    def estimated_cache_bytes(self) -> Optional[float]:
        """Modelled memory footprint of the chosen cache set.

        ``None`` without a profile, or when the profile is stale — a
        partial sum over surviving node ids would look confident and be
        wrong.
        """
        if self.state.profile is None or self._profile_stale():
            return None
        return sum(self.state.profile.size(i)
                   for i in self.state.cache_ids)

    def explain(self, observed: bool = False, tracer=None) -> str:
        """Human-readable account of every pass applied and its decisions.

        With ``observed=True``, appends an aggregated per-op table of
        what actually ran — grouped by op content key, summed across
        every process and worker that executed it — from ``tracer`` (or
        the active :func:`repro.obs.trace.active` tracer).  The table is
        empty-annotated when no spans were recorded (tracing off).
        """
        lines = [f"PhysicalPlan(level={self.level})",
                 f"  sink: {self.sink.label!r} ({self.num_nodes()} nodes)",
                 f"  resources: {self.state.resources.name} "
                 f"(x{self.state.resources.num_nodes})",
                 f"  mem budget: {self.state.mem_budget_bytes} bytes",
                 "  passes:"]
        if not self.state.decisions:
            lines.append("    (none)")
        for i, decision in enumerate(self.state.decisions, 1):
            lines.append(f"    {i}. {decision.describe()}")
        labels = ", ".join(self.cache_set_labels) or "(empty)"
        lines.append(f"  cache set ({len(self.state.cache_ids)} nodes): "
                     f"{labels}")
        if self.state.shard_workers is not None:
            roles = self.state.shard_roles
            dp = sum(1 for r in roles.values() if r == "data-parallel")
            coord = sum(1 for r in roles.values() if r == "coordinated")
            lines.append(f"  sharding: {self.state.shard_workers} workers "
                         f"({dp} data-parallel, {coord} coordinated nodes)")
        runtime = self.estimated_runtime_seconds()
        if runtime is not None:
            cache_bytes = self.estimated_cache_bytes()
            lines.append(f"  estimated execution: {runtime:.3f}s, "
                         f"cached bytes: {cache_bytes:.0f}")
        if observed:
            from repro.obs import trace as obs_trace

            if tracer is None:
                tracer = obs_trace.active()
            spans = tracer.spans if tracer is not None else []
            lines.append("  observed ops (by content key, all "
                         "processes/workers):")
            if spans:
                for row in obs_trace.aggregate_table(spans):
                    lines.append(f"    {row}")
            else:
                lines.append("    (no spans recorded; enable tracing "
                             "via repro.obs.trace.enable())")
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Graphviz rendering of the optimized DAG; cached nodes are filled."""
        return g.to_dot([self.sink], highlight=self.state.cache_ids)

    def __repr__(self) -> str:
        return (f"PhysicalPlan(level={self.level!r}, "
                f"nodes={self.num_nodes()}, "
                f"passes={self.passes}, "
                f"cached={len(self.state.cache_ids)})")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, ctx: Optional[Context] = None,
                backend=None, fit_store=None) -> "FittedPipeline":
        """Train the planned pipeline; returns a FittedPipeline.

        ``backend`` selects the execution strategy — ``None`` (serial
        :class:`~repro.core.backends.LocalBackend`), a name from
        :data:`repro.core.backends.BACKENDS`, an
        :class:`~repro.core.backends.ExecutionBackend` instance.  Every
        backend honours the plan's caching policy and
        trains to identical predictions; the returned pipeline carries a
        :class:`~repro.core.executor.TrainingReport` combining the
        optimizer's decisions with measured execution times.

        ``fit_store`` attaches a :class:`~repro.incremental.FitStore` for
        this execution (warm retrain / streaming refit; see
        :mod:`repro.incremental`); it is recorded on the plan state, so
        re-executing the same plan keeps the store unless overridden.
        """
        from repro.core.backends import resolve_backend

        if fit_store is not None:
            self.state.fit_store = fit_store
        return resolve_backend(backend).execute(self, ctx)
