"""Pipeline fitting shim and training reports (paper Figure 1, stages 2-4).

The optimization/execution machinery lives in the pass pipeline:
:mod:`repro.core.optimizer` runs an ordered registry of
:mod:`repro.core.passes` over a :class:`~repro.core.plan.PlanState` and
returns a :class:`~repro.core.plan.PhysicalPlan`, whose ``execute`` trains
the DAG.  This module keeps the classic single-call entry point —
``fit_pipeline`` behind :meth:`repro.core.pipeline.Pipeline.fit` — as a
thin shim that builds the pass list for one of the paper's Figure 9
optimization levels (``"none"``, ``"pipe"``, ``"full"``), optimizes, and
executes::

    fit_pipeline(pipe, level="full")
    # ==
    plan = Optimizer(passes_for_level("full")).optimize(pipe)
    plan.execute()

Execution itself is pluggable: ``fit_pipeline(..., backend=...)`` (and
``plan.execute(backend=...)``) hand the optimized plan to an
:class:`~repro.core.backends.ExecutionBackend` — serial ``"local"``
(default) or the multi-process ``"actors"`` runtime.

It also hosts :class:`TrainingReport` (what happened during fit) and
:class:`ExclusiveTimer` (thread-safe per-node wall time attribution),
which the backends fill in.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.profiler import PipelineProfile
from repro.dataset.context import Context

LEVEL_NONE = "none"
LEVEL_PIPE = "pipe"
LEVEL_FULL = "full"
LEVELS = (LEVEL_NONE, LEVEL_PIPE, LEVEL_FULL)


class ExclusiveTimer:
    """Accumulates per-node wall time, excluding nested node time.

    Dataset computations nest (computing a node's partition computes its
    parents' partitions inside), so a plain timer would double count.  The
    wrapper maintains a stack of inner-time accumulators.

    Thread-safe: nesting only happens within one thread's call stack, so
    the inner-time stack is thread-local (a shared stack would attribute
    one thread's nested time to whatever frame another thread pushed
    last); the ``times`` accumulator is shared across threads and guarded
    by a lock.
    """

    def __init__(self):
        self.times: Dict[int, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def _stack(self) -> List[float]:
        """This thread's stack of inner-time accumulators."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _charge(self, node_id: Any, start: float) -> None:
        total = time.perf_counter() - start
        stack = self._stack
        inner = stack.pop()
        with self._lock:
            self.times[node_id] += total - inner
        if stack:
            stack[-1] += total

    def add(self, node_id: Any, seconds: float) -> None:
        """Credit externally measured seconds (e.g. from worker processes)."""
        with self._lock:
            self.times[node_id] += seconds

    def wrap(self, node_id: Any, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            self._stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._charge(node_id, start)
        return wrapped

    def time_block(self, node_id: Any):
        timer = self

        class _Block:
            def __enter__(self):
                self.start = time.perf_counter()
                timer._stack.append(0.0)
                return self

            def __exit__(self, *exc):
                timer._charge(node_id, self.start)
                return False

        return _Block()


@dataclass
class TrainingReport:
    """What happened during fit: decisions and measured times."""

    level: str
    optimize_seconds: float = 0.0
    execute_seconds: float = 0.0
    cse_nodes_removed: int = 0
    fused_nodes_removed: int = 0
    cache_set: Set[int] = field(default_factory=set)
    cache_set_labels: List[str] = field(default_factory=list)
    selections: Dict[int, str] = field(default_factory=dict)
    profile: Optional[PipelineProfile] = None
    node_seconds: Dict[int, float] = field(default_factory=dict)
    node_labels: Dict[int, str] = field(default_factory=dict)
    estimator_seconds: Dict[int, float] = field(default_factory=dict)
    recomputations: int = 0
    #: names of the optimizer passes applied, in order
    passes: List[str] = field(default_factory=list)
    #: which execution backend trained the plan (e.g. "local",
    #: "actors[workers=2]")
    backend: str = "local"
    #: filled by ActorBackend (``"actors"`` and its ``"process"``
    #: alias): worker-process count and, per estimator label, which
    #: merge strategy trained it.  With multi-process execution
    #: ``node_seconds`` aggregates per-node compute *across* workers
    #: (CPU seconds, not wall clock).
    process_workers: Optional[int] = None
    process_stat_merged: List[str] = field(default_factory=list)
    process_gathered: List[str] = field(default_factory=list)
    process_fallback: List[str] = field(default_factory=list)
    #: also filled by ActorBackend: estimator labels fitted by in-worker
    #: iterative passes (:mod:`repro.runtime`), pool fault-tolerance and
    #: shard-state cache accounting for this run (workers that died and
    #: were respawned; content-addressed shard states served from worker
    #: caches vs computed; partition bytes pickled over pipes vs mapped
    #: through shared memory).
    actor_iterative: List[str] = field(default_factory=list)
    worker_restarts: int = 0
    shard_state_hits: int = 0
    shard_state_misses: int = 0
    bytes_shipped: int = 0
    bytes_mapped: int = 0
    #: filled when training ran against a FitStore
    #: (:mod:`repro.incremental`): estimator labels whose fitted state was
    #: spliced from the store by training key vs. actually (re)fitted this
    #: run, plus per-partition sufficient-statistic reuse counts from the
    #: streaming-refit path of shardable estimators.
    reused_ops: List[str] = field(default_factory=list)
    refit_ops: List[str] = field(default_factory=list)
    stat_partitions_reused: int = 0
    stat_partitions_computed: int = 0

    @property
    def reused_op_fraction(self) -> float:
        """Fraction of this run's estimators spliced from the FitStore."""
        total = len(self.reused_ops) + len(self.refit_ops)
        return len(self.reused_ops) / total if total else 0.0

    @property
    def total_seconds(self) -> float:
        return self.optimize_seconds + self.execute_seconds

    def stage_seconds(self) -> Dict[str, float]:
        """Coarse stage breakdown: Optimize / Featurize / Solve.

        Estimator (fit) time counts as Solve; everything else executed on
        the training flow counts as Featurize — the categories of the
        paper's Figure 9 (Eval is measured by the caller on test data).
        """
        solve = sum(self.estimator_seconds.values())
        featurize = sum(secs for nid, secs in self.node_seconds.items()
                        if nid not in self.estimator_seconds)
        return {"Optimize": self.optimize_seconds,
                "Featurize": featurize,
                "Solve": solve}

    def fill_registry(self, registry=None, prefix: str = "training"):
        """Render every counter into a
        :class:`~repro.obs.metrics.MetricsRegistry` (created if needed).

        The single structured view over the counter fields accumulated
        across the backends: one flat namespace instead of ad-hoc
        attribute spelunking.  Returns the registry.
        """
        from repro.obs.metrics import MetricsRegistry

        if registry is None:
            registry = MetricsRegistry()
        p = f"{prefix}." if prefix else ""
        stages = self.stage_seconds()
        registry.set(f"{p}optimize_seconds", self.optimize_seconds)
        registry.set(f"{p}execute_seconds", self.execute_seconds)
        registry.set(f"{p}featurize_seconds", stages["Featurize"])
        registry.set(f"{p}solve_seconds", stages["Solve"])
        registry.inc(f"{p}cse_nodes_removed", self.cse_nodes_removed)
        registry.inc(f"{p}fused_nodes_removed", self.fused_nodes_removed)
        registry.inc(f"{p}cache_set_size", len(self.cache_set))
        registry.inc(f"{p}recomputations", self.recomputations)
        if self.process_workers is not None:
            registry.set(f"{p}process_workers", self.process_workers)
        registry.inc(f"{p}process_stat_merged",
                     len(self.process_stat_merged))
        registry.inc(f"{p}process_gathered", len(self.process_gathered))
        registry.inc(f"{p}process_fallback", len(self.process_fallback))
        registry.inc(f"{p}actor_iterative", len(self.actor_iterative))
        registry.inc(f"{p}worker_restarts", self.worker_restarts)
        registry.inc(f"{p}shard_state_hits", self.shard_state_hits)
        registry.inc(f"{p}shard_state_misses", self.shard_state_misses)
        registry.inc(f"{p}bytes_shipped", self.bytes_shipped)
        registry.inc(f"{p}bytes_mapped", self.bytes_mapped)
        registry.inc(f"{p}reused_ops", len(self.reused_ops))
        registry.inc(f"{p}refit_ops", len(self.refit_ops))
        registry.set(f"{p}reused_op_fraction", self.reused_op_fraction)
        registry.inc(f"{p}stat_partitions_reused",
                     self.stat_partitions_reused)
        registry.inc(f"{p}stat_partitions_computed",
                     self.stat_partitions_computed)
        return registry

    def to_dict(self) -> Dict[str, Any]:
        """Flat dict of the report's counters (registry-backed)."""
        out: Dict[str, Any] = {"backend": self.backend,
                               "level": self.level}
        out.update(self.fill_registry(prefix="").to_dict())
        return out

    def summary(self) -> str:
        """A compact human-readable rendering of the counter fields."""
        stages = self.stage_seconds()
        lines = [
            f"TrainingReport(backend={self.backend}, level={self.level})",
            f"  times: optimize {self.optimize_seconds:.3f}s, execute "
            f"{self.execute_seconds:.3f}s (featurize "
            f"{stages['Featurize']:.3f}s, solve {stages['Solve']:.3f}s)",
            f"  graph: cse removed {self.cse_nodes_removed}, fused "
            f"{self.fused_nodes_removed}, cache set "
            f"{len(self.cache_set)}, recomputations "
            f"{self.recomputations}",
        ]
        if (self.process_workers is not None or self.process_stat_merged
                or self.process_gathered or self.process_fallback):
            lines.append(
                f"  process: workers {self.process_workers}, stat-merged "
                f"{len(self.process_stat_merged)}, gathered "
                f"{len(self.process_gathered)}, fallback "
                f"{len(self.process_fallback)}")
        if (self.actor_iterative or self.worker_restarts
                or self.shard_state_hits or self.shard_state_misses
                or self.bytes_shipped or self.bytes_mapped):
            lines.append(
                f"  actors: iterative {len(self.actor_iterative)}, "
                f"restarts {self.worker_restarts}, shard-state "
                f"{self.shard_state_hits} hits / "
                f"{self.shard_state_misses} misses, shipped "
                f"{self.bytes_shipped} B, mapped {self.bytes_mapped} B")
        if (self.reused_ops or self.refit_ops
                or self.stat_partitions_reused
                or self.stat_partitions_computed):
            lines.append(
                f"  incremental: reused {len(self.reused_ops)}/"
                f"{len(self.reused_ops) + len(self.refit_ops)} ops, "
                f"stat partitions {self.stat_partitions_reused} reused / "
                f"{self.stat_partitions_computed} computed")
        return "\n".join(lines)


def plan_pipeline(pipeline, resources: Optional[ResourceDescriptor] = None,
                  level: Optional[str] = None,
                  mem_budget_bytes: Optional[float] = None,
                  sample_sizes: Optional[Tuple[int, int]] = None,
                  cache_strategy: Optional[str] = None,
                  fuse: Optional[bool] = None,
                  passes: Optional[Sequence] = None,
                  _stacklevel: int = 3):
    """Optimize a pipeline into a :class:`~repro.core.plan.PhysicalPlan`.

    The planning half of :func:`fit_pipeline` — same kwargs, no
    execution.  Callers that want to inspect the plan, choose a backend
    per execution, or train the same plan several times (e.g. the
    incremental sweep planner) call this and then
    :meth:`~repro.core.plan.PhysicalPlan.execute`.
    """
    from repro.core.optimizer import Optimizer, passes_for_level

    if level is not None and level not in LEVELS:
        raise ValueError(f"unknown optimization level {level!r}; "
                         f"expected one of {LEVELS}")
    if passes is not None:
        shim_only = {"fuse": fuse, "cache_strategy": cache_strategy,
                     "sample_sizes": sample_sizes,
                     "mem_budget_bytes": mem_budget_bytes}
        clashes = [k for k, v in shim_only.items() if v is not None]
        if clashes:
            raise TypeError(f"{clashes} have no effect when passes= is "
                            "given; configure the passes directly (e.g. "
                            "FusionPass(), ProfilingPass(sample_sizes), "
                            "MaterializationPass(strategy, budget))")
    if passes is None:
        level = LEVEL_FULL if level is None else level
        passes = passes_for_level(
            level,
            sample_sizes=(256, 512) if sample_sizes is None else sample_sizes,
            mem_budget_bytes=(float("inf") if mem_budget_bytes is None
                              else mem_budget_bytes),
            cache_strategy=cache_strategy,
            fuse=bool(fuse),
            _stacklevel=_stacklevel)
    return Optimizer(passes).optimize(pipeline, resources,
                                      level=level or "custom")


def fit_pipeline(pipeline, resources: Optional[ResourceDescriptor] = None,
                 level: Optional[str] = None,
                 mem_budget_bytes: Optional[float] = None,
                 sample_sizes: Optional[Tuple[int, int]] = None,
                 cache_strategy: Optional[str] = None,
                 ctx: Optional[Context] = None,
                 fuse: Optional[bool] = None,
                 passes: Optional[Sequence] = None,
                 backend=None,
                 fit_store=None):
    """Optimize and train a pipeline; returns a FittedPipeline.

    ``level`` is one of ``"none" | "pipe" | "full"``.  ``cache_strategy``
    overrides the materialization strategy (default: greedy for optimized
    levels, none otherwise); see :mod:`repro.core.materialization`.
    ``fuse`` additionally packs single-consumer transformer chains into
    one stage (:mod:`repro.core.fusion`) before profiling — it is part of
    the optimizer, so it is ignored at ``level="none"``.

    ``backend`` selects the execution strategy (an
    :class:`~repro.core.backends.ExecutionBackend` instance or a name from
    :data:`repro.core.backends.BACKENDS`); default is serial
    :class:`~repro.core.backends.LocalBackend` semantics.

    ``fit_store`` attaches a :class:`~repro.incremental.FitStore`:
    estimators whose training keys hit the store are spliced instead of
    refit (warm retrain), shardable estimators reuse stored per-partition
    sufficient statistics (streaming refit), and newly fitted state is
    stored back — see :mod:`repro.incremental`.

    ``passes`` bypasses the level shim entirely: an explicit pass list is
    handed to the :class:`~repro.core.optimizer.Optimizer` as-is (the
    other optimization kwargs then only apply if the listed passes carry
    them, e.g. the budget inside a ``MaterializationPass``), and the plan
    is labelled ``"custom"`` unless a ``level`` is also named.
    """
    plan = plan_pipeline(
        pipeline, resources, level=level,
        mem_budget_bytes=mem_budget_bytes, sample_sizes=sample_sizes,
        cache_strategy=cache_strategy, fuse=fuse, passes=passes,
        # Warn at the Pipeline.fit caller (user -> fit -> here ->
        # plan_pipeline -> helper); a direct fit_pipeline caller is
        # attributed one frame high — the dominant path wins.
        _stacklevel=5)
    return plan.execute(ctx, backend=backend, fit_store=fit_store)
