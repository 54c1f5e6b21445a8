"""KeystoneML's core: pipeline API, DAG, and the two-level optimizer.

The optimizer is a composable pass pipeline: an
:class:`~repro.core.optimizer.Optimizer` runs an ordered registry of
:class:`~repro.core.passes.Pass` objects and returns an inspectable
:class:`~repro.core.plan.PhysicalPlan` (``explain`` / ``to_dot`` /
``execute``).  ``Pipeline.fit(level=...)`` remains the one-call shim over
the same machinery.

Execution is pluggable (:mod:`repro.core.backends`): the same physical
plan trains serially (``LocalBackend``), with independent branches
overlapped on threads (``PipelinedBackend``), or priced per-shard on a
simulated cluster (``ShardedBackend``) — select with
``plan.execute(backend=...)`` or ``Pipeline.fit(backend=...)``.
"""

from repro.core.operators import (
    Estimator,
    FunctionTransformer,
    IdentityTransformer,
    Iterative,
    LabelEstimator,
    Optimizable,
    Transformer,
)
from repro.core.pipeline import FittedPipeline, Pipeline
from repro.core.stats import DataStats, stats_from_rows
from repro.core.executor import (
    LEVEL_FULL,
    LEVEL_NONE,
    LEVEL_PIPE,
    TrainingReport,
    fit_pipeline,
)
from repro.core.plan import PassDecision, PhysicalPlan, PlanState
from repro.core.program import (
    DeadOpElimination,
    Op,
    OpProgram,
    ProgramPass,
    lower_inference_program,
    lower_training_program,
    structural_fingerprint,
)
from repro.core.passes import (
    CSEPass,
    FusionPass,
    LoweringPass,
    MaterializationPass,
    OperatorSelectionPass,
    Pass,
    ProfilingPass,
    ShardingPass,
)
from repro.core.optimizer import Optimizer, default_passes, passes_for_level
from repro.core.backends import (
    BACKENDS,
    ActorBackend,
    ExecutionBackend,
    LocalBackend,
    PipelinedBackend,
    ProcessPoolBackend,
    ShardedBackend,
    plan_scaling_sweep,
    resolve_backend,
)

__all__ = [
    "ActorBackend",
    "BACKENDS",
    "CSEPass",
    "ExecutionBackend",
    "LocalBackend",
    "PipelinedBackend",
    "ProcessPoolBackend",
    "ShardedBackend",
    "ShardingPass",
    "plan_scaling_sweep",
    "resolve_backend",
    "DataStats",
    "Estimator",
    "FittedPipeline",
    "FunctionTransformer",
    "FusionPass",
    "IdentityTransformer",
    "Iterative",
    "LabelEstimator",
    "LEVEL_FULL",
    "LEVEL_NONE",
    "LEVEL_PIPE",
    "LoweringPass",
    "DeadOpElimination",
    "Op",
    "OpProgram",
    "ProgramPass",
    "lower_inference_program",
    "lower_training_program",
    "structural_fingerprint",
    "MaterializationPass",
    "OperatorSelectionPass",
    "Optimizable",
    "Optimizer",
    "Pass",
    "PassDecision",
    "PhysicalPlan",
    "Pipeline",
    "PlanState",
    "ProfilingPass",
    "TrainingReport",
    "Transformer",
    "default_passes",
    "fit_pipeline",
    "passes_for_level",
    "stats_from_rows",
]
