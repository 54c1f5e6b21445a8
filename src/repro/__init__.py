"""repro — a Python reproduction of KeystoneML (ICDE 2017).

KeystoneML captures end-to-end machine-learning pipelines as DAGs of
high-level logical operators and optimizes them at two levels: per-operator
(cost-based physical operator selection) and whole-pipeline (common
sub-expression elimination and automatic materialization of reused
intermediates under a memory budget).

The optimizer is a composable pass pipeline.  ``Optimizer.optimize``
returns a ``PhysicalPlan`` you can inspect — which sub-expressions merged,
which physical operators were selected, what gets cached, the modelled
runtime — before any training runs:

Quickstart::

    from repro import Context, Optimizer, Pipeline
    from repro.nodes.text import LowerCase, Tokenizer, NGramsFeaturizer, \
        TermFrequency, CommonSparseFeatures
    from repro.nodes.learning import LinearSolver

    ctx = Context()
    data = ctx.parallelize(texts)
    labels = ctx.parallelize(one_hot_labels)

    pipe = (LowerCase().and_then(Tokenizer())
            .and_then(NGramsFeaturizer(1, 2))
            .and_then(TermFrequency())
            .and_then(CommonSparseFeatures(10_000), data)
            .and_then(LinearSolver(), data, labels))

    plan = Optimizer().optimize(pipe)       # full optimization stack
    print(plan.explain())                   # passes, selections, cache set
    model = plan.execute()
    predictions = model.apply_dataset(ctx.parallelize(test_texts))

Custom pass lists plug in without touching core modules::

    from repro import CSEPass, MaterializationPass, OperatorSelectionPass

    opt = Optimizer([CSEPass(), MyRewritePass(),
                     OperatorSelectionPass((128, 256)),
                     MaterializationPass(mem_budget_bytes=2e9)])

The classic one-call path still works: ``model = pipe.fit()`` (optionally
``level="none" | "pipe" | "full"``) is a shim over the same passes.

Execution is pluggable: the same plan trains serially
(``LocalBackend``), with independent branches overlapped on threads
(``PipelinedBackend``), priced per-shard on a simulated cluster
(``ShardedBackend``), or actually sharded across persistent worker
processes (``ActorBackend``; ``"process"`` / ``ProcessPoolBackend`` are
aliases of it)::

    model = plan.execute(backend="pipelined")
    fitted = pipe.fit(backend=ShardedBackend(workers=8))
    fitted = pipe.fit(backend=ActorBackend(workers=4))

Trained pipelines serve online traffic through :mod:`repro.serving`:
``ModelServer`` compiles each registered model into a flat
``InferencePlan``, micro-batches concurrent requests, and memoizes the
intermediates the optimizer's cost model deems worth their bytes::

    server = ModelServer(max_batch=64, cache_budget_bytes=256e6)
    with server:
        server.register("reviews", model, warmup_items=sample_docs)
        label = server.predict("reviews", "great product")
        print(server.stats().describe())
"""

from repro.cluster import ResourceDescriptor
from repro.core import (
    ActorBackend,
    CSEPass,
    Estimator,
    ExecutionBackend,
    FittedPipeline,
    FusionPass,
    LabelEstimator,
    LocalBackend,
    LoweringPass,
    MaterializationPass,
    OperatorSelectionPass,
    Optimizer,
    OpProgram,
    Pass,
    PhysicalPlan,
    ProgramPass,
    Pipeline,
    PipelinedBackend,
    ProcessPoolBackend,
    ProfilingPass,
    ShardedBackend,
    ShardingPass,
    Transformer,
)
from repro.cost import CostModel, CostProfile
from repro.dataset import Context, Dataset
from repro.serving import InferencePlan, ModelServer, compile_inference_plan

__version__ = "1.2.0"

__all__ = [
    "ActorBackend",
    "Context",
    "CostModel",
    "CostProfile",
    "CSEPass",
    "Dataset",
    "Estimator",
    "ExecutionBackend",
    "FittedPipeline",
    "FusionPass",
    "InferencePlan",
    "LabelEstimator",
    "LocalBackend",
    "LoweringPass",
    "MaterializationPass",
    "ModelServer",
    "OperatorSelectionPass",
    "Optimizer",
    "OpProgram",
    "Pass",
    "PhysicalPlan",
    "ProgramPass",
    "Pipeline",
    "PipelinedBackend",
    "ProcessPoolBackend",
    "ProfilingPass",
    "ResourceDescriptor",
    "ShardedBackend",
    "ShardingPass",
    "Transformer",
    "__version__",
    "compile_inference_plan",
]
