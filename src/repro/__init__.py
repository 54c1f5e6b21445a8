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
(``LocalBackend``) or sharded across persistent worker processes
(``ActorBackend``; ``"process"`` / ``ProcessPoolBackend`` are aliases of
it), and any fit prices on a simulated cluster of any size
(``plan_scaling_sweep``, the paper's Figure 12 axis)::

    fitted = pipe.fit(backend=ActorBackend(workers=4))
    model = plan.execute()
    sweep = plan_scaling_sweep(plan, model, [8, 16, 32, 64])

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
    MaterializationPass,
    OperatorSelectionPass,
    Optimizer,
    OpProgram,
    Pass,
    PhysicalPlan,
    Pipeline,
    ProcessPoolBackend,
    ProfilingPass,
    ShardingPass,
    Transformer,
    plan_scaling_sweep,
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
    "MaterializationPass",
    "ModelServer",
    "OperatorSelectionPass",
    "Optimizer",
    "OpProgram",
    "Pass",
    "PhysicalPlan",
    "Pipeline",
    "ProcessPoolBackend",
    "ProfilingPass",
    "ResourceDescriptor",
    "ShardingPass",
    "Transformer",
    "__version__",
    "compile_inference_plan",
    "plan_scaling_sweep",
]
