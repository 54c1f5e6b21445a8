"""PipelinedBackend: thread-pool execution of independent pipeline stages.

Estimators are the pipeline breakers, so the unit of useful concurrency is
the estimator fit: while one branch's solver iterates, another branch's
featurization (which runs lazily inside *its* solver's fit) can proceed on
a different thread.  The backend builds the estimator-level dependency
graph (estimator B must finish before estimator A when B is an ancestor of
A — e.g. A's training flow applies B's fitted transformer) and schedules
each estimator as a future that first waits on its dependencies.

Scheduling is deadlock-free by construction: estimators are submitted in
topological order and ``ThreadPoolExecutor`` starts tasks FIFO, so the set
of started tasks is always a prefix of submission order; a started task
only waits on strictly earlier tasks, hence the earliest unfinished task
never waits.  Determinism: every estimator still consumes exactly the same
training flow as under :class:`~repro.core.backends.local.LocalBackend`,
so predictions are byte-identical — only wall-clock attribution changes,
which is why :class:`~repro.core.executor.ExclusiveTimer` keeps per-thread
inner-time stacks.

Batch inference overlaps too: output partitions are materialized
concurrently (partition computations are independent and deterministic).
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core import graph as g
from repro.core.backends.base import ExecutionBackend, TrainingSession
from repro.dataset.context import Context
from repro.dataset.dataset import Dataset

if TYPE_CHECKING:
    from repro.core.pipeline import FittedPipeline
    from repro.core.plan import PhysicalPlan


class PipelinedBackend(ExecutionBackend):
    """Overlap independent estimator fits on a thread pool."""

    name = "pipelined"

    def __init__(self, max_workers: int = 4):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers

    def execute(
        self, plan: "PhysicalPlan", ctx: Optional[Context] = None
    ) -> "FittedPipeline":
        session = TrainingSession(plan, ctx, backend_name=self.name)
        estimators = session.estimator_nodes()  # topological order

        deps: Dict[int, List[int]] = {}
        for node in estimators:
            deps[node.id] = [
                p.id
                for p in g.ancestors([node])
                if p.kind == g.ESTIMATOR and p.id != node.id
            ]

        futures: Dict[int, Future] = {}

        def run_one(node: g.OpNode):
            for dep in deps[node.id]:
                futures[dep].result()
            return session.fit_estimator(node)

        pool = ThreadPoolExecutor(max_workers=self.max_workers)
        try:
            for node in estimators:
                futures[node.id] = pool.submit(run_one, node)
            # Collect in topological order so the root cause of a failed
            # chain surfaces first.
            for node in estimators:
                futures[node.id].result()
        finally:
            # Fail fast: drop still-queued fits when one estimator raised
            # (no-op on the success path).
            pool.shutdown(wait=True, cancel_futures=True)
        return session.finish()

    def apply_batch(self, fitted: "FittedPipeline", data: Dataset) -> Dataset:
        out = super().apply_batch(fitted, data)
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            parts = list(pool.map(out.partition, range(out.num_partitions)))

        def compute(i: int) -> list:
            # Copy on every pull: consumers may mutate partitions in place.
            return list(parts[i])

        return Dataset(
            out.ctx, out.num_partitions, compute, (out,), name=f"pipelined({out.name})"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"
