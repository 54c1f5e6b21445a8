"""LocalBackend: the serial depth-first reference execution.

This is the training semantics the original ``fit_pipeline`` monolith (and
then ``PhysicalPlan.execute``) hardwired, extracted behind the
:class:`~repro.core.backends.base.ExecutionBackend` protocol: estimators
are fitted one at a time in dependency order, each pulling its training
flow through the lazy dataset DAG under the plan's caching policy.  Every
other backend is defined by producing byte-identical predictions to this
one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.backends.base import ExecutionBackend, TrainingSession
from repro.dataset.context import Context

if TYPE_CHECKING:
    from repro.core.pipeline import FittedPipeline
    from repro.core.plan import PhysicalPlan


class LocalBackend(ExecutionBackend):
    """Serial in-process execution (the default)."""

    name = "local"

    def execute(
        self, plan: "PhysicalPlan", ctx: Optional[Context] = None
    ) -> "FittedPipeline":
        session = TrainingSession(plan, ctx, backend_name=self.name)
        session.run_serial()
        return session.finish()
