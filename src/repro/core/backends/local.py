"""LocalBackend: the serial depth-first reference execution.

:class:`~repro.core.backends.base.TrainingSession` with no pool:
estimators fit one at a time in dependency order, each reading its
training flow's partition views under the plan's caching policy.  Every
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
