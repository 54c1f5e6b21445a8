"""Cluster simulator: prices cost profiles at arbitrary cluster sizes.

The scaling experiments (paper Figure 12, Table 6) sweep cluster size from 8
to 128 nodes.  We cannot run a cluster, but the paper's own cost model (Eq. 1)
already expresses stage time as a function of the resource descriptor — the
simulator evaluates exactly that function per stage, adding a fixed per-stage
task-scheduling overhead so that tiny stages do not scale superlinearly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.resources import ResourceDescriptor
from repro.cost.model import execution_seconds
from repro.cost.profile import CostProfile


@dataclass
class SimulatedStage:
    """One pipeline stage for simulation.

    ``profile_fn`` maps the number of workers to the critical-path
    :class:`CostProfile` of that stage — e.g. featurization flops shrink as
    ``1/w`` while a solver's network term grows with ``log w``.
    """

    name: str
    profile_fn: Callable[[int], CostProfile]
    #: stage category used by the breakdown plots (e.g. "Featurization")
    category: str = "Other"


@dataclass
class StageTiming:
    name: str
    category: str
    seconds: float


class ClusterSimulator:
    """Evaluates a pipeline of :class:`SimulatedStage` on a cluster.

    ``overhead_per_stage`` models task launch / scheduling latency (Spark's
    per-job fixed cost); it bounds strong-scaling speedup the same way real
    clusters do.
    """

    def __init__(self, resources: ResourceDescriptor,
                 overhead_per_stage: float = 2.0):
        self.resources = resources
        self.overhead_per_stage = overhead_per_stage
        # Last priced (stage list, resources, overhead) and its timings.
        # profile_fns must be pure (they price a fixed descriptor), so
        # ``total_seconds`` + ``breakdown`` on the same stages evaluate
        # each profile_fn once instead of once per call.  Keyed by stage
        # identity plus the pricing attributes, which are re-checked in
        # case a caller mutates them between calls.
        self._last: Optional[Tuple[List[SimulatedStage], ResourceDescriptor,
                                   float, List[StageTiming]]] = None

    def time_stage(self, stage: SimulatedStage) -> float:
        profile = stage.profile_fn(self.resources.num_nodes)
        return (execution_seconds(profile, self.resources)
                + self.overhead_per_stage)

    def run(self, stages: List[SimulatedStage]) -> List[StageTiming]:
        """Price every stage; repeated calls on the same list are cached.

        Returns fresh :class:`StageTiming` copies so caller mutation
        cannot corrupt the memo.
        """
        stages = list(stages)
        if self._last is not None:
            last_stages, resources, overhead, timings = self._last
            if (resources == self.resources
                    and overhead == self.overhead_per_stage
                    and len(last_stages) == len(stages)
                    and all(a is b for a, b in zip(last_stages, stages))):
                return [replace(t) for t in timings]
        timings = [StageTiming(s.name, s.category, self.time_stage(s))
                   for s in stages]
        self._last = (stages, self.resources, self.overhead_per_stage,
                      timings)
        return [replace(t) for t in timings]

    def total_seconds(self, stages: List[SimulatedStage]) -> float:
        return sum(t.seconds for t in self.run(stages))

    def breakdown(self, stages: List[SimulatedStage]) -> Dict[str, float]:
        """Total seconds per stage category (the Figure 12 bars)."""
        out: Dict[str, float] = {}
        for t in self.run(stages):
            out[t.category] = out.get(t.category, 0.0) + t.seconds
        return out


def scaling_sweep(stages: List[SimulatedStage],
                  base: ResourceDescriptor,
                  node_counts: List[int],
                  overhead_per_stage: float = 2.0) -> Dict[int, Dict[str, float]]:
    """Run the same pipeline at several cluster sizes.

    Returns ``{nodes: {category: seconds}}`` — the data behind Figure 12.
    """
    results: Dict[int, Dict[str, float]] = {}
    for w in node_counts:
        sim = ClusterSimulator(base.with_nodes(w), overhead_per_stage)
        results[w] = sim.breakdown(stages)
    return results
