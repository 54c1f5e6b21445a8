"""Operator DAG representation.

A pipeline is a DAG of :class:`OpNode` objects.  Node kinds:

- ``source`` — a bound training dataset, or the special *pipeline input*
  placeholder that test data flows into at apply time.
- ``transformer`` — applies a :class:`~repro.core.operators.Transformer` to
  its single parent.
- ``estimator`` — fits an Estimator/LabelEstimator on its parent(s); its
  output is a fitted Transformer (a pipeline breaker).
- ``apply`` — applies the Transformer produced by an ``estimator`` parent to
  a data parent.
- ``gather`` — element-wise collection of branch outputs into a list
  (the paper's ``Pipeline.gather``).

Nodes are immutable after construction except for physical-operator
substitution performed by the optimizer (``node.op`` swap).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Set, Tuple

_node_ids = itertools.count(1)

SOURCE = "source"
TRANSFORMER = "transformer"
ESTIMATOR = "estimator"
APPLY = "apply"
GATHER = "gather"

KINDS = frozenset({SOURCE, TRANSFORMER, ESTIMATOR, APPLY, GATHER})


class OpNode:
    """One operator occurrence in a pipeline DAG."""

    __slots__ = ("id", "kind", "op", "parents", "label")

    def __init__(self, kind: str, op: Any, parents: Tuple["OpNode", ...] = (),
                 label: str = ""):
        if kind not in KINDS:
            raise ValueError(f"unknown node kind {kind!r}")
        self.id = next(_node_ids)
        self.kind = kind
        self.op = op
        self.parents = tuple(parents)
        self.label = label or self._default_label()

    def _default_label(self) -> str:
        if self.kind == SOURCE:
            return "input" if self.op is None else "data"
        if self.op is None:
            return self.kind
        return type(self.op).__name__

    @property
    def is_pipeline_input(self) -> bool:
        return self.kind == SOURCE and self.op is None

    @property
    def weight(self) -> int:
        """Passes this node makes over its inputs per execution."""
        return int(getattr(self.op, "weight", 1) or 1)

    def __repr__(self) -> str:
        parent_ids = ",".join(str(p.id) for p in self.parents)
        return f"OpNode#{self.id}({self.kind}:{self.label}<-[{parent_ids}])"


def pipeline_input() -> OpNode:
    """The placeholder node that apply-time data flows into."""
    return OpNode(SOURCE, None, label="input")


def source(dataset, label: str = "data") -> OpNode:
    return OpNode(SOURCE, dataset, label=label)


# ----------------------------------------------------------------------
# Traversal utilities
# ----------------------------------------------------------------------

def ancestors(sinks: Iterable[OpNode]) -> List[OpNode]:
    """All nodes reachable from ``sinks`` (inclusive), topologically sorted
    parents-first."""
    order: List[OpNode] = []
    seen: Set[int] = set()

    def visit(node: OpNode) -> None:
        if node.id in seen:
            return
        seen.add(node.id)
        for p in node.parents:
            visit(p)
        order.append(node)

    for s in sinks:
        visit(s)
    return order


def reachable(sinks: Iterable[OpNode],
              kind: str = None) -> List[OpNode]:
    """Reachable nodes parents-first, optionally filtered to one kind.

    The single topological walk behind every DAG consumer that used to
    keep a private copy: program lowering (:mod:`repro.core.program`,
    feeding both the serving compiler and the actor backend's shard
    programs) iterates the unfiltered order, and the training session's
    estimator schedule / source rooting use the kind filter.
    """
    order = ancestors(sinks)
    if kind is None:
        return order
    return [node for node in order if node.kind == kind]


def successors_map(sinks: Iterable[OpNode]) -> Dict[int, List[OpNode]]:
    """Map node id -> list of direct successors within the reachable DAG."""
    succ: Dict[int, List[OpNode]] = {}
    for node in ancestors(sinks):
        succ.setdefault(node.id, [])
        for p in node.parents:
            succ.setdefault(p.id, []).append(node)
    return succ


def substitute(sink: OpNode, mapping: Dict[int, OpNode]) -> OpNode:
    """Rebuild the DAG rooted at ``sink`` with some nodes replaced.

    ``mapping`` maps original node ids to replacement nodes.  Shared
    sub-DAGs stay shared in the result (memoized rebuild).  Nodes whose
    ancestry contains no replaced node are reused as-is, preserving object
    identity for common sub-expression detection.
    """
    memo: Dict[int, OpNode] = dict(mapping)

    def rebuild(node: OpNode) -> OpNode:
        if node.id in memo:
            return memo[node.id]
        new_parents = tuple(rebuild(p) for p in node.parents)
        if all(np_ is op_ for np_, op_ in zip(new_parents, node.parents)):
            memo[node.id] = node
            return node
        replacement = OpNode(node.kind, node.op, new_parents, node.label)
        memo[node.id] = replacement
        return replacement

    return rebuild(sink)


def validate_dag(sinks: Iterable[OpNode]) -> None:
    """Raise if the graph is malformed (bad arity for a node kind)."""
    for node in ancestors(sinks):
        if node.kind == SOURCE and node.parents:
            raise ValueError(f"{node}: source nodes take no parents")
        if node.kind == TRANSFORMER and len(node.parents) != 1:
            raise ValueError(f"{node}: transformer nodes take one parent")
        if node.kind == ESTIMATOR and len(node.parents) not in (1, 2):
            raise ValueError(f"{node}: estimator nodes take 1 or 2 parents")
        if node.kind == APPLY:
            if len(node.parents) != 2 or node.parents[0].kind != ESTIMATOR:
                raise ValueError(
                    f"{node}: apply nodes take (estimator, data) parents")
        if node.kind == GATHER and not node.parents:
            raise ValueError(f"{node}: gather nodes need parents")


def _dot_escape(label: str) -> str:
    """Escape a node label for a double-quoted Graphviz string."""
    return (label.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\r\n", "\\n")
                 .replace("\r", "\\n")
                 .replace("\n", "\\n"))


def to_dot(sinks: Iterable[OpNode],
           highlight: Iterable[int] = ()) -> str:
    """Graphviz rendering of the DAG (for docs and debugging).

    Node ids in ``highlight`` (e.g. a plan's cache set) render filled.
    """
    highlighted = set(highlight)
    lines = ["digraph pipeline {", "  rankdir=LR;"]
    for node in ancestors(sinks):
        shape = {"estimator": "box", "source": "ellipse"}.get(node.kind,
                                                              "plaintext")
        attrs = f'label="{_dot_escape(node.label)}" shape={shape}'
        if node.id in highlighted:
            attrs += ' style=filled fillcolor=lightsteelblue'
        lines.append(f"  n{node.id} [{attrs}];")
        for p in node.parents:
            lines.append(f"  n{p.id} -> n{node.id};")
    lines.append("}")
    return "\n".join(lines)


def zip_gather(parents: List[Any]) -> Any:
    """Element-wise gather of aligned datasets into list rows.

    The runtime realization of a GATHER node, shared by training execution
    and fitted-pipeline application.
    """
    acc = parents[0].map(lambda x: [x], name="gather")
    for p in parents[1:]:
        acc = acc.zip(p).map(lambda pair: pair[0] + [pair[1]], name="gather")
    return acc


def zip_rows(parts: List[list]) -> List[list]:
    """Element-wise gather of aligned in-memory partitions into list rows.

    The materialized-partition counterpart of :func:`zip_gather`: how
    the program evaluator (:mod:`repro.core.interp`) realizes a GATHER
    op for serving micro-batches and actor shard workers alike.
    """
    if len({len(p) for p in parts}) > 1:
        raise ValueError(
            f"gather partition length mismatch: {[len(p) for p in parts]}")
    return [list(row) for row in zip(*parts)]
