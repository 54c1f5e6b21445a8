"""The evaluator: the one place under ``src/repro`` that executes program ops.

A lowered :class:`~repro.core.program.OpProgram` runs by one algorithm —
*walk backwards from the targets, stop at a cache hit, compute forwards
what is left* — over ``n`` independent **rows**.  What callers differ in
is the arguments: the **grain** (:data:`ITEM`, :data:`BATCH`,
:data:`CHUNK`: what a row is and how an operator runs over a column of
rows), the **cache policy** (a ``probe(op, row) -> (hit, value)`` /
``store(op, rows, values)`` pair owning the key scheme and which ops are
cache candidates) and an ``on_op(op, seconds, values)`` hook.
:func:`liveness` is the backward half on its own; the actor backend's
parent runs it against its mirror of a worker's cache to decide what to
ship, so parent and worker cannot disagree about what a program reads.

:class:`PartitionView` is the batch caller: the parent's training flows
and ``FittedPipeline.apply_dataset`` are such views, so the parent and
the actor workers run the same lowered programs through this function.

Outside on purpose: ``recursive_apply_item`` (the reference the tests
compare this module against), the profiler's sampling walk
(``core/profiler.py``) and operator internals.
``docs/ARCHITECTURE.md`` ("The evaluator") names every caller.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core import graph as g
from repro.core.program import GATHER, TRANSFORM, Op, OpProgram
from repro.dataset.dataset import Dataset
from repro.dataset.rows import copy_rows

Probe = Callable[[Op, int], Tuple[bool, Any]]
Store = Callable[[Op, Sequence[int], list], None]


class Grain(NamedTuple):
    """How one op runs over a column (one value per row)."""

    transform: Callable[[Any, list], list]
    gather: Callable[[List[list]], list]


def _apply_each(operator: Any, column: list) -> list:
    # One row is the `fitted.apply(x)` path: no iterator for a single call.
    if len(column) == 1:
        return [operator.apply(column[0])]
    return list(map(operator.apply, column))


def _apply_batch(operator: Any, column: list) -> list:
    # Copy the column: apply_partition may consume or mutate it, and a
    # CSE-shared slot can have more readers.  A read-only SparseRows
    # column passes as it is.
    return operator.apply_partition(copy_rows(column))


def _apply_chunks(operator: Any, column: list) -> list:
    apply_partition = operator.apply_partition
    return [[apply_partition(part) for part in parts] for parts in column]


def _zip_chunks(columns: List[list]) -> list:
    return [[g.zip_rows(parts) for parts in zip(*chunks)] for chunks in zip(*columns)]


#: a row is one request item; per-item ``apply`` numerics
ITEM = Grain(_apply_each, g.zip_rows)
#: a row is one request item; one ``apply_partition`` per op over the rows
#: that still need it
BATCH = Grain(_apply_batch, g.zip_rows)
#: a row is a list of partitions; ``apply_partition`` per partition
CHUNK = Grain(_apply_chunks, _zip_chunks)


def liveness(
    ops: Sequence[Op],
    targets: Optional[Sequence[int]],
    n: int,
    probe: Optional[Probe] = None,
) -> Tuple[List[Optional[Sequence[int]]], List[Optional[list]]]:
    """Backward walk: which rows of which slots have to be computed.

    ``targets`` are the slots the caller reads (``None``: all of them).
    Returns ``(todo, values)``, both indexed by slot.  ``todo[s]`` is
    ``None`` when no row reads slot ``s``; otherwise the ascending rows
    whose value must be computed — a row the ``probe`` served is left out
    (its value is already in ``values[s]``) and its parents drop out of
    that row's walk, so nothing upstream of a row's deepest hit is live.
    Without a probe liveness is the same for every row and one walk
    answers for all of them; without targets either there is nothing to
    walk.
    """
    values: List[Optional[list]] = [None] * len(ops)
    if probe is None:
        every = range(n)
        if targets is None:
            return [every] * len(ops), values
        todo: List[Optional[Sequence[int]]] = [None] * len(ops)
        for slot in targets:
            todo[slot] = every
        for op in reversed(ops):
            if todo[op.slot] is not None:
                for parent in op.parents:
                    todo[parent] = every
        return todo, values
    todo = [None] * len(ops)
    if targets is None:
        targets = range(len(ops))
    for row in range(n):
        live = [False] * len(ops)
        for slot in targets:
            live[slot] = True
        for op in reversed(ops):
            slot = op.slot
            if not live[slot]:
                continue
            if todo[slot] is None:
                todo[slot] = []
                values[slot] = [None] * n
            hit, value = probe(op, row)
            if hit:
                values[slot][row] = value
                continue
            todo[slot].append(row)
            for parent in op.parents:
                live[parent] = True
    return todo, values


def evaluate(
    ops: Sequence[Op],
    targets: Optional[Sequence[int]],
    n: int,
    leaf: Callable[[Op], list],
    grain: Grain,
    probe: Optional[Probe] = None,
    store: Optional[Store] = None,
    on_op: Optional[Callable[[Op, float, list], None]] = None,
) -> List[Optional[list]]:
    """Run ``ops`` over ``n`` rows; returns slot -> column of row values.

    ``targets`` are the slots the caller reads (``None``: every slot, for a
    program lowered from exactly what it reads — then an uncached run has
    no liveness to walk); only they are guaranteed a full column (a dead
    slot stays ``None``, a slot upstream of a probe hit has holes).
    ``leaf(op)`` supplies the column (all ``n`` rows) of an input or source
    op.  Every op runs at most once, over exactly the rows
    :func:`liveness` left for it; ``on_op`` then ``store`` see what was
    computed.
    """
    todo, values = liveness(ops, targets, n, probe)
    transform, gather = grain
    for op in ops:
        rows = todo[op.slot]
        if not rows:
            continue
        whole = len(rows) == n
        if on_op is not None:
            started = time.perf_counter()
        if op.kind == TRANSFORM:
            column = values[op.parents[0]]
            out = transform(op.op, column if whole else [column[i] for i in rows])
        elif op.kind == GATHER:
            columns = [values[p] for p in op.parents]
            if not whole:
                columns = [[column[i] for i in rows] for column in columns]
            out = gather(columns)
        else:
            column = leaf(op)
            out = column if whole else [column[i] for i in rows]
        if on_op is not None:
            on_op(op, time.perf_counter() - started, out)
        if whole:
            values[op.slot] = out
        else:
            column = values[op.slot]
            for i, value in zip(rows, out):
                column[i] = value
        if store is not None:
            store(op, rows, out)
    return values


class PartitionView(Dataset):
    """A lazy dataset: partition ``i`` is ``program``'s root evaluated
    (one :data:`CHUNK` row) over partition ``i`` of ``sources`` (node id
    -> dataset), counting every computed op in ``ctx.stats``.  It caches
    like any ``Dataset``; uncached, every read recomputes its ops."""

    def __init__(
        self,
        ctx,
        program: OpProgram,
        sources: Dict[int, Dataset],
        on_op: Optional[Callable[[Op, float, list], None]] = None,
    ):
        counts = {ds.num_partitions for ds in sources.values()}
        if len(counts) != 1:
            raise ValueError(f"sources disagree on partitioning: {sorted(counts)}")
        super().__init__(ctx, counts.pop(), None, tuple(sources.values()))
        self.program, self.sources, self.on_op = program, sources, on_op

    def _compute(self, i: int) -> list:
        root, stats = self.program.sink_slot, self.ctx.stats

        def leaf(op: Op) -> list:
            return [[self.sources[op.node_id].partition(i)]]

        def count(op: Op, _rows: Sequence[int], values: list) -> None:
            # ``Dataset.partition`` counts the root's partition.
            if op.kind in (TRANSFORM, GATHER) and op.slot != root:
                stats.record_compute(self.id, len(values[0][0]))

        values = evaluate(
            self.program.ops, [root], 1, leaf, CHUNK, None, count, self.on_op
        )
        return values[root][0][0]
