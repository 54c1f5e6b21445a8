"""Differential test of the one OpProgram evaluator (repro.core.interp).

Generated small programs run through ``interp.evaluate`` at every grain,
row count and cache state, against a per-item recursive reference that
shares no code with the evaluator.  Checked per example: target outputs
are byte-identical to the reference; ``store`` sees exactly the (slot,
row) pairs an independent per-row backward walk says must be computed
(so the cache-marked ones among them, and only those, are written); and
every operator touched exactly that many items — nothing dead, and
nothing upstream of a row's deepest cache hit, ever ran.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import interp
from repro.core.kernels import ElementwiseKernel, KernelStage
from repro.core.operators import Transformer
from repro.core.program import GATHER, INPUT, TRANSFORM, Op

GRAINS = {"item": interp.ITEM, "batch": interp.BATCH, "chunk": interp.CHUNK}


class Scale(Transformer):
    """``x * c + 1`` on float rows (a gathered list row is concatenated
    first), optionally kernel-capable (it then runs as a columnar block
    inside a :class:`KernelStage`); counts the items it processes."""

    def __init__(self, c, kernel):
        self.c = c
        self.kernel = kernel
        self.seen = 0

    def apply(self, row):
        self.seen += 1
        if isinstance(row, list):
            row = np.concatenate(row)
        return row * self.c + 1.0

    def columnar_kernel(self):
        if not self.kernel:
            return None

        def block(value):
            self.seen += len(value)
            return value * self.c + 1.0

        return ElementwiseKernel(block)


def build_program(steps, shared_at, n_gathers, dead_at):
    """A chain of transforms with one slot read twice, gathers, a dead op.

    ``steps`` is a list of ``(c, staged)``: a plain (not kernel-capable)
    op, or a two-member :class:`KernelStage` of kernel-capable ones.
    Returns ``(ops, targets, counters)`` where ``counters[slot]`` is the
    operator whose ``seen`` counts that slot's processed items.
    """
    ops, counters = [], {}

    def add(kind, parents, c=None, staged=False):
        slot = len(ops)
        operator = None
        if kind == TRANSFORM:
            operator = counters[slot] = Scale(c, staged)
            if staged:
                operator = KernelStage([operator, Scale(0.5, True)], ["a", "b"])
        key = f"k{slot}"
        ops.append(Op(slot, 100 + slot, kind, operator, parents, f"op{slot}", key))
        return slot

    chain = [add(INPUT, ())]
    for position, (c, staged) in enumerate(steps):
        if position == dead_at:
            add(TRANSFORM, (chain[-1],), 7.0)  # read by nothing, no target
        chain.append(add(TRANSFORM, (chain[-1],), c, staged))
    shared = chain[min(shared_at, len(chain) - 2)]  # also read by its successor
    side = add(TRANSFORM, (shared,), 3.0, True)
    if n_gathers == 0:
        return ops, (chain[-1], side), counters
    last = add(TRANSFORM, (add(GATHER, (chain[-1], side)),), -1.0)
    if n_gathers == 2:
        last = add(TRANSFORM, (add(GATHER, (last, shared)),), 2.0, True)
    return ops, (last,), counters


def reference(ops, slot, item, memo):
    """Per-item recursive walk: the specification ``evaluate`` must match."""
    if slot not in memo:
        op = ops[slot]
        if op.kind == INPUT:
            memo[slot] = item
        elif op.kind == GATHER:
            memo[slot] = [reference(ops, p, item, memo) for p in op.parents]
        else:
            memo[slot] = op.op.apply(reference(ops, op.parents[0], item, memo))
    return memo[slot]


def freeze(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    return tuple(freeze(v) for v in value)


program_specs = st.tuples(
    st.lists(
        st.tuples(st.sampled_from([0.5, 2.0, -1.0, 3.0]), st.booleans()),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 5),
    st.integers(0, 2),
    st.integers(0, 5),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    spec=program_specs,
    grain=st.sampled_from(sorted(GRAINS)),
    n=st.sampled_from([1, 2, 7]),
    cache_mode=st.sampled_from(["none", "cold", "warm"]),
    all_slots=st.booleans(),
    data=st.data(),
)
def test_evaluate_matches_the_per_row_reference(
    spec, grain, n, cache_mode, all_slots, data
):
    steps, shared_at, n_gathers, dead_at = spec
    ops, targets, counters = build_program(steps, shared_at, n_gathers, dead_at)
    if all_slots:  # ``targets=None``: every slot is read, nothing is dead
        targets = range(len(ops))

    # A row is one item, or (CHUNK) partitions of items; ``shape`` maps a
    # per-item function over a row either way.
    sizes = (2, 1) if grain == "chunk" else None
    items = [np.arange(3) * 0.5 + k for k in range(3 * n)]

    def shape(row, fn):
        if sizes is None:
            return fn(items[row])
        parts, k = [], 3 * row
        for size in sizes:
            parts.append([fn(item) for item in items[k : k + size]])
            k += size
        return parts

    inputs = [shape(row, lambda item: item) for row in range(n)]
    per_row_items = 1 if sizes is None else sum(sizes)

    # Reference pass first, on the same operators; then reset the counts.
    expected = {
        (slot, row): shape(row, lambda item, slot=slot: reference(ops, slot, item, {}))
        for slot in range(len(ops))
        for row in range(n)
    }
    for operator in counters.values():
        operator.seen = 0

    marked, cache = set(), {}
    if cache_mode != "none":
        marked = data.draw(st.sets(st.integers(0, len(ops) - 1)), label="marked")
    if cache_mode == "warm":
        pairs = sorted((slot, row) for slot in marked for row in range(n))
        warm = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        cache = {pair: expected[pair] for pair in warm}
    warm_pairs = set(cache)

    # What has to be computed, by an independent per-row backward walk.
    must = set()

    def need(slot, row):
        if (slot, row) in must or (slot, row) in warm_pairs:
            return
        must.add((slot, row))
        for parent in ops[slot].parents:
            need(parent, row)

    for row in range(n):
        for target in targets:
            need(target, row)

    computed, written = [], []

    def probe(op, row):
        pair = (op.slot, row)
        return (True, cache[pair]) if pair in cache else (False, None)

    def store(op, rows, values):
        assert len(rows) == len(values)
        for row, value in zip(rows, values):
            computed.append((op.slot, row))
            if op.slot in marked:
                written.append((op.slot, row))
                cache[(op.slot, row)] = value

    values = interp.evaluate(
        ops,
        None if all_slots else targets,
        n,
        lambda op: inputs,
        GRAINS[grain],
        probe if cache_mode != "none" else None,
        store,
    )

    for target in targets:
        for row in range(n):
            assert freeze(values[target][row]) == freeze(expected[(target, row)])
    assert sorted(computed) == sorted(must)  # each pair once, none extra
    assert sorted(written) == sorted(p for p in must if p[0] in marked)
    for slot, operator in counters.items():
        rows_computed = sum(1 for s, _row in must if s == slot)
        assert operator.seen == rows_computed * per_row_items, ops[slot].label
    for pair, value in cache.items():
        assert freeze(value) == freeze(expected[pair])
