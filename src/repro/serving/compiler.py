"""InferencePlan: the executable serving view over a lowered OpProgram.

The training-time hot path walks the inference DAG recursively, building a
fresh closure and memo dict per request
(:func:`repro.core.backends.base.recursive_apply_item`).  That is fine for
occasional scoring but wrong for serving: at thousands of requests per
second the per-request graph walk is pure overhead, and the recursive
shape hides the batch-vectorization opportunity.

:func:`compile_inference_plan` lowers the fitted DAG once through
:func:`repro.core.program.lower_inference_program` — the same
:class:`~repro.core.program.OpProgram` IR the actor backend ships to
its shard workers — applies any lowering passes the optimizer registered
(:class:`~repro.core.passes.LoweringPass`), and wraps the result in an
:class:`InferencePlan`.  The lowering preserves every optimizer decision
already baked into the DAG: stages fused by
:class:`~repro.core.passes.FusionPass` arrive as a single
:class:`~repro.core.fusion.FusedTransformer` node and stay one op, and
sub-DAGs merged by CSE occupy one slot, so they are evaluated once per
request without a memo dict.

Two execution modes:

- :meth:`InferencePlan.run_item` — one request, per-item ``op.apply``;
  byte-identical to the recursive walk (same ops, same order, same
  item-level numerics).  This is ``fitted.apply``'s path; it never
  consults a serving cache.
- :meth:`InferencePlan.run_batch` — a micro-batch, vectorized through
  ``op.apply_partition`` exactly like the existing
  ``FittedPipeline.apply_dataset`` path (a micro-batch is one partition).
  With ``vectorize=True`` (what ``ModelServer.register`` serves),
  ``VectorizePass`` additionally groups kernel-capable op runs into
  :class:`~repro.core.kernels.KernelStage` slots whose columnar batch
  path is **byte-identical** to ``fitted.apply`` per item — raw score
  vectors included, so served pipelines no longer need to end in a
  classification head; a stage that does end in one batches its dense
  GEMMs and proves each class id instead.  Without it (the interpreter
  plan, kept as a measurement probe), operators with BLAS-batched
  partitions (``LinearMapper``, ``RandomFeaturesTransformer``) may
  differ from the per-item path in the last float ulp — the historical
  ``apply_dataset`` caveat.

Both modes are calls into the one program evaluator,
:func:`repro.core.interp.evaluate` (grains ``ITEM`` and ``BATCH``); this
module adds the serving-cache policy only.  Given fingerprints,
``run_batch`` consults an attached
:class:`~repro.serving.cache.ServingCache`.  Cache entries are addressed
by ``(op key, input fingerprint)`` — the op key being the
content-addressed structural fingerprint each
:class:`~repro.core.program.Op` carries — so two model versions sharing
a featurization prefix share entries.  Each item of the flush resumes
from its deepest cached ancestor, and the outputs of cache-marked ops
are inserted.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import interp
from repro.core.program import (
    INPUT,
    Op,
    OpProgram,
    VectorizePass,
    lower_inference_program,
    run_program_passes,
    stage_lines,
    stage_mark,
)
from repro.dataset.sizing import estimate_size


class InferencePlan:
    """A compiled, reusable inference program for one fitted pipeline.

    A thin executable view over an :class:`~repro.core.program.OpProgram`
    (build with :func:`compile_inference_plan`); plans are immutable
    except for the optional serving cache attached via
    :meth:`attach_cache`.  Thread-safe: execution state lives on the
    stack of each call.
    """

    def __init__(self, program: OpProgram):
        self.program = program
        self.ops = program.ops
        self.input_slot = program.input_slot
        self.sink_slot = program.sink_slot
        self.cache = None  # Optional[ServingCache], attached by the server
        self._cached_slots: Tuple[int, ...] = ()
        self._cached_slot_set: frozenset = frozenset()
        #: per-request seconds / output bytes per slot (see profile_ops)
        self.op_seconds: Dict[int, float] = {}
        self.op_bytes: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def key_of(self, node_id: int) -> str:
        """Content-addressed key of the op lowered from ``node_id``."""
        return self.program.key_of(node_id)

    @property
    def cached_slots(self) -> Tuple[int, ...]:
        """Slots the attached serving cache memoizes (empty without one)."""
        return self._cached_slots

    def describe(self) -> str:
        lines = [f"InferencePlan({len(self.ops)} ops)"]
        for op in self.ops:
            mark = " [cached]" if op.slot in self._cached_slot_set else ""
            parents = ",".join(str(p) for p in op.parents)
            lines.append(f"  %{op.slot} = {op.kind}({op.label})"
                         f" <- [{parents}]{mark}{stage_mark(op)}")
            # Which original ops a KernelStage folded (vectorize=True).
            lines.extend(stage_lines(op))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serving cache
    # ------------------------------------------------------------------
    def attach_cache(self, cache) -> None:
        """Attach a ServingCache; its op keys select the memoized slots."""
        if any(op.kind != INPUT and not op.key for op in self.ops):
            raise ValueError(
                "this plan was compiled without content keys "
                "(compute_keys=False); recompile with "
                "compile_inference_plan(fitted) to attach a serving cache")
        self.cache = cache
        keys = cache.keys
        self._cached_slots = tuple(
            op.slot for op in self.ops
            if op.kind != INPUT and op.key in keys)
        self._cached_slot_set = frozenset(self._cached_slots)

    def cached_result(self, fp: bytes) -> Tuple[bool, Any]:
        """Fast path: is the *sink* output cached for this fingerprint?

        Returns ``(hit, value)``; used by the server to answer repeats
        without paying the batching queue.  Counts one hit/miss — a
        caller forwarding the miss into ``run_batch`` should pass
        ``sink_probed=True`` so the request is not counted twice.
        """
        cache = self.cache
        if cache is None or self.sink_slot not in self._cached_slot_set:
            return False, None
        return cache.lookup(self.ops[self.sink_slot].key, fp)

    # ------------------------------------------------------------------
    # Execution (one evaluator: repro.core.interp)
    # ------------------------------------------------------------------
    def _evaluate(self, rows: Sequence[Any], fps: Optional[Sequence[bytes]],
                  sink_probed: bool, grain: interp.Grain) -> List[Any]:
        """Run the program over ``rows`` at ``grain``; returns the sink column.

        With fingerprints and a cache selection the serving cache is the
        evaluator's policy: entries are keyed ``(op.key, fingerprint)``,
        only the slots :meth:`attach_cache` selected are candidates, and
        ``sink_probed`` re-probes the sink without hit/miss accounting.
        Without them every op runs over every row: the program was
        lowered from its sink, so there is no liveness to walk.
        """
        probe = store = targets = None
        if fps is not None and self._cached_slots:
            targets = (self.sink_slot,)
            cache, cached, sink = self.cache, self._cached_slot_set, self.sink_slot

            def probe(op: Op, row: int) -> Tuple[bool, Any]:
                if op.slot not in cached:
                    return False, None
                return cache.lookup(op.key, fps[row],
                                    count=not (sink_probed and op.slot == sink))

            def store(op: Op, computed: Sequence[int], values: list) -> None:
                if op.slot in cached:
                    for row, value in zip(computed, values):
                        cache.put(op.key, fps[row], value)

        values = interp.evaluate(self.ops, targets, len(rows),
                                 lambda op: rows, grain, probe, store)
        return values[self.sink_slot]

    def run_item(self, item: Any) -> Any:
        """Apply the program to one item (per-item ``op.apply`` numerics)."""
        return self._evaluate((item,), None, False, interp.ITEM)[0]

    def run_batch(self, items: Sequence[Any],
                  fps: Optional[Sequence[bytes]] = None,
                  sink_probed: bool = False) -> List[Any]:
        """Apply the program to a micro-batch, one partition per op.

        Vectorizes through ``op.apply_partition`` — the same numerics as
        ``FittedPipeline.apply_dataset`` on a single partition.  When a
        serving cache is attached and fingerprints are supplied, each
        item individually resumes from its deepest cached ancestor
        (every op runs once over exactly the sub-batch of items that
        still need it) and the outputs of cache-marked ops are inserted.
        ``sink_probed`` means the caller already counted each item's
        sink lookup (the server's pre-queue fast path), so the backward
        pass re-probes the sink without hit/miss accounting.
        """
        if len(items) == 0:
            return []
        return list(self._evaluate(items, fps, sink_probed, interp.BATCH))

    # ------------------------------------------------------------------
    # Micro-profiling (drives the serving-cache selection)
    # ------------------------------------------------------------------
    def profile_ops(self, sample_items: Sequence[Any]) -> None:
        """Measure per-request seconds and output bytes for every op.

        Runs the warmup items through the per-item path, timing each op
        and sizing its output — the serving analogue of the optimizer's
        sample profiling, feeding the cost-model cache selection in
        :mod:`repro.serving.cache`.
        """
        if not sample_items:
            raise ValueError("profile_ops needs at least one sample item")
        n = len(sample_items)
        seconds = {op.slot: 0.0 for op in self.ops}
        sizes = {op.slot: 0.0 for op in self.ops}

        def on_op(op: Op, elapsed: float, values: list) -> None:
            seconds[op.slot] = elapsed / n
            sizes[op.slot] = sum(estimate_size(v) for v in values) / n

        interp.evaluate(self.ops, None, n,
                        lambda op: sample_items, interp.ITEM, on_op=on_op)
        self.op_seconds = seconds
        self.op_bytes = sizes


def compile_inference_plan(
    fitted, compute_keys: bool = True, vectorize: bool = False,
    vectorize_boundaries: Sequence[str] = (),
) -> InferencePlan:
    """Lower a :class:`~repro.core.pipeline.FittedPipeline` to a flat plan.

    The DAG is lowered once through the shared
    :class:`~repro.core.program.OpProgram` IR (every reachable node
    becomes one content-addressed op reading parent values from earlier
    slots), any lowering passes the optimizer registered on the pipeline
    are applied, and the program is wrapped in the serving execution
    view.  Only inference-legal node kinds are accepted (transformers,
    gathers and the pipeline-input placeholder — estimators were
    consumed at fit time).  ``compute_keys=False`` skips hashing
    operator state into content keys — the plain ``apply`` path uses it
    (no serving cache will read the keys); ``ModelServer.register``
    compiles with keys.

    ``vectorize=True`` appends
    :class:`~repro.core.program.VectorizePass` to the registered passes
    (unless one is already registered): runs of kernel-capable ops —
    gathered branches included — collapse into
    :class:`~repro.core.kernels.KernelStage` slots whose batched
    execution is byte-identical to ``fitted.apply`` per item.  A stage
    ending in an arg-max head is *certified*: its dense matmuls run as
    one BLAS GEMM per batch and each class id is proved equal to the
    reference's, the unproved rows recomputed exactly (see
    :mod:`repro.core.kernels`).  The choice follows from the program's
    structure, not from a knob.  ``ModelServer.register`` always serves
    the lowered plan; ``vectorize=False`` (the default, which
    ``fitted.apply`` compiles with) keeps the per-op interpreter.
    ``vectorize_boundaries`` (content keys) pins ops that must survive
    as addressable slots — the server passes its serving-cache selection
    so cache-marked intermediates still materialize after the rewrite.
    """
    program = lower_inference_program(fitted, compute_keys=compute_keys)
    passes = list(getattr(fitted, "program_passes", None) or ())
    if vectorize and not any(isinstance(p, VectorizePass) for p in passes):
        passes.append(VectorizePass(boundaries=vectorize_boundaries))
    program = run_program_passes(program, passes)
    return InferencePlan(program)
