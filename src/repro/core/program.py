"""OpProgram: the single lowered IR behind serving and shard execution.

KeystoneML's core bet is that a pipeline is a *program* the optimizer can
lower and re-target.  This module is where the lowering lives: a
(fitted or training) operator DAG flattens once into an :class:`OpProgram`
— a topologically-ordered list of :class:`Op` slots, each reading its
inputs from earlier slots — and every consumer re-targets that one IR:

- :mod:`repro.serving.compiler` wraps it in an ``InferencePlan`` (the
  online per-item / micro-batched execution view);
- :class:`~repro.core.backends.actors.ActorBackend` pickles it as the
  shard program worker processes run over partition chunks.

Each op additionally carries a **content-addressed key**: a structural
fingerprint of the operator (type plus fitted state), folded together
with the keys of its inputs.  Two ops compute the same function of the
request iff their keys are equal — independently trained pipelines that
share a featurization prefix produce equal keys for the prefix, which is
what lets :class:`~repro.serving.cache.ServingCache` share cached
intermediates across model versions.  Keys deliberately ignore DAG node
ids (those are per-process counters) and object identity; an operator
whose state cannot be walked gets a never-repeating key — degrading to
"no sharing", never to a false cache hit.

Lowering emits only live ops: the walk starts at the roots and stops
at claimed sources and at estimators, so a program never carries an
upstream estimator's training flow.  One per-kind rule,
:func:`node_key`, keys every node of every walk — training keys,
per-partition flow keys and lowered ops alike.  The serving compiler
may additionally group kernel-capable runs with :class:`VectorizePass`.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import re
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import graph as g
from repro.dataset.rows import SparseRows, copy_rows

try:
    import scipy.sparse as sp
except ImportError:  # pragma: no cover - scipy is a hard dep elsewhere
    sp = None

#: op kinds of a lowered program
INPUT = "input"
SOURCE = "source"
TRANSFORM = "transform"
GATHER = "gather"


class UnshippableFlow(Exception):
    """The flow cannot be lowered into a self-contained program.

    Raised by :func:`lower_training_program` when the walk reaches a node
    that has no meaning inside a shard program (an unbound pipeline
    input, a source with no dataset resolver, an unknown node kind).
    Backends catch it and fall back to in-parent execution.
    """


# ----------------------------------------------------------------------
# Content-addressed op keys
# ----------------------------------------------------------------------
#
# An op key digests (kind, operator structure, input keys).  Operator
# structure covers the type and the full fitted state — weights, vocab
# tables, nested stages — walked recursively, so two independently
# trained operators that converged to byte-identical state fingerprint
# equal.  Callables hash by their code (bytecode, consts, captured
# values), not by source location or object identity.


def feed_basic(h, value: Any, memo, recurse) -> bool:
    """Feed the common leaf/container hashing grammar; False if unhandled.

    The one value grammar shared between op fingerprints (here) and
    request fingerprints (:func:`repro.serving.cache.fingerprint`) —
    injective by construction: variable-length leaves are
    length-prefixed and containers are tagged and counted, so bytes
    never shift across a value boundary and collide.  ``recurse(h, item,
    memo)`` dispatches nested values through the caller's full grammar.
    """
    if value is None or isinstance(value, (bool, int, float, complex)):
        h.update(b"n")
        h.update(repr(value).encode())
    elif isinstance(value, str):
        data = value.encode("utf-8", "surrogatepass")
        h.update(b"s")
        h.update(str(len(data)).encode())
        h.update(b":")
        h.update(data)
    elif isinstance(value, bytes):
        h.update(b"b")
        h.update(str(len(value)).encode())
        h.update(b":")
        h.update(value)
    elif isinstance(value, np.ndarray):
        if value.dtype == object:
            # tobytes() on dtype=object would hash raw element
            # *pointers* — address-based aliasing; hash the elements.
            h.update(b"O")
            h.update(repr(value.shape).encode())
            for item in value.ravel().tolist():
                h.update(b"\x00")
                recurse(h, item, memo)
        else:
            h.update(b"a")
            h.update(str(value.dtype).encode())
            h.update(repr(value.shape).encode())
            h.update(np.ascontiguousarray(value).tobytes())
    elif sp is not None and sp.issparse(value):
        csr = value.tocsr()
        h.update(b"p")
        h.update(repr(csr.shape).encode())
        h.update(np.ascontiguousarray(csr.indptr).tobytes())
        h.update(np.ascontiguousarray(csr.indices).tobytes())
        h.update(np.ascontiguousarray(csr.data).tobytes())
    elif isinstance(value, SparseRows):
        _feed_sparse_rows(h, value)
    elif isinstance(value, (list, tuple)):
        h.update(b"l" if isinstance(value, list) else b"t")
        h.update(str(len(value)).encode())
        for item in value:
            h.update(b"\x00")
            recurse(h, item, memo)
    elif isinstance(value, dict):
        h.update(b"d")
        h.update(str(len(value)).encode())
        for key in sorted(value, key=repr):
            h.update(b"\x00")
            recurse(h, key, memo)
            h.update(b"\x01")
            recurse(h, value[key], memo)
    elif isinstance(value, np.generic):
        h.update(b"g")
        h.update(str(value.dtype).encode())
        h.update(value.tobytes())
    else:
        return False
    return True


def _feed_sparse_rows(h, rows: SparseRows) -> None:
    """Feed ``rows`` as the list of its rows: a key never depends on
    whether a partition is held as one matrix or as per-row matrices."""
    m = rows.matrix
    head = b"\x00p" + repr((1, m.shape[1])).encode()
    data, indices, bounds = m.data, m.indices, m.indptr.tolist()
    h.update(b"l" + str(len(rows)).encode())
    for start, stop in zip(bounds, bounds[1:]):
        h.update(head)
        h.update(np.array([0, stop - start], dtype=np.int32).tobytes())
        h.update(indices[start:stop].tobytes())
        h.update(data[start:stop].tobytes())


def _feed(h, value: Any, memo: set) -> None:
    if feed_basic(h, value, memo, _feed):
        pass
    elif isinstance(value, (set, frozenset)):
        h.update(b"S")
        digests = []
        for item in value:
            sub = hashlib.blake2b(digest_size=16)
            _feed(sub, item, memo)
            digests.append(sub.digest())
        for digest in sorted(digests):
            h.update(digest)
    elif isinstance(value, types.FunctionType):
        if id(value) in memo:
            # Recursive function (directly or via its own globals).
            h.update(b"fcycle")
            return
        memo = memo | {id(value)}
        h.update(b"f")
        _feed_code(h, value.__code__, memo)
        _feed(h, value.__defaults__, memo)
        _feed(h, value.__kwdefaults__, memo)
        if value.__closure__:
            for cell in value.__closure__:
                h.update(b"\x02")
                try:
                    _feed(h, cell.cell_contents, memo)
                except ValueError:  # empty cell
                    h.update(b"empty")
        # A function's behaviour also depends on the module globals it
        # reads (co_names resolved via __globals__) — fold their values
        # in, or two functions differing only in a referenced constant
        # would alias.  Modules feed by name (walking a whole module
        # would be unbounded); builtins are not in __globals__ and are
        # covered by co_names in the code hash.
        fn_globals = value.__globals__
        for name in value.__code__.co_names:
            if name in fn_globals:
                h.update(b"\x03")
                _feed(h, name, memo)
                referenced = fn_globals[name]
                if isinstance(referenced, types.ModuleType):
                    h.update(b"M")
                    _feed(h, getattr(referenced, "__name__", "?"), memo)
                else:
                    _feed(h, referenced, memo)
    elif isinstance(value, (types.BuiltinFunctionType, type)):
        h.update(b"q")
        _feed(h, getattr(value, "__module__", "") or "?", memo)
        _feed(h, getattr(value, "__qualname__", None) or repr(value), memo)
    elif isinstance(value, types.CodeType):
        _feed_code(h, value, memo)
    elif isinstance(value, re.Pattern):
        # Compiled patterns (Tokenizer and friends) are C objects whose
        # defining state is the pattern text and flags.
        h.update(b"r")
        _feed(h, value.pattern, memo)
        _feed(h, value.flags, memo)
    elif isinstance(value, functools.partial):
        # partial exposes an (empty) __dict__ while its real state lives
        # in C-level fields; hash those explicitly or two different
        # partials would collapse to a type-name-only hash.
        h.update(b"P")
        _feed(h, value.func, memo)
        _feed(h, value.args, memo)
        _feed(h, value.keywords, memo)
    elif isinstance(value, types.MethodType):
        # Bound methods delegate __dict__ to the function; hash function
        # and receiver explicitly for the same reason as partial.
        h.update(b"m")
        _feed(h, value.__func__, memo)
        _feed(h, value.__self__, memo)
    else:
        _feed_object(h, value, memo)


def _feed_code(h, code: types.CodeType, memo: set) -> None:
    """Hash a code object by what it computes, not where it was written.

    Filename, line numbers and debug tables are excluded so the same
    lambda built by the same factory in two processes — or pasted at two
    source locations — fingerprints equal.
    """
    h.update(b"c")
    _feed(h, code.co_code, memo)
    _feed(h, repr(code.co_names), memo)
    _feed(h, repr(code.co_varnames), memo)
    _feed(h, repr((code.co_argcount, code.co_kwonlyargcount, code.co_flags)), memo)
    for const in code.co_consts:
        h.update(b"\x00")
        _feed(h, const, memo)


def _feed_object(h, value: Any, memo: set) -> None:
    """Hash an arbitrary object: type identity plus recursive state.

    State comes from a class-defined ``__getstate__`` when one exists
    (e.g. ``FittedPipeline`` drops its lock there), else from
    ``__dict__`` and ``__slots__`` — for Python-defined classes only.  A
    leaf that resists introspection (C types, empty containers on
    C-backed objects) feeds a never-reused opaque token, so an
    un-walkable operator degrades to "no sharing", not to a wrong cache
    hit.
    """
    if id(value) in memo:
        h.update(b"cycle")
        return
    memo = memo | {id(value)}
    cls = type(value)
    h.update(b"o")
    _feed(h, getattr(cls, "__module__", "?"), memo)
    _feed(h, cls.__qualname__, memo)
    getstate = getattr(cls, "__getstate__", None)
    default_getstate = getattr(object, "__getstate__", None)  # None on 3.10
    state = None
    if getstate is not None and getstate is not default_getstate:
        try:
            state = value.__getstate__()
        except Exception:
            state = None
    if state is None:
        # C-implemented types (non-heap) can hold state invisible to
        # __dict__/__slots__ (functools.partial and bound methods are the
        # handled examples); a type-name-only hash would alias distinct
        # values, so anything not Python-defined is opaque.
        if not cls.__flags__ & _TPFLAGS_HEAPTYPE:
            _feed_opaque(h)
            return
        state = {}
        introspectable = False
        if hasattr(value, "__dict__"):
            introspectable = True
            state.update(vars(value))
        for klass in cls.__mro__:
            slots = getattr(klass, "__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            for slot in slots:
                introspectable = True
                if slot != "__dict__" and hasattr(value, slot):
                    state[slot] = getattr(value, slot)
        if not introspectable:
            _feed_opaque(h)
            return
    try:
        _feed(h, state, memo)
    except RecursionError:  # pathological nesting: degrade to opaque
        _feed_opaque(h)


#: Python-defined (heap) type flag — C types' state is not introspectable
_TPFLAGS_HEAPTYPE = 1 << 9

_opaque_tokens = itertools.count()


def _feed_opaque(h) -> None:
    """Feed a token that never repeats, so un-walkable leaves never alias.

    Hashing ``id(value)`` would look stable but is not: content keys
    outlive operators in the shared serving cache, and a recycled
    address after garbage collection would silently alias two different
    operators to one key (a wrong answer).  A never-reused token makes
    an un-walkable operator degrade to "no sharing, ever" instead.
    """
    h.update(b"opaque")
    h.update(str(next(_opaque_tokens)).encode())


def structural_fingerprint(op: Any) -> str:
    """Hex digest of an operator's structure (type + parameters + state)."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, op, set())
    return h.hexdigest()


def op_key(kind: str, op: Any, parent_keys: Sequence[str]) -> str:
    """Content-addressed key: H(kind, operator structure, input keys)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(kind.encode())
    h.update(b"\x00")
    _feed(h, op, set())
    for parent_key in parent_keys:
        h.update(b"\x01")
        h.update(parent_key.encode())
    return h.hexdigest()


#: every pipeline-input placeholder computes the same function (identity
#: on the request item), so it gets one constant key — this is what makes
#: two versions' featurization prefixes fingerprint equal from the root
INPUT_KEY = hashlib.blake2b(b"pipeline-input", digest_size=16).hexdigest()


def _source_key(node: g.OpNode) -> str:
    """Bound sources are keyed by node identity: their partitions are fed
    from the parent process, so two sources never alias by content."""
    h = hashlib.blake2b(digest_size=16)
    h.update(b"source")
    h.update(str(node.id).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Training keys: content-addressed identity for *unfitted* training DAGs
# ----------------------------------------------------------------------
#
# Lowered-program keys address fitted state; the incremental training
# engine (repro.incremental) needs the dual: a key per node of a
# *training* DAG — estimators and apply nodes included, bound datasets
# hashed by content — computable before anything is fitted.  Two nodes
# with equal training keys fit to byte-identical state (fits are
# deterministic functions of operator parameters and training bytes), so
# the keys are what a FitStore splices cached fits by and what a
# hyperparameter sweep dedupes shared prefixes by.


def dataset_fingerprint(ds, memo: Optional[Dict[int, str]] = None) -> str:
    """Content digest of a dataset: partition boundaries plus row bytes.

    Partition structure is folded in deliberately: reduction trees
    (``tree_combine``) and blocked solvers are shaped by partitioning, so
    the same rows split differently may not fit byte-identically.
    ``memo`` (keyed by ``id(ds)``) skips re-hashing datasets the caller
    already fingerprinted — valid only while the caller holds references
    to every memoized dataset.
    """
    if memo is not None and id(ds) in memo:
        return memo[id(ds)]
    h = hashlib.blake2b(digest_size=16)
    h.update(b"dataset")
    h.update(str(ds.num_partitions).encode())
    for part in ds.iter_partitions():
        h.update(b"\x00")
        _feed_rows(h, part)
    digest = h.hexdigest()
    if memo is not None:
        memo[id(ds)] = digest
    return digest


def partition_fingerprint(rows: Sequence[Any]) -> str:
    """Content digest of one partition's rows (streaming-refit keying)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(b"partition")
    _feed_rows(h, copy_rows(rows))
    return h.hexdigest()


def _feed_rows(h, part) -> None:
    """``_feed(h, part, set())``, in one update for uniform array rows.

    When ``part`` is a list of same-dtype, same-shape, non-object
    ``ndarray`` rows, every row's leaf header (``\\x00``, ``a``, dtype,
    shape) and bytes are laid out in one structured buffer: byte for
    byte the stream the generic walk feeds row by row, so digests do not
    change.  Anything else takes the generic walk.
    """
    first = part[0] if type(part) is list and part else None
    if type(first) is not np.ndarray or first.dtype.hasobject:
        _feed(h, part, set())
        return
    dtype, shape = first.dtype, first.shape
    for row in part:
        if type(row) is not np.ndarray or row.dtype != dtype or row.shape != shape:
            _feed(h, part, set())
            return
    head = b"\x00a" + str(dtype).encode() + repr(shape).encode()
    layout = np.dtype([("head", f"V{len(head)}"), ("row", dtype, shape)])
    buf = np.empty(len(part), dtype=layout)
    buf["head"] = np.void(head)
    buf["row"] = part
    h.update(b"l" + str(len(part)).encode())
    h.update(buf.view(np.uint8))


def _flow_parents(node: g.OpNode) -> Sequence[g.OpNode]:
    """The parents whose values a node's op reads.

    An apply node reads only its data parent: its estimator parent
    enters as the fitted model, so the estimator's training flow is not
    part of the apply's flow.
    """
    return node.parents[1:] if node.kind == g.APPLY else node.parents


def _fitted_model(node: g.OpNode, model_of: Optional[Callable[[g.OpNode], Any]]):
    model = model_of(node.parents[0]) if model_of is not None else None
    if model is None:
        raise RuntimeError(
            f"apply node {node.label!r} references an unfitted "
            "estimator; estimators must be scheduled in "
            "dependency order"
        )
    return model


def node_key(
    node: g.OpNode,
    keys: Dict[int, str],
    source_key: Callable[[g.OpNode], str],
    model_of: Optional[Callable[[g.OpNode], Any]] = None,
) -> str:
    """The one per-kind content-key rule behind every key walk.

    ``keys`` already holds the keys of the node's parents (every walk
    emits parents first).  ``source_key`` keys a bound source: by
    dataset content (:func:`training_keys`), by one partition's rows
    (:func:`partition_flow_keys`) or as the lowering claims it.  With
    ``model_of``, an apply node keys as a transform by its *fitted*
    model, which is what a lowered op computes; without it, the apply
    folds its estimator's key, so keys exist before anything is fitted.
    """
    kind = node.kind
    if node.is_pipeline_input:
        return INPUT_KEY
    if kind == g.SOURCE:
        return source_key(node)
    if kind == g.TRANSFORMER:
        return op_key(TRANSFORM, node.op, (keys[node.parents[0].id],))
    if kind == g.APPLY and model_of is not None:
        model = _fitted_model(node, model_of)
        return op_key(TRANSFORM, model, (keys[node.parents[1].id],))
    parent_keys = tuple(keys[p.id] for p in node.parents)
    if kind == g.APPLY:
        return op_key("apply", None, parent_keys)
    if kind == g.ESTIMATOR:
        return op_key("estimator", node.op, parent_keys)
    if kind == g.GATHER:
        return op_key(GATHER, None, parent_keys)
    raise ValueError(f"cannot key node kind {kind!r}")


def training_keys(
    roots: Sequence[g.OpNode],
    dataset_memo: Optional[Dict[int, str]] = None,
) -> Dict[int, str]:
    """Content-addressed key per node of a (possibly unfitted) training DAG.

    Unlike lowered-program keys, estimator and apply nodes participate:
    an estimator's key digests its *unfitted* operator structure
    (type + hyperparameters) with the keys of its training flows, and an
    apply node's key folds the estimator key with the data-parent key —
    so a hyperparameter change re-keys exactly the changed estimator and
    everything downstream of its output.  Bound sources hash by dataset
    *content* (unlike :func:`_source_key`), so independently built
    pipelines over equal data produce equal keys — the property warm
    retrain and sweep deduplication splice by.
    """

    def source_key(node: g.OpNode) -> str:
        fingerprint = dataset_fingerprint(node.op, dataset_memo)
        return op_key("source", None, (fingerprint,))

    keys: Dict[int, str] = {}
    for node in g.reachable(roots):
        keys[node.id] = node_key(node, keys, source_key)
    return keys


def partition_flow_keys(
    roots: Sequence[g.OpNode],
    index: int,
    *,
    model_of: Callable[[g.OpNode], Any],
) -> Dict[int, str]:
    """Per-partition content keys of a training flow (streaming refit).

    The partition-``index`` slice of :func:`training_keys` over the
    flow's live nodes: sources hash one partition's rows instead of the
    whole dataset, and apply nodes hash the *fitted* upstream model
    (resolved via ``model_of``) — so a stored per-partition sufficient
    statistic is reusable iff the partition bytes, the transformation
    chain, and every upstream fitted model are all unchanged.  Appending
    partitions to a source leaves the existing partitions' keys intact,
    which is what lets a refit merge new statistics without replaying
    old data.  Raises :class:`UnshippableFlow` for flows that cannot be
    keyed partition-wise (an unbound pipeline input) and ``IndexError``
    when a source has no partition ``index``.
    """

    def source_key(node: g.OpNode) -> str:
        fingerprint = partition_fingerprint(node.op.partition(index))
        return op_key("part", None, (fingerprint,))

    keys: Dict[int, str] = {}
    for node in g.ancestors(roots, _flow_parents):
        if node.is_pipeline_input:
            raise UnshippableFlow("flow reached the unbound pipeline input")
        keys[node.id] = node_key(node, keys, source_key, model_of)
    return keys


# ----------------------------------------------------------------------
# The IR
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One instruction: compute ``slot`` from earlier ``parents`` slots.

    ``node_id`` is the legacy DAG node id (per-process, used for
    reporting and profiling); ``key`` is the content-addressed identity
    (stable across processes and model versions).
    """

    slot: int
    node_id: int
    kind: str
    op: Any
    parents: Tuple[int, ...]
    label: str
    key: str


def stage_mark(op: Op) -> str:
    """`` [certified]`` for a kernel stage that takes the certified path."""
    return " [certified]" if getattr(op.op, "certified", False) else ""


def stage_lines(op: Op) -> List[str]:
    """``describe()`` lines naming the ops a kernel stage folded.

    So vectorization decisions read like fusion/CSE decisions; a folded
    gather lists its branches beneath it.
    """
    fold_lines = getattr(op.op, "fold_lines", None)
    return ["      " + line for line in fold_lines()] if fold_lines else []


class OpProgram:
    """A flat, topologically-ordered program lowered from an operator DAG.

    Immutable by convention: :class:`VectorizePass` returns a rewritten
    copy.  Plain data all the way down, so programs pickle (the actor
    backend ships them to spawn workers verbatim).
    """

    def __init__(
        self,
        ops: Sequence[Op],
        input_slot: Optional[int] = None,
        root_slots: Tuple[int, ...] = (),
    ):
        self.ops = list(ops)
        self.input_slot = input_slot
        self.root_slots = tuple(root_slots)
        self._slots = {op.node_id: op.slot for op in self.ops}
        self._keys = {op.node_id: op.key for op in self.ops}

    @property
    def sink_slot(self) -> int:
        """The last root's slot (the single sink, for inference programs)."""
        return self.root_slots[-1]

    def slot_of(self, node_id: int) -> int:
        return self._slots[node_id]

    def key_of(self, node_id: int) -> str:
        return self._keys[node_id]

    @property
    def node_ids(self):
        return self._slots.keys()

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __getstate__(self):
        return {
            "ops": self.ops,
            "input_slot": self.input_slot,
            "root_slots": self.root_slots,
        }

    def __setstate__(self, state):
        self.__init__(state["ops"], state["input_slot"], state["root_slots"])

    def describe(self) -> str:
        lines = [f"OpProgram({len(self.ops)} ops)"]
        for op in self.ops:
            parents = ",".join(str(p) for p in op.parents)
            lines.append(
                f"  %{op.slot} = {op.kind}({op.label})"
                f" <- [{parents}]  key={op.key[:12]}{stage_mark(op)}"
            )
            lines.extend(stage_lines(op))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"OpProgram(ops={len(self.ops)}, input_slot={self.input_slot}, "
            f"root_slots={self.root_slots})"
        )


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------


def _lower(
    roots: Sequence[g.OpNode],
    *,
    source_of: Optional[Callable[[g.OpNode], Any]] = None,
    model_of: Optional[Callable[[g.OpNode], Any]] = None,
    inference: bool = False,
    compute_keys: bool = True,
    source_key_of: Optional[Callable[[g.OpNode], str]] = None,
) -> Tuple[OpProgram, Dict[int, Any]]:
    """The one lowering walk behind both program flavours.

    Emits only live ops: the walk goes back from the roots and stops at
    claimed sources and at estimators.  ``source_of`` may claim any node
    as an externally fed source (bound training data, a materialized
    intermediate); ``model_of`` resolves an apply node's estimator
    parent to its fitted transformer, which is all the apply reads — so
    an estimator's training flow never enters the program.  Every live
    node becomes one op reading parent values from earlier slots, keyed
    by :func:`node_key` as the walk emits.  ``compute_keys=False`` skips
    key hashing; ops then carry empty keys.  ``source_key_of`` overrides
    the per-node-identity :func:`_source_key` for claimed sources — the
    actor runtime passes dataset-content keys here so a shard cached for
    one fit is addressable from the next.
    """
    ops: List[Op] = []
    slots: Dict[int, int] = {}
    keys: Dict[int, str] = {}
    sources: Dict[int, Any] = {}
    input_slot: Optional[int] = None
    source_key = source_key_of or _source_key

    def live_parents(node: g.OpNode) -> Sequence[g.OpNode]:
        ds = source_of(node) if source_of is not None else None
        if ds is None:
            return _flow_parents(node)
        sources[node.id] = ds
        return ()

    for node in g.ancestors(roots, live_parents):
        if node.id in sources:
            kind, op = SOURCE, None
        elif node.is_pipeline_input:
            if not inference:
                raise UnshippableFlow("flow reached the unbound pipeline input")
            input_slot = len(ops)
            kind, op = INPUT, None
        elif node.kind == g.SOURCE:
            if inference:
                raise ValueError(
                    "fitted pipeline contains an unbound source; only the "
                    "pipeline-input placeholder may appear at inference time"
                )
            raise UnshippableFlow("flow reached a source with no dataset resolver")
        elif node.kind == g.TRANSFORMER:
            kind, op = TRANSFORM, node.op
        elif node.kind == g.APPLY:
            kind, op = TRANSFORM, _fitted_model(node, model_of)
        elif node.kind == g.GATHER:
            kind, op = GATHER, None
        elif inference:
            raise ValueError(
                f"cannot compile node kind {node.kind!r} into an inference plan"
            )
        else:
            raise UnshippableFlow(f"cannot ship node kind {node.kind}")
        if not compute_keys:
            key = ""
        elif kind == SOURCE:
            key = source_key(node)
        else:
            key = node_key(node, keys, source_key, model_of)
        parents = () if kind == SOURCE else _flow_parents(node)
        slots[node.id] = len(ops)
        keys[node.id] = key
        ops.append(
            Op(
                len(ops),
                node.id,
                kind,
                op,
                tuple(slots[p.id] for p in parents),
                node.label,
                key,
            )
        )

    program = OpProgram(
        ops,
        input_slot=input_slot,
        root_slots=tuple(slots[r.id] for r in roots),
    )
    return program, sources


def lower_inference_program(fitted, compute_keys: bool = True) -> OpProgram:
    """Lower a fitted pipeline's DAG into an inference ``OpProgram``.

    Only inference-legal node kinds are accepted (transformers, gathers
    and the pipeline-input placeholder — estimators were consumed at fit
    time); a bound source raises ``ValueError``.  ``compute_keys=False``
    skips the structural hashing of every operator's fitted state — for
    plain ``FittedPipeline.apply`` paths where no serving cache will
    ever read the keys.
    """
    program, _ = _lower([fitted.sink], inference=True, compute_keys=compute_keys)
    return program


def lower_training_program(
    roots: Sequence[g.OpNode],
    *,
    source_of: Callable[[g.OpNode], Any],
    model_of: Optional[Callable[[g.OpNode], Any]] = None,
    compute_keys: bool = False,
    source_key_of: Optional[Callable[[g.OpNode], str]] = None,
) -> Tuple[OpProgram, Dict[int, Any]]:
    """Lower a training flow into a shippable ``(program, sources)`` pair.

    The program holds the flow's live ops only (see :func:`_lower`), and
    ``sources`` maps its source-op node ids to the parent-side datasets
    that feed them partition by partition.  Raises :class:`UnshippableFlow`
    when the flow cannot run inside a worker process.  Content keys are
    skipped by default — the shard path never reads them, and hashing
    every fitted model's state per wave is wasted work; pass
    ``compute_keys=True`` to get addressable training programs (and
    optionally ``source_key_of`` to key claimed sources by dataset
    content rather than node identity).
    """
    return _lower(
        list(roots),
        source_of=source_of,
        model_of=model_of,
        compute_keys=compute_keys,
        source_key_of=source_key_of,
    )


# ----------------------------------------------------------------------
# Kernel lowering
# ----------------------------------------------------------------------


class _Run:
    """A kernel stage in the making (see :class:`VectorizePass`)."""

    def __init__(self, start: int):
        self.start = start  #: the slot the stage reads
        self.members: List[Any] = []
        self.labels: List[str] = []
        #: every op folded so far; the last one is the stage's tail
        self.ops: List[Op] = []

    def add(self, member: Any, label: str, ops: Sequence[Op]) -> None:
        self.members.append(member)
        self.labels.append(label)
        self.ops.extend(ops)


class VectorizePass:
    """Group runs of kernel-capable transform ops into ``KernelStage`` ops.

    The serving compiler's second lowering target: a maximal chain of
    transform ops whose operators expose a columnar kernel
    (``Transformer.columnar_kernel()``) and whose interior links have
    exactly one consumer collapses into a single op backed by
    :class:`repro.core.kernels.KernelStage` — the batch then executes as
    a handful of numpy calls over one columnar block instead of per-op,
    per-item Python dispatch.

    A ``GATHER`` folds too, when each of its branches is such a run, all
    of them read one common slot, and the gather's single consumer is
    kernel-capable: the branches become one
    :class:`~repro.core.kernels.FoldedGather` member of the consumer's
    stage.  A gathered model such as TIMIT's random-feature blocks then
    lowers to one stage from the input to its head.

    Structure-preserving bookkeeping:

    - the stage op keeps the *last* member's ``node_id`` and content
      ``key`` — the key already folds the whole member chain (each op
      key digests its parents' keys), so grouped keys combine
      deterministically and a serving cache keyed before the rewrite
      keeps hitting after it;
    - CSE-shared slots (multiple consumers) and root slots never become
      stage interiors, so every externally visible slot survives.

    Single vectorizable ops are wrapped too: a stage's batched path is
    byte-identical to ``apply`` where the operator's own BLAS-batched
    ``apply_partition`` override may differ in the last ulp.

    ``boundaries`` is an optional set of content keys that must survive
    as addressable slots: an op whose key is a boundary may *end* a
    stage (its value is the stage output, under its own key) but never
    becomes a stage interior.  ``ModelServer.register`` passes the
    serving-cache selection here, so every cache-marked intermediate —
    including prefix ops shared with sibling versions — still
    materializes for the cache to read and write.
    """

    def __init__(self, boundaries=()):
        self.boundaries = frozenset(boundaries)

    def run(self, program: OpProgram) -> OpProgram:
        from repro.core.kernels import FoldedGather, KernelStage

        consumers: Dict[int, List[Op]] = {}
        for op in program.ops:
            for parent in op.parents:
                consumers.setdefault(parent, []).append(op)
        refs = {slot: len(readers) for slot, readers in consumers.items()}
        for slot in program.root_slots:
            refs[slot] = refs.get(slot, 0) + 1

        def vectorizable(op: Op) -> bool:
            if op.kind != TRANSFORM or len(op.parents) != 1:
                return False
            # Duck-typed: programs may carry ops outside the Transformer
            # hierarchy (tests, custom rewrites); no kernel, no grouping.
            kernel_of = getattr(op.op, "columnar_kernel", None)
            return kernel_of is not None and kernel_of() is not None

        def foldable(op: Op) -> bool:
            """May the op's value vanish into its single consumer's stage?"""
            return refs.get(op.slot) == 1 and op.key not in self.boundaries

        # Maximal runs: ``open_runs`` maps a run's current tail slot to
        # the run while that slot still awaits its single consumer.
        open_runs: Dict[int, _Run] = {}
        runs: List[_Run] = []
        for op in program.ops:
            if op.kind == GATHER:
                branches = [open_runs.get(p) for p in op.parents]
                readers = consumers.get(op.slot, ())
                if (
                    all(branches)
                    and len({branch.start for branch in branches}) == 1
                    and foldable(op)
                    and readers
                    and vectorizable(readers[0])
                ):
                    run = _Run(branches[0].start)
                    gathered = FoldedGather(
                        [KernelStage(b.members, b.labels) for b in branches]
                    )
                    folded = [o for b in branches for o in b.ops] + [op]
                    run.add(gathered, op.label, folded)
                    for parent, branch in zip(op.parents, branches):
                        del open_runs[parent]
                        runs.remove(branch)
                    runs.append(run)
                    open_runs[op.slot] = run
                continue
            if not vectorizable(op):
                continue
            run = open_runs.pop(op.parents[0], None)
            if run is None:
                run = _Run(op.parents[0])
                runs.append(run)
            run.add(op.op, op.label, [op])
            if foldable(op):
                open_runs[op.slot] = run
        if not runs:
            return program

        last_to_run = {run.ops[-1].slot: run for run in runs}
        interior = {op.slot for run in runs for op in run.ops[:-1]}

        remap: Dict[int, int] = {}
        new_ops: List[Op] = []
        for op in program.ops:
            if op.slot in interior:
                continue
            slot = len(new_ops)
            run = last_to_run.get(op.slot)
            if run is None:
                new_ops.append(
                    Op(
                        slot,
                        op.node_id,
                        op.kind,
                        op.op,
                        tuple(remap[p] for p in op.parents),
                        op.label,
                        op.key,
                    )
                )
            else:
                new_ops.append(
                    Op(
                        slot,
                        op.node_id,
                        TRANSFORM,
                        KernelStage(run.members, run.labels),
                        (remap[run.start],),
                        "kernel[" + "+".join(run.labels) + "]",
                        op.key,
                    )
                )
            remap[op.slot] = slot
        return OpProgram(
            new_ops,
            input_slot=remap.get(program.input_slot),
            root_slots=tuple(remap[s] for s in program.root_slots),
        )
