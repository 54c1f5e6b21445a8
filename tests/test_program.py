"""Tests for the lowered OpProgram IR (repro.core.program).

The contracts the unified lowering must hold:

- **content-addressed keys** — structurally identical ops from
  independently built (and independently *trained*) pipelines get equal
  keys; any parameter change flips the key of that op and of everything
  downstream; keys ignore DAG node ids and object identity.
- **one lowering** — the serving compiler and the actor backend both
  consume ``core/program.py``; the compiled inference plan is a view over
  the program, and a lowered program round-trips through pickle (it is
  the actor backend's wire format).
- **live lowering** — a lowered program holds only ops some root
  reads, keyed by the one per-kind rule (``program.node_key``) byte for
  byte as a reference copy of the separate key walks it replaced.
"""

import ast
import hashlib
import pathlib
import pickle

import numpy as np
import pytest

import repro
from repro.core import graph as g
from repro.core import program
from repro.core.optimizer import Optimizer, passes_for_level
from repro.core.pipeline import Pipeline
from repro.core.program import (
    GATHER,
    INPUT,
    INPUT_KEY,
    TRANSFORM,
    Op,
    OpProgram,
    UnshippableFlow,
    VectorizePass,
    dataset_fingerprint,
    lower_inference_program,
    lower_training_program,
    op_key,
    structural_fingerprint,
)
from repro.dataset import Context
from repro.nodes.learning.linear import LinearSolver
from repro.nodes.numeric import MaxClassifier, Normalizer, StandardScaler
from repro.nodes.text import (
    CommonSparseFeatures,
    LowerCase,
    TermFrequency,
    Tokenizer,
    unit_weighting,
)
from repro.serving.compiler import InferencePlan
from repro.workloads import amazon_reviews, timit_frames
from workload_scenarios import SCENARIOS, comparable


def _fit_text(wl, l2_reg=1e-8, num_features=80):
    """One training factory so both fits share lambda source locations."""
    ctx = Context()
    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    return (
        Pipeline.identity()
        .and_then(LowerCase())
        .and_then(Tokenizer())
        .and_then(TermFrequency(lambda c: 1.0))
        .and_then(CommonSparseFeatures(num_features), data)
        .and_then(LinearSolver(l2_reg=l2_reg), data, labels)
        .and_then(MaxClassifier())
        .fit(level="none")
    )


class TestStructuralFingerprint:
    def test_stateless_operators_fingerprint_equal(self):
        assert structural_fingerprint(LowerCase()) == structural_fingerprint(
            LowerCase()
        )
        assert structural_fingerprint(LowerCase()) != structural_fingerprint(
            Tokenizer()
        )

    def test_parameters_and_arrays_discriminate(self):
        a = StandardScaler()
        b = StandardScaler()
        assert structural_fingerprint(a) == structural_fingerprint(b)
        a.mean = np.arange(4.0)
        b.mean = np.arange(4.0)
        assert structural_fingerprint(a) == structural_fingerprint(b)
        b.mean = np.arange(4.0) + 1e-9
        assert structural_fingerprint(a) != structural_fingerprint(b)

    def test_lambdas_hash_by_code_not_identity(self):
        def make(scale):
            return lambda x: x * scale

        assert structural_fingerprint(make(2.0)) == structural_fingerprint(make(2.0))
        # A captured value is part of the structure.
        assert structural_fingerprint(make(2.0)) != structural_fingerprint(make(3.0))

    def test_opaque_leaves_never_alias(self):
        import threading

        lock = threading.Lock()
        assert structural_fingerprint(lock) != structural_fingerprint(threading.Lock())
        # Never-reused tokens: even the same object never matches itself,
        # so a recycled address after GC cannot alias two operators in a
        # long-lived shared cache.
        assert structural_fingerprint(lock) != structural_fingerprint(lock)

    def test_partials_and_bound_methods_hash_by_state(self):
        import functools

        def f(x, y):
            return x + y

        # C-backed callables must hash their real state, not collapse to
        # a type-name-only hash (which would be a false cache hit).
        assert structural_fingerprint(
            functools.partial(f, 2)
        ) == structural_fingerprint(functools.partial(f, 2))
        assert structural_fingerprint(
            functools.partial(f, 2)
        ) != structural_fingerprint(functools.partial(f, 3))
        a, b = StandardScaler(), StandardScaler()
        assert structural_fingerprint(a.fit) == structural_fingerprint(b.fit)
        b.mean = np.arange(3.0)
        assert structural_fingerprint(a.fit) != structural_fingerprint(b.fit)

    def test_object_arrays_hash_by_elements_not_pointers(self):
        a = np.array(["xy", "z"], dtype=object)
        b = np.array(["x", "yz"], dtype=object)
        # Independently allocated equal-content arrays must agree (raw
        # tobytes() would hash element addresses) and different content
        # must differ.
        assert structural_fingerprint(a) == structural_fingerprint(
            np.array(["xy", "z"], dtype=object)
        )
        assert structural_fingerprint(a) != structural_fingerprint(b)

    def test_referenced_globals_are_part_of_a_functions_structure(self):
        ns2 = {"SCALE": 2.0}
        ns3 = {"SCALE": 3.0}
        f2 = eval("lambda x: x * SCALE", ns2)
        f2b = eval("lambda x: x * SCALE", dict(ns2))
        f3 = eval("lambda x: x * SCALE", ns3)
        assert structural_fingerprint(f2) == structural_fingerprint(f2b)
        assert structural_fingerprint(f2) != structural_fingerprint(f3)

    def test_hashing_is_injective_across_value_boundaries(self):
        # Length-prefixed strings: bytes must not shift across element
        # boundaries and collide (a collision here would be a silent
        # wrong answer from the cross-version serving cache).
        assert structural_fingerprint(["a\x00sb", "c"]) != structural_fingerprint(
            ["a", "b\x00sc"]
        )
        assert structural_fingerprint(["ab", "c"]) != structural_fingerprint(
            ["a", "bc"]
        )
        assert structural_fingerprint(b"a\x00b") != structural_fingerprint(
            ["a", b"b"]
        )

    def test_op_key_folds_kind_op_and_parents(self):
        base = op_key(TRANSFORM, LowerCase(), (INPUT_KEY,))
        assert base == op_key(TRANSFORM, LowerCase(), (INPUT_KEY,))
        assert base != op_key(GATHER, LowerCase(), (INPUT_KEY,))
        assert base != op_key(TRANSFORM, Tokenizer(), (INPUT_KEY,))
        assert base != op_key(TRANSFORM, LowerCase(), (base,))

    def test_serde_packed_lambdas_key_by_source_location(self):
        # Pins the core/serde.py caveat incremental training leans on:
        # operators that pack captured lambdas in __getstate__ (e.g.
        # TermFrequency) marshal them *with* source location, so two
        # textually identical lambdas from different source lines key
        # differently.  Warm retrains and deduped sweeps therefore only
        # share lambda-parameterized ops built through a shared factory.
        first = TermFrequency(lambda c: 1.0)
        second = TermFrequency(lambda c: 1.0)
        assert structural_fingerprint(first) != structural_fingerprint(second)

        def factory():
            return TermFrequency(lambda c: 1.0)

        # One factory, independent builds: equal keys across processes
        # of one codebase — the contract SweepPlanner (and so
        # GridSearch) and refit() rely on.
        assert structural_fingerprint(factory()) == structural_fingerprint(factory())
        # Bare functions (no serde packing) hash by code object, which
        # excludes location: identical text on different lines agrees.
        assert structural_fingerprint(lambda c: 1.0) == structural_fingerprint(
            lambda c: 1.0
        )

    def test_unit_weighting_keys_stably_across_call_sites(self):
        # The named factory sidesteps the lambda-location caveat above:
        # unit_weighting() hands every caller the same module-level
        # function, which pickles by reference, so TermFrequency ops
        # built at different source locations (different modules, even)
        # share one fingerprint — the cross-build key agreement the
        # actor runtime's cross-fit shard cache depends on.
        first = TermFrequency(unit_weighting())
        second = TermFrequency(unit_weighting())
        assert structural_fingerprint(first) == structural_fingerprint(second)
        # And the round-trip is exact: re-unpacking yields the canonical
        # function itself, not a marshalled clone.
        restored = pickle.loads(pickle.dumps(first))
        assert restored.weighting is unit_weighting()
        assert restored.apply(["a", "a", "b"]) == {"a": 1.0, "b": 1.0}


def _generic_fingerprint(ds):
    """``dataset_fingerprint`` with every partition through the generic walk."""
    h = hashlib.blake2b(digest_size=16)
    h.update(b"dataset")
    h.update(str(ds.num_partitions).encode())
    for part in ds.iter_partitions():
        h.update(b"\x00")
        program._feed(h, part, set())
    return h.hexdigest()


_RNG = np.random.default_rng(0)

#: name -> rows; the uniform ones take the one-update path
_UNIFORM_ROWS = {
    "float64": [_RNG.standard_normal(5) for _ in range(7)],
    "float32": [_RNG.standard_normal(5).astype(np.float32) for _ in range(7)],
    "int": [np.arange(i, i + 4) for i in range(7)],
    "2d": [_RNG.standard_normal((3, 2)) for _ in range(7)],
    "non_contiguous": [_RNG.standard_normal((4, 6))[:, 1] for _ in range(7)],
}
_MIXED_ROWS = {
    "shapes": [np.zeros(3), np.zeros(4), np.zeros(3)],
    "dtypes": [np.zeros(3), np.zeros(3, np.float32), np.zeros(3)],
    "objects": [np.array([1, "a"], dtype=object) for _ in range(3)],
    "not_arrays": [np.zeros(3), [0.0, 0.0, 0.0], np.zeros(3)],
}


class TestDatasetFingerprint:
    """Uniform array partitions hash in one update, to the same digest."""

    def _fingerprint(self, monkeypatch, ds):
        """Digest of ``ds`` and how many array rows the generic walk fed."""
        rows = []
        feed = program._feed

        def spy(h, value, memo):
            if isinstance(value, np.ndarray):
                rows.append(value)
            feed(h, value, memo)

        monkeypatch.setattr(program, "_feed", spy)
        return dataset_fingerprint(ds), len(rows)

    @pytest.mark.parametrize("name", sorted(_UNIFORM_ROWS))
    @pytest.mark.parametrize("partitions", [1, 3, 10])
    def test_uniform_rows_match_generic_walk(self, name, partitions, monkeypatch):
        # Ten partitions over seven rows leaves three empty.
        ds = Context().parallelize(_UNIFORM_ROWS[name], partitions)
        expected = _generic_fingerprint(ds)
        assert self._fingerprint(monkeypatch, ds) == (expected, 0)

    @pytest.mark.parametrize("name", sorted(_MIXED_ROWS))
    def test_mixed_rows_take_generic_walk(self, name, monkeypatch):
        ds = Context().parallelize(_MIXED_ROWS[name], 1)
        expected = _generic_fingerprint(ds)
        digest, walked = self._fingerprint(monkeypatch, ds)
        assert digest == expected
        assert walked > 0


class TestContentAddressedLowering:
    def test_independent_builds_share_all_keys(self):
        wl = amazon_reviews(120, 12, vocab_size=200, seed=0)
        p1 = lower_inference_program(_fit_text(wl))
        p2 = lower_inference_program(_fit_text(wl))
        # Node ids differ (fresh DAG per fit); content keys agree.
        assert [op.node_id for op in p1] != [op.node_id for op in p2]
        assert [op.key for op in p1] == [op.key for op in p2]

    def test_parameter_change_flips_key_downstream_only(self):
        wl = amazon_reviews(120, 12, vocab_size=200, seed=0)
        keys1 = [op.key for op in lower_inference_program(_fit_text(wl))]
        keys2 = [op.key for op in lower_inference_program(_fit_text(wl, l2_reg=1.0))]
        # input .. fitted CommonSparseFeatures: identical prefix.
        assert keys1[:5] == keys2[:5]
        # solver and everything after it: flipped.
        assert keys1[5] != keys2[5]
        assert keys1[6] != keys2[6]

    def test_input_placeholder_key_is_constant(self):
        wl = timit_frames(60, 8, dim=12, num_classes=3, seed=0)
        ctx = Context()
        fitted = (
            Pipeline.identity()
            .and_then(Normalizer())
            .and_then(
                LinearSolver(),
                wl.train_data(ctx),
                wl.train_label_vectors(ctx),
            )
            .fit(level="none")
        )
        program = lower_inference_program(fitted)
        assert program.ops[program.input_slot].key == INPUT_KEY

    def test_lowering_is_topological_and_indexed(self):
        wl = amazon_reviews(100, 8, vocab_size=150, seed=0)
        fitted = _fit_text(wl)
        program = lower_inference_program(fitted)
        assert len(program) == len(g.ancestors([fitted.sink]))
        for op in program:
            assert all(p < op.slot for p in op.parents)
            assert program.slot_of(op.node_id) == op.slot
            assert program.key_of(op.node_id) == op.key
        assert program.sink_slot == program.slot_of(fitted.sink.id)

    def test_training_lowering_rejects_unbound_input(self):
        pipe = Pipeline.identity().and_then(LowerCase())
        with pytest.raises(UnshippableFlow, match="pipeline input"):
            lower_training_program([pipe.sink], source_of=lambda node: None)

    def test_training_lowering_skips_keys_unless_asked(self):
        wl = timit_frames(60, 8, dim=12, num_classes=3, seed=0)
        ctx = Context()
        fitted = (
            Pipeline.identity()
            .and_then(Normalizer())
            .and_then(
                LinearSolver(),
                wl.train_data(ctx),
                wl.train_label_vectors(ctx),
            )
            .fit(level="none")
        )
        data = ctx.parallelize(wl.test_items, 2)

        def source_of(node):
            return data if node.is_pipeline_input else None

        # Default: the shard path never reads keys, so none are hashed.
        program, sources = lower_training_program([fitted.sink], source_of=source_of)
        assert all(op.key == "" for op in program)
        assert set(sources) == {fitted.input_node.id}
        # Opt-in: the same walk produces addressable keys.
        keyed, _ = lower_training_program(
            [fitted.sink], source_of=source_of, compute_keys=True
        )
        assert all(op.key for op in keyed)


class TestOpProgramPickle:
    def test_program_roundtrips_and_replays(self):
        wl = amazon_reviews(120, 12, vocab_size=200, seed=0)
        fitted = _fit_text(wl)
        program = lower_inference_program(fitted)
        loaded = pickle.loads(pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL))
        assert [op.key for op in loaded] == [op.key for op in program]
        assert loaded.input_slot == program.input_slot
        assert loaded.root_slots == program.root_slots
        assert loaded.slot_of(fitted.sink.id) == program.sink_slot
        got = [InferencePlan(loaded).run_item(x) for x in wl.test_items]
        assert comparable(got) == comparable([fitted.apply(x) for x in wl.test_items])


# ----------------------------------------------------------------------
# Live lowering under one key rule
# ----------------------------------------------------------------------
#
# The reference below is a verbatim copy of the three key walks as they
# stood before lowering went live-only and before they shared
# ``program.node_key``: each walked every reachable node.  Every key the
# current walks emit must equal it byte for byte.


def _ref_training_keys(roots):
    keys = {}
    for node in g.reachable(roots):
        if node.is_pipeline_input:
            key = INPUT_KEY
        elif node.kind == g.SOURCE:
            key = op_key("source", None, (dataset_fingerprint(node.op),))
        elif node.kind == g.TRANSFORMER:
            key = op_key(TRANSFORM, node.op, (keys[node.parents[0].id],))
        elif node.kind == g.ESTIMATOR:
            key = op_key("estimator", node.op, tuple(keys[p.id] for p in node.parents))
        elif node.kind == g.APPLY:
            key = op_key("apply", None, tuple(keys[p.id] for p in node.parents))
        else:
            key = op_key(GATHER, None, tuple(keys[p.id] for p in node.parents))
        keys[node.id] = key
    return keys


def _ref_flow_keys(roots, claimed_key, model_of):
    """Lowered-op keys (and, with ``claimed_key`` hashing one partition,
    partition-flow keys): sources by ``claimed_key``, applies by their
    fitted model, estimators skipped."""
    keys = {}
    for node in g.reachable(roots):
        if node.kind == g.ESTIMATOR:
            continue
        claimed = claimed_key(node)
        if claimed is not None:
            key = claimed
        elif node.is_pipeline_input:
            key = INPUT_KEY
        elif node.kind == g.TRANSFORMER:
            key = op_key(TRANSFORM, node.op, (keys[node.parents[0].id],))
        elif node.kind == g.APPLY:
            model = model_of(node.parents[0])
            key = op_key(TRANSFORM, model, (keys[node.parents[1].id],))
        else:
            key = op_key(GATHER, None, tuple(keys[p.id] for p in node.parents))
        keys[node.id] = key
    return keys


def _text_kmeans(ctx):
    """The actor benchmark's shape: k-means over densified text features,
    so the k-means flow passes through CommonSparseFeatures' apply."""
    from repro.nodes.learning.kmeans import KMeansEstimator
    from repro.nodes.numeric import Densify

    wl = amazon_reviews(60, 8, vocab_size=150, seed=0)
    data = wl.train_data(ctx)
    pipe = (
        Pipeline.identity()
        .and_then(LowerCase())
        .and_then(Tokenizer())
        .and_then(TermFrequency(unit_weighting()))
        .and_then(CommonSparseFeatures(40), data)
        .and_then(Densify())
        .and_then(KMeansEstimator(3, max_iter=3, seed=7), data)
    )
    return pipe, wl.test_items


def _two_solver_chain(ctx):
    """A solver trained on another solver's output over text features."""
    wl = amazon_reviews(120, 16, vocab_size=200, seed=0)
    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    pipe = (
        Pipeline.identity()
        .and_then(LowerCase())
        .and_then(Tokenizer())
        .and_then(TermFrequency(lambda c: 1.0))
        .and_then(CommonSparseFeatures(120), data)
        .and_then(LinearSolver(), data, labels)
        .and_then(LinearSolver(l2_reg=1.0), data, labels)
        .and_then(MaxClassifier())
    )
    return pipe, wl.test_items


KEY_CASES = dict(SCENARIOS)
KEY_CASES["text_kmeans"] = _text_kmeans
KEY_CASES["two_solver_chain"] = _two_solver_chain


def _live_slots(program):
    live = set(program.root_slots)
    for op in reversed(program.ops):
        if op.slot in live:
            live.update(op.parents)
    return live


def _session(case, level):
    from repro.core.backends.base import TrainingSession

    pipe, _items = case(Context())
    passes = passes_for_level(level, sample_sizes=(20, 40))
    plan = Optimizer(passes).optimize(pipe, level=level)
    return plan, TrainingSession(plan, None)


class TestOneKeyRule:
    @pytest.mark.parametrize("level", ["none", "full"])
    @pytest.mark.parametrize("name", sorted(KEY_CASES))
    def test_every_walk_keys_like_the_reference(self, name, level):
        from repro.core.backends.actors import _lower_shard_program

        plan, session = _session(KEY_CASES[name], level)
        assert program.training_keys([plan.sink]) == _ref_training_keys([plan.sink])

        def model_of(node):
            return session.fitted.get(node.id)

        def bound_key(node):
            if node.kind != g.SOURCE or node.is_pipeline_input:
                return None
            fingerprint = dataset_fingerprint(session.dataset_of(node))
            return op_key("source", None, (fingerprint,))

        def part_key(node):
            if node.kind != g.SOURCE or node.is_pipeline_input:
                return None
            rows = node.op.partition(0)
            return op_key("part", None, (program.partition_fingerprint(rows),))

        for est in g.reachable([plan.sink], g.ESTIMATOR):
            roots = list(est.parents)
            shard, _sources = _lower_shard_program(roots, session, {})
            reference = _ref_flow_keys(roots, bound_key, model_of)
            assert shard.ops and all(op.key == reference[op.node_id] for op in shard)
            flow = program.partition_flow_keys(roots, 0, model_of=model_of)
            reference = _ref_flow_keys(roots, part_key, model_of)
            assert {r.id for r in roots} <= set(flow)
            assert flow == {nid: reference[nid] for nid in flow}
            session.fit_estimator(est)
        fitted = session.finish()
        inference = lower_inference_program(fitted)
        assert {op.node_id: op.key for op in inference} == _ref_flow_keys(
            [fitted.sink], lambda node: None, None
        )


class TestLiveLowering:
    @staticmethod
    def _assert_live(shard, sources):
        assert _live_slots(shard) == {op.slot for op in shard}
        assert set(sources) == {op.node_id for op in shard if op.kind == program.SOURCE}

    def test_amazon_solver_program_drops_the_featurizer_training_flow(self):
        """At level none the solver's flow reads CommonSparseFeatures'
        fitted model only, so that estimator's training flow is not
        lowered."""
        from repro.core.backends.actors import _lower_shard_program

        plan, session = _session(SCENARIOS["amazon"], "none")
        sizes = {}
        for est in g.reachable([plan.sink], g.ESTIMATOR):
            shard, sources = _lower_shard_program(list(est.parents), session, {})
            self._assert_live(shard, sources)
            sizes[est.label] = len(shard)
            session.fit_estimator(est)
        assert sizes == {"CommonSparseFeatures": 4, "LinearSolver": 6}

    def test_cached_two_solver_chain_on_actors(self, monkeypatch):
        """The second solver's program is its whole live flow (the
        parent no longer claims collected rows as a source); the
        featurized prefix the first solver's collect left in the
        workers' shard caches serves it."""
        from repro.core.backends import ActorBackend, actors

        lowered = []
        real = actors._lower_shard_program

        def recording(roots, session, memo):
            shard, sources = real(roots, session, memo)
            lowered.append((shard, sources))
            return shard, sources

        monkeypatch.setattr(actors, "_lower_shard_program", recording)
        pipe, items = _two_solver_chain(Context())
        plan = Optimizer(passes_for_level("full", sample_sizes=(20, 40))).optimize(pipe)
        fitted = plan.execute(backend=ActorBackend(workers=2, task_timeout=300.0))
        for shard, sources in lowered:
            self._assert_live(shard, sources)
        assert [len(shard) for shard, _ in lowered] == [4, 6, 7]
        assert fitted.training_report.shard_state_hits > 0
        expected = plan.execute()
        assert comparable([fitted.apply(x) for x in items]) == comparable(
            [expected.apply(x) for x in items]
        )


def _fit_vector(wl):
    """Dense pipeline whose every stage has a columnar kernel."""
    from repro.nodes.learning.random_features import CosineRandomFeatures

    ctx = Context()
    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    return (
        Pipeline.identity()
        .and_then(StandardScaler(), data)
        .and_then(CosineRandomFeatures(16, seed=1), data)
        .and_then(LinearSolver(), data, labels)
        .fit(level="none")
    )


class TestVectorizePass:
    def test_groups_kernel_runs_and_preserves_keys(self):
        wl = timit_frames(60, 10, dim=12, num_classes=3, seed=0)
        fitted = _fit_vector(wl)
        program = lower_inference_program(fitted)
        vectorized = VectorizePass().run(program)
        stages = [
            op for op in vectorized if getattr(op.op, "member_labels", ())
        ]
        assert len(stages) == 1
        stage = stages[0]
        assert len(stage.op.members) == len(program) - 1
        assert stage.label.startswith("kernel[")
        # A stage keeps its last member's key and node id, so the
        # rewrite is invisible to content-addressed lookups.
        assert stage.key == program.ops[program.sink_slot].key
        assert vectorized.key_of(fitted.sink.id) == program.key_of(
            fitted.sink.id
        )
        desc = vectorized.describe()
        assert "kernel[" in desc and "fold " in desc
        # And the lowered semantics are byte-identical per item.
        got = [InferencePlan(vectorized).run_item(x) for x in wl.test_items]
        assert comparable(got) == comparable(
            [fitted.apply(x) for x in wl.test_items]
        )

    def test_shared_slot_is_a_fusion_boundary(self):
        from repro.nodes.numeric import Normalizer as _N

        ops = [
            Op(0, 100, INPUT, None, (), "input", INPUT_KEY),
            Op(1, 101, TRANSFORM, _N(), (0,), "shared", "k1"),
            Op(2, 102, TRANSFORM, _N(), (1,), "left", "k2"),
            Op(3, 103, TRANSFORM, _N(), (1,), "right", "k3"),
        ]
        program = OpProgram(ops, input_slot=0, root_slots=(2, 3))
        vectorized = VectorizePass().run(program)
        # The shared slot feeds two consumers: nothing may fold across
        # it, so the op count is unchanged (each op wraps by itself).
        assert len(vectorized) == len(program)
        assert [op.key for op in vectorized] == [op.key for op in program]
        for op in vectorized:
            members = getattr(op.op, "members", ())
            assert len(members) <= 1
        item = np.arange(1.0, 5.0)
        before = InferencePlan(program).run_item(item)
        after = InferencePlan(vectorized).run_item(item)
        assert comparable([after]) == comparable([before])

    def test_kernel_stage_apply_matches_member_chain(self):
        wl = timit_frames(60, 10, dim=12, num_classes=3, seed=0)
        fitted = _fit_vector(wl)
        vectorized = VectorizePass().run(lower_inference_program(fitted))
        stage = next(
            op.op for op in vectorized if getattr(op.op, "members", ())
        )

        def chain(item):
            for member in stage.members:
                item = member.apply(item)
            return item

        expected = comparable([chain(x) for x in wl.test_items])
        assert comparable(
            [stage.apply(x) for x in wl.test_items]
        ) == expected
        assert comparable(stage.apply_partition(wl.test_items)) == expected

    def test_boundary_keys_split_stages(self):
        wl = timit_frames(60, 10, dim=12, num_classes=3, seed=0)
        fitted = _fit_vector(wl)
        program = lower_inference_program(fitted)
        # Pin the middle op (random features): it may end a stage but
        # never vanish into one — the serving cache's fold contract.
        middle = program.ops[2]
        vectorized = VectorizePass(boundaries={middle.key}).run(program)
        assert middle.key in {op.key for op in vectorized}
        stages = [op for op in vectorized if getattr(op.op, "members", ())]
        assert len(stages) == 2
        got = [InferencePlan(vectorized).run_item(x) for x in wl.test_items]
        assert comparable(got) == comparable(
            [fitted.apply(x) for x in wl.test_items]
        )

    @staticmethod
    def _text_program():
        wl = amazon_reviews(120, 12, vocab_size=200, seed=0)
        fitted = _fit_text(wl)
        program = lower_inference_program(fitted)
        tf = next(op for op in program if isinstance(op.op, TermFrequency))
        return wl, fitted, program, tf

    def test_term_frequency_folds_into_the_text_stage(self):
        wl, fitted, program, tf = self._text_program()
        vectorized = VectorizePass().run(program)
        stages = [op for op in vectorized if getattr(op.op, "members", ())]
        assert len(stages) == 1
        assert stages[0].op.member_labels[0] == tf.label
        assert stages[0].op.certified
        assert tf.key not in {op.key for op in vectorized}
        plan = InferencePlan(vectorized)
        assert comparable(plan.run_batch(wl.test_items)) == comparable(
            [fitted.apply(x) for x in wl.test_items]
        )

    def test_term_frequency_boundary_ends_a_stage(self):
        wl, fitted, program, tf = self._text_program()
        vectorized = VectorizePass(boundaries={tf.key}).run(program)
        stages = [op for op in vectorized if getattr(op.op, "members", ())]
        assert [s.op.member_labels[-1] == tf.label for s in stages] == [True, False]
        assert stages[0].key == tf.key
        # The stage ending at TermFrequency emits its dicts, key for key.
        docs = [Tokenizer().apply(LowerCase().apply(x)) for x in wl.test_items]
        rows = stages[0].op.apply_partition(docs)
        assert [list(r.items()) for r in rows] == [
            list(tf.op.apply(d).items()) for d in docs
        ]
        plan = InferencePlan(vectorized)
        assert comparable(plan.run_batch(wl.test_items)) == comparable(
            [fitted.apply(x) for x in wl.test_items]
        )


#: calls that run an operator, zip a gather or build a lineage step
_EXECUTION_NAMES = ("apply_partition", "zip_rows", "zip_gather", "map_partitions")


def _op_execution_calls(tree: ast.AST):
    """Line numbers of ``.op.apply(`` calls and of calls to any of
    :data:`_EXECUTION_NAMES`, bare or as attributes."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _EXECUTION_NAMES:
                yield node.lineno
        elif isinstance(func, ast.Attribute):
            if func.attr in _EXECUTION_NAMES:
                yield node.lineno
            elif func.attr == "apply" and getattr(func.value, "attr", "") == "op":
                yield node.lineno


class TestOneEvaluator:
    def test_only_interp_runs_operators_and_zips_gathers(self):
        """The program's consumers — serving compiler, replica workers,
        actor workers, the actor backend's parent side, the training
        session and batch inference — never run an op's operator, zip a
        gather or build a lineage step themselves: that happens in
        ``core/interp.py`` only.

        Out of scope on purpose: ``core/program.py`` lowering and passes,
        ``KernelStage``/``FusedTransformer`` internals (they *are*
        operators), ``recursive_apply_item`` (the reference the
        evaluator is tested against) and the profiler's sampling walk
        (``core/profiler.py``).  Kind tests such as
        ``op.kind != GATHER`` are not execution.
        """
        root = pathlib.Path(repro.__file__).parent

        def parse(rel):
            return ast.parse((root / rel).read_text(), filename=rel)

        def member(tree, *path):
            for name in path:
                tree = next(
                    n
                    for n in ast.iter_child_nodes(tree)
                    if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                    and n.name == name
                )
            return tree

        scopes = [
            (rel, parse(rel))
            for rel in (
                "serving/compiler.py",
                "serving/replicas.py",
                "runtime/worker.py",
                "core/backends/actors.py",
            )
        ]
        scopes.append(
            ("TrainingSession", member(parse("core/backends/base.py"), "TrainingSession"))
        )
        scopes.append(
            (
                "FittedPipeline.apply_dataset",
                member(parse("core/pipeline.py"), "FittedPipeline", "apply_dataset"),
            )
        )
        offenders = [
            f"{name}:{line}" for name, tree in scopes for line in _op_execution_calls(tree)
        ]
        assert offenders == []
        interp_tree = ast.parse((root / "core/interp.py").read_text())
        assert list(_op_execution_calls(interp_tree))  # the guard sees them
