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
- **lowering passes** — ``LoweringPass`` hands ``ProgramPass`` rewrites
  over via ``PlanState``; dead-op elimination drops unreachable slots
  without changing root outputs.
"""

import ast
import pathlib
import pickle

import numpy as np
import pytest

import repro
from repro.core import graph as g
from repro.core.optimizer import Optimizer, passes_for_level
from repro.core.passes import LoweringPass
from repro.core.pipeline import Pipeline
from repro.core.program import (
    GATHER,
    INPUT,
    INPUT_KEY,
    TRANSFORM,
    DeadOpElimination,
    Op,
    OpProgram,
    ProgramPass,
    UnshippableFlow,
    VectorizePass,
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
from repro.serving.compiler import InferencePlan, compile_inference_plan
from repro.workloads import amazon_reviews, timit_frames
from workload_scenarios import comparable


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
        # of one codebase — the contract GridSearch(incremental=True)
        # and refit() rely on.
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


def _echo(slot, parents, key, label="t"):
    class _Plus(object):
        def __init__(self, delta):
            self.delta = delta

        def apply(self, item):
            return item + self.delta

        def apply_partition(self, items):
            return [item + self.delta for item in items]

    return Op(slot, 100 + slot, TRANSFORM, _Plus(slot), parents, label, key)


class TestProgramPasses:
    def _program_with_dead_op(self):
        ops = [
            Op(0, 100, INPUT, None, (), "input", INPUT_KEY),
            _echo(1, (0,), "k1"),
            _echo(2, (0,), "k2-dead"),
            _echo(3, (1,), "k3"),
        ]
        return OpProgram(ops, input_slot=0, root_slots=(3,))

    def test_dead_op_elimination_drops_and_renumbers(self):
        program = self._program_with_dead_op()
        before = InferencePlan(program).run_item(10)
        pruned = DeadOpElimination().run(program)
        assert len(pruned) == 3
        assert [op.key for op in pruned] == [INPUT_KEY, "k1", "k3"]
        assert pruned.input_slot == 0
        assert pruned.sink_slot == 2
        for op in pruned:
            assert all(p < op.slot for p in op.parents)
        assert InferencePlan(pruned).run_item(10) == before
        assert InferencePlan(pruned).run_batch([10, 20]) == [
            before,
            InferencePlan(program).run_item(20),
        ]

    def test_live_program_is_returned_unchanged(self):
        wl = amazon_reviews(100, 8, vocab_size=150, seed=0)
        program = lower_inference_program(_fit_text(wl))
        assert DeadOpElimination().run(program) is program

    def test_lowering_pass_hands_off_via_plan_state(self):
        wl = amazon_reviews(120, 12, vocab_size=200, seed=0)
        ctx = Context()
        data = wl.train_data(ctx)
        labels = wl.train_label_vectors(ctx)
        pipe = (
            Pipeline.identity()
            .and_then(LowerCase())
            .and_then(Tokenizer())
            .and_then(TermFrequency(lambda c: 1.0))
            .and_then(CommonSparseFeatures(80), data)
            .and_then(LinearSolver(), data, labels)
            .and_then(MaxClassifier())
        )
        passes = passes_for_level("none") + [LoweringPass()]
        plan = Optimizer(passes).optimize(pipe)
        assert [p.name for p in plan.state.program_passes] == ["DeadOpElimination"]
        assert "program_passes=['DeadOpElimination']" in plan.explain()
        fitted = plan.execute()
        assert [p.name for p in fitted.program_passes] == ["DeadOpElimination"]
        # The compiled plan went through the registered rewrites and
        # still matches the un-lowered reference byte for byte.
        compiled = compile_inference_plan(fitted)
        got = [compiled.run_item(x) for x in wl.test_items]
        assert comparable(got) == comparable([fitted.apply(x) for x in wl.test_items])

    def test_custom_program_pass_applies_at_compile(self):
        class CountOps(ProgramPass):
            seen = []

            def run(self, program):
                CountOps.seen.append(len(program))
                return program

        wl = amazon_reviews(100, 8, vocab_size=150, seed=0)
        ctx = Context()
        data = wl.train_data(ctx)
        labels = wl.train_label_vectors(ctx)
        pipe = (
            Pipeline.identity()
            .and_then(LowerCase())
            .and_then(Tokenizer())
            .and_then(TermFrequency(lambda c: 1.0))
            .and_then(CommonSparseFeatures(60), data)
            .and_then(LinearSolver(), data, labels)
        )
        passes = passes_for_level("none") + [
            LoweringPass(program_passes=[CountOps()])
        ]
        fitted = Optimizer(passes).optimize(pipe).execute()
        fitted.inference_plan()
        assert CountOps.seen, "pass must run when the plan is lowered"

    def test_lowering_pass_rejects_non_program_passes(self):
        with pytest.raises(TypeError, match="ProgramPass"):
            LoweringPass(program_passes=[object()])

    def test_op_removing_pass_keeps_warmup_registration_working(self):
        """A rewrite that drops ops (fusing the head pair) must not break
        warmup-based cache selection or serving — the plan may cover
        fewer node ids than the DAG has ancestors."""
        from repro.core.backends import recursive_apply_item
        from repro.core.fusion import FusedTransformer
        from repro.serving import ModelServer

        class FuseHead(ProgramPass):
            """Fuse the sink transform into its transform parent."""

            def run(self, program):
                sink = program.ops[program.sink_slot]
                parent = program.ops[sink.parents[0]]
                fusable = (
                    sink.kind == TRANSFORM
                    and parent.kind == TRANSFORM
                    and sink.slot == len(program) - 1
                )
                if not fusable:
                    return program
                fused = Op(
                    parent.slot,
                    parent.node_id,
                    TRANSFORM,
                    FusedTransformer([parent.op, sink.op]),
                    parent.parents,
                    f"{parent.label}+{sink.label}",
                    sink.key,
                )
                ops = [
                    fused if op.slot == parent.slot else op
                    for op in program.ops
                    if op.slot != sink.slot
                ]
                return OpProgram(
                    ops,
                    input_slot=program.input_slot,
                    root_slots=(parent.slot,),
                )

        wl = amazon_reviews(100, 10, vocab_size=150, seed=0)
        ctx = Context()
        data = wl.train_data(ctx)
        labels = wl.train_label_vectors(ctx)
        pipe = (
            Pipeline.identity()
            .and_then(LowerCase())
            .and_then(Tokenizer())
            .and_then(TermFrequency(lambda c: 1.0))
            .and_then(CommonSparseFeatures(60), data)
            .and_then(LinearSolver(), data, labels)
            .and_then(MaxClassifier())
        )
        passes = passes_for_level("none") + [
            LoweringPass(program_passes=[FuseHead()])
        ]
        fitted = Optimizer(passes).optimize(pipe).execute()
        plan = fitted.inference_plan()
        assert len(plan) == len(g.ancestors([fitted.sink])) - 1
        expected = [recursive_apply_item(fitted, x) for x in wl.test_items]
        assert [plan.run_item(x) for x in wl.test_items] == expected
        server = ModelServer(max_batch=4, cache_budget_bytes=1e7)
        with server:
            server.register("m", fitted, warmup_items=wl.test_items[:3])
            assert server.predict_many("m", wl.test_items) == expected
            again = server.predict_many("m", wl.test_items)
            assert again == expected


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


def _structure(program):
    """Everything VectorizePass commutation cares about, hashable-ish."""
    return (
        [
            (op.slot, op.kind, op.parents, op.label, op.key, op.node_id)
            for op in program.ops
        ],
        program.input_slot,
        program.root_slots,
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

    def test_commutes_with_dead_op_elimination(self):
        wl = timit_frames(60, 10, dim=12, num_classes=3, seed=0)
        program = lower_inference_program(_fit_vector(wl))
        dead = _echo(len(program.ops), (0,), "k-dead", label="dead")
        with_dead = OpProgram(
            list(program.ops) + [dead],
            input_slot=program.input_slot,
            root_slots=program.root_slots,
        )
        dce_first = VectorizePass().run(
            DeadOpElimination().run(with_dead)
        )
        vp_only = VectorizePass().run(with_dead)
        dce_last = DeadOpElimination().run(vp_only)
        assert _structure(dce_first) == _structure(vp_only)
        assert _structure(dce_last) == _structure(vp_only)

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

    def test_registers_with_lowering_pass(self):
        wl = timit_frames(60, 10, dim=12, num_classes=3, seed=0)
        from repro.nodes.learning.random_features import CosineRandomFeatures

        ctx = Context()
        data = wl.train_data(ctx)
        labels = wl.train_label_vectors(ctx)
        pipe = (
            Pipeline.identity()
            .and_then(StandardScaler(), data)
            .and_then(CosineRandomFeatures(16, seed=1), data)
            .and_then(LinearSolver(), data, labels)
        )
        passes = passes_for_level("none") + [
            LoweringPass(program_passes=[DeadOpElimination(), VectorizePass()])
        ]
        fitted = Optimizer(passes).optimize(pipe).execute()
        assert [p.name for p in fitted.program_passes] == [
            "DeadOpElimination",
            "VectorizePass",
        ]
        # The registered pass applies even with the serving knob off...
        cold = compile_inference_plan(fitted, vectorize=False)
        assert "kernel[" in cold.describe()
        # ...and the knob does not double-wrap an already lowered program.
        warm = compile_inference_plan(fitted, vectorize=True)
        assert len(warm) == len(cold)
        got = [warm.run_item(x) for x in wl.test_items]
        assert comparable(got) == comparable(
            [fitted.apply(x) for x in wl.test_items]
        )

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


def _op_execution_calls(tree: ast.AST):
    """Line numbers of ``.apply_partition(``, ``.op.apply(`` and ``zip_rows(`` calls."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "zip_rows":
                yield node.lineno
        elif isinstance(func, ast.Attribute):
            if func.attr in ("apply_partition", "zip_rows"):
                yield node.lineno
            elif func.attr == "apply" and getattr(func.value, "attr", "") == "op":
                yield node.lineno


class TestOneEvaluator:
    def test_only_interp_runs_operators_and_zips_gathers(self):
        """The program's consumers — serving compiler, replica workers,
        actor workers, the actor backend's parent side — never run an
        op's operator or zip a gather themselves: that happens in
        ``core/interp.py`` only.

        Out of scope on purpose: ``core/program.py`` lowering and passes,
        ``KernelStage``/``FusedTransformer`` internals (they *are*
        operators), and the DAG-level walks (``core/profiler.py``,
        ``TrainingSession``, ``recursive_apply_item``), which execute
        lazy datasets or serve as the reference, not a lowered program.
        Kind tests such as ``op.kind != GATHER`` are not execution.
        """
        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for rel in (
            "serving/compiler.py",
            "serving/replicas.py",
            "runtime/worker.py",
            "core/backends/actors.py",
        ):
            tree = ast.parse((root / rel).read_text(), filename=rel)
            offenders.extend(f"{rel}:{line}" for line in _op_execution_calls(tree))
        assert offenders == []
        interp_tree = ast.parse((root / "core/interp.py").read_text())
        assert list(_op_execution_calls(interp_tree))  # the guard sees them
