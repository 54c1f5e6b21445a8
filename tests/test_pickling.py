"""Pickle round-trip contracts: the prerequisite for process workers.

ActorBackend ships operators, fitted models and plan fragments
across a spawn boundary, so everything the training/inference DAGs carry
must survive ``pickle.dumps``/``loads`` with byte-identical behaviour:

- every registry workload's ``FittedPipeline`` round-trips and predicts
  byte-identically (single-item and batch);
- a ``PhysicalPlan`` annotated by each pass stack (none / pipe / full /
  full+sharding) round-trips — decision log, profile, cache set, shard
  roles intact — and the unpickled plan *trains* to byte-identical
  predictions;
- datasets pickle by materializing their partitions (lineage is
  process-local by design);
- small user functions (the paper's ``x => 1`` weighting lambda) pack
  through :mod:`repro.core.serde`;
- a lowered :class:`~repro.core.program.OpProgram` — the actor
  backend's wire format — round-trips with content keys, slots and
  byte-identical replay intact.
"""

import pickle

import pytest

from repro.core.optimizer import Optimizer, passes_for_level
from repro.core.passes import ShardingPass
from repro.core.serde import pack_callable, unpack_callable
from repro.dataset import Context
from repro.nodes.text import TermFrequency
from repro.workloads import amazon_reviews
from workload_scenarios import SCENARIOS, comparable


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class TestFittedPipelineRoundTrip:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_registry_fitted_pipelines_roundtrip(self, name):
        pipe, items = SCENARIOS[name](Context())
        fitted = pipe.fit(level="none")
        expected = comparable([fitted.apply(x) for x in items])

        loaded = roundtrip(fitted)
        assert comparable([loaded.apply(x) for x in items]) == expected
        batch = loaded.apply_dataset(Context().parallelize(items, 3))
        assert comparable(batch.collect()) == expected

    def test_roundtrip_twice_is_stable(self):
        """The first round-trip materializes lazily-built state; a second
        one must behave identically (no one-shot __getstate__)."""
        pipe, items = SCENARIOS["timit"](Context())
        fitted = pipe.fit(level="none")
        expected = comparable([fitted.apply(x) for x in items])
        loaded = roundtrip(roundtrip(fitted))
        assert comparable([loaded.apply(x) for x in items]) == expected


def _text_builder(ctx, wl):
    from workload_scenarios import _text_pipeline

    return _text_pipeline(ctx, wl)


PASS_STACKS = {
    "none": lambda: passes_for_level("none"),
    "pipe": lambda: passes_for_level("pipe", sample_sizes=(20, 40)),
    "full": lambda: passes_for_level("full", sample_sizes=(20, 40)),
    "full+sharding": lambda: (passes_for_level("full", sample_sizes=(20, 40))
                              + [ShardingPass(workers=4)]),
}


class TestPlanStateRoundTrip:
    @pytest.mark.parametrize("stack", sorted(PASS_STACKS))
    def test_annotated_plan_roundtrips_and_trains(self, stack):
        wl = amazon_reviews(120, 12, vocab_size=200, seed=0)
        plan = Optimizer(PASS_STACKS[stack]()).optimize(
            _text_builder(Context(), wl))
        expected = comparable(plan.execute().apply_dataset(
            wl.test_data(Context())).collect())

        loaded = roundtrip(plan)
        state = loaded.state
        assert loaded.passes == plan.passes
        assert [d.name for d in state.decisions] == \
            [d.name for d in plan.state.decisions]
        assert state.cache_ids == plan.state.cache_ids
        assert state.shard_workers == plan.state.shard_workers
        assert state.shard_roles == plan.state.shard_roles
        if plan.profile is not None:
            assert set(state.profile.nodes) == set(plan.profile.nodes)
        assert loaded.explain() == plan.explain()

        got = comparable(loaded.execute().apply_dataset(
            wl.test_data(Context())).collect())
        assert got == expected


class TestOpProgramRoundTrip:
    @pytest.mark.parametrize("name", ["amazon", "timit"])
    def test_lowered_program_roundtrips(self, name):
        from repro.core.program import lower_inference_program
        from repro.serving.compiler import InferencePlan

        pipe, items = SCENARIOS[name](Context())
        fitted = pipe.fit(level="none")
        program = lower_inference_program(fitted)
        loaded = roundtrip(program)
        assert [op.key for op in loaded] == [op.key for op in program]
        assert [op.slot for op in loaded] == [op.slot for op in program]
        assert loaded.root_slots == program.root_slots
        assert loaded.input_slot == program.input_slot
        got = comparable([InferencePlan(loaded).run_item(x) for x in items])
        assert got == comparable([fitted.apply(x) for x in items])


class TestDatasetPickling:
    def test_materializes_partitions(self):
        ctx = Context()
        ds = ctx.parallelize(list(range(20)), 5).map(lambda x: x * x)
        loaded = roundtrip(ds)
        assert loaded.num_partitions == 5
        assert loaded.collect() == [x * x for x in range(20)]
        # Pulls must not alias internal storage.
        first = loaded.partition(0)
        first.append(999)
        assert loaded.partition(0) == [0, 1, 4, 9]


class TestCallablePacking:
    def test_plain_function_passes_through(self):
        tag, payload = pack_callable(len)
        assert tag == "pickle" and payload is len

    def test_lambda_roundtrips(self):
        packed = roundtrip(pack_callable(lambda c: 1.0))
        assert unpack_callable(packed)(7) == 1.0

    def test_closure_over_plain_data_roundtrips(self):
        scale = 3.0
        packed = roundtrip(pack_callable(lambda x: x * scale))
        assert unpack_callable(packed)(2) == 6.0

    def test_keyword_only_defaults_survive(self):
        packed = roundtrip(pack_callable(lambda c, *, base=2.0: c * base))
        fn = unpack_callable(packed)
        assert fn(3) == 6.0
        assert fn(3, base=10.0) == 30.0

    def test_closure_over_unpicklable_state_raises(self):
        import threading

        lock = threading.Lock()
        with pytest.raises(TypeError, match="closes over"):
            pack_callable(lambda x: (lock, x))

    def test_term_frequency_lambda_weighting(self):
        tf = roundtrip(TermFrequency(lambda c: float(c > 1)))
        assert tf.apply(["a", "a", "b"]) == {"a": 1.0, "b": 0.0}
