"""The certified kernel path: dense argmax stages batch their GEMMs by proof.

A kernel stage that ends in ``MaxClassifier`` runs its dense matmuls as
one BLAS GEMM per micro-batch and certifies each row's class id against
an error bound (``repro.core.kernels``); rows it cannot certify run the
exact path.  These tests pin the three things that must hold:

- **identity** — served ids equal ``recursive_apply_item`` at every batch
  size, cache on and off, replicated, and on adversarial inputs (exact
  ties, near ties, NaN/inf rows);
- **soundness** — every bounded kernel's reported bound covers the
  distance to the per-item reference, elementwise, across magnitudes and
  widths (and to a ``np.longdouble`` product);
- **structure** — gathered branches fold into one stage, while headless
  plans, cache-marked keys and non-kernel branches keep today's shape.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import recursive_apply_item
from repro.core.kernels import (
    DENSE,
    ChainKernel,
    FoldedGather,
    KernelStage,
    LinearMapKernel,
)
from repro.core.operators import Transformer
from repro.core.pipeline import Pipeline
from repro.core.program import GATHER, VectorizePass, lower_inference_program
from repro.nodes.learning.linear import LinearMapper
from repro.nodes.learning.pca import PCATransformer
from repro.nodes.learning.random_features import RandomFeaturesTransformer
from repro.nodes.numeric import (
    Cacher,
    ClipTransformer,
    MaxClassifier,
    StandardScalerTransformer,
    VectorCombiner,
)
from repro.obs import trace as obs_trace
from repro.serving import ModelServer, ServingCache, compile_inference_plan, fingerprint

DIM, BLOCKS, BLOCK, CLASSES = 24, 3, 32, 6


def _model(seed=0, head=None, intercept=None, argmax=True, last_branch=None):
    """A TIMIT-shaped model: gathered random-feature blocks, a linear head.

    ``head``/``intercept`` override the head's weights; ``last_branch``
    maps the last feature branch's transformer to that branch's steps.
    """
    rng = np.random.default_rng(seed)
    branches = []
    for i in range(BLOCKS):
        rf = RandomFeaturesTransformer(
            rng.standard_normal((DIM, BLOCK)) * 0.3,
            rng.uniform(0, 2 * np.pi, BLOCK),
        )
        steps = [rf] if last_branch is None or i < BLOCKS - 1 else last_branch(rf)
        branch = Pipeline.identity()
        for step in steps:
            branch = branch.and_then(step)
        branches.append(branch)
    if head is None:
        head = rng.standard_normal((BLOCKS * BLOCK, CLASSES)) * 3.0
    if intercept is None:
        intercept = rng.standard_normal(CLASSES)
    pipe = (
        Pipeline.gather(branches)
        .and_then(VectorCombiner())
        .and_then(LinearMapper(head, intercept))
    )
    if argmax:
        pipe = pipe.and_then(MaxClassifier())
    return pipe.fit(level="none")


def _items(n, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(DIM) * 2.0 for _ in range(n)]


def _reference(fitted, items):
    return [recursive_apply_item(fitted, x) for x in items]


def _batched(plan, items, size):
    out = []
    for start in range(0, len(items), size):
        out.extend(plan.run_batch(items[start : start + size]))
    return out


def _stage_counts(plan, items, size):
    """Served ids plus the certified / fallback rows the spans report."""
    tracer = obs_trace.enable()
    try:
        got = _batched(plan, items, size)
    finally:
        obs_trace.disable()
    spans = [s["args"] for s in tracer.spans if s["name"] == "kernel.stage"]
    return (
        got,
        sum(s["certified"] for s in spans),
        sum(s["fallback"] for s in spans),
    )


def _bytes(rows):
    return [(r.dtype, r.shape, r.tobytes()) for r in map(np.asarray, rows)]


def _tied_head(eps):
    """Head weights whose class 4 duplicates class 1, ``eps`` apart."""
    rng = np.random.default_rng(3)
    head = rng.standard_normal((BLOCKS * BLOCK, CLASSES)) * 3.0
    intercept = rng.standard_normal(CLASSES)
    head[:, 4] = head[:, 1] + eps
    intercept[4] = intercept[1]
    return head, intercept


@pytest.fixture(scope="module")
def model():
    fitted = _model()
    items = _items(130)
    return fitted, items, _reference(fitted, items)


class TestIdentity:
    @pytest.mark.parametrize("size", [1, 2, 5, 21, 64])
    def test_run_batch_matches_reference(self, model, size):
        fitted, items, expected = model
        plan = compile_inference_plan(fitted, vectorize=True)
        got, certified, fallback = _stage_counts(plan, items, size)
        assert got == expected
        assert all(type(v) is int for v in got)
        assert certified + fallback == len(items)
        assert certified > 0

    @pytest.mark.parametrize("budget", [0.0, 1e7], ids=["cache-off", "cache-on"])
    def test_served_matches_reference(self, model, budget):
        fitted, items, expected = model
        server = ModelServer(max_batch=21, max_delay_ms=5.0, cache_budget_bytes=budget)
        with server:
            server.register("m", fitted, warmup_items=items[:4])
            assert server.predict_many("m", items) == expected
            assert server.predict_many("m", items) == expected

    def test_replicas_match_reference(self, model):
        fitted, items, expected = model
        server = ModelServer(replicas=2, max_batch=21, max_delay_ms=5.0)
        try:
            server.start()
            server.register("m", fitted)
            assert server.predict_many("m", items) == expected
        finally:
            server.close()

    def test_exact_tie_falls_back_and_first_index_wins(self):
        head, intercept = _tied_head(0.0)
        fitted = _model(head=head, intercept=intercept)
        scores = _model(head=head, intercept=intercept, argmax=False)
        # Keep rows that tie exactly or win clearly, so the expected
        # fallback count does not depend on the bound's size.
        items, tied = [], 0
        for x in _items(400, seed=4):
            top2 = np.sort(recursive_apply_item(scores, x))[-2:]
            margin = top2[1] - top2[0]
            if margin == 0.0 or margin > 0.05:
                items.append(x)
                tied += margin == 0.0
        expected = _reference(fitted, items)
        assert tied > 0 and 4 not in expected
        plan = compile_inference_plan(fitted, vectorize=True)
        got, certified, fallback = _stage_counts(plan, items, 21)
        assert got == expected
        assert fallback == tied
        assert certified == len(items) - tied

    @pytest.mark.parametrize("eps", [1e-15, 1e-13, 1e-11, 1e-9])
    def test_near_tie_stays_identical(self, eps):
        head, intercept = _tied_head(eps)
        fitted = _model(head=head, intercept=intercept)
        items = _items(200, seed=5)
        plan = compile_inference_plan(fitted, vectorize=True)
        expected = _reference(fitted, items)
        for size in (1, 5, 21, 64):
            assert _batched(plan, items, size) == expected

    def test_non_finite_rows_fall_back(self, model):
        fitted, items, _ = model
        items = [x.copy() for x in items[:40]]
        for i, bad in ((3, np.nan), (11, np.inf), (20, -np.inf), (33, np.nan)):
            items[i][i % DIM] = bad
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = _reference(fitted, items)
            plan = compile_inference_plan(fitted, vectorize=True)
            got, _certified, fallback = _stage_counts(plan, items, 21)
        assert got == expected
        assert fallback >= 4

    def test_overflowing_scores_fall_back(self):
        """A score that overflows to inf next to a finite bound (here the
        intercept pushes it past the float64 range) never certifies."""
        head = np.random.default_rng(6).standard_normal((DIM, CLASSES))
        head[:, 2] = 1e153
        intercept = np.zeros(CLASSES)
        intercept[2] = 1.7e308
        fitted = (
            Pipeline.identity()
            .and_then(LinearMapper(head, intercept))
            .and_then(MaxClassifier())
            .fit(level="none")
        )
        items = [np.abs(x) for x in _items(30, seed=7)]
        for x in items[::3]:
            x[:] = 2e153
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = _reference(fitted, items)
            plan = compile_inference_plan(fitted, vectorize=True)
            got, certified, fallback = _stage_counts(plan, items, 30)
        assert got == expected
        assert fallback == len(items[::3]) and certified == len(items) - fallback


def _magnitudes(seed, shape, exponent):
    return np.random.default_rng(seed).standard_normal(shape) * 10.0**exponent


class TestBoundSoundness:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.sampled_from([1, 7, 440, 2048]),
        rows=st.integers(1, 12),
        k=st.integers(1, 6),
        x_exp=st.integers(-3, 3),
        w_exp=st.integers(-3, 3),
        seed=st.integers(0, 2**16),
    )
    def test_gemm_bound_covers_per_row_gemv(self, d, rows, k, x_exp, w_exp, seed):
        x = _magnitudes(seed, (rows, d), x_exp)
        w = _magnitudes(seed + 1, (d, k), w_exp)
        b = _magnitudes(seed + 2, (1, k), w_exp)[0]
        form, fast, bound = LinearMapKernel(w, b).bounded(DENSE, x, None)
        assert form == DENSE
        err = bound.dense()
        gemv = np.vstack([row @ w + b for row in x])
        assert np.all(np.abs(fast - gemv) <= err)
        exact = x.astype(np.longdouble) @ w.astype(np.longdouble) + b
        assert np.all(np.abs(fast - exact) <= err)

    @pytest.mark.parametrize(
        "tail",
        [
            [],
            [StandardScalerTransformer(np.full(CLASSES, 0.5), np.full(CLASSES, 0.3))],
            [ClipTransformer(-1.0, 1.0)],
            [
                PCATransformer(
                    np.random.default_rng(9).standard_normal((CLASSES, 3)),
                    np.full(CLASSES, 0.1),
                )
            ],
        ],
        ids=["linear", "scaler", "clip", "pca"],
    )
    @pytest.mark.parametrize("scale", [1.0, 300.0])
    def test_chain_bound_covers_reference(self, tail, scale):
        """Gather -> hstack -> head -> any dense tail: the propagated
        bound covers the per-item chain, elementwise (at ``scale`` 300
        the float32 rounding of cos arguments outgrows the allowance)."""
        fitted = _model(argmax=False)
        plan = compile_inference_plan(fitted, vectorize=True)
        stage = plan.ops[-1].op
        members = stage.members + tail
        chain = KernelStage(members, [type(m).__name__ for m in members])
        items = [x * scale for x in _items(64, seed=10)]
        form, fast, bound = ChainKernel(chain.kernels()).bounded(
            DENSE, np.vstack(items), None
        )
        reference = np.vstack([chain.apply(x) for x in items])
        assert np.all(np.abs(fast - reference) <= bound.dense())


class NoKernel(Transformer):
    """Wraps a transformer, hiding its columnar kernel."""

    def __init__(self, inner):
        self.inner = inner

    def apply(self, row):
        return self.inner.apply(row)


class TestFoldStructure:
    def test_gathered_model_lowers_to_one_certified_stage(self, model):
        fitted, items, expected = model
        plan = compile_inference_plan(fitted, vectorize=True)
        assert len(plan) == 2
        stage = plan.ops[1].op
        assert stage.certified
        assert isinstance(stage.members[0], FoldedGather)
        assert len(stage.members[0].branches) == BLOCKS
        assert plan.ops[1].key == plan.program.ops[-1].key
        assert plan.key_of(fitted.sink.id) == (
            compile_inference_plan(fitted).key_of(fitted.sink.id)
        )
        assert [stage.apply(x) for x in items] == expected

    def test_headless_plan_keeps_the_exact_path(self):
        fitted = _model(argmax=False)
        items = _items(50)
        plan = compile_inference_plan(fitted, vectorize=True)
        stage = plan.ops[-1].op
        assert not stage.certified
        assert "[certified]" not in plan.describe()
        got, certified, fallback = _stage_counts(plan, items, 21)
        assert certified == fallback == 0
        assert _bytes(got) == _bytes(fitted.apply(x) for x in items)

    def test_cache_marked_feature_key_stops_the_fold(self, model):
        fitted, items, expected = model
        program = lower_inference_program(fitted)
        feature_key = next(
            op.key for op in program if isinstance(op.op, RandomFeaturesTransformer)
        )
        vectorized = VectorizePass(boundaries={feature_key}).run(program)
        assert feature_key in {op.key for op in vectorized}
        assert any(op.kind == GATHER for op in vectorized)
        plan = compile_inference_plan(
            fitted, vectorize=True, vectorize_boundaries={feature_key}
        )
        cache = ServingCache(budget_bytes=1e7, keys={feature_key})
        plan.attach_cache(cache)
        fps = [fingerprint(x) for x in items]
        assert plan.run_batch(items, fps) == expected
        assert cache.hits == 0 and len(cache) == len(items)
        assert plan.run_batch(items, fps) == expected
        assert cache.hits == len(items)

    @pytest.mark.parametrize(
        "last_branch",
        [lambda rf: [NoKernel(rf)], lambda rf: [Cacher(), rf]],
        ids=["non-kernel-branch", "branch-from-another-slot"],
    )
    def test_gather_with_a_non_kernel_branch_does_not_fold(self, last_branch):
        fitted = _model(last_branch=last_branch)
        items = _items(60)
        plan = compile_inference_plan(fitted, vectorize=True)
        assert any(op.kind == GATHER for op in plan.ops)
        tail = plan.ops[-1].op
        assert tail.certified and not isinstance(tail.members[0], FoldedGather)
        assert _batched(plan, items, 21) == _reference(fitted, items)


class TestObservability:
    def test_describe_renders_branches_and_marks_certified(self, model):
        fitted, _, _ = model
        plan = compile_inference_plan(fitted, vectorize=True)
        desc = plan.describe()
        assert "[certified]" in desc
        assert "fold gather" in desc
        for i in range(BLOCKS):
            assert f"branch {i}:" in desc
        assert "[certified]" in plan.program.describe()

    def test_stage_span_reports_row_counts(self, model):
        fitted, items, _ = model
        plan = compile_inference_plan(fitted, vectorize=True)
        tracer = obs_trace.enable()
        try:
            plan.run_batch(items[:17])
        finally:
            obs_trace.disable()
        (span,) = [s for s in tracer.spans if s["name"] == "kernel.stage"]
        assert span["args"]["batch"] == 17
        assert span["args"]["certified"] + span["args"]["fallback"] == 17
