"""Kernel-lowered serving: columnar execution that never changes a byte.

Part 1 trains a *headless* text pipeline (raw score vectors, no
classification head) and serves it through the kernel-lowered path
``ModelServer`` always takes: ``VectorizePass`` folds the kernel-capable
op run into one columnar ``KernelStage`` that executes the whole
micro-batch as a handful of numpy calls.  The per-op interpreter plan
(``compile_inference_plan(fitted, vectorize=False)``) is the baseline
it is compared against.

Part 2 trains a dense TIMIT-style frame classifier (gathered random
cosine features, a linear map, an arg-max head).  The whole model folds
into one *certified* stage: its matmuls run as one BLAS GEMM per batch,
and the head proves each class id equal to the per-item reference from
an error bound — rows it cannot prove are recomputed exactly.

The smoke run gates the claims:

- **batch invariance** — kernel-served batched predictions are
  byte-identical to ``fitted.apply`` per item: raw score vectors in
  part 1, class ids in part 2;
- **throughput** — on the sparse text featurization chain, the columnar
  path beats the interpreter; on the dense model, the certified stage
  beats the exact per-row kernel stage of the same model without its
  head.

Run:  python examples/kernel_serving.py
"""

import os
import time

# One BLAS thread (set before numpy loads it), as in the observatory: on
# a busy machine a threaded GEMM waits on scheduling, and the timings
# would compare thread wake-ups instead of kernels.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from repro import Context, ModelServer, Pipeline  # noqa: E402
from repro.nodes.learning.linear import LinearSolver  # noqa: E402
from repro.nodes.numeric import MaxClassifier  # noqa: E402
from repro.nodes.text import (  # noqa: E402
    CommonSparseFeatures,
    LowerCase,
    TermFrequency,
    Tokenizer,
    unit_weighting,
)
from repro.pipelines import timit_pipeline  # noqa: E402
from repro.serving import compile_inference_plan  # noqa: E402
from repro.workloads import amazon_reviews, timit_frames  # noqa: E402


def train_scoring_model(wl, num_features=500):
    """Raw-score text model: featurize -> linear map, no arg-max head."""
    ctx = Context()
    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    return (
        Pipeline.identity()
        .and_then(LowerCase())
        .and_then(Tokenizer())
        .and_then(TermFrequency(unit_weighting()))
        .and_then(CommonSparseFeatures(num_features), data)
        .and_then(LinearSolver(), data, labels)
        .fit(level="none")
    )


def as_bytes(rows):
    return [(r.dtype, r.shape, r.tobytes()) for r in rows]


def rows_per_second(plan, stream, batch):
    """``run_batch`` throughput over ``stream`` in batches (no queue noise)."""
    plan.run_batch(stream[:batch])  # warmup: kernels, BLAS
    start = time.perf_counter()
    for i in range(0, len(stream), batch):
        plan.run_batch(stream[i : i + batch])
    return len(stream) / (time.perf_counter() - start)


def text_scores():
    wl = amazon_reviews(num_train=600, num_test=200, vocab_size=1500, seed=0)
    print("training the raw-score text model...")
    fitted = train_scoring_model(wl)
    stream = [wl.test_items[i % len(wl.test_items)] for i in range(1000)]

    interp = compile_inference_plan(fitted, vectorize=False)
    server = ModelServer(max_batch=64, max_delay_ms=2.0)
    with server:
        kernel = server.register("scores", fitted)
        print(
            f"\ninterpreter plan: {len(interp)} ops, "
            f"kernel plan: {len(kernel.plan)} ops"
        )
        print(f"\nkernel-lowered plan:\n{kernel.plan.describe()}\n")
        assert "kernel[" in kernel.plan.describe()
        assert len(kernel.plan) < len(interp)

        served = server.predict_many("scores", wl.test_items)

    # Batch invariance: the kernel-served *batched* raw scores are
    # byte-identical to the per-item reference.
    expected = [fitted.apply(x) for x in wl.test_items]
    assert as_bytes(served) == as_bytes(expected), (
        "kernel-served raw scores diverged from fitted.apply"
    )
    print(
        "batch invariance: served raw score vectors byte-identical "
        f"to fitted.apply on {len(expected)} items"
    )

    # Throughput: the two compiled batch paths, interpreter vs kernels.
    interp_rps = rows_per_second(interp, stream, len(stream))
    kernel_rps = rows_per_second(
        compile_inference_plan(fitted, vectorize=True), stream, len(stream)
    )
    ratio = kernel_rps / interp_rps
    print(
        f"run_batch throughput: interpreter {interp_rps:.0f}/s, "
        f"kernels {kernel_rps:.0f}/s ({ratio:.1f}x)"
    )
    assert ratio > 1.0, f"columnar kernels did not beat the interpreter ({ratio:.2f}x)"

    scores = served[0]
    assert isinstance(scores, np.ndarray) and scores.ndim == 1
    print(f"\nexample raw score vector: {np.array_str(scores, precision=3)}")


def frame_model(wl):
    """TIMIT-style dense model: 4 gathered cosine-feature blocks -> linear map."""
    return timit_pipeline(Context(), wl, num_feature_blocks=4, block_size=256)


def dense_classes():
    wl = timit_frames(num_train=600, num_test=400, dim=128, num_classes=12, seed=0)
    print("\ntraining the dense frame classifier and its headless twin...")
    classifier = frame_model(wl).and_then(MaxClassifier()).fit(level="none")
    scorer = frame_model(wl).fit(level="none")
    frames = list(wl.test_items)

    server = ModelServer(max_batch=32, max_delay_ms=2.0)
    with server:
        served = server.register("frames", classifier)
        print(f"\ncertified plan:\n{served.plan.describe()}\n")
        assert len(served.plan) == 2 and "[certified]" in served.plan.describe()
        labels = server.predict_many("frames", frames)

    expected = [classifier.apply(x) for x in frames]
    assert labels == expected, "certified class ids diverged from fitted.apply"
    print(f"certified ids byte-identical to fitted.apply on {len(frames)} frames")

    # The certified stage (batched GEMMs + proof) against the exact
    # per-row GEMV kernels the same model runs without its head.
    certified_rps = rows_per_second(
        compile_inference_plan(classifier, vectorize=True), frames, 32
    )
    per_row_rps = rows_per_second(
        compile_inference_plan(scorer, vectorize=True), frames, 32
    )
    ratio = certified_rps / per_row_rps
    print(
        f"run_batch throughput: per-row kernels {per_row_rps:.0f}/s, "
        f"certified {certified_rps:.0f}/s ({ratio:.1f}x)"
    )
    assert ratio > 1.0, f"certified stage did not beat per-row kernels ({ratio:.2f}x)"


def main():
    text_scores()
    dense_classes()


if __name__ == "__main__":
    main()
