"""Shared registry-workload scenarios for cross-suite contracts.

One classifier-headed pipeline per workload in ``workloads/registry.py``,
sized for tests.  ``tests/test_serving.py`` proves every scenario serves
byte-identically to ``FittedPipeline.apply``; ``tests/test_backends.py``
proves every scenario trains byte-identically under every execution
backend; ``tests/test_pickling.py`` proves every scenario's fitted
pipeline survives a pickle round-trip — the same six pipelines anchor all
three contracts.
"""

import numpy as np

from repro.core.pipeline import Pipeline
from repro.nodes.images import GrayScaler
from repro.nodes.learning.gmm import GMMEstimator
from repro.nodes.learning.kmeans import KMeansEstimator
from repro.nodes.learning.linear import LinearSolver
from repro.nodes.learning.logistic import LogisticRegressionEstimator
from repro.nodes.learning.random_features import CosineRandomFeatures
from repro.nodes.numeric import (
    Flatten,
    MaxClassifier,
    Normalizer,
    StandardScaler,
)
from repro.nodes.text import (
    CommonSparseFeatures,
    LowerCase,
    TermFrequency,
    Tokenizer,
)
from repro.workloads import (
    amazon_reviews,
    cifar10_images,
    imagenet_images,
    timit_frames,
    voc_images,
    youtube8m,
)


def comparable(rows):
    """Map prediction rows to hashable byte-exact representations."""
    out = []
    for row in rows:
        if isinstance(row, (list, tuple)):
            out.append(tuple(comparable(row)))
        else:
            arr = np.asarray(row)
            out.append((str(arr.dtype), arr.shape, arr.tobytes()))
    return out


def _vector_pipeline(ctx, wl, features):
    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    return (Pipeline.identity()
            .and_then(StandardScaler(), data)
            .and_then(CosineRandomFeatures(features, seed=1), data)
            .and_then(LinearSolver(), data, labels)
            .and_then(MaxClassifier()))


def _image_pipeline(ctx, wl):
    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    return (Pipeline.identity()
            .and_then(GrayScaler())
            .and_then(Flatten())
            .and_then(Normalizer())
            .and_then(LinearSolver(), data, labels)
            .and_then(MaxClassifier()))


def _text_pipeline(ctx, wl):
    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    return (Pipeline.identity()
            .and_then(LowerCase())
            .and_then(Tokenizer())
            .and_then(TermFrequency(lambda c: 1.0))
            .and_then(CommonSparseFeatures(120), data)
            .and_then(LinearSolver(), data, labels)
            .and_then(MaxClassifier()))


def _kmeans_pipeline(ctx, wl):
    data = wl.train_data(ctx)
    return (Pipeline.identity()
            .and_then(StandardScaler(), data)
            .and_then(KMeansEstimator(3, max_iter=4, seed=1), data))


def _gmm_pipeline(ctx, wl):
    data = wl.train_data(ctx)
    return (Pipeline.identity()
            .and_then(StandardScaler(), data)
            .and_then(GMMEstimator(2, max_iter=3, seed=1), data))


def _logistic_pipeline(ctx, wl):
    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    return (Pipeline.identity()
            .and_then(StandardScaler(), data)
            .and_then(LogisticRegressionEstimator(max_iter=8), data, labels)
            .and_then(MaxClassifier()))


#: scenario name -> ctx -> (unfitted pipeline, test items)
SCENARIOS = {
    "amazon": lambda ctx: (_text_pipeline(
        ctx, amazon_reviews(120, 16, vocab_size=200, seed=0)),
        amazon_reviews(120, 16, vocab_size=200, seed=0).test_items),
    "timit": lambda ctx: (_vector_pipeline(
        ctx, timit_frames(100, 16, dim=24, num_classes=4, seed=0), 32),
        timit_frames(100, 16, dim=24, num_classes=4, seed=0).test_items),
    "imagenet": lambda ctx: (_image_pipeline(
        ctx, imagenet_images(24, 8, size=16, num_classes=3, seed=0)),
        imagenet_images(24, 8, size=16, num_classes=3, seed=0).test_items),
    "voc": lambda ctx: (_image_pipeline(
        ctx, voc_images(20, 8, size=16, num_classes=3, seed=0)),
        voc_images(20, 8, size=16, num_classes=3, seed=0).test_items),
    "cifar10": lambda ctx: (_image_pipeline(
        ctx, cifar10_images(24, 8, size=12, num_classes=3, seed=0)),
        cifar10_images(24, 8, size=12, num_classes=3, seed=0).test_items),
    "youtube8m": lambda ctx: (_vector_pipeline(
        ctx, youtube8m(100, 16, dim=32, num_classes=5, seed=0), 24),
        youtube8m(100, 16, dim=32, num_classes=5, seed=0).test_items),
    # Iterative-solver heads: the pass-based estimators every backend
    # must drive through the identical fit_by_rounds state machine
    # (the actor backend runs the passes in-worker).
    "timit_kmeans": lambda ctx: (_kmeans_pipeline(
        ctx, timit_frames(100, 16, dim=24, num_classes=4, seed=0)),
        timit_frames(100, 16, dim=24, num_classes=4, seed=0).test_items),
    "timit_gmm": lambda ctx: (_gmm_pipeline(
        ctx, timit_frames(100, 16, dim=24, num_classes=4, seed=0)),
        timit_frames(100, 16, dim=24, num_classes=4, seed=0).test_items),
    "timit_logistic": lambda ctx: (_logistic_pipeline(
        ctx, timit_frames(100, 16, dim=24, num_classes=4, seed=0)),
        timit_frames(100, 16, dim=24, num_classes=4, seed=0).test_items),
}
