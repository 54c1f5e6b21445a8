"""Frozen workload sizes and the metric tables of the observatory.

``BENCHMARK.json`` at the repository root names the workloads and the
metrics (with unit, direction and bound); this file holds what that
schema has no room for: the input sizes behind each workload, the tiny
``--smoke`` sizes, and the bounds ``compare.py`` applies to the
workload-specific detail metrics (``e2e.*``), which the driver contract
cannot bound because not every workload has them.

Sizes were set once from a probe on a 2-core machine so that one run of
each workload measures for about ``run_seconds`` and were then frozen; a
change to them is a change to the benchmark and resets its baseline.
"""

from __future__ import annotations

import copy
import json
import os
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: how often set-up runs in one invocation (the median is reported)
SETUP_REPEATS = 3

SIZES: Dict[str, Dict[str, Any]] = {
    "train_text": {
        "n_train": 600, "n_test": 1000, "vocab": 5000, "features": 1500,
        "l2_base": 1e-8, "l2_edit": 1e-2,
        "l2_grid": [1e-8, 1e-4, 1e-2, 1.0],
        "min_rounds": 3, "apply_passes": 3,
    },
    "train_dense": {
        "n_train": 2000, "n_test": 1000, "dim": 440, "classes": 24,
        "blocks": 4, "block_size": 512,
        "min_rounds": 3, "apply_passes": 2,
    },
    "train_iter_actors": {
        "pool_docs": 6000, "n_train": 4000, "n_test": 1000, "vocab": 800,
        "features": 400, "clusters": 8, "passes": 5, "partitions": 4,
        "workers": 2, "task_timeout": 300.0,
        # reached well inside run_seconds even on a slow run, so that the
        # worker caches (and peak RSS) hold the same rounds every time
        "max_rounds": 6,
        "shard_docs": 500,
        "min_rounds": 3, "apply_passes": 3,
    },
    "serve_text_zipf": {
        "n_train": 800, "catalog": 4000, "vocab": 5000, "features": 1500,
        "zipf_a": 1.1,
        # sink labels cost 28 B each: room for about a quarter of the
        # catalog
        "cache_budget_bytes": 28_000.0,
        "burst": 20_000, "min_bursts": 5, "warm_requests": 20_000,
        "rate": 1000.0, "rungs": [500.0, 1000.0, 2000.0, 4000.0],
        "slo_p99_ms": 20.0, "late_limit_ms": 1.0,
        "hit_rate_range": [0.5, 0.95],
        "window_requests": 1000,
        "max_queue": 1 << 16, "warmup": 16, "probe_items": 512,
    },
    "serve_dense_unique": {
        "n_train": 1000, "catalog": 4000, "dim": 440, "classes": 24,
        "blocks": 4, "block_size": 512,
        # about 500 sink labels: evicted long before a frame recurs
        "cache_budget_bytes": 14_000.0,
        "burst": 3000, "min_bursts": 5, "warm_requests": 3000,
        # paced capacity is near 2000 req/s: the top rung must exceed it
        "rate": 500.0, "rungs": [250.0, 500.0, 1000.0, 3000.0],
        # the server's Python kernel loops hold the interpreter lock, so
        # an in-process generator wakes later here than on the text model
        "slo_p99_ms": 40.0, "late_limit_ms": 2.5,
        "hit_rate_range": [0.0, 0.0], "window_requests": 500,
        "max_queue": 1 << 16, "warmup": 16, "probe_items": 512,
    },
}

#: overrides for ``--smoke``: same code paths, no metric claims
SMOKE_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "train_text": {"n_train": 200, "n_test": 60, "vocab": 800,
                   "features": 200, "min_rounds": 1},
    "train_dense": {"n_train": 300, "n_test": 60, "dim": 64, "classes": 6,
                    "blocks": 2, "block_size": 64, "min_rounds": 1},
    "train_iter_actors": {"pool_docs": 500, "n_train": 300, "n_test": 40,
                          "vocab": 300, "features": 100, "max_rounds": 4,
                          "shard_docs": 100, "min_rounds": 1},
    "serve_text_zipf": {"n_train": 200, "catalog": 400, "vocab": 800,
                        "features": 200, "cache_budget_bytes": 4200.0,
                        "burst": 1000, "min_bursts": 2,
                        "warm_requests": 1000, "probe_items": 64,
                        "window_requests": 200},
    "serve_dense_unique": {"n_train": 300, "catalog": 800, "dim": 64,
                           "classes": 6, "blocks": 2, "block_size": 64,
                           "cache_budget_bytes": 1400.0, "burst": 400,
                           "min_bursts": 2, "warm_requests": 400,
                           "probe_items": 64, "window_requests": 100},
}

#: bounds ``compare.py`` applies to the workload-specific detail metrics
#: (share of the base median by which the metric may worsen).  The issue
#: asked for 10 %; ten runs on ten seeds on a shared 2-core VM spread
#: 4-8 % on the local training steps and 12-28 % wherever two processes
#: or threads share the cores, so the bounds follow the measurement.
DETAIL_BOUNDS: Dict[str, float] = {
    "e2e.fit_s": 0.15,
    "e2e.fit_store_s": 0.15,
    "e2e.refit_s": 0.25,
    "e2e.sweep_s": 0.15,
    "e2e.score_rows_per_s": 0.15,
    "e2e.saturation_rps": 0.25,
    # a ladder position: any drop is a whole rung
    "e2e.slo_rate_rps": 0.0,
    "e2e.failed_share": 0.0,
}


def sizes_for(workload: str, smoke: bool) -> Dict[str, Any]:
    sizes = copy.deepcopy(SIZES[workload])
    if smoke:
        sizes.update(SMOKE_OVERRIDES[workload])
    return sizes


def load_benchmark() -> Dict[str, Any]:
    """The contract file: workloads, metrics, units, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def unit_of(name: str, benchmark: Dict[str, Any]) -> str:
    for group in ("end_to_end", "per_layer"):
        for metric in benchmark[group]:
            if metric["name"] == name:
                return metric["unit"]
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"),
                         ("_mb", "MB"), ("_rps", "req/s"),
                         ("_per_s", "1/s"), ("_share", "ratio"),
                         ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"
