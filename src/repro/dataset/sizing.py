"""Byte-size estimation for cached partitions.

The materialization optimizer needs sizes of intermediate outputs.  The paper
estimates sizes by profiling a sample and extrapolating linearly; this module
provides the per-object measurement that profiling step uses.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np
import scipy.sparse as sp

# Rough per-element overhead of a Python list cell (pointer) used when we
# shortcut homogeneous lists by measuring the first element.
_POINTER_BYTES = 8
# Lists longer than this are sampled instead of walked exhaustively.
_SAMPLE_THRESHOLD = 256


def estimate_size(obj: Any) -> int:
    """Estimate the memory footprint of ``obj`` in bytes.

    Handles numpy arrays, scipy sparse matrices, strings, and (possibly
    nested) containers.  For long homogeneous lists the estimate samples a
    few elements and extrapolates, which keeps profiling cheap.
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if sp.issparse(obj):
        total = 0
        for attr in ("data", "indices", "indptr", "row", "col", "offsets"):
            arr = getattr(obj, attr, None)
            if isinstance(arr, np.ndarray):
                total += int(arr.nbytes)
        return max(total, 48)
    if isinstance(obj, (bytes, bytearray, str)):
        return sys.getsizeof(obj)
    if isinstance(obj, (int, float, bool, complex)):
        return sys.getsizeof(obj)
    if isinstance(obj, dict):
        inner = sum(estimate_size(k) + estimate_size(v) for k, v in obj.items())
        return sys.getsizeof(obj) + inner
    if isinstance(obj, (list, tuple)):
        n = len(obj)
        if n == 0:
            return sys.getsizeof(obj)
        if n > _SAMPLE_THRESHOLD:
            step = n // _SAMPLE_THRESHOLD
            sampled = obj[::step]
            per_elem = sum(estimate_size(x) for x in sampled) / len(sampled)
            return int(n * (per_elem + _POINTER_BYTES))
        return sys.getsizeof(obj) + sum(estimate_size(x) for x in obj)
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    return sys.getsizeof(obj)


def estimate_partition_size(rows: list) -> int:
    """Estimate the footprint of a materialized partition (a list of rows)."""
    return estimate_size(rows)
