"""Byte-size estimation: the one sizing rule for every cache and profile.

The materialization optimizer needs sizes of intermediate outputs.  The paper
estimates sizes by profiling a sample and extrapolating linearly; so does
:func:`estimate_size`, for every container it meets.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np
import scipy.sparse as sp

# Per-element overhead of a Python list cell (pointer).
_POINTER_BYTES = 8
# Longer lists and tuples are sized from this many evenly spaced elements.
_SAMPLE = 16


def estimate_size(obj: Any) -> int:
    """Estimate the memory footprint of ``obj`` in bytes.

    Arrays and sparse matrices are exact buffer bytes, and so is a
    :class:`~repro.dataset.rows.SparseRows` partition (its ``nbytes``:
    the one matrix's buffers); strings, scalars, dicts and short lists
    are walked.  A list or tuple of ``n > 16``
    elements is sized from the elements at ``round(j * (n - 1) / 15)``,
    ``j < 16``, times ``n``: deterministic, and a partition of any length
    costs at most 16 row walks.
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
        if n > _SAMPLE:
            picks = (obj[round(j * (n - 1) / (_SAMPLE - 1))] for j in range(_SAMPLE))
            per_elem = sum(estimate_size(x) for x in picks) / _SAMPLE
            return int(n * (per_elem + _POINTER_BYTES))
        return sys.getsizeof(obj) + sum(estimate_size(x) for x in obj)
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    return sys.getsizeof(obj)
