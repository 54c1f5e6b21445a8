"""Dataset statistics (the ``A_s`` of the cost model).

The operator-level optimizer decides between physical implementations using
numerical properties of the data flowing into each node: record count,
dimensionality, sparsity.  These are exactly the statistics the paper says
conventional optimizers do not consider.  Record sizes are measured by the
profiler itself (``NodeProfile.size_bytes``), not here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class DataStats:
    """Statistics of a (possibly extrapolated) dataset at a pipeline point.

    ``n`` is the extrapolated full-scale record count; the remaining fields
    are measured on the profiling sample.  ``k`` is the output dimension of
    the associated labels when the node is a supervised estimator (set by the
    profiler from the labels input).
    """

    n: int
    d: int = 1
    k: int = 1
    sparsity: float = 1.0

    @property
    def nnz_per_row(self) -> float:
        """Average non-zeros per row (``s`` in the paper's Table 1)."""
        return self.d * self.sparsity

    @property
    def is_sparse(self) -> bool:
        return self.sparsity < 0.5

    def with_k(self, k: int) -> "DataStats":
        return replace(self, k=k)

    def with_n(self, n: int) -> "DataStats":
        return replace(self, n=n)


def _row_dim_and_nnz(row) -> Optional[tuple]:
    if sp.issparse(row):
        return int(row.shape[-1]), int(row.nnz)
    arr = np.asarray(row)
    if arr.dtype == object or arr.dtype.kind in "US":
        return None
    size = int(arr.size)
    return size, int(np.count_nonzero(arr))


def stats_from_rows(rows: List, full_n: Optional[int] = None) -> DataStats:
    """Measure statistics from sample rows, extrapolating the count.

    Works for numeric vector rows (dense or sparse); non-numeric rows (raw
    text, images as objects) get ``d=1, sparsity=1``.
    """
    if not rows:
        return DataStats(n=full_n or 0, d=0, sparsity=0.0)
    n = full_n if full_n is not None else len(rows)

    dims = 0
    nnz = 0
    numeric_rows = 0
    for row in rows:
        measured = _row_dim_and_nnz(row)
        if measured is None:
            continue
        d_i, nnz_i = measured
        dims = max(dims, d_i)
        nnz += nnz_i
        numeric_rows += 1
    if numeric_rows == 0 or dims == 0:
        return DataStats(n=n, d=1, sparsity=1.0)
    return DataStats(n=n, d=dims, sparsity=nnz / (numeric_rows * dims))


def num_label_dims(rows: List) -> int:
    """Output dimension of a labels dataset (1 for scalar class ids)."""
    if not rows:
        return 1
    first = rows[0]
    if sp.issparse(first):
        return int(first.shape[-1])
    arr = np.asarray(first)
    if arr.dtype == object:
        return 1
    return int(arr.size) if arr.ndim else 1
