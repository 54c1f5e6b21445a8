"""Shared helpers for learning estimators operating on row datasets."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.dataset.dataset import Dataset
from repro.dataset.rows import Block, SparseRows, row_width, rows_to_block

#: partition index -> (feature rows, label rows, stacked (A, B) block)
BlockMemo = Dict[int, Tuple[List, List, Tuple[Block, np.ndarray]]]


def iter_blocks(data: Dataset, prefer_sparse: bool = False) -> Iterator[Block]:
    """Yield one stacked block per non-empty partition.

    Each call re-reads the dataset partitions, so iterative algorithms that
    call this once per pass exhibit the recompute-unless-cached behaviour
    the materialization optimizer reasons about.  Every call stacks anew;
    only :func:`iter_xy_blocks` given a ``memo`` reuses stacked blocks.
    """
    for i in range(data.num_partitions):
        rows = data.partition(i)
        if rows:
            yield rows_to_block(rows, prefer_sparse)


def _both_hold(data: Dataset, labels: Dataset, i: int) -> bool:
    return data.holds_partition(i) and labels.holds_partition(i)


def _same_rows(kept: List, rows: List) -> bool:
    if kept is rows:
        return True
    if isinstance(kept, SparseRows) or isinstance(rows, SparseRows):
        return False  # a block is read back as the same object or not at all
    return len(kept) == len(rows) and all(a is b for a, b in zip(kept, rows))


def iter_xy_blocks(data: Dataset, labels: Dataset,
                   prefer_sparse: bool = False,
                   memo: Optional[BlockMemo] = None
                   ) -> Iterator[Tuple[Block, np.ndarray]]:
    """Yield aligned (features, labels) blocks partition by partition.

    Blocks come from :func:`~repro.dataset.rows.rows_to_block`, so a
    :class:`~repro.dataset.rows.SparseRows` partition yields its own
    matrix and is never stacked.  Every call re-reads each partition
    (``partition(i)``), so an uncached input is recomputed on every
    pass, exactly as the materialization model assumes.  With a ``memo``
    (one dict per fit), the stacked block of a *sparse* partition is
    kept and reused on a later pass when the feature and label rows read
    are the same objects, in the same order, as when the block was
    built.  Only partitions whose rows are held
    anyway (:meth:`Dataset.holds_partition`) are kept, and before each
    block is yielded every entry whose partition is no longer held is
    dropped — including ones this pass's own reads just evicted — so the
    memo never keeps rows alive past the cache and adds only a CSR block
    (smaller than its rows) per resident partition.  Dense partitions are
    never kept: their block would double the resident bytes.
    """
    if data.num_partitions != labels.num_partitions:
        raise ValueError(
            "features and labels must be identically partitioned: "
            f"{data.num_partitions} vs {labels.num_partitions}")
    for i in range(data.num_partitions):
        x_rows = data.partition(i)
        y_rows = labels.partition(i)
        if len(x_rows) != len(y_rows):
            raise ValueError(f"partition {i}: {len(x_rows)} feature rows vs "
                             f"{len(y_rows)} label rows")
        if memo is not None:
            for j in [j for j in memo if not _both_hold(data, labels, j)]:
                del memo[j]
        if not x_rows:
            continue
        kept = None if memo is None else memo.pop(i, None)
        if (kept is not None and _same_rows(kept[0], x_rows)
                and _same_rows(kept[1], y_rows)):
            block = kept[2]
        else:
            block = (rows_to_block(x_rows, prefer_sparse),
                     np.asarray(rows_to_block(y_rows)))
        if (memo is not None and sp.issparse(block[0])
                and _both_hold(data, labels, i)):
            memo[i] = (x_rows, y_rows, block)
        yield block


def feature_dim(data: Dataset) -> int:
    """Width of the rows of the first non-empty partition."""
    for part in data.iter_partitions():
        if part:
            return row_width(part)
    raise ValueError(f"dataset {data.name} is empty")


def label_dim(labels: Dataset) -> int:
    first = labels.first()
    arr = np.asarray(first)
    return int(arr.size) if arr.ndim else 1


def collect_dense(data: Dataset) -> np.ndarray:
    """Materialize the whole dataset as one dense matrix (local solvers)."""
    blocks = [np.asarray(b.todense()) if sp.issparse(b) else b
              for b in iter_blocks(data)]
    if not blocks:
        raise ValueError("dataset is empty")
    return np.vstack(blocks)
