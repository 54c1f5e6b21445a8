"""Partition forms and the one stacking rule.

A partition is a sequence of rows.  Most operators produce a ``list`` of
per-row objects; a sparse featurizer produces :class:`SparseRows`, one
canonical CSR matrix whose rows are the partition's rows.  Readers that
work on whole partitions (solvers, batched transformers, sizing,
statistics) take the matrix; a reader that walks rows one by one gets
each row as the 1 x d CSR matrix the per-row path would have built.

:func:`rows_to_block` is the one rule that stacks a partition into a
block for a solver or a batched transformer.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import Any, List, Union

import numpy as np
import scipy.sparse as sp

Block = Union[np.ndarray, sp.csr_matrix]


def csr_rows(
    data: List[float], indices: List[int], indptr: List[int], dim: int
) -> sp.csr_matrix:
    """One canonical ``(len(indptr) - 1, dim)`` CSR matrix, without COO.

    Each row's columns must be unique.  The result equals the COO build
    ``csr_matrix((data, (rows, indices)))`` byte for byte in ``data``,
    ``indices`` and ``indptr`` (float64 / int32 / int32) with sorted
    indices, at a fraction of its cost: no COO validation, duplicate
    summing or pruning.
    """
    block = sp.csr_matrix(
        (
            np.asarray(data, dtype=np.float64),
            np.asarray(indices, dtype=np.int32),
            np.asarray(indptr, dtype=np.int32),
        ),
        shape=(len(indptr) - 1, dim),
    )
    block.sort_indices()
    return block


class SparseRows(Sequence):
    """A read-only partition of sparse rows held as one CSR matrix.

    ``matrix`` is canonical (:func:`csr_rows`: float64 data, int32
    indices and indptr, sorted indices, unique columns per row).  Row
    ``i`` is a fresh 1 x d CSR matrix, byte-equal to what the per-row
    featurizer returns for the same document; a slice is a
    ``SparseRows``.  It pickles as the one matrix, and ``nbytes`` is the
    matrix's buffers.  Code that reads whole partitions takes
    ``matrix`` and never walks the rows.
    """

    __slots__ = ("matrix", "nbytes")

    def __init__(self, matrix: sp.csr_matrix):
        self.matrix = matrix
        #: the matrix's buffer bytes, as ``ndarray.nbytes`` counts an array's
        self.nbytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            part = self.matrix[key]
            return SparseRows(
                csr_rows(part.data, part.indices, part.indptr, part.shape[1])
            )
        i = operator.index(key)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"row {key} out of range for {n} rows")
        return self._row(i)

    def __iter__(self):
        for i in range(len(self)):
            yield self._row(i)

    def _row(self, i: int) -> sp.csr_matrix:
        m = self.matrix
        start, stop = m.indptr[i], m.indptr[i + 1]
        # Copies: a row outlives its partition without pinning the block.
        return csr_rows(
            m.data[start:stop].copy(),
            m.indices[start:stop].copy(),
            [0, stop - start],
            m.shape[1],
        )

    def __reduce__(self):
        return (SparseRows, (self.matrix,))

    def __repr__(self) -> str:
        n, d = self.matrix.shape
        return f"SparseRows({n} x {d}, nnz={self.matrix.nnz})"


def copy_rows(rows) -> Any:
    """A partition the caller may consume: a fresh list of the rows, or a
    :class:`SparseRows` as it is (read-only, so it needs no copy)."""
    return rows if isinstance(rows, SparseRows) else list(rows)


def is_sparse(rows) -> bool:
    """Whether a non-empty partition's rows are sparse matrices."""
    return isinstance(rows, SparseRows) or sp.issparse(rows[0])


def row_width(rows) -> int:
    """Width of a non-empty partition's rows."""
    if isinstance(rows, SparseRows):
        return int(rows.matrix.shape[1])
    first = rows[0]
    if sp.issparse(first):
        return int(first.shape[-1])
    return int(np.asarray(first).shape[-1])


def rows_to_block(rows, prefer_sparse: bool = False) -> Block:
    """Stack a partition's rows into one block: the one stacking rule.

    A :class:`SparseRows` partition is its matrix, with no copy; a list
    of sparse rows is ``sp.vstack``-ed into the same CSR bytes.  A sparse
    block stays sparse under ``prefer_sparse`` or below half density,
    else it is densified.  Dense rows (vectors or descriptor matrices)
    are ``np.vstack``-ed as float64.  Callers read the block and never
    write into it.
    """
    if not rows:
        return np.zeros((0, 0))
    if isinstance(rows, SparseRows):
        stacked = rows.matrix
    elif sp.issparse(rows[0]):
        stacked = sp.vstack(rows).tocsr()
    else:
        arrs = [np.atleast_2d(np.asarray(r, dtype=np.float64)) for r in rows]
        return np.vstack(arrs)
    return stacked if prefer_sparse or _keep_sparse(stacked) else stacked.toarray()


def _keep_sparse(m: sp.csr_matrix) -> bool:
    total = m.shape[0] * m.shape[1]
    return total > 0 and m.nnz / total < 0.5
