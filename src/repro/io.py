"""Data loading and pipeline persistence.

KeystoneML pipelines read training data from distributed storage and the
fitted pipelines are deployed as services; the in-process equivalents are
plain-file loaders into :class:`~repro.dataset.Dataset` and
pickle-based save/load of :class:`~repro.core.pipeline.FittedPipeline`.

Fitted pipelines contain only transformers (numpy arrays, vocabularies),
all picklable; unfitted pipelines hold dataset references and are not
serialized.
"""

from __future__ import annotations

import csv
import pickle
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.core.pipeline import FittedPipeline
from repro.dataset.context import Context
from repro.dataset.dataset import Dataset

PathLike = Union[str, Path]


def read_text(ctx: Context, path: PathLike,
              num_partitions: Optional[int] = None) -> Dataset:
    """Load a text file as a dataset of lines (newline stripped)."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [line.rstrip("\n") for line in f]
    return ctx.parallelize(lines, num_partitions or ctx.default_partitions)


def write_text(data: Dataset, path: PathLike) -> int:
    """Write one item per line (str()-converted); returns line count."""
    rows = data.collect()
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(f"{row}\n")
    return len(rows)


def read_csv_vectors(ctx: Context, path: PathLike,
                     label_column: Optional[int] = None,
                     num_partitions: Optional[int] = None,
                     skip_header: bool = False):
    """Load numeric CSV rows as vectors, optionally splitting a label column.

    Returns ``dataset`` or ``(dataset, labels)`` when ``label_column`` is
    given.  Non-numeric cells raise ``ValueError`` with the row number.
    """
    vectors: List[np.ndarray] = []
    labels: List[float] = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        for row_num, row in enumerate(reader):
            if skip_header and row_num == 0:
                continue
            if not row:
                continue
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise ValueError(f"{path}:{row_num + 1}: non-numeric cell "
                                 f"({exc})") from exc
            if label_column is not None:
                labels.append(values.pop(label_column))
            vectors.append(np.asarray(values))
    parts = num_partitions or ctx.default_partitions
    data = ctx.parallelize(vectors, parts)
    if label_column is None:
        return data
    return data, ctx.parallelize(labels, parts)


def save_pipeline(pipeline: FittedPipeline, path: PathLike,
                  fit_store=None) -> None:
    """Persist a fitted pipeline with pickle.

    The training report (which may reference profiling state) is dropped;
    what is saved is exactly the inference graph.

    ``fit_store`` additionally persists a
    :class:`~repro.incremental.FitStore` next to the pipeline (at
    :func:`fit_store_path`), so a later process can
    :func:`load_fit_store` and warm-retrain a modified pipeline against
    the state this one trained — see :mod:`repro.incremental`.
    """
    if not isinstance(pipeline, FittedPipeline):
        raise TypeError("only fitted pipelines are serializable; call "
                        ".fit() first")
    stripped = FittedPipeline(pipeline.input_node, pipeline.sink,
                              training_report=None)
    with open(path, "wb") as f:
        pickle.dump(stripped, f)
    if fit_store is not None:
        fit_store.save(fit_store_path(path))


def load_pipeline(path: PathLike) -> FittedPipeline:
    """Load a pipeline saved by :func:`save_pipeline`."""
    with open(path, "rb") as f:
        loaded = pickle.load(f)
    if not isinstance(loaded, FittedPipeline):
        raise TypeError(f"{path} does not contain a FittedPipeline "
                        f"(got {type(loaded).__name__})")
    return loaded


def fit_store_path(path: PathLike) -> Path:
    """Where :func:`save_pipeline` puts the FitStore for pipeline ``path``."""
    return Path(f"{path}.fitstore")


def load_fit_store(path: PathLike, budget_bytes=None):
    """Load the FitStore saved next to the pipeline at ``path``.

    ``path`` is the *pipeline* path handed to :func:`save_pipeline`; the
    store is read from :func:`fit_store_path`.  A missing, truncated or
    garbage store file yields an **empty** store — refits against it go
    cold instead of crashing or splicing stale state
    (:meth:`repro.incremental.FitStore.load`).  ``budget_bytes``
    overrides the saved byte budget.
    """
    from repro.incremental import FitStore

    return FitStore.load(fit_store_path(path), budget_bytes=budget_bytes)
