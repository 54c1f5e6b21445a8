"""Logistic regression (softmax, L-BFGS) over dataset partitions.

Used by the Amazon text pipeline and the YouTube-8M replication.  Like the
linear solvers, each objective evaluation streams the feature dataset once.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.special import logsumexp

from repro.core.operators import (
    Iterative,
    IterativeShardableEstimator,
    LabelEstimator,
    Transformer,
)
from repro.dataset.rows import is_sparse, row_width, rows_to_block


class LogisticModel(Transformer):
    """Applies fitted softmax weights; output is class probabilities."""

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights)  # (d, k)

    def scores(self, row) -> np.ndarray:
        if sp.issparse(row):
            return np.asarray(row @ self.weights).ravel()
        return np.asarray(row, dtype=np.float64) @ self.weights

    def apply(self, row) -> np.ndarray:
        logits = self.scores(row)
        logits = logits - logits.max()
        p = np.exp(logits)
        return p / p.sum()

    def apply_partition(self, items: List) -> List[np.ndarray]:
        if not items:
            return []
        if is_sparse(items):
            logits = np.asarray(rows_to_block(items, prefer_sparse=True)
                                @ self.weights)
        else:
            logits = np.vstack([np.asarray(r).reshape(1, -1)
                                for r in items]) @ self.weights
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        return list(p)

    def columnar_kernel(self):
        from repro.core.kernels import LogisticKernel

        return LogisticKernel(self.weights)


def _class_indices(b: np.ndarray) -> np.ndarray:
    """One-hot (or +1/-1 indicator) label rows -> integer class ids."""
    return np.argmax(b, axis=1)


#: sentinel fed to a parked objective evaluation to unwind the driver
_ABORT = object()


class _AbortPass(Exception):
    """Internal: unwind scipy's optimizer thread on fit abort."""


class _LbfgsDriver:
    """Runs ``scipy.optimize.minimize`` inverted into a pass state machine.

    scipy's L-BFGS-B is a callback-driven black box: it *calls* the
    objective, while the pass protocol needs the objective to be *fed*
    merged partials one pass at a time.  The driver runs ``minimize`` on
    a daemon thread whose objective parks on a queue: each objective
    evaluation surfaces as ``pending`` (the point to evaluate), and
    :meth:`feed` hands back the merged ``(loss, grad)`` and advances to
    the next evaluation or the final ``result``.  The exact same scipy
    code path runs as before — only the transport of objective values
    changed — so fitted weights are byte-identical to the historical
    in-line ``minimize`` call.
    """

    def __init__(self, d: int, k: int, max_iter: int, tol: float):
        self.evals = 0
        self.pending: Optional[np.ndarray] = None
        self.result: Optional[np.ndarray] = None
        self._requests: "queue.SimpleQueue" = queue.SimpleQueue()
        self._responses: "queue.SimpleQueue" = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._optimize, args=(d, k, max_iter, tol),
            name="lbfgs-driver", daemon=True)
        self._thread.start()
        self._advance()

    def _objective(self, x_flat: np.ndarray) -> Tuple[float, np.ndarray]:
        self._requests.put(("eval", np.array(x_flat, copy=True)))
        response = self._responses.get()
        if response is _ABORT:
            raise _AbortPass
        return response

    def _optimize(self, d: int, k: int, max_iter: int, tol: float) -> None:
        try:
            result = minimize(self._objective, np.zeros(d * k), jac=True,
                              method="L-BFGS-B", tol=tol,
                              options={"maxiter": max_iter})
        except _AbortPass:
            return
        except BaseException as exc:  # surfaced to the driving fit
            self._requests.put(("error", exc))
            return
        self._requests.put(("done", result.x))

    def _advance(self) -> None:
        kind, value = self._requests.get()
        if kind == "eval":
            self.pending = value
        elif kind == "done":
            self.pending, self.result = None, value
        else:
            self.pending = None
            raise value

    def feed(self, loss: float, grad_flat: np.ndarray) -> None:
        """Answer the pending objective evaluation with merged partials."""
        self.evals += 1
        self._responses.put((loss, grad_flat))
        self._advance()

    def abort(self) -> None:
        """Unblock and retire the optimizer thread (failed fit cleanup)."""
        if self.pending is not None:
            self.pending = None
            self._responses.put(_ABORT)


@dataclass
class _LogisticState:
    """Driver-side solver state; never crosses a process boundary."""

    driver: _LbfgsDriver
    d: int
    k: int
    n: int


class LogisticRegressionEstimator(IterativeShardableEstimator,
                                  LabelEstimator, Iterative):
    """Multinomial logistic regression fit by L-BFGS.

    Labels must be indicator rows (see
    :class:`repro.nodes.numeric.ClassLabelIndicator`).

    Implements :class:`~repro.core.operators.IterativeShardableEstimator`:
    each objective evaluation is one pass broadcasting the current
    weight vector and reducing per-partition ``(loss, grad)``
    contributions; the L-BFGS line search itself stays in the driver
    (:class:`_LbfgsDriver`), so only weights and gradients ever cross a
    process boundary.
    """

    def __init__(self, max_iter: int = 50, l2_reg: float = 1e-6,
                 tol: float = 1e-7):
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.max_iter = max_iter
        self.l2_reg = l2_reg
        self.tol = tol
        self.weight = max_iter
        self.iterations_run = 0

    # -- IterativeShardableEstimator protocol ---------------------------
    def init_stats(self, rows: List, label_rows=None):
        if not rows:
            return None
        d = row_width(rows)
        label_arr = np.asarray(label_rows[0])
        k = int(label_arr.size) if label_arr.ndim else 1
        return (len(rows), d, k)

    def init_state(self, partials: List) -> _LogisticState:
        n, d, k = 0, None, None
        for partial in partials:
            if partial is None:
                continue
            count, part_d, part_k = partial
            n += count
            if d is None:
                d, k = part_d, part_k
        if d is None:
            raise ValueError("dataset is empty")
        self.iterations_run = 0
        return _LogisticState(
            _LbfgsDriver(d, k, self.max_iter, self.tol), d, k, n)

    def pass_payload(self, state: _LogisticState
                     ) -> Tuple[np.ndarray, int, int]:
        return (state.driver.pending, state.d, state.k)

    def partition_pass_stats(self, payload, rows: List, label_rows=None
                             ) -> Optional[Tuple[float, np.ndarray]]:
        if not rows:
            return None
        x_flat, d, k = payload
        x = x_flat.reshape(d, k)
        a = rows_to_block(rows, prefer_sparse=True)
        b = np.asarray(rows_to_block(label_rows))
        logits = np.asarray(a @ x)
        y = _class_indices(np.asarray(b))
        norm = logsumexp(logits, axis=1)
        loss = float(np.sum(norm - logits[np.arange(len(y)), y]))
        p = np.exp(logits - norm[:, None])
        p[np.arange(len(y)), y] -= 1.0
        return (loss, np.asarray(a.T @ p))

    def update_from_stats(self, state: _LogisticState,
                          partials: List) -> _LogisticState:
        x = state.driver.pending.reshape(state.d, state.k)
        loss = 0.0
        grad = np.zeros((state.d, state.k))
        for partial in partials:
            if partial is None:
                continue
            loss += partial[0]
            grad += partial[1]
        loss = loss / state.n + 0.5 * self.l2_reg * float(np.sum(x * x))
        grad = grad / state.n + self.l2_reg * x
        state.driver.feed(loss, grad.ravel())
        self.iterations_run = state.driver.evals
        return state

    def converged(self, state: _LogisticState) -> bool:
        return state.driver.result is not None

    def finalize(self, state: _LogisticState) -> LogisticModel:
        self.iterations_run = state.driver.evals
        return LogisticModel(state.driver.result.reshape(state.d, state.k))

    def abort_state(self, state: _LogisticState) -> None:
        state.driver.abort()
