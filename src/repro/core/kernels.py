"""Columnar kernels: vectorized execution of op chains, exact or certified.

The interpreter executes a lowered :class:`~repro.core.program.OpProgram`
op by op, batch by batch, through Python-level ``apply_partition`` calls.
That per-op dispatch (and, for text, the per-item ``csr_matrix``
construction) dominates serving cost long before BLAS does.  This module
is the second lowering target behind the :class:`ProgramPass` hook
(ROADMAP open item 1): ``VectorizePass`` groups runs of fusable
transform ops — gathered branches included — into a single
:class:`KernelStage` whose ``apply_partition`` executes the whole
micro-batch as a handful of numpy calls over one columnar block.

**Every value a stage emits is byte-identical to the per-item
``fitted.apply``** — not just ulp-close.  A stage gets there one of two
ways, chosen by its structure.

*Exact kernels* (:meth:`Kernel.run`) compute each row via the *same
floating-point reduction order* as the per-item ``op.apply`` path:

- sparse ``csr @ dense`` GEMM reduces each row's dot products over the
  stored indices exactly like the per-row product, so sparse matmuls
  batch freely;
- dense ``(B, d) @ (d, k)`` GEMM re-associates the reduction (blocked
  SIMD), so exact dense matmul kernels run a per-row GEMV loop into a
  preallocated output block instead;
- row-wise reductions that BLAS would re-associate (``p.sum()``,
  ``np.linalg.norm``) run per row; elementwise broadcasting, comparisons
  (``max``/``argmax``) and structural ops (stack, slice, hstack) are
  exact and batch freely.

*Certified kernels* (:meth:`Kernel.bounded`) serve a stage that ends in
a discretizing head (:class:`MaxClassKernel`).  Only the class id leaves
such a stage, so its dense matmuls run as one BLAS GEMM per micro-batch,
provided each id is *proved* equal to the reference's.  A bounded
kernel returns its block with a :class:`Bound` on
``|fast - reference|``, elementwise:

- a matmul adds ``2γ(‖x‖₂‖w_j‖₂ + |b_j|)`` with ``γ = γ_{n+1}``.
  Higham's dot-product bound (*Accuracy and Stability of Numerical
  Algorithms*, §3.1) ``|fl(x·w) - x·w| ≤ γ_n Σ|x_i||w_i|`` holds for
  *any* summation order — the GEMM's and the per-item GEMV's alike —
  and Cauchy–Schwarz factors it into one row norm times column norms
  precomputed at kernel build.  An inexact input ``e`` adds
  ``(1 + γ)‖e‖₂‖w_j‖₂``;
- elementwise kernels scale the bound by their Lipschitz constant and
  add their own rounding.  ``cos`` is 1-Lipschitz; the certified
  random-features kernel evaluates it in single precision (SIMD, ~15x
  cheaper than float64) and adds the argument's float32 rounding plus
  :data:`LIBM32_ALLOWANCE`; the reference's float64 ``cos`` adds
  :data:`LIBM_ALLOWANCE`.  Both allowances are generous multiples of the
  measured implementation error;
- structural kernels move the bound with the values.

The head accepts row ``r``'s argmax ``k₁`` iff ``y[k₁] - E[k₁] >
max_{k≠k₁} y[k] + E[k]``.  The test is strict, so ties never certify and
the reference's first-index rule is kept.  Every other row — ties,
NaN/inf inputs, non-finite bounds — is recomputed on the exact path.
Bounds are carried factored (:class:`Bound`), so a bound costs one row
norm per matmul, not another pass over the block.

A kernel that cannot keep the contract for some input form returns
``None`` from :meth:`Kernel.run` / :meth:`Kernel.bounded`.  The stage
then falls back to the exact kernels or to the per-item member chain —
never to the members' BLAS-batched ``apply_partition`` overrides, whose
last-ulp divergence reaches the emitted values.

Operators opt in by overriding ``Transformer.columnar_kernel()``
(:mod:`repro.core.operators`) to return a :class:`Kernel`; see
``nodes/numeric.py``, ``nodes/text.py`` and ``nodes/learning/*`` for the
implementations.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.operators import Transformer
from repro.obs import trace as obs_trace

#: columnar block forms flowing between kernels inside one stage
ROWS = "rows"  #: plain per-item list (dicts, ints, unliftable rows)
DENSE = "dense"  #: one C-contiguous float64 (B, d) block
SPARSE = "sparse"  #: one (B, d) CSR block
GATHERED = "gathered"  #: one block per folded gather branch

Block = Tuple[str, Any]

#: unit roundoff of float64
_U = 2.0**-53
#: smallest subnormal: bounds the absolute error of an underflowing product
_ETA = 2.0**-1074
#: allowance for one float64 ``np.cos`` evaluation (absolute).  glibc's
#: and numpy's SIMD implementations stay within a few ulp (~1e-15); this
#: is ~1000x that.
LIBM_ALLOWANCE = 2.0**-40
#: the same for a single-precision ``np.cos`` (absolute): within 7.1e-8
#: (1.2 ulp of 1.0) on 1.2e7 arguments up to 1e5 with numpy 2.4 on x86-64
#: (AVX-512); this is ~50x that
LIBM32_ALLOWANCE = 2.0**-18
#: relative rounding of an elementwise kernel's ``fn`` (at most two
#: correctly rounded IEEE operations per element)
_ELEMENTWISE_REL = 4 * _U
#: every bound is a sum / product / sqrt of non-negative floats, so its
#: computed value is within ``1 + γ_m < 1 + 2**-31`` of the exact value
#: for chains of ``m < 2**22`` operations; the head multiplies by this
#: slack and adds the floor (underflow in the bound arithmetic) before
#: comparing, and a ``2**-50 |y|`` term absorbs the comparison's rounding
_SLACK = 1.0 + 2.0**-30
_FLOOR = 2.0**-900


def _gamma(n: int) -> float:
    """Higham's ``γ_n = nu / (1 - nu)``."""
    return n * _U / (1.0 - n * _U)


def _norm_bound(squares: np.ndarray, n: int) -> np.ndarray:
    """Upper bounds on exact 2-norms from computed sums of ``n`` squares.

    A computed sum of squares is at least ``1 - γ_n`` times the exact
    one, less ``nη`` for squares that underflow; undoing both keeps the
    result an upper bound, underflow included.
    """
    return np.sqrt((squares + n * _ETA) / (1.0 - _gamma(n)))


def _row_norms(block: np.ndarray) -> np.ndarray:
    return _norm_bound(np.einsum("ij,ij->i", block, block), block.shape[1])


def _col_norms(weights: np.ndarray) -> Optional[np.ndarray]:
    """Column-norm bounds of a dense float64 weight matrix, else ``None``."""
    if not isinstance(weights, np.ndarray) or weights.dtype != np.float64:
        return None
    return _norm_bound(np.einsum("ij,ij->j", weights, weights), weights.shape[0])


class Bound:
    """Elementwise bound on ``|fast - reference|`` for a dense (B, d) block.

    ``err[r, j] <= sum(row[r] * col[j] for row, col in terms) + const[j]``
    with every factor non-negative: rank-1 terms plus a per-column
    constant.  Matmul bounds are rank-1 (row norms times column norms),
    so carrying them factored keeps a bound's per-row cost at O(terms).
    """

    __slots__ = ("terms", "const")

    def __init__(self, terms: Sequence[Tuple[np.ndarray, np.ndarray]], const):
        self.terms = list(terms)
        self.const = const

    def dense(self) -> np.ndarray:
        (row, col), *rest = self.terms
        out = np.multiply.outer(row, col)
        for row, col in rest:
            out += np.multiply.outer(row, col)
        out += self.const
        return out

    def row_norms(self) -> np.ndarray:
        """Upper bounds on each row's 2-norm (triangle inequality)."""
        total = np.linalg.norm(self.const)
        for row, col in self.terms:
            total = total + row * np.linalg.norm(col)
        return total

    def scaled(self, factor, add=0.0) -> "Bound":
        """``factor * err + add`` (``factor`` scalar or per column)."""
        return Bound(
            [(row, col * factor) for row, col in self.terms],
            self.const * factor + add,
        )

    def columns(self, select: Callable[[np.ndarray], np.ndarray]) -> "Bound":
        """The bound of a structural column map (slice, append)."""
        terms = [(row, select(col)) for row, col in self.terms]
        return Bound(terms, select(self.const))

    def through(self, lipschitz, result: np.ndarray, rel: float) -> "Bound":
        """The bound after an elementwise ``f`` both paths evaluate.

        ``f`` is ``lipschitz``-Lipschitz (scalar or per column) and each
        evaluation is within ``rel`` of exact, relative, plus ``η``
        absolute; ``result`` is the fast path's output.  Then
        ``|f̃(â) - f̃(a)| <= (1 + rel) L e + 3 rel |result| + 4η``.
        """
        scaled = self.scaled((1.0 + rel) * lipschitz, 4 * _ETA)
        peak = np.abs(result).max(axis=1, initial=0.0)
        ones = np.ones(result.shape[1])
        return Bound(scaled.terms + [(3.0 * rel * peak, ones)], scaled.const)

    @staticmethod
    def hstack(parts: Sequence[Optional["Bound"]], widths: Sequence[int]) -> "Bound":
        """The bound of column-concatenated blocks (``None``: exact part)."""
        total = sum(widths)
        terms, const, start = [], np.zeros(total), 0
        for bound, width in zip(parts, widths):
            stop = start + width
            if bound is not None:
                for row, col in bound.terms:
                    padded = np.zeros(total)
                    padded[start:stop] = col
                    terms.append((row, padded))
                const[start:stop] = bound.const
            start = stop
        return Bound(terms, const)


#: a bounded kernel's output: form, value, bound (``None``: exact)
Bounded = Tuple[str, Any, Any]


def _project(value, err, weights, col_norms, shift=None):
    """``value @ weights (+ shift)`` as one BLAS GEMM, with its :class:`Bound`.

    Each entry is a dot product of length ``n + 1`` (the shift is its
    last term), evaluated by the GEMM in one order and by the per-item
    reference in another; either commits at most ``γ_{n+1}(‖x‖‖w_j‖ +
    |s_j|)`` plus ``(n + 1)η`` for underflowing products.  An inexact
    input moves the exact product by at most ``‖e‖‖w_j‖``.  ``None``
    when the weights are not dense float64.
    """
    if col_norms is None:
        return None
    n = value.shape[1]
    g = _gamma(n + 1)
    out = value @ weights
    if shift is not None:
        out += shift
    lead = 2.0 * g * _row_norms(value)
    if err is not None:
        lead = lead + (1.0 + g) * err.row_norms()
    const = np.full(weights.shape[1], 2.0 * (n + 1) * _ETA)
    if shift is not None:
        const = const + 2.0 * g * np.abs(shift)
    return out, Bound([(lead, col_norms)], const)


def _lift_rows(rows: Sequence[Any]) -> Optional[Block]:
    """Promote a homogeneous list of rows to one columnar block.

    Returns ``None`` when the rows are not uniformly liftable (mixed
    types, per-item descriptor matrices, non-float dtypes) — the stage
    then offers the kernels the raw ``ROWS`` form instead.
    """
    first = rows[0]
    if sp.issparse(first):
        if first.shape[0] != 1:
            return None
        for r in rows:
            if not sp.issparse(r) or r.shape != first.shape:
                return None
        return (SPARSE, sp.vstack(rows).tocsr())
    if (
        isinstance(first, np.ndarray)
        and first.ndim == 1
        and first.dtype == np.float64
    ):
        n = first.shape[0]
        for r in rows:
            if (
                not isinstance(r, np.ndarray)
                or r.ndim != 1
                or r.dtype != np.float64
                or r.shape[0] != n
            ):
                return None
        return (DENSE, np.vstack(rows))
    return None


def _block_rows(form: str, value: Any) -> List[Any]:
    """Split a columnar block back into independent per-item rows.

    Dense rows are copied out of the block so downstream consumers (the
    serving cache in particular) never pin the whole batch buffer
    through a row view.
    """
    if form == DENSE:
        return [row.copy() for row in value]
    if form == SPARSE:
        return [value[i] for i in range(value.shape[0])]
    return list(value)


def _batch_matmul(form: str, value: Any, weights: np.ndarray) -> Optional[np.ndarray]:
    """``block @ weights`` with rows byte-identical to per-row products.

    Sparse blocks use one CSR GEMM (each row reduces over its stored
    indices, exactly the per-item order).  Dense blocks run a per-row
    GEMV loop into a preallocated output: a single (B, d) @ (d, k) GEMM
    re-associates the reduction and its rows are *not* bit-equal to the
    per-item ``row @ weights``.
    """
    if form == SPARSE:
        return np.asarray(value @ weights)
    if form == DENSE:
        out = np.empty(
            (value.shape[0], weights.shape[1]),
            dtype=np.result_type(value.dtype, weights.dtype),
        )
        for i in range(value.shape[0]):
            np.matmul(value[i], weights, out=out[i])
        return out
    return None


def _moved(out: Optional[Block], err, move) -> Optional[Bounded]:
    """A structural kernel's bounded output: the bound moves with the values."""
    if out is None:
        return None
    return (out[0], out[1], None if err is None else move(err))


class Kernel:
    """One vectorized op over a columnar block.

    ``run`` maps ``(form, value)`` to a new ``(form, value)`` whose rows
    are byte-identical to the member op's per-item ``apply``, or returns
    ``None`` when the contract cannot be preserved for this input form
    (the stage then falls back to the per-item chain).
    """

    def run(self, form: str, value: Any) -> Optional[Block]:
        raise NotImplementedError

    def bounded(self, form: str, value: Any, err) -> Optional[Bounded]:
        """Certified variant: ``(form, value, err)`` where ``err`` is a
        :class:`Bound` on ``|value - reference|`` (``None``: exact).

        The default suits kernels that are exact on exact input: it
        runs them and declines an inexact input.
        """
        if err is not None:
            return None
        out = self.run(form, value)
        return None if out is None else (out[0], out[1], None)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ElementwiseKernel(Kernel):
    """A row-elementwise function applied to the dense (B, d) block.

    Broadcast arithmetic is elementwise per row, so any per-item
    ``fn(as_dense_row(row))`` of this shape is byte-identical batched.
    Sparse blocks densify first — ``toarray`` rows are exact copies of
    the per-item ``todense``.  ``lipschitz`` (scalar or per column)
    lets an inexact input's bound through; without it such input is
    declined.
    """

    def __init__(self, fn, lipschitz=None):
        self.fn = fn
        self.lipschitz = lipschitz

    def run(self, form: str, value: Any) -> Optional[Block]:
        if form == SPARSE:
            return (DENSE, self.fn(value.toarray()))
        if form == DENSE:
            return (DENSE, self.fn(value))
        return None

    def bounded(self, form: str, value: Any, err) -> Optional[Bounded]:
        if err is None or self.lipschitz is None:
            return super().bounded(form, value, err)
        out = self.fn(value)
        return (DENSE, out, err.through(self.lipschitz, out, _ELEMENTWISE_REL))


class LinearMapKernel(Kernel):
    """``row @ weights + intercept`` over the whole block."""

    def __init__(self, weights: np.ndarray, intercept: np.ndarray):
        self.weights = weights
        self.intercept = intercept
        self.col_norms = _col_norms(weights)

    def run(self, form: str, value: Any) -> Optional[Block]:
        block = _batch_matmul(form, value, self.weights)
        if block is None:
            return None
        return (DENSE, block + self.intercept)

    def bounded(self, form: str, value: Any, err) -> Optional[Bounded]:
        if form != DENSE:
            return super().bounded(form, value, err)
        out = _project(value, err, self.weights, self.col_norms, self.intercept)
        return None if out is None else (DENSE, *out)


class RandomFeaturesKernel(Kernel):
    """``scale * cos(row @ w + b)`` over the whole block."""

    def __init__(self, w: np.ndarray, b: np.ndarray, scale: float):
        self.w = w
        self.b = b
        self.scale = scale
        self.col_norms = _col_norms(w)

    def run(self, form: str, value: Any) -> Optional[Block]:
        block = _batch_matmul(form, value, self.w)
        if block is None:
            return None
        return (DENSE, self.scale * np.cos(block + self.b))

    def bounded(self, form: str, value: Any, err) -> Optional[Bounded]:
        if form != DENSE:
            return super().bounded(form, value, err)
        out = _project(value, err, self.w, self.col_norms, self.b)
        if out is None:
            return None
        t, bound = out
        # cos in single precision: numpy's SIMD float32 cos is ~15x
        # cheaper than the float64 one, and only the bound has to know.
        # cos is 1-Lipschitz, so |cos32(f32(t̂)) - cos64(t)| <= |t̂ - t| +
        # 2**-24 |t̂| (rounding t̂ to float32; 2**-149 when subnormal) + one
        # allowance per cos; scaling |cos| <= 1 rounds by at most
        # u * scale on each path.
        s = self.scale
        out = np.multiply(np.cos(t.astype(np.float32)), s, dtype=np.float64)
        allowance = LIBM32_ALLOWANCE + LIBM_ALLOWANCE + 4 * _U + 2.0**-149
        bound = bound.scaled(s, s * allowance)
        bound.terms.append((s * 2.0**-24 * np.abs(t).max(axis=1), np.ones(t.shape[1])))
        return (DENSE, out, bound)


class LogisticKernel(Kernel):
    """Softmax head: logits via the batch matmul, per-row normalization.

    The row max is comparison-based (exact); the probability sum runs
    per row because a (B, k)-axis reduction would re-associate it.
    """

    def __init__(self, weights: np.ndarray):
        self.weights = weights

    def run(self, form: str, value: Any) -> Optional[Block]:
        logits = _batch_matmul(form, value, self.weights)
        if logits is None:
            return None
        logits = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        sums = np.empty((p.shape[0], 1), dtype=p.dtype)
        for i in range(p.shape[0]):
            sums[i, 0] = p[i].sum()
        return (DENSE, p / sums)


class PCAKernel(Kernel):
    """``(row - mean) @ components`` for dense 1-D rows.

    Sparse rows return ``None``: the per-item path densifies them to a
    2-D ``(1, k)`` matrix, a shape the columnar block cannot represent.
    """

    def __init__(self, components: np.ndarray, mean: np.ndarray):
        self.components = components
        self.mean = mean
        self.col_norms = _col_norms(components)

    def run(self, form: str, value: Any) -> Optional[Block]:
        if form != DENSE:
            return None
        centered = value - self.mean
        out = np.empty(
            (centered.shape[0], self.components.shape[1]),
            dtype=np.result_type(centered.dtype, self.components.dtype),
        )
        for i in range(centered.shape[0]):
            np.matmul(centered[i], self.components, out=out[i])
        return (DENSE, out)

    def bounded(self, form: str, value: Any, err) -> Optional[Bounded]:
        if form != DENSE:
            return None
        centered = value - self.mean
        if err is not None:
            err = err.through(1.0, centered, _U)
        out = _project(centered, err, self.components, self.col_norms)
        return None if out is None else (DENSE, *out)


class NormalizerKernel(Kernel):
    """L2 row normalization; norms run per row (BLAS would re-associate).

    Dense 1-D rows only: the per-item op treats sparse rows and 2-D
    descriptor matrices through different formulas.
    """

    def __init__(self, eps: float):
        self.eps = eps

    def run(self, form: str, value: Any) -> Optional[Block]:
        if form != DENSE:
            return None
        norms = np.empty((value.shape[0], 1), dtype=value.dtype)
        for i in range(value.shape[0]):
            norms[i, 0] = np.linalg.norm(value[i])
        return (DENSE, value / (norms + self.eps))


class SparseVectorizeKernel(Kernel):
    """``{term: weight}`` rows -> one (B, dim) CSR block in one build.

    The per-item path pays a ``csr_matrix`` construction per request —
    the dominant cost of text serving.  One COO->CSR build for the whole
    batch produces rows byte-identical to the per-item matrices: vocab
    indices are unique per row, and CSR canonicalization sorts each
    row's columns exactly like the single-row build.
    """

    def __init__(self, vocabulary, dim: int):
        self.vocabulary = vocabulary
        self.dim = dim

    def run(self, form: str, value: Any) -> Optional[Block]:
        if form != ROWS:
            return None
        rows_idx: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        get = self.vocabulary.get
        for i, term_weights in enumerate(value):
            if not isinstance(term_weights, dict):
                return None
            for term, weight in term_weights.items():
                idx = get(term)
                if idx is not None:
                    rows_idx.append(i)
                    cols.append(idx)
                    vals.append(weight)
        block = sp.csr_matrix(
            (
                np.asarray(vals, dtype=np.float64),
                (
                    np.asarray(rows_idx, dtype=np.int32),
                    np.asarray(cols, dtype=np.int32),
                ),
            ),
            shape=(len(value), self.dim),
        )
        return (SPARSE, block)


class MaxClassKernel(Kernel):
    """Score block -> argmax class ids (comparison-based: exact).

    The discretizing head of a certified stage: :meth:`certify` also
    reports which rows' ids are proved equal to the reference's.
    """

    def run(self, form: str, value: Any) -> Optional[Block]:
        if form == SPARSE:
            value = value.toarray()
        elif form != DENSE:
            return None
        return (ROWS, [int(i) for i in np.argmax(value, axis=1)])

    def certify(
        self, form: str, value: Any, err
    ) -> Optional[Tuple[List[int], List[int]]]:
        """``(ids, fallback)``: argmax ids and the rows not proved.

        Row ``r``'s id ``k₁`` is certified iff ``y[k₁] - E[k₁] > y[k] +
        E[k]`` for every other ``k``, with ``E`` the bound inflated by
        the slack that covers its own arithmetic; strict, so a tie
        never certifies.
        """
        out = self.run(form, value)
        if out is None or err is None:
            return None if out is None else (out[1], [])
        ids = out[1]
        rows = np.arange(len(ids))
        top = np.asarray(ids)
        slack = err.dense() * _SLACK + np.abs(value) * 2.0**-50 + _FLOOR
        low = value[rows, top] - slack[rows, top]
        high = value + slack
        high[rows, top] = -np.inf
        certified = (
            (low > high.max(axis=1))
            & np.isfinite(value).all(axis=1)
            & np.isfinite(slack).all(axis=1)
        )
        return ids, np.flatnonzero(~certified).tolist()


class DensifyKernel(Kernel):
    """Sparse block -> dense block (``toarray`` rows are exact copies)."""

    def run(self, form: str, value: Any) -> Optional[Block]:
        if form == SPARSE:
            return (DENSE, value.toarray())
        if form == DENSE:
            return (DENSE, value)
        return None

    def bounded(self, form: str, value: Any, err) -> Optional[Bounded]:
        return _moved(self.run(form, value), err, lambda bound: bound)


def _append_zero(col: np.ndarray) -> np.ndarray:
    return np.append(col, 0.0)


class InterceptKernel(Kernel):
    """Append the constant 1.0 bias column (structural: exact)."""

    def run(self, form: str, value: Any) -> Optional[Block]:
        if form == DENSE:
            ones = np.ones((value.shape[0], 1))
            return (DENSE, np.hstack([value, ones]))
        if form == SPARSE:
            ones = sp.csr_matrix(np.ones((value.shape[0], 1)))
            return (SPARSE, sp.hstack([value, ones]).tocsr())
        return None

    def bounded(self, form: str, value: Any, err) -> Optional[Bounded]:
        out = self.run(form, value)
        return _moved(out, err, lambda bound: bound.columns(_append_zero))


class FeatureSelectorKernel(Kernel):
    """Keep the given column indices (structural: exact)."""

    def __init__(self, indices: np.ndarray):
        self.indices = indices

    def run(self, form: str, value: Any) -> Optional[Block]:
        if form == DENSE:
            return (DENSE, value[:, self.indices])
        if form == SPARSE:
            return (SPARSE, value.tocsr()[:, self.indices])
        return None

    def bounded(self, form: str, value: Any, err) -> Optional[Bounded]:
        out = self.run(form, value)
        return _moved(out, err, lambda bound: bound.columns(lambda c: c[self.indices]))


class HStackKernel(Kernel):
    """Gathered vectors -> one concatenated dense row (structural: exact).

    Takes the :data:`GATHERED` blocks of a folded gather, or the per-item
    lists a gather op emits (lifted branch by branch).  Per item this is
    ``np.concatenate`` of each part as a dense row — the same values.
    """

    def run(self, form: str, value: Any) -> Optional[Block]:
        parts = self._parts(form, value)
        if parts is None:
            return None
        return (DENSE, np.hstack([v if f == DENSE else v.toarray() for f, v in parts]))

    def bounded(self, form: str, value: Any, err) -> Optional[Bounded]:
        def move(errs):  # only gathered blocks carry bounds
            return Bound.hstack(errs, [v.shape[1] for _, v in value])

        return _moved(self.run(form, value), err, move)

    @staticmethod
    def _parts(form: str, value: Any) -> Optional[List[Block]]:
        if form == ROWS:
            width = len(value[0]) if isinstance(value[0], (list, tuple)) else -1
            if width < 1 or any(
                not isinstance(r, (list, tuple)) or len(r) != width for r in value
            ):
                return None
            value = [_lift_rows([r[i] for r in value]) for i in range(width)]
        elif form != GATHERED:
            return None
        if any(part is None or part[0] not in (DENSE, SPARSE) for part in value):
            return None
        return value


class GatherKernel(Kernel):
    """A folded gather: every branch chain over the same input block."""

    def __init__(self, branches: Sequence[Kernel]):
        self.branches = list(branches)

    def run(self, form: str, value: Any) -> Optional[Block]:
        parts = []
        for branch in self.branches:
            out = branch.run(form, value)
            if out is None:
                return None
            parts.append(out)
        return (GATHERED, parts)

    def bounded(self, form: str, value: Any, err) -> Optional[Bounded]:
        parts, errs = [], []
        for branch in self.branches:
            out = branch.bounded(form, value, err)
            if out is None:
                return None
            parts.append(out[:2])
            errs.append(out[2])
        return (GATHERED, parts, errs if any(e is not None for e in errs) else None)


class ChainKernel(Kernel):
    """Sequential composition (a fused stage's members, in order)."""

    def __init__(self, kernels: Sequence[Kernel]):
        self.kernels = list(kernels)

    def run(self, form: str, value: Any) -> Optional[Block]:
        for kernel in self.kernels:
            out = kernel.run(form, value)
            if out is None:
                return None
            form, value = out
        return (form, value)

    def bounded(self, form: str, value: Any, err) -> Optional[Bounded]:
        for kernel in self.kernels:
            out = kernel.bounded(form, value, err)
            if out is None:
                return None
            form, value, err = out
        return (form, value, err)


def _flatten(kernels: Sequence[Kernel]) -> List[Kernel]:
    flat: List[Kernel] = []
    for kernel in kernels:
        if isinstance(kernel, ChainKernel):
            flat.extend(_flatten(kernel.kernels))
        else:
            flat.append(kernel)
    return flat


class KernelStage(Transformer):
    """A run of transform ops grouped by ``VectorizePass`` into one op.

    A plain :class:`Transformer`, so every existing consumer — the
    serving interpreter, replica workers, ``profile_ops``, pickling —
    handles it with zero dispatch changes:

    - :meth:`apply` chains the members' per-item ``apply`` (the exact
      reference numerics, over the folded sub-DAG when a member is a
      :class:`FoldedGather`);
    - :meth:`apply_partition` lifts the batch into a columnar block and
      runs the members' kernels over it: the bounded kernels when the
      stage ends in a discretizing head (:attr:`certified`), the exact
      ones otherwise and for every row the head cannot certify.  If an
      exact kernel declines the input form, the *whole stage* falls back
      to the per-item chain — never to the members' BLAS-batched
      overrides — so every emitted value is the reference's.

    Kernels are built lazily from the members and dropped on pickling
    (replica workers rebuild them on first batch).
    """

    def __init__(self, members: Sequence[Transformer], labels: Sequence[str]):
        if not members:
            raise ValueError("KernelStage requires at least one member")
        self.members = list(members)
        #: original op labels, in execution order (for describe()/explain())
        self.member_labels = list(labels)
        self.weight = max(getattr(m, "weight", 1) for m in self.members)
        self._kernels: Optional[List[Kernel]] = None

    def kernels(self) -> List[Kernel]:
        """The members' kernels, built once; empty when any member lacks one."""
        if self._kernels is None:
            kernels: List[Kernel] = []
            for member in self.members:
                kernel = member.columnar_kernel()
                if kernel is None:
                    kernels = []
                    break
                kernels.append(kernel)
            self._kernels = _flatten(kernels)
        return self._kernels

    @property
    def certified(self) -> bool:
        """Whether batches take the certified path (a discretizing head)."""
        kernels = self.kernels()
        return bool(kernels) and isinstance(kernels[-1], MaxClassKernel)

    def fold_lines(self, indent: str = "") -> List[str]:
        """``describe()`` lines: each folded member, gathered branches below."""
        lines = []
        for member, label in zip(self.members, self.member_labels):
            lines.append(f"{indent}fold {label}")
            for i, branch in enumerate(getattr(member, "branches", ())):
                lines.append(f"{indent}  branch {i}:")
                lines.extend(branch.fold_lines(indent + "    "))
        return lines

    def apply(self, item: Any) -> Any:
        for member in self.members:
            item = member.apply(item)
        return item

    def apply_partition(self, items: List[Any]) -> List[Any]:
        if not items:
            return []
        if not obs_trace.enabled():
            return self._run_partition(items)
        args = {
            "members": "+".join(self.member_labels),
            "batch": len(items),
            "certified": 0,
            "fallback": 0,
        }
        with obs_trace.span("kernel.stage", cat="serving", args=args):
            return self._run_partition(items, args)

    def _run_partition(self, items: List[Any], counts=None) -> List[Any]:
        if self.certified:
            ids = self._run_certified(items, counts)
            if ids is not None:
                return ids
            if counts is not None:
                counts["fallback"] = len(items)
        return self._run_exact(items)

    def _run_certified(self, items: List[Any], counts) -> Optional[List[int]]:
        """Bounded kernels, then the head's proof; ``None`` if one declines."""
        *body, head = self.kernels()
        form, value = _lift_rows(items) or (ROWS, items)
        err = None
        for kernel in body:
            out = kernel.bounded(form, value, err)
            if out is None:
                return None
            form, value, err = out
        out = head.certify(form, value, err)
        if out is None:
            return None
        ids, fallback = out
        if fallback:
            exact = self._run_exact([items[i] for i in fallback])
            for i, label in zip(fallback, exact):
                ids[i] = label
        if counts is not None:
            counts["certified"] = len(items) - len(fallback)
            counts["fallback"] = len(fallback)
        return ids

    def _run_exact(self, items: List[Any]) -> List[Any]:
        kernels = self.kernels()
        if kernels:
            form, value = _lift_rows(items) or (ROWS, items)
            for kernel in kernels:
                out = kernel.run(form, value)
                if out is None:
                    break
                form, value = out
            else:
                return _block_rows(form, value)
        # Fallback: the per-item member chain.  Not the members'
        # apply_partition — those BLAS-batched overrides are the
        # ulp-divergent paths this stage exists to retire.
        return [self.apply(x) for x in items]

    def columnar_kernel(self) -> Optional[Kernel]:
        kernels = self.kernels()
        return ChainKernel(kernels) if kernels else None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_kernels"] = None  # kernels hold no fitted state; rebuild
        return state

    def __repr__(self) -> str:
        names = "+".join(type(m).__name__ for m in self.members)
        return f"KernelStage({names})"


class FoldedGather(Transformer):
    """A gather folded into a :class:`KernelStage` with its branches.

    Each branch is itself a stage over the gather's common input.  Per
    item the value is the list of branch outputs — exactly what the
    evaluator's gather zips — so the folded stage's per-item path is
    the unfolded sub-DAG's.
    """

    def __init__(self, branches: Sequence[KernelStage]):
        self.branches = list(branches)
        self.weight = max(branch.weight for branch in self.branches)

    def apply(self, item: Any) -> List[Any]:
        return [branch.apply(item) for branch in self.branches]

    def columnar_kernel(self) -> Optional[Kernel]:
        kernels = [branch.columnar_kernel() for branch in self.branches]
        if any(kernel is None for kernel in kernels):
            return None
        return GatherKernel(kernels)

    def __repr__(self) -> str:
        return f"FoldedGather({', '.join(map(repr, self.branches))})"
