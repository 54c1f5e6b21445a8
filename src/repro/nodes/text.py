"""Text featurization operators (paper Figure 2's pipeline vocabulary).

The text path mirrors KeystoneML's Amazon Reviews pipeline: raw string ->
``Trim`` -> ``LowerCase`` -> ``Tokenizer`` -> ``NGramsFeaturizer`` ->
``TermFrequency`` -> ``CommonSparseFeatures`` (an Estimator selecting the
most frequent n-grams and mapping documents to sparse vectors).
"""

from __future__ import annotations

import re
import zlib
from collections import Counter
from typing import Callable, Dict, List, Optional

import scipy.sparse as sp

from repro.core.kernels import SparseVectorizeKernel, TermCountKernel, term_rows
from repro.core.operators import Estimator, ShardableEstimator, Transformer
from repro.dataset.dataset import tree_combine
from repro.dataset.rows import SparseRows, csr_rows


def _update_counter(a: Counter, b: Counter) -> Counter:
    """The combining step shared by serial and stat-merged DF counting."""
    a.update(b)
    return a


def _unit_weight(count: int) -> float:
    return 1.0


def unit_weighting() -> Callable[[int], float]:
    """The paper's binary-presence weighting (``x => 1``), by name.

    An inline ``lambda c: 1.0`` works, but serde marshals a captured
    lambda *with* its source location, so textually identical lambdas on
    different lines content-address differently — fits built at
    different call sites never share TermFrequency op keys.  This
    module-level function pickles by reference, giving every caller the
    one canonical weighting and therefore one key (warm retrains, sweep
    dedup, and the actor runtime's cross-fit shard cache all rely on op
    keys agreeing across builds).
    """
    return _unit_weight


class Trim(Transformer):
    """Strip leading/trailing whitespace from a document."""

    def apply(self, item: str) -> str:
        return item.strip()


class LowerCase(Transformer):
    """Lower-case a document."""

    def apply(self, item: str) -> str:
        return item.lower()


class Tokenizer(Transformer):
    """Split a document into tokens on a regular expression."""

    def __init__(self, pattern: str = r"[^a-zA-Z0-9']+"):
        self._splitter = re.compile(pattern)

    def apply(self, item: str) -> List[str]:
        return [t for t in self._splitter.split(item) if t]


class NGramsFeaturizer(Transformer):
    """Expand a token list into n-grams for n in [lo, hi].

    N-grams are joined with spaces, so downstream operators treat them as
    opaque terms.
    """

    def __init__(self, lo: int = 1, hi: int = 2):
        if not 1 <= lo <= hi:
            raise ValueError(f"require 1 <= lo <= hi, got lo={lo} hi={hi}")
        self.lo = lo
        self.hi = hi

    def apply(self, tokens: List[str]) -> List[str]:
        out: List[str] = []
        for n in range(self.lo, self.hi + 1):
            if n == 1:
                out.extend(tokens)
            else:
                out.extend(map(" ".join, zip(*(tokens[k:] for k in range(n)))))
        return out


class TermFrequency(Transformer):
    """Map a term list to ``{term: weight(count)}``.

    ``weighting`` maps the raw count to the stored weight; the paper's
    example uses ``x => 1`` (binary presence).  It must be a pure
    function of the count: in a served kernel stage the counting fuses
    into the vectorizer, which calls ``weighting`` only for the terms it
    keeps (:class:`~repro.core.kernels.TermCountKernel`).
    """

    def __init__(self, weighting: Optional[Callable[[int], float]] = None):
        self.weighting = weighting or float

    def apply(self, terms: List[str]) -> Dict[str, float]:
        if self.weighting is _unit_weight:
            # Binary presence: the Counter path's keys, order and values.
            return dict.fromkeys(terms, 1.0)
        counts = Counter(terms)
        return {term: self.weighting(c) for term, c in counts.items()}

    def columnar_kernel(self):
        return TermCountKernel(self.weighting, self.weighting is _unit_weight)

    def __getstate__(self):
        # The paper's canonical weighting is a lambda (``x => 1``); pack
        # it so the operator ships to worker processes and persists.
        from repro.core.serde import pack_callable

        state = self.__dict__.copy()
        state["weighting"] = pack_callable(self.weighting)
        return state

    def __setstate__(self, state):
        from repro.core.serde import unpack_callable

        state["weighting"] = unpack_callable(state["weighting"])
        self.__dict__.update(state)


class SparseFeatureVectorizer(Transformer):
    """Map ``{term: weight}`` to a 1 x d sparse row given a vocabulary.

    A partition becomes one :class:`~repro.dataset.rows.SparseRows`: a
    single :func:`term_rows` build over all its documents, whose row
    ``i`` is byte-equal to ``apply`` of document ``i``.
    """

    def __init__(self, vocabulary: Dict[str, int]):
        self.vocabulary = vocabulary
        self.dim = len(vocabulary)

    def apply(self, term_weights: Dict[str, float]) -> sp.csr_matrix:
        return term_rows(self.vocabulary, [term_weights], self.dim)

    def apply_partition(self, docs: List[Dict[str, float]]) -> SparseRows:
        return SparseRows(term_rows(self.vocabulary, docs, self.dim))

    def columnar_kernel(self):
        return SparseVectorizeKernel(self.vocabulary, self.dim)


class CommonSparseFeatures(ShardableEstimator, Estimator):
    """Select the ``num_features`` most frequent terms across the corpus.

    Fitting aggregates document frequencies with a combining tree (the
    aggregation the paper notes limits Amazon-pipeline scaling) and returns
    a :class:`SparseFeatureVectorizer` over the selected vocabulary.

    The per-partition document-frequency counters are exposed as
    sufficient statistics (:class:`~repro.core.operators.
    ShardableEstimator`): worker processes count shards locally and the
    parent merges with the *same* combining tree, so vocabulary order —
    and therefore predictions — stay byte-identical to the serial fit
    (``Counter.most_common`` ties break on insertion order, which the
    tree shape determines).
    """

    def __init__(self, num_features: int):
        if num_features < 1:
            raise ValueError(f"num_features must be >= 1, got {num_features}")
        self.num_features = int(num_features)

    def partition_stats(self, rows: List[Dict[str, float]]) -> Counter:
        acc = Counter()
        for term_weights in rows:
            acc.update(term_weights.keys())
        return acc

    def fit_from_stats(self, partials: List[Counter]
                       ) -> SparseFeatureVectorizer:
        counts = Counter()
        if partials:
            counts.update(tree_combine(partials, _update_counter))
        top = counts.most_common(self.num_features)
        vocabulary = {term: i for i, (term, _count) in enumerate(top)}
        return SparseFeatureVectorizer(vocabulary)


class HashingTF(Transformer):
    """Stateless alternative to CommonSparseFeatures: feature hashing.

    A term's column is the CRC-32 of its UTF-8 bytes modulo
    ``num_features``: stable across processes and runs, unlike the
    salted built-in ``hash``.  Colliding terms sum in term order.
    """

    def __init__(self, num_features: int = 1 << 16):
        if num_features < 1:
            raise ValueError(f"num_features must be >= 1, got {num_features}")
        self.num_features = int(num_features)

    def apply(self, term_weights: Dict[str, float]) -> sp.csr_matrix:
        accum: Dict[int, float] = {}
        for term, weight in term_weights.items():
            idx = zlib.crc32(term.encode("utf-8")) % self.num_features
            accum[idx] = accum.get(idx, 0.0) + weight
        return csr_rows(list(accum.values()), list(accum), [0, len(accum)],
                        self.num_features)


# Common English stop words (enough for featurization hygiene; the paper's
# pipelines rely on frequency cutoffs rather than curated lists).
_STOP_WORDS = frozenset("""
a an and are as at be but by for from has have in is it its of on or that
the this to was were will with not no i you he she they we him her them our
your my me so if then than too very just about over under again once only
""".split())


class StopWordRemover(Transformer):
    """Drop stop words from a token list."""

    def __init__(self, extra_words: Optional[List[str]] = None):
        self.stop_words = _STOP_WORDS | set(extra_words or ())

    def apply(self, tokens: List[str]) -> List[str]:
        return [t for t in tokens if t.lower() not in self.stop_words]


class SuffixStemmer(Transformer):
    """Light suffix-stripping stemmer (a Porter-lite).

    Strips common inflectional suffixes in priority order; enough to merge
    ``love/loves/loved/loving`` style variants in synthetic corpora.
    """

    SUFFIXES = ("ational", "iveness", "fulness", "ization", "ingly",
                "edly", "ation", "ments", "ness", "ing", "ed", "ly", "es",
                "s")

    def __init__(self, min_stem: int = 3):
        self.min_stem = min_stem

    def apply(self, tokens: List[str]) -> List[str]:
        out = []
        for token in tokens:
            for suffix in self.SUFFIXES:
                if (token.endswith(suffix)
                        and len(token) - len(suffix) >= self.min_stem):
                    token = token[:-len(suffix)]
                    break
            out.append(token)
        return out


class IDFEstimator(ShardableEstimator, Estimator):
    """Fit inverse document frequencies over ``{term: weight}`` rows.

    The fitted transformer rescales term weights by
    ``log((1 + N) / (1 + df)) + 1`` (smoothed IDF); combined with
    :class:`TermFrequency` this yields TF-IDF featurization.  Document
    counts and frequency counters are per-partition sufficient statistics
    merged in partition order.
    """

    def partition_stats(self, rows: List[Dict[str, float]]):
        count, df = 0, Counter()
        for term_weights in rows:
            count += 1
            df.update(term_weights.keys())
        return (count, df)

    def fit_from_stats(self, partials) -> "IDFTransformer":
        import math as _math

        num_docs, doc_freq = 0, Counter()
        for count, df in partials:
            num_docs += count
            doc_freq.update(df)
        idf = {term: _math.log((1 + num_docs) / (1 + df)) + 1.0
               for term, df in doc_freq.items()}
        return IDFTransformer(idf, default=_math.log(1 + num_docs) + 1.0)


class IDFTransformer(Transformer):
    def __init__(self, idf: Dict[str, float], default: float):
        self.idf = idf
        self.default = default

    def apply(self, term_weights: Dict[str, float]) -> Dict[str, float]:
        return {term: w * self.idf.get(term, self.default)
                for term, w in term_weights.items()}
