"""Distributed-style linear algebra over :class:`~repro.dataset.Dataset`.

TSQR (tall-skinny QR) factorization of row-partitioned matrices via an
aggregation tree — the communication-avoiding primitive behind the
KeystoneML QR solvers.
"""

from repro.linalg.tsqr import tsqr_r, tsqr_solve

__all__ = ["tsqr_r", "tsqr_solve"]
