"""Tests for TSQR."""

import numpy as np
import pytest

from repro.linalg import tsqr_r, tsqr_solve


def _random_blocks(rng, n_blocks, rows, cols):
    return [rng.standard_normal((rows, cols)) for _ in range(n_blocks)]


class TestTSQR:
    def test_r_matches_numpy_up_to_sign(self):
        rng = np.random.default_rng(0)
        blocks = _random_blocks(rng, 4, 25, 6)
        r_tsqr = tsqr_r(blocks)
        r_np = np.linalg.qr(np.vstack(blocks), mode="r")
        # R is unique up to row signs.
        np.testing.assert_allclose(np.abs(r_tsqr), np.abs(r_np), atol=1e-8)

    def test_r_gram_identity(self):
        """R^T R == A^T A regardless of sign convention."""
        rng = np.random.default_rng(1)
        blocks = _random_blocks(rng, 3, 40, 5)
        a = np.vstack(blocks)
        r = tsqr_r(blocks)
        np.testing.assert_allclose(r.T @ r, a.T @ a, atol=1e-8)

    def test_single_block(self):
        rng = np.random.default_rng(2)
        blocks = _random_blocks(rng, 1, 30, 4)
        r = tsqr_r(blocks)
        np.testing.assert_allclose(r.T @ r, blocks[0].T @ blocks[0],
                                   atol=1e-8)

    def test_short_blocks(self):
        """Blocks with fewer rows than columns still combine correctly."""
        rng = np.random.default_rng(3)
        blocks = _random_blocks(rng, 8, 3, 6)
        a = np.vstack(blocks)
        r = tsqr_r(blocks)
        np.testing.assert_allclose(r.T @ r, a.T @ a, atol=1e-8)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one block"):
            tsqr_r([])

    def test_solve_matches_lstsq(self):
        rng = np.random.default_rng(4)
        a_blocks = _random_blocks(rng, 4, 30, 8)
        x_true = rng.standard_normal((8, 3))
        b_blocks = [a @ x_true for a in a_blocks]
        x = tsqr_solve(a_blocks, b_blocks)
        np.testing.assert_allclose(x, x_true, atol=1e-8)

    def test_solve_with_ridge_shrinks(self):
        rng = np.random.default_rng(5)
        a_blocks = _random_blocks(rng, 2, 50, 5)
        b_blocks = [rng.standard_normal((50, 2)) for _ in range(2)]
        x_plain = tsqr_solve(a_blocks, b_blocks, l2_reg=0.0)
        x_ridge = tsqr_solve(a_blocks, b_blocks, l2_reg=100.0)
        assert np.linalg.norm(x_ridge) < np.linalg.norm(x_plain)

    def test_solve_block_mismatch(self):
        with pytest.raises(ValueError, match="matching block"):
            tsqr_solve([np.eye(2)], [])
