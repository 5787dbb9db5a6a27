"""Tests for input validators."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_adjacency,
    check_budget,
    check_finite,
    check_probability,
    check_square,
    check_symmetric,
)


class TestCheckSquare:
    def test_passes(self):
        out = check_square(np.zeros((3, 3)))
        assert out.shape == (3, 3)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_rejects(self, shape):
        with pytest.raises(ValueError):
            check_square(np.zeros(shape))


class TestCheckSymmetric:
    def test_passes(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        check_symmetric(m)

    def test_rejects(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric(m)

    def test_tolerance(self):
        m = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        check_symmetric(m)  # within atol


class TestCheckAdjacency:
    def test_valid_passes_and_casts(self):
        m = np.array([[0, 1], [1, 0]], dtype=int)
        out = check_adjacency(m)
        assert out.dtype == np.float64

    def test_rejects_values(self):
        m = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError, match="binary"):
            check_adjacency(m)

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            check_adjacency(np.eye(2))

    def test_empty_ok(self):
        check_adjacency(np.zeros((0, 0)))


class TestScalars:
    def test_budget(self):
        assert check_budget(3) == 3
        assert check_budget(np.int64(2)) == 2
        with pytest.raises(ValueError):
            check_budget(-1)
        with pytest.raises(TypeError):
            check_budget(1.5)

    def test_probability(self):
        assert check_probability(0.5) == 0.5
        assert check_probability(0) == 0.0
        with pytest.raises(ValueError):
            check_probability(1.2)

    def test_finite(self):
        assert check_finite(2, "x") == 2.0
        assert check_finite(0.0, "x", low=0.0, high=1.0) == 0.0
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                check_finite(bad, "x")
        with pytest.raises(ValueError, match="positive"):
            check_finite(0.0, "x", positive=True)
        with pytest.raises(ValueError, match=r"\[0.0, 1.0\]"):
            check_finite(1.5, "x", low=0.0, high=1.0)
        with pytest.raises(TypeError):
            check_finite("a", "x")
