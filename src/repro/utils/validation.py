"""Input validation shared by the graph, oddball and attack layers.

All validators raise ``ValueError``/``TypeError`` with actionable messages;
they return the validated (possibly dtype-normalised) object so call sites can
chain them.
"""

from __future__ import annotations

import math

import numpy as np


def check_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Require a 2-D square array."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square 2-D, got shape {matrix.shape}")
    return matrix


def check_symmetric(matrix: np.ndarray, name: str = "matrix", *, atol: float = 1e-8) -> np.ndarray:
    """Require a symmetric square array."""
    matrix = check_square(matrix, name)
    if not np.allclose(matrix, matrix.T, atol=atol):
        raise ValueError(f"{name} must be symmetric")
    return matrix


def check_adjacency(matrix: np.ndarray, name: str = "adjacency") -> np.ndarray:
    """Validate a simple-graph adjacency matrix.

    Requirements: square, symmetric, binary entries, zero diagonal.  Returns
    the matrix as ``float64`` (the dtype used throughout the library so the
    same arrays feed numpy linear algebra and the autograd engine).
    """
    matrix = check_symmetric(np.asarray(matrix, dtype=np.float64), name)
    if matrix.size and not np.all((matrix == 0.0) | (matrix == 1.0)):
        bad = matrix[(matrix != 0.0) & (matrix != 1.0)]
        raise ValueError(f"{name} must be binary; found values like {bad.flat[0]!r}")
    if matrix.size and np.any(np.diagonal(matrix) != 0.0):
        raise ValueError(f"{name} must have a zero diagonal (no self-loops)")
    return matrix


def check_budget(budget: int, name: str = "budget") -> int:
    """Require a non-negative integer edge budget."""
    if not isinstance(budget, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(budget).__name__}")
    if budget < 0:
        raise ValueError(f"{name} must be non-negative, got {budget}")
    return int(budget)


def check_probability(p: float, name: str = "probability") -> float:
    """Require a float in [0, 1]."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return p


def check_finite(
    value: float,
    name: str,
    *,
    low: "float | None" = None,
    high: "float | None" = None,
    positive: bool = False,
) -> float:
    """Require a finite real number in ``[low, high]`` (and ``> 0`` if ``positive``).

    NaN compares false against every bound, so a plain range check lets it
    through; this helper rejects NaN and ±inf before the range is checked.
    """
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise TypeError(
            f"{name} must be a real number, got {type(value).__name__}"
        ) from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if positive and value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    if (low is not None and value < low) or (high is not None and value > high):
        raise ValueError(
            f"{name} must lie in [{low if low is not None else '-inf'}, "
            f"{high if high is not None else 'inf'}], got {value}"
        )
    return value
