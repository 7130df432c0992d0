"""Coordinate-aware slide-level aggregation: its prediction type and the
positional embeddings.

Importance weights are a softmax over w . [feature || positional-embedding];
the slide distribution is the weighted sum of the patch distributions. That
forward pass and its gradient live in training.py.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SlidePrediction",
    "sinusoidal_embeddings",
    "table_rows",
]


@dataclass(eq=False)
class SlidePrediction:
    """Patch importance weights plus the aggregated class distribution."""

    alpha: np.ndarray
    P: np.ndarray
    predicted: int

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.P = np.asarray(self.P, dtype=np.float64)
        if (not np.isfinite(self.alpha).all() or np.any(self.alpha < 0)
                or abs(self.alpha.sum() - 1.0) > 1e-9):
            raise ValueError("alpha must be a finite probability vector")
        if not np.isfinite(self.P).all() or abs(self.P.sum() - 1.0) > 1e-9:
            raise ValueError("P must be finite and sum to 1")


def sinusoidal_embeddings(coords: np.ndarray, d: int) -> np.ndarray:
    """Sinusoidal encoding of (M, 2) grid coordinates, one row per patch.

    For j in 0..d/4-1 with omega_j = 10000**(-4j/d), slots (4j..4j+3) hold
    (sin(row * omega_j), cos(row * omega_j), sin(col * omega_j),
    cos(col * omega_j)). Requires d divisible by 4.
    """
    if d % 4 != 0:
        raise ValueError("sinusoidal positional encoding requires d divisible by 4")
    coords = np.asarray(coords, dtype=np.float64)
    j = np.arange(d // 4)
    omega = 10000.0 ** (-4.0 * j / d)
    rows = coords[:, 0][:, None] * omega[None, :]
    cols = coords[:, 1][:, None] * omega[None, :]
    out = np.empty((coords.shape[0], d))
    out[:, 0::4] = np.sin(rows)
    out[:, 1::4] = np.cos(rows)
    out[:, 2::4] = np.sin(cols)
    out[:, 3::4] = np.cos(cols)
    return out


def table_rows(coords: np.ndarray, params) -> np.ndarray:
    """The learned table's row of each patch, row * grid_cols + col, for a
    model's agg group params: the forward gathers phi from these rows and
    the backward adds into them."""
    coords = np.asarray(coords)
    if coords[:, 0].max() >= params.grid_rows or coords[:, 1].max() >= params.grid_cols:
        raise ValueError("coordinate outside the learned positional table's grid")
    return coords[:, 0] * params.grid_cols + coords[:, 1]
