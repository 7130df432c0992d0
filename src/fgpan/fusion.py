"""Parameters of the gated fusion of per-head attention outputs.

Each head output is scaled by a scalar sigmoid gate (the gate projection is
d x 1, so the gate multiplies the whole vector), the gated vectors are
summed, and the sum is passed through a learned affine projection. The
forward and backward passes live in training.py.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["GateParams", "FusionParams"]


@dataclass(eq=False)
class GateParams:
    """Per-head gate weights w_g (L, d) and biases b_g (L,)."""

    w_g: np.ndarray
    b_g: np.ndarray

    def __post_init__(self):
        self.w_g = np.asarray(self.w_g, dtype=np.float64)
        self.b_g = np.asarray(self.b_g, dtype=np.float64)
        if self.w_g.ndim != 2 or self.b_g.shape != (self.w_g.shape[0],):
            raise ValueError("w_g must be (L, d) and b_g (L,)")
        if not (np.all(np.isfinite(self.w_g)) and np.all(np.isfinite(self.b_g))):
            raise ValueError("gate parameters contain non-finite values")

    @property
    def n_heads(self) -> int:
        return self.w_g.shape[0]


@dataclass(eq=False)
class FusionParams:
    """Affine projection applied to the gated-head sum."""

    W_f: np.ndarray
    b_f: np.ndarray

    def __post_init__(self):
        self.W_f = np.asarray(self.W_f, dtype=np.float64)
        self.b_f = np.asarray(self.b_f, dtype=np.float64)
        d = self.W_f.shape[0]
        if self.W_f.shape != (d, d) or self.b_f.shape != (d,):
            raise ValueError("W_f must be (d, d) and b_f (d,)")
        if not (np.all(np.isfinite(self.W_f)) and np.all(np.isfinite(self.b_f))):
            raise ValueError("fusion parameters contain non-finite values")
