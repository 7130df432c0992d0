"""Local window attention: spatial tiling plus per-window multi-head
self-attention with a relative positional bias.

Patches are tiled into non-overlapping S x S windows by integer division of
their grid coordinates. Attention runs over the real members of each window
only (variable-size windows, no padding). The bias is a per-head
(2S-1) x (2S-1) table indexed by the relative (row, col) displacement of the
query patch minus the key patch, added to Q K^T before the sqrt(d) scaling.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AttentionHeadParams",
    "LwaParams",
    "partition_coords",
    "window_attention",
]


@dataclass(eq=False)
class AttentionHeadParams:
    """Per-head d x d projections and the relative positional bias table."""

    W_Q: np.ndarray
    W_K: np.ndarray
    W_V: np.ndarray
    bias_table: np.ndarray

    def __post_init__(self):
        self.W_Q = np.asarray(self.W_Q, dtype=np.float64)
        self.W_K = np.asarray(self.W_K, dtype=np.float64)
        self.W_V = np.asarray(self.W_V, dtype=np.float64)
        self.bias_table = np.asarray(self.bias_table, dtype=np.float64)
        d = self.W_Q.shape[0]
        for name, w in (("W_Q", self.W_Q), ("W_K", self.W_K), ("W_V", self.W_V)):
            if w.shape != (d, d):
                raise ValueError(f"{name} must be square of shape ({d}, {d})")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"{name} contains non-finite values")
        side = self.bias_table.shape[0]
        if self.bias_table.shape != (side, side) or side % 2 == 0:
            raise ValueError("bias_table must be square with odd side 2S-1")
        if not np.all(np.isfinite(self.bias_table)):
            raise ValueError("bias_table contains non-finite values")

    @property
    def dim(self) -> int:
        return self.W_Q.shape[0]

    @property
    def window_size(self) -> int:
        return (self.bias_table.shape[0] + 1) // 2


@dataclass(eq=False)
class LwaParams:
    """All attention heads of the refinement stage."""

    heads: list[AttentionHeadParams]
    dim: int

    def __post_init__(self):
        if not self.heads:
            raise ValueError("at least one attention head required")
        for h in self.heads:
            if h.dim != self.dim:
                raise ValueError("all heads must share the feature dimension")
            if h.window_size != self.heads[0].window_size:
                raise ValueError("all heads must share the window size")

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    @property
    def window_size(self) -> int:
        return self.heads[0].window_size


def partition_coords(coords: np.ndarray, window_size: int):
    """Group patch indices by tile (row // S, col // S); empty tiles omitted.

    Returns [(tile, member_index_array, offsets_array)] sorted row-major by
    tile; members keep their original relative order.
    """
    if window_size < 1:
        raise ValueError("window size must be >= 1")
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (r, c) in enumerate(np.asarray(coords)):
        groups.setdefault((int(r) // window_size, int(c) // window_size), []).append(i)
    out = []
    for tile in sorted(groups):
        idx = np.array(groups[tile], dtype=np.int64)
        offs = np.asarray(coords)[idx] % window_size
        out.append((tile, idx, offs))
    return out


def window_attention(f: np.ndarray, parts, head: AttentionHeadParams):
    """One head of self-attention over every window of a partition.

    f is the slide's (M, d) feature matrix and parts the output of
    partition_coords. Returns the (M, d) head output and, per window, the
    cache (idx, bias_idx, fk, q, k, v, a) the backward pass reads; a is the
    window's (k, k) attention matrix.
    """
    s = head.window_size
    scale = math.sqrt(head.dim)
    out = np.empty_like(f)
    wins = []
    for _tile, idx, offs in parts:
        fk = f[idx]
        q = fk @ head.W_Q
        k = fk @ head.W_K
        v = fk @ head.W_V
        d_row = offs[:, 0][:, None] - offs[:, 0][None, :]
        d_col = offs[:, 1][:, None] - offs[:, 1][None, :]
        bias_idx = (d_row + s - 1, d_col + s - 1)
        z = (q @ k.T + head.bias_table[bias_idx]) / scale
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        a = e / e.sum(axis=1, keepdims=True)
        out[idx] = a @ v
        wins.append((idx, bias_idx, fk, q, k, v, a))
    return out, wins
