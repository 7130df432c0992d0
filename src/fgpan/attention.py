"""Local window attention: spatial tiling plus per-window multi-head
self-attention with a relative positional bias.

Patches are tiled into non-overlapping S x S windows by integer division of
their grid coordinates. Each window is padded to S^2 slots ordered by the
in-window offset, and one batched softmax runs over all windows of a head;
empty key slots are masked out with a -inf logit and the rows of empty
query slots are dropped, so attention runs over the real members of each
window only (as in Swin Transformer, arXiv:2103.14030). The bias is a
per-head (2S-1) x (2S-1) table indexed by the relative (row, col)
displacement of the query patch minus the key patch, added to Q K^T before
the sqrt(d) scaling.
"""

import math
from dataclasses import dataclass

import numpy as np

from .params import AttentionHeadParams

__all__ = [
    "WindowLayout",
    "partition_coords",
    "window_attention",
    "window_attention_backward",
]


@dataclass(frozen=True, eq=False)
class WindowLayout:
    """Where each patch sits in the padded (n_windows, S^2) window grid.

    tiles: (n_windows, 2) tile coordinates (row // S, col // S), row-major,
        empty tiles omitted.
    window: (M,) window index of each patch.
    slot: (M,) flat padded slot, window * S^2 + (row % S) * S + (col % S).
    mask: (n_windows, S^2) True where a slot holds a patch.
    bias_index: (S^2, S^2) flat index into a (2S-1) x (2S-1) bias table of
        the displacement between query slot i and key slot j. Slots are
        ordered by in-window offset, so one index serves every window.
    """

    tiles: np.ndarray
    window: np.ndarray
    slot: np.ndarray
    mask: np.ndarray
    bias_index: np.ndarray

    @property
    def n_windows(self) -> int:
        return self.tiles.shape[0]


def partition_coords(coords: np.ndarray, window_size: int) -> WindowLayout:
    """Tile patches into non-overlapping S x S windows by coords // S."""
    if window_size < 1:
        raise ValueError("window size must be >= 1")
    s = window_size
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError("coords must have shape (M, 2)")
    tile = coords // s
    offs = coords % s
    # row-major key: sorting it sorts tiles by (row, col)
    span = int(tile[:, 1].max()) + 1 if len(tile) else 1
    keys, window = np.unique(tile[:, 0] * span + tile[:, 1], return_inverse=True)
    n_win = keys.size
    slot = window * (s * s) + offs[:, 0] * s + offs[:, 1]
    mask = np.zeros(n_win * s * s, dtype=bool)
    mask[slot] = True
    if np.count_nonzero(mask) != len(coords):
        raise ValueError("duplicate patch coordinates")
    off_r, off_c = np.divmod(np.arange(s * s), s)
    side = 2 * s - 1
    bias_index = (off_r[:, None] - off_r[None, :] + s - 1) * side + (
        off_c[:, None] - off_c[None, :] + s - 1
    )
    return WindowLayout(
        tiles=np.stack([keys // span, keys % span], axis=1),
        window=window.reshape(-1),
        slot=slot,
        mask=mask.reshape(n_win, s * s),
        bias_index=bias_index,
    )


def _pad(x: np.ndarray, layout: WindowLayout) -> np.ndarray:
    """Scatter (M, d) rows into zero-filled (n_windows, S^2, d) slots."""
    n_win, s2 = layout.mask.shape
    out = np.zeros((n_win * s2, x.shape[1]))
    out[layout.slot] = x
    return out.reshape(n_win, s2, x.shape[1])


def _unpad(x: np.ndarray, layout: WindowLayout) -> np.ndarray:
    """Gather the real rows of (n_windows, S^2, d) back into (M, d)."""
    return x.reshape(-1, x.shape[2])[layout.slot]


def window_attention(f: np.ndarray, layout: WindowLayout, head: AttentionHeadParams):
    """One head of self-attention over every window of a layout at once.

    f is the slide's (M, d) feature matrix and layout the output of
    partition_coords. Every window is padded to S^2 slots; empty key slots
    get a -inf logit, so they carry exactly zero weight, and the rows of
    empty query slots are dropped. Returns the (M, d) head output and the
    cache (q, k, v, a) window_attention_backward reads: padded
    (n_windows, S^2, d) projections and the (n_windows, S^2, S^2)
    attention weights.
    """
    q = _pad(f @ head.W_Q, layout)
    k = _pad(f @ head.W_K, layout)
    v = _pad(f @ head.W_V, layout)
    z = q @ k.transpose(0, 2, 1)
    z += head.bias_table.ravel()[layout.bias_index]
    z /= math.sqrt(head.dim)
    z = np.where(layout.mask[:, None, :], z, -np.inf)
    z -= z.max(axis=2, keepdims=True)
    a = np.exp(z, out=z)
    a /= a.sum(axis=2, keepdims=True)
    return _unpad(a @ v, layout), (q, k, v, a)


def window_attention_backward(
    f: np.ndarray, layout: WindowLayout, head: AttentionHeadParams, cache, d_out: np.ndarray
):
    """Gradients of one head's window attention given d(loss)/d(output).

    Returns (dW_Q, dW_K, dW_V, d_bias_table). Empty query slots receive a
    zero upstream gradient and empty key slots hold zero weight, so padding
    contributes nothing.
    """
    q, k, v, a = cache
    # dV -> dW_V, then dz and the bias, then dQ -> dW_Q and dK -> dW_K: each
    # padded (n_windows, S^2, d) buffer is freed once it has been used
    do = _pad(d_out, layout)
    d_wv = f.T @ _unpad(a.transpose(0, 2, 1) @ do, layout)
    d_a = do @ v.transpose(0, 2, 1)
    del do
    dz = a * (d_a - (a * d_a).sum(axis=2, keepdims=True))
    dz /= math.sqrt(head.dim)
    d_bias = np.bincount(
        layout.bias_index.ravel(), dz.sum(axis=0).ravel(), minlength=head.bias_table.size
    ).reshape(head.bias_table.shape)
    d_wq = f.T @ _unpad(dz @ k, layout)
    d_wk = f.T @ _unpad(dz.transpose(0, 2, 1) @ q, layout)
    return d_wq, d_wk, d_wv, d_bias
