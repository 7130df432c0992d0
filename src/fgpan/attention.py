"""Local window attention: spatial tiling plus per-window self-attention
with a relative positional bias.

Patches are tiled into non-overlapping S x S windows by floor division of
their grid coordinates; a window is one group of a sort by (slide, tile
row, tile col), so the slides of a stack never share one. Each window is
padded to S^2 slots ordered by the in-window offset, and one batched
softmax runs over all windows of a head; empty key slots are masked out
with a -inf logit and the rows of empty query slots are dropped, so
attention runs over the real members of each window only (as in Swin
Transformer, arXiv:2103.14030). The bias is a
per-head (2S-1) x (2S-1) table indexed by the relative (row, col)
displacement of the query patch minus the key patch, added to Q K^T before
the sqrt(d) scaling.

The kernels take the head's projections already re-associated: the logits
Q K^T = f W_Q W_K^T f^T are taken as (f M) f^T with M = W_Q W_K^T, and the
head output A (f W_V) as (A f) W_V, so a kernel attends over the padded
inputs f themselves and returns Y = A f. The caller forms M and folds W_V
into the layers after it (training._fold); the kernels never see a
projection matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import _groups, _int64

__all__ = [
    "WindowLayout",
    "partition_coords",
    "window_attention",
    "window_attention_backward",
]


@dataclass(frozen=True, eq=False)
class WindowLayout:
    """Where each patch sits in the padded (n_windows, S^2) window grid.

    tiles: (n_windows, 2) tile coordinates (row // S, col // S), row-major
        (slide by slide in a stack), empty tiles omitted.
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

    def pad(self, x: np.ndarray) -> np.ndarray:
        """Scatter (M, d) rows into zero-filled (n_windows, S^2, d) slots."""
        n_win, s2 = self.mask.shape
        out = np.zeros((n_win * s2, x.shape[1]))
        out[self.slot] = x
        return out.reshape(n_win, s2, x.shape[1])

    def unpad(self, x: np.ndarray) -> np.ndarray:
        """Gather the real rows of (n_windows, S^2, d) back into (M, d)."""
        return x.reshape(-1, x.shape[2])[self.slot]


def partition_coords(coords: np.ndarray, window_size: int, sizes=None) -> WindowLayout:
    """Tile patches into non-overlapping S x S windows by coords // S, in
    row-major tile order. sizes, when given, splits the rows into the slides
    of a stack, sizes[j] rows for slide j: the windows are then each slide's
    own in turn, so none spans two slides."""
    if window_size < 1:
        raise ValueError("window size must be >= 1")
    s = window_size
    coords = _int64(coords, "coords")
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError("coords must have shape (M, 2)")
    tile = coords // s
    offs = coords % s
    keys = (tile[:, 1], tile[:, 0])
    if sizes is not None:
        keys += (np.repeat(np.arange(len(sizes)), sizes),)
    window, first = _groups(*keys)
    n_win = len(first)
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
        tiles=tile[first],
        window=window,
        slot=slot,
        mask=mask.reshape(n_win, s * s),
        bias_index=bias_index,
    )


def window_attention(f_pad: np.ndarray, fm: np.ndarray, layout: WindowLayout,
                     bias_table: np.ndarray):
    """One head of self-attention over every window of a layout at once.

    f_pad is the slide's (M, d) inputs padded by layout.pad, shared by every
    head, and fm the head's (M, d) f M with M = W_Q W_K^T. The logits are
    ((f M)_pad f_pad^T + bias) / sqrt(d); empty key slots get a -inf logit,
    so they carry exactly zero weight, and the rows of empty query slots are
    dropped. Returns the (M, d) attended inputs Y = A f, window by window
    (the head output is Y W_V), and the (n_windows, S^2, S^2) attention
    weights A that window_attention_backward reads.
    """
    z = layout.pad(fm) @ f_pad.transpose(0, 2, 1)
    z += bias_table.ravel()[layout.bias_index]
    z /= math.sqrt(f_pad.shape[2])
    z = np.where(layout.mask[:, None, :], z, -np.inf)
    z -= z.max(axis=2, keepdims=True)
    a = np.exp(z, out=z)
    a /= a.sum(axis=2, keepdims=True)
    return layout.unpad(a @ f_pad), a


def window_attention_backward(f_pad: np.ndarray, layout: WindowLayout, a: np.ndarray,
                              d_y: np.ndarray):
    """Gradients of window_attention's inputs given d(loss)/d(Y).

    a is the attention weights window_attention returned. Returns (d_fm,
    d_bias): the (M, d) gradient with respect to fm (f^T d_fm is that of
    M = W_Q W_K^T) and the (2S-1, 2S-1) bias-table gradient. Empty query
    slots receive a zero upstream gradient and empty key slots hold zero
    weight, so padding contributes nothing.
    """
    d_a = layout.pad(d_y) @ f_pad.transpose(0, 2, 1)
    dz = a * (d_a - (a * d_a).sum(axis=2, keepdims=True))
    dz /= math.sqrt(f_pad.shape[2])
    # bias_index takes every displacement, so the count has (2S-1)^2 bins
    side = 2 * math.isqrt(layout.mask.shape[1]) - 1
    d_bias = np.bincount(layout.bias_index.ravel(), dz.sum(axis=0).ravel())
    return layout.unpad(dz @ f_pad), d_bias.reshape(side, side)
