"""Local window attention: spatial tiling plus per-window self-attention
with a relative positional bias.

Patches are tiled into non-overlapping S x S windows by floor division of
their grid coordinates; a window is one group of a sort by (slide, tile
row, tile col), so the slides of a stack never share one. Attention runs
over the real members of each window only (as in Swin Transformer,
arXiv:2103.14030): empty key slots get a -inf logit and the rows of empty
query slots are dropped. The bias is a per-head (2S-1) x (2S-1) table
indexed by the relative (row, col) displacement of the query patch minus
the key patch, added to Q K^T before the sqrt(d) scaling.

Windows run by occupancy class, the way FlashAttention-2 packs sequences
of unequal length (arXiv:2307.08691): the windows holding k patches form
a class of capacity k, and one batched softmax runs over each class. A
class joins the next larger one, padded and masked to its capacity, when
keeping it apart would save fewer multiply-adds than one kernel call costs
(_CALL_MADDS), so a sparse slide no longer pays for S^2 slots per window
while small features (desk scale, d=16) still run as one batch. The class
of capacity S^2 keeps the slot-by-offset order, so one (S^2, S^2) bias
index serves every window in it; a smaller class packs each window's
members in offset order and gathers a bias index per window. A class of
windows holding one patch each takes a fast path: its attention weight is
exactly 1, so Y is the row of f, and no gradient flows to M or the bias.

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
    "WindowClass",
    "WindowLayout",
    "occupancy_classes",
    "partition_coords",
    "window_attention",
    "window_attention_backward",
]

# The fixed cost of one kernel call (window_attention, or its backward, over
# one class), in multiply-adds of the forward's batched products. On a
# 2-core Xeon host (OpenBLAS), a forward and backward call over a single
# two-patch window took 29-31 us together, at d=16 and at d=256 alike, and
# padding 36-100 windows of 3-8 patches to 16 slots at d=256 cost about
# 1e-10 s per multiply-add it added (forward and backward), so a forward
# call costs about 1.5e5 of them. At that price every desk layout (d=16,
# S <= 4) runs as one class of capacity S^2: its largest saving by a split
# is 1.0e5, an infer stack of 1,008 rows at S=3. A wsi-train slide (d=256,
# S=4, fill 0.5) keeps seven classes, from 3 patches up.
_CALL_MADDS = 150_000


@dataclass(frozen=True, eq=False)
class WindowLayout:
    """Where each patch sits in the (n_windows, S^2) window grid.

    tiles: (n_windows, 2) tile coordinates (row // S, col // S), row-major
        (slide by slide in a stack), empty tiles omitted.
    window: (M,) window index of each patch.
    slot: (M,) flat slot, window * S^2 + (row % S) * S + (col % S).
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


@dataclass(frozen=True, eq=False)
class WindowClass:
    """The windows of one occupancy class, each padded to `capacity` slots.

    windows: (n,) the layout's indices of these windows, ascending.
    rows: (m,) the patch rows they hold, ascending.
    slot: (m,) each row's flat slot, i * capacity + j for slot j of the
        class's i-th window. At capacity S^2, j is the in-window offset
        (row % S) * S + col % S; below it, j ranks the patch among its
        window's members in offset order.
    mask: (n, capacity) True where a slot holds a patch.
    bias_index: the flat index into a (2S-1) x (2S-1) bias table of the
        displacement between query slot i and key slot j: (S^2, S^2),
        shared by every window, at capacity S^2; (n, capacity, capacity),
        one per window, below it (an empty slot indexes offset 0 and
        carries zero weight).
    """

    capacity: int
    windows: np.ndarray
    rows: np.ndarray
    slot: np.ndarray
    mask: np.ndarray
    bias_index: np.ndarray

    def pad(self, x: np.ndarray) -> np.ndarray:
        """Scatter this class's rows of (M, d) x into zero-filled
        (n, capacity, d) slots."""
        n, k = self.mask.shape
        out = np.zeros((n * k, x.shape[1]))
        out[self.slot] = x[self.rows]
        return out.reshape(n, k, x.shape[1])

    def unpad(self, x: np.ndarray, out: np.ndarray) -> None:
        """Gather the real rows of (n, capacity, d) x into this class's
        rows of the (M, d) out."""
        out[self.rows] = x.reshape(-1, x.shape[2])[self.slot]


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


def _capacities(n_by_size: list[int], s2: int, dim: int):
    """The capacity that windows of each occupancy 0..S^2 run at, and the
    capacities that hold windows, ascending. Going up from the smallest
    occupancy, the windows so far join the next larger occupancy present
    (S^2 always counts as present) while keeping them apart would save
    fewer multiply-adds (2 n dim (k'^2 - k^2) over n windows in a forward
    call) than one call costs."""
    sizes = [k for k in range(1, s2 + 1) if n_by_size[k] or k == s2]
    cap = [0] * (s2 + 1)
    kept: list[int] = []
    pending, n = [], 0
    for k, nxt in zip(sizes, sizes[1:] + [0]):
        pending.append(k)
        n += n_by_size[k]
        if not nxt or 2 * n * dim * (nxt * nxt - k * k) >= _CALL_MADDS:
            for j in pending:
                cap[j] = k
            if n:
                kept.append(k)
            pending, n = [], 0
    return cap, kept


def occupancy_classes(layout: WindowLayout, dim: int) -> tuple:
    """The occupancy classes the kernels run a layout's windows in, by
    ascending capacity, for features of width dim (which prices the padding
    a merged class runs)."""
    n_win, s2 = layout.mask.shape
    window, offset = layout.window, layout.slot % s2
    count = np.bincount(window, minlength=n_win)  # members per window
    cap_of, kept = _capacities(np.bincount(count, minlength=s2 + 1).tolist(), s2, dim)
    cap = np.array(cap_of)[count]
    if kept and kept[0] < s2:  # a compacted class: each patch's rank among its window's members
        rank = np.cumsum(layout.mask, axis=1).ravel()[layout.slot] - 1
    classes = []
    for k in kept:
        windows = np.flatnonzero(cap == k)
        local = np.zeros(n_win, dtype=np.int64)
        local[windows] = np.arange(len(windows))
        rows = np.flatnonzero(cap[window] == k)
        if k == s2:
            slot = local[window[rows]] * s2 + offset[rows]
            mask, bias_index = layout.mask[windows], layout.bias_index
        else:
            slot = local[window[rows]] * k + rank[rows]
            mask = np.arange(k) < count[windows][:, None]
            offs = np.zeros(len(windows) * k, dtype=np.int64)
            offs[slot] = offset[rows]
            offs = offs.reshape(-1, k)
            bias_index = layout.bias_index[offs[:, :, None], offs[:, None, :]]
        classes.append(WindowClass(k, windows, rows, slot, mask, bias_index))
    return tuple(classes)


def window_attention(f_pad: tuple, fm: np.ndarray, classes: tuple, bias_table: np.ndarray):
    """One head of self-attention over every window of a layout, one
    batched computation per occupancy class.

    classes is occupancy_classes' output, f_pad the slide's (M, d) inputs
    padded by each class (shared by every head), and fm the head's (M, d)
    f M with M = W_Q W_K^T. The logits are ((f M)_pad f_pad^T + bias) /
    sqrt(d); empty key slots get a -inf logit, so they carry exactly zero
    weight, and the rows of empty query slots are dropped. Returns the
    (M, d) attended inputs Y = A f, window by window (the head output is
    Y W_V), and each class's (n, capacity, capacity) attention weights A,
    which window_attention_backward reads.
    """
    y = np.empty_like(fm)
    weights = []
    table = bias_table.ravel()
    for cls, f_c in zip(classes, f_pad):
        if cls.capacity == 1:  # one member: weight exactly 1, Y = f
            a = np.ones((len(cls.windows), 1, 1))
            cls.unpad(f_c, y)
        else:
            z = cls.pad(fm) @ f_c.transpose(0, 2, 1)
            z += table[cls.bias_index]
            z /= math.sqrt(fm.shape[1])
            z = np.where(cls.mask[:, None, :], z, -np.inf)
            z -= z.max(axis=2, keepdims=True)
            a = np.exp(z, out=z)
            a /= a.sum(axis=2, keepdims=True)
            cls.unpad(a @ f_c, y)
        weights.append(a)
    return y, weights


def window_attention_backward(f_pad: tuple, classes: tuple, a: list, d_y: np.ndarray,
                              d_table: np.ndarray) -> np.ndarray:
    """Gradients of window_attention's inputs given d(loss)/d(Y).

    a is the attention weights window_attention returned. Adds the
    bias-table gradient into the (2S-1, 2S-1) d_table and returns the
    (M, d) gradient with respect to fm (f^T d_fm is that of M = W_Q W_K^T).
    Empty query slots receive a zero upstream gradient and empty key slots
    hold zero weight, so padding contributes nothing; a class of single
    patches contributes nothing at all.
    """
    d_fm = np.empty_like(d_y)
    for cls, f_c, a_c in zip(classes, f_pad, a):
        if cls.capacity == 1:
            d_fm[cls.rows] = 0.0
            continue
        d_a = cls.pad(d_y) @ f_c.transpose(0, 2, 1)
        dz = a_c * (d_a - (a_c * d_a).sum(axis=2, keepdims=True))
        dz /= math.sqrt(d_y.shape[1])
        w = dz.sum(axis=0) if cls.bias_index.ndim == 2 else dz  # a shared index: summed first
        d_table += np.bincount(cls.bias_index.ravel(), w.ravel(),
                               minlength=d_table.size).reshape(d_table.shape)
        cls.unpad(dz @ f_c, d_fm)
    return d_fm
