#!/usr/bin/env python3
# Window tiling and local attention with a relative positional bias.

import numpy as np

from fgpan import (
    SyntheticConfig,
    gen_synthetic,
    init_params,
    partition_coords,
    window_attention,
)

slides, _ = gen_synthetic(
    SyntheticConfig(classes=2, slides_per_class=1, patches_per_slide=12, dim=8,
                    noise_sigma=0.2, grid_rows=6, grid_cols=6, seed=3)
)
slide = slides[0]
f = slide.matrix()
coords = slide.coords()

S = 2
layout = partition_coords(coords, S)
print(f"{slide.n_patches} patches tiled into {layout.n_windows} windows of {S}x{S} slots:")
for w, (tile, occupied) in enumerate(zip(layout.tiles.tolist(), layout.mask)):
    members = np.flatnonzero(layout.window == w)
    print(f"  tile {tuple(tile)}: members {members.tolist()} "
          f"slots {(layout.slot[members] % (S * S)).tolist()} "
          f"occupancy {occupied.astype(int).tolist()}")

rng = np.random.default_rng(0)
d = slide.dim
heads = init_params(d, S, 2).lwa.heads
for h in heads:
    h.W_Q = rng.standard_normal((d, d)) / np.sqrt(d)
    h.W_K = rng.standard_normal((d, d)) / np.sqrt(d)
    h.W_V = rng.standard_normal((d, d)) / np.sqrt(d)
    h.bias_table = rng.standard_normal((2 * S - 1, 2 * S - 1)) * 0.1

# The kernel takes each head re-associated: the logits (f W_Q)(f W_K)^T are
# (f M) f^T with M = W_Q W_K^T, and it returns Y = A f, whose product with
# W_V is the head output A (f W_V). f is padded once and shared by the heads.
f_pad = layout.pad(f)
runs = [window_attention(f_pad, f @ (h.W_Q @ h.W_K.T), layout, h.bias_table) for h in heads]
outputs = [y @ h.W_V for (y, _), h in zip(runs, heads)]
print("per-head refined feature shapes:", [out.shape for out in outputs])

# every window is padded to S*S slots; empty key slots get zero weight and
# the rows of empty query slots are dropped
a = runs[0][1]
print("batched attention weights:", a.shape)
filled = layout.mask.sum(axis=1)
w0 = int(np.flatnonzero((filled > 1) & (filled < S * S))[0])  # a partly empty window
m0 = layout.mask[w0]
print("window", tuple(layout.tiles[w0].tolist()), "attention among its members:")
print(np.round(a[w0][np.ix_(m0, m0)], 4))
print("row sums:", a[w0][m0].sum(axis=1), "weight on empty slots:", a[w0][m0][:, ~m0].sum())

# the same weights from three explicit projections, q = f W_Q and k = f W_K
idx0 = np.flatnonzero(layout.window == w0)
q, k = f[idx0] @ heads[0].W_Q, f[idx0] @ heads[0].W_K
slots = layout.slot[idx0] % (S * S)
z = (q @ k.T + heads[0].bias_table.ravel()[layout.bias_index[np.ix_(slots, slots)]]) / np.sqrt(d)
e = np.exp(z - z.max(axis=1, keepdims=True))
dense = e / e.sum(axis=1, keepdims=True)
gap = np.abs(dense - a[w0][np.ix_(slots, slots)]).max()
print(f"largest gap to the three-projection weights in that window: {gap:.1e}")

# locality: patches in other windows never contribute
f2 = f.copy()
f2[layout.window != w0] = 0.0
y2, _ = window_attention(layout.pad(f2), f2 @ (heads[0].W_Q @ heads[0].W_K.T), layout,
                         heads[0].bias_table)
same = np.array_equal(outputs[0][idx0], (y2 @ heads[0].W_V)[idx0])
print("that window's output unchanged after zeroing every other window:", same)
