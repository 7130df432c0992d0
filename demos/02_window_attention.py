#!/usr/bin/env python3
# Window tiling and local attention with a relative positional bias.

import numpy as np

from fgpan import (
    SyntheticConfig,
    gen_synthetic,
    init_params,
    occupancy_classes,
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

# Windows run by occupancy class: the windows holding k patches form a class
# of capacity k, one batched softmax each, so a window pays for its own
# members, not for S*S slots. The feature width prices the padding: a class
# whose own call would save less than a call costs joins the next larger
# one, padded and masked to its capacity. At this slide's d=8 that leaves
# one class of S*S slots; priced as if d were 10^6, every occupancy keeps a
# class of its own. The demo runs the wide pricing to show the classes.
d = slide.dim
for dim in (d, 10**6):
    by_class = occupancy_classes(layout, dim)
    print(f"occupancy classes at dim={dim}:",
          ", ".join(f"{len(c.windows)} window(s) of capacity {c.capacity}" for c in by_class))
classes = occupancy_classes(layout, 10**6)

rng = np.random.default_rng(0)
heads = init_params(d, S, 2).lwa.heads
for h in heads:
    h.W_Q = rng.standard_normal((d, d)) / np.sqrt(d)
    h.W_K = rng.standard_normal((d, d)) / np.sqrt(d)
    h.W_V = rng.standard_normal((d, d)) / np.sqrt(d)
    h.bias_table = rng.standard_normal((2 * S - 1, 2 * S - 1)) * 0.1

# The kernel takes each head re-associated: the logits (f W_Q)(f W_K)^T are
# (f M) f^T with M = W_Q W_K^T, and it returns Y = A f, whose product with
# W_V is the head output A (f W_V). f is padded once per class and shared by
# the heads.
f_pad = tuple(c.pad(f) for c in classes)
runs = [window_attention(f_pad, f @ (h.W_Q @ h.W_K.T), classes, h.bias_table) for h in heads]
outputs = [y @ h.W_V for (y, _), h in zip(runs, heads)]
print("per-head refined feature shapes:", [out.shape for out in outputs])

# one weight array per class; a class of capacity 1 is the fast path (its
# weight is exactly 1, so Y is the row of f)
weights = runs[0][1]
print("attention weights per class:", [a.shape for a in weights])
filled = layout.mask.sum(axis=1)
w0 = int(np.flatnonzero((filled > 1) & (filled < S * S))[0])  # a partly filled window
ci, cls = next((i, c) for i, c in enumerate(classes) if w0 in c.windows)
a0 = weights[ci][int(np.searchsorted(cls.windows, w0))]  # its members in offset order
print("window", tuple(layout.tiles[w0].tolist()), f"(class of capacity {cls.capacity})",
      "attention among its members:")
print(np.round(a0, 4))
print("row sums:", a0.sum(axis=1))

# the same weights from three explicit projections, q = f W_Q and k = f W_K
idx0 = np.flatnonzero(layout.window == w0)
idx0 = idx0[np.argsort(layout.slot[idx0])]  # offset order
q, k = f[idx0] @ heads[0].W_Q, f[idx0] @ heads[0].W_K
slots = layout.slot[idx0] % (S * S)
z = (q @ k.T + heads[0].bias_table.ravel()[layout.bias_index[np.ix_(slots, slots)]]) / np.sqrt(d)
e = np.exp(z - z.max(axis=1, keepdims=True))
dense = e / e.sum(axis=1, keepdims=True)
gap = np.abs(dense - a0).max()
print(f"largest gap to the three-projection weights in that window: {gap:.1e}")

# locality: patches in other windows never contribute
f2 = f.copy()
f2[layout.window != w0] = 0.0
y2, _ = window_attention(tuple(c.pad(f2) for c in classes),
                         f2 @ (heads[0].W_Q @ heads[0].W_K.T), classes, heads[0].bias_table)
same = np.array_equal(outputs[0][idx0], (y2 @ heads[0].W_V)[idx0])
print("that window's output unchanged after zeroing every other window:", same)
