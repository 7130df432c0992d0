#!/usr/bin/env python3
# Window tiling and local attention with a relative positional bias.

import numpy as np

from fgpan import (
    AttentionHeadParams,
    SyntheticConfig,
    gen_synthetic,
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
heads = [
    AttentionHeadParams(
        rng.standard_normal((d, d)) / np.sqrt(d),
        rng.standard_normal((d, d)) / np.sqrt(d),
        rng.standard_normal((d, d)) / np.sqrt(d),
        rng.standard_normal((2 * S - 1, 2 * S - 1)) * 0.1,
    )
    for _ in range(2)
]

runs = [window_attention(f, layout, head) for head in heads]
print("per-head refined feature shapes:", [out.shape for out, _ in runs])

# every window is padded to S*S slots; empty key slots get zero weight and
# the rows of empty query slots are dropped
a = runs[0][1][3]
print("batched attention weights:", a.shape)
filled = layout.mask.sum(axis=1)
w0 = int(np.flatnonzero((filled > 1) & (filled < S * S))[0])  # a partly empty window
m0 = layout.mask[w0]
print("window", tuple(layout.tiles[w0].tolist()), "attention among its members:")
print(np.round(a[w0][np.ix_(m0, m0)], 4))
print("row sums:", a[w0][m0].sum(axis=1), "weight on empty slots:", a[w0][m0][:, ~m0].sum())

# locality: patches in other windows never contribute
idx0 = np.flatnonzero(layout.window == w0)
f2 = f.copy()
f2[layout.window != w0] = 0.0
perturbed, _ = window_attention(f2, layout, heads[0])
same = np.array_equal(runs[0][0][idx0], perturbed[idx0])
print("that window's output unchanged after zeroing every other window:", same)
