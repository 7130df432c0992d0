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

S = 2
parts = partition_coords(slide.coords(), S)
print(f"{slide.n_patches} patches tiled into {len(parts)} windows of size {S}x{S}:")
for tile, idx, offs in parts:
    print(f"  tile {tile}: members {idx.tolist()} offsets {[tuple(o) for o in offs.tolist()]}")

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

runs = [window_attention(f, parts, head) for head in heads]
print("per-head refined feature shapes:", [out.shape for out, _ in runs])

# attention rows are probability distributions over window members
tile0, idx0, _ = parts[0]
a = runs[0][1][0][6]
print("window", tile0, "attention matrix:")
print(np.round(a, 4))
print("row sums:", a.sum(axis=1))

# locality: patches in other windows never contribute
f2 = f.copy()
other = [i for i in range(slide.n_patches) if i not in idx0]
f2[other] = 0.0
perturbed, _ = window_attention(f2, parts, heads[0])
same = np.array_equal(runs[0][0][idx0], perturbed[idx0])
print("first window output unchanged after zeroing every other window:", same)
