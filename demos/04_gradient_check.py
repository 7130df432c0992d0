#!/usr/bin/env python3
# Verify the hand-derived backward pass against central finite differences:
# first one attention kernel on its own, then the whole model.

import time

import numpy as np

from fgpan import (
    finite_diff_check,
    grad_total_loss,
    occupancy_classes,
    partition_coords,
    random_instance,
    window_attention,
    window_attention_backward,
)

# The kernel: for loss = <Y, G> with Y = window_attention(f_pad, fm, ...),
# window_attention_backward gives d loss / d fm (f^T times it is the
# gradient of M = W_Q W_K^T) and adds d loss / d bias_table into a table.
rng = np.random.default_rng(0)
coords = np.array([(0, 0), (0, 1), (1, 1), (2, 3), (3, 3), (3, 2)])
f = rng.standard_normal((len(coords), 4))
classes = occupancy_classes(partition_coords(coords, 2), f.shape[1])
fm = f @ rng.standard_normal((4, 4))
table = rng.standard_normal((3, 3))
g = rng.standard_normal(f.shape)
f_pad = tuple(c.pad(f) for c in classes)


inputs = {"fm": fm, "bias_table": table}


def kernel_loss(**changed):
    x = {**inputs, **changed}
    return float((window_attention(f_pad, x["fm"], classes, x["bias_table"])[0] * g).sum())


_, a = window_attention(f_pad, fm, classes, table)
d_bias = np.zeros_like(table)
d_fm = window_attention_backward(f_pad, classes, a, g, d_bias)
worst = 0.0
for name, grad in (("fm", d_fm), ("bias_table", d_bias)):
    for i in np.ndindex(grad.shape):
        hi, lo = inputs[name].copy(), inputs[name].copy()
        hi[i] += 1e-6
        lo[i] -= 1e-6
        numeric = (kernel_loss(**{name: hi}) - kernel_loss(**{name: lo})) / 2e-6
        worst = max(worst, abs(grad[i] - numeric) / max(1e-8, abs(grad[i]) + abs(numeric)))
print(f"kernel: {d_fm.size + d_bias.size} gradient entries, max relative error {worst:.3e}")

# The model: every parameter leaf, through the d x d products the backward
# turns back into W_Q, W_K, W_V, w_g and W_f gradients.
slides, prototypes, params = random_instance(
    seed=0, dim=8, window_size=2, heads=2, classes=3, patches=6
)
print(f"instance: {len(slides)} slides, {params.n_scalars} learnable scalars")

loss, grads = grad_total_loss(slides, params, prototypes, 1.0)
flat = grads.flatten()
print(f"loss {loss:.6f}, gradient norm {float((flat**2).sum())**0.5:.6f}, "
      f"largest |component| {abs(flat).max():.6f}")

for pos_mode in ("sinusoidal", "learned_table"):
    for lam in (0.0, 1.0):
        s, p, m = random_instance(seed=1, pos_mode=pos_mode)
        t0 = time.time()
        report = finite_diff_check(s, m, p, lam)
        worst = max(report, key=report.get)
        print(f"pos_mode={pos_mode:13s} lambda={lam}: max relative error "
              f"{report[worst]:.3e} in {worst} ({time.time() - t0:.2f} s)")

print("tolerance is 1e-5; every configuration above should sit well inside it")
