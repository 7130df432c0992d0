#!/usr/bin/env python3
# Verify the hand-derived backward pass against central finite differences.

import time

from fgpan import finite_diff_check, grad_total_loss, random_instance
from fgpan.params import flatten_grads

slides, prototypes, params = random_instance(
    seed=0, dim=8, window_size=2, heads=2, classes=3, patches=6
)
print(f"instance: {len(slides)} slides, {params.n_scalars} learnable scalars")

loss, grads = grad_total_loss(slides, params, prototypes, 1.0)
flat = flatten_grads(grads, params)
print(f"loss {loss:.6f}, gradient norm {float((flat**2).sum())**0.5:.6f}, "
      f"largest |component| {abs(flat).max():.6f}")

for pos_mode in ("sinusoidal", "learned_table"):
    for lam in (0.0, 1.0):
        s, p, m = random_instance(seed=1, pos_mode=pos_mode)
        t0 = time.time()
        err = finite_diff_check(s, m, p, lam, step=1e-4)
        print(f"pos_mode={pos_mode:13s} lambda={lam}: "
              f"max relative error {err:.3e} ({time.time() - t0:.2f} s)")

print("tolerance is 1e-5; every configuration above should sit well inside it")
