"""Shared test oracles and builders for the running forward pass."""

import math

import numpy as np
from hypothesis import settings

from fgpan.attention import AttentionHeadParams
from fgpan.data import ClassPrototype, PrototypeSet, SlideRecord
from fgpan.training import _forward_core

# Property tests draw the same examples on every run, keep no example
# database, and carry no per-example time limit (host speed varies).
settings.register_profile("fgpan", derandomize=True, database=None, deadline=None)
settings.load_profile("fgpan")

# values whose decimal text is easiest to get wrong: signed zeros, the
# smallest subnormal and normal magnitudes, and the edges of the range
ADVERSARIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
]


def dense_attention_reference(features, offsets, head):
    """Brute-force scalar-loop window attention, independent of the library
    path: explicit per-pair logits, bias lookup, softmax, and weighted sum."""
    k, d = features.shape
    s = (head.bias_table.shape[0] + 1) // 2
    out = np.zeros_like(features)
    for p in range(k):
        logits = np.zeros(k)
        for q in range(k):
            qp = features[p] @ head.W_Q
            kq = features[q] @ head.W_K
            b = head.bias_table[
                offsets[p][0] - offsets[q][0] + s - 1,
                offsets[p][1] - offsets[q][1] + s - 1,
            ]
            logits[q] = (float(qp @ kq) + b) / math.sqrt(d)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        for q in range(k):
            out[p] += w[q] * (features[q] @ head.W_V)
    return out


def random_head(rng, d, s):
    return AttentionHeadParams(
        rng.standard_normal((d, d)),
        rng.standard_normal((d, d)),
        rng.standard_normal((d, d)),
        rng.standard_normal((2 * s - 1, 2 * s - 1)),
    )


def forward_cache(features, coords, params, protos, *, lwa_gff=True):
    """The forward pass every command runs, over plain arrays: (M, d)
    features, (M, 2) grid coordinates and unit-norm (C, d) prototype rows.
    Returns its cache (gamma, g_sum, h, s, p, alpha, p_slide, ...)."""
    return _forward_core(
        np.asarray(features, dtype=np.float64),
        np.asarray(coords, dtype=np.int64),
        params,
        np.asarray(protos, dtype=np.float64),
        lwa_gff,
    )


def make_pset(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return PrototypeSet(
        rows.shape[1],
        [ClassPrototype(i, f"c{i}", f"d{i}", r) for i, r in enumerate(rows)],
    )


def make_slide(features, coords, label=0):
    return SlideRecord("s", label, coords, features)
