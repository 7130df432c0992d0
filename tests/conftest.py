"""Shared test oracles and builders for the running forward pass."""

import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from fgpan.aggregation import sinusoidal_embeddings, table_rows
from fgpan.attention import occupancy_classes, window_attention
from fgpan.data import PrototypeSet, SlideRecord
from fgpan.params import init_params
from fgpan.training import _fold, _forward_core

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


def kernel_reference(f, fm, coords, s, bias_table, g):
    """Brute-force window attention kernel and its gradients, window by
    window with scalar loops, for the kernel's own inputs: (M, d) f and
    fm = f M, grid coordinates, window side s, the (2s-1, 2s-1) bias table
    and an upstream gradient g = d loss / d Y. The logits of query p and
    key q in one window are (fm_p . f_q + bias[off_p - off_q]) / sqrt(d),
    Y_p = sum_q A_pq f_q, and with dA_pq = g_p . f_q and dz_pq = A_pq
    (dA_pq - sum_r A_pr dA_pr) / sqrt(d): d fm_p = sum_q dz_pq f_q and
    d bias[off_p - off_q] += dz_pq. Returns (Y, d fm, d bias)."""
    m, d = f.shape
    y, d_fm = np.zeros((m, d)), np.zeros((m, d))
    d_bias = np.zeros_like(bias_table)
    windows = {}
    for i, (r, c) in enumerate(np.asarray(coords).tolist()):
        windows.setdefault((r // s, c // s), []).append(i)
    for idx in windows.values():
        offs = [(int(r) % s, int(c) % s) for r, c in np.asarray(coords)[idx]]
        for p, i in enumerate(idx):
            disp = [(offs[p][0] - offs[q][0] + s - 1, offs[p][1] - offs[q][1] + s - 1)
                    for q in range(len(idx))]
            logits = np.array([(float(fm[i] @ f[j]) + bias_table[disp[q]]) / math.sqrt(d)
                               for q, j in enumerate(idx)])
            a = np.exp(logits - logits.max())
            a /= a.sum()
            da = np.array([float(g[i] @ f[j]) for j in idx])
            dz = a * (da - float(a @ da)) / math.sqrt(d)
            for q, j in enumerate(idx):
                y[i] += a[q] * f[j]
                d_fm[i] += dz[q] * f[j]
                d_bias[disp[q]] += dz[q]
    return y, d_fm, d_bias


def refinement_reference(features, coords, params):
    """h and alpha of one slide by the three-projection form, independent
    of the library's re-association: each head's output H_l window by
    window from dense_attention_reference (explicit W_Q, W_K, W_V), the
    scalar gates gamma_l = sigmoid(H_l . w_g^l + b_g^l), g_sum = sum_l
    gamma_l H_l, h = W_f g_sum + b_f, and alpha = softmax([h || phi] . w)."""
    s = params.window_size
    m, d = features.shape
    windows = {}
    for i, (r, c) in enumerate(coords.tolist()):
        windows.setdefault((r // s, c // s), []).append(i)
    g_sum = np.zeros((m, d))
    for head, w_g, b_g in zip(params.lwa.heads, params.gates.w_g, params.gates.b_g):
        out = np.zeros((m, d))
        for idx in windows.values():
            out[idx] = dense_attention_reference(features[idx], coords[idx] % s, head)
        for i in range(m):
            gamma = 1.0 / (1.0 + math.exp(-(float(out[i] @ w_g) + b_g)))
            g_sum[i] += gamma * out[i]
    h = np.array([params.fusion.W_f @ g + params.fusion.b_f for g in g_sum])
    if params.agg.positional_mode == "sinusoidal":
        phi = sinusoidal_embeddings(coords, d)
    else:
        phi = params.agg.table[table_rows(coords, params.agg)]
    u = np.array([float(np.concatenate([h[i], phi[i]]) @ params.agg.w) for i in range(m)])
    e = np.exp(u - u.max())
    return h, e / e.sum()


def head_attention(f, layout, head):
    """One head through the kernel the forward pass runs: window_attention
    over (f M) and f with M = W_Q W_K^T. Returns the (M, d) head output
    Y W_V and the attention weights, one (n, capacity, capacity) array per
    occupancy class, in the classes the forward pass runs at f's width."""
    classes = occupancy_classes(layout, f.shape[1])
    y, a = window_attention(tuple(cls.pad(f) for cls in classes),
                            f @ (head.W_Q @ head.W_K.T), classes, head.bias_table)
    return y @ head.W_V, a


def window_weights(classes, a):
    """Each window's (capacity, capacity) attention weights and slot mask,
    in the layout's window order, from a kernel's per-class weights a.
    Within a window, real slots come in offset order."""
    out = [None] * sum(len(cls.windows) for cls in classes)
    for cls, a_c in zip(classes, a):
        for i, w in enumerate(cls.windows.tolist()):
            out[w] = (a_c[i], cls.mask[i])
    return out


def random_head(rng, d, s):
    """A head of a one-head model whose W_Q, W_K, W_V and bias table are
    drawn from rng, in that order."""
    head = init_params(d, s, 1).lwa.heads[0]
    head.W_Q = rng.standard_normal((d, d))
    head.W_K = rng.standard_normal((d, d))
    head.W_V = rng.standard_normal((d, d))
    head.bias_table = rng.standard_normal((2 * s - 1, 2 * s - 1))
    return head


def forward_cache(features, coords, params, protos, *, lwa_gff=True):
    """The forward pass every command runs, over plain arrays: (M, d)
    features, (M, 2) grid coordinates and unit-norm (C, d) prototype rows,
    as a stack of one slide. Returns its cache (y, gamma, h, s, p,
    alpha, ...), with p_slide the slide's (C,) distribution."""
    features = np.asarray(features, dtype=np.float64)
    cache = _forward_core(
        features,
        np.asarray(coords, dtype=np.int64),
        params,
        np.asarray(protos, dtype=np.float64),
        _fold(params) if lwa_gff else None,
        [features.shape[0]],
    )
    cache["p_slide"] = cache["p_slide"][0]
    return cache


def make_pset(rows):
    return PrototypeSet([f"c{i}" for i in range(len(rows))],
                        [f"d{i}" for i in range(len(rows))], rows)


def make_slide(features, coords, label=0):
    return SlideRecord("s", label, coords, features)


@st.composite
def int64_coords(draw):
    """Unique grid coordinates anywhere up to int64's maximum, in random
    order: a few anchors, each with neighbours a few cells down and right
    (clipped at the maximum), so that windows hold several patches."""
    top = 2**63 - 1
    anchors = draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, top)),
                            min_size=1, max_size=4))
    cells = set()
    for r, c in anchors:
        for dr, dc in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                                    min_size=1, max_size=6)):
            cells.add((min(r + dr, top), min(c + dc, top)))
    return np.array(draw(st.permutations(sorted(cells))), dtype=np.int64)
