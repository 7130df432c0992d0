"""Forward pass, exact gradients, the finite-difference oracle, the AdamW
optimizer, and the training loop.

_forward_core is the one implementation of the pipeline (window attention
-> gated fusion -> cosine scores -> temperature softmax -> coordinate-aware
aggregation); forward_slides, total_loss and grad_total_loss all run it. The
backward pass is hand-derived reverse-mode differentiation of that pipeline
and of the patch + slide cross entropy, the slide term taken in log space.
Its contract is agreement with central finite differences to 1e-5 relative
error in double precision.

The refinement stage runs re-associated. Head l's logits take
M_l = W_Q^l W_K^l^T, its gate c_l = W_V^l w_g^l, and the fusion the stacked
P = [W_V^l W_f^T]_l, where Y_l = A_l f is the head's attended inputs. A
forward runs 2L (M, d) x (d, d)-sized products, f M_l per head and one
[gamma_0 Y_0 | gamma_1 Y_1 ...] P, where the three-projection form ran
3L + 1; the backward runs 3L: Z^T dh, dh P^T and f^T [d fm_0 | d fm_1 ...],
where it ran 3L + 2. _fold forms the d x d products and _unfold_grads turns
the gradients of M_l, P and c_l into those of W_Q, W_K, W_V, w_g and W_f,
once per call, not once per stack. They cost 2L d^3 multiply-adds per
forward and 4L d^3 per backward whatever the rows, so a call over few rows
at large d runs slower than the three-projection form did (README,
"Refinement cost").

forward_slides, total_loss and grad_total_loss are loops over one
generator, _passes, which runs a batch as stacks: consecutive slides whose
rows together fit in _STACK_ROWS share one forward (and one backward) over
their concatenated rows. The window partition groups rows by (slide,
tile), so no window spans two slides. Only the
aggregation softmax, the slide distribution and the cross entropies are
taken slide by slide. A slide's results from a shared stack agree with its
own forward to rounding: the row count of a product can change its last
bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import (
    SlidePrediction,
    sinusoidal_embeddings,
    table_rows,
)
from .attention import (
    occupancy_classes,
    partition_coords,
    window_attention,
    window_attention_backward,
)
from .data import ClassPrototype, PrototypeSet, SlideRecord
from .params import ModelParams, grad_zeros, init_params
from .prototypes import _NORM_TOL

__all__ = [
    "TrainConfig",
    "desk_profile",
    "paper_profile",
    "forward_slide",
    "forward_slides",
    "total_loss",
    "grad_total_loss",
    "finite_diff_check",
    "adamw_step",
    "train",
    "random_instance",
]

# Row budget of one stack. Small slides share a forward and backward pass,
# which saves per-call overhead; larger ones run alone, because a pass's
# intermediates grow with its rows: one gradient pass over two stacked
# 2048-row, d=256 slides (S=4, two heads, learned table) peaks about 199 MB
# above its starting memory (tracemalloc), against 102 MB for one such slide.
_STACK_ROWS = 1024


@dataclass
class TrainConfig:
    """Optimizer and loop settings; the defaults are the desk profile.

    learning_rate 0 is accepted as a diagnostic (parameters stay frozen).
    """

    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 4
    iterations: int = 300
    lambda_slide: float = 1.0
    seed: int = 0
    betas: tuple[float, float] = (0.9, 0.999)
    epsilon: float = 1e-8

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay", "lambda_slide"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon!r}")
        b1, b2 = self.betas
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.batch_size < 1 or self.iterations < 0:
            raise ValueError("batch_size must be >= 1 and iterations >= 0")


def desk_profile(**overrides) -> TrainConfig:
    """Fast defaults sized so end-to-end runs finish in seconds: TrainConfig's own."""
    return TrainConfig(**overrides)


def paper_profile(**overrides) -> TrainConfig:
    """Full-scale training: the desk settings at a lower rate, for longer."""
    return TrainConfig(**{"learning_rate": 1e-5, "iterations": 20000, **overrides})


def _checked_proto_matrix(pset: PrototypeSet, slides: list[SlideRecord],
                          params: ModelParams) -> np.ndarray:
    """The prototype matrix, after the checks each pass makes once per call:
    the prototypes are normalized and as wide as the first slide, and every
    slide is as wide as the params."""
    t = pset.matrix()
    dim = slides[0].dim
    if pset.dim != dim:
        raise ValueError(f"prototype dim {pset.dim} does not match feature dim {dim}")
    if np.any(np.abs(np.linalg.norm(t, axis=1) - 1.0) > _NORM_TOL):
        raise ValueError("prototypes must be normalized before the forward pass")
    for s in slides:
        if s.dim != params.dim:
            raise ValueError(f"slide dim {s.dim} does not match params dim {params.dim}")
    return t


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), scipy's expit formula: exactly 0.0 where exp(-x)
    overflows (silently) and 1.0 where it is below half an ulp of 1."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _log_softmax_rows(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=1, keepdims=True)
    return z - zmax - np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))


def _gated(y3: np.ndarray, gamma: np.ndarray, out=None) -> np.ndarray:
    """z = [gamma_0 Y_0 | gamma_1 Y_1 ...] as (M, L d), from the (M, L, d)
    view y3 of y and the (L, M) gates; the forward forms it for the fusion
    and the backward again for P's gradient, by this one multiply."""
    return np.multiply(y3, gamma.T[:, :, None], out=out).reshape(y3.shape[0], -1)


def _fold(params: ModelParams):
    """The d x d products the refinement stage runs on: mq = [M_0 | M_1 ...]
    (d, L d) with M_l = W_Q^l W_K^l^T, the stacked fusion P (L d, d) with
    blocks W_V^l W_f^T, and the gate vectors c (L, d), c_l = W_V^l w_g^l."""
    heads = params.lwa.heads
    w_f = params.fusion.W_f
    mq = np.concatenate([head.W_Q @ head.W_K.T for head in heads], axis=1)
    p = np.concatenate([head.W_V @ w_f.T for head in heads])
    c = np.stack([head.W_V @ w for head, w in zip(heads, params.gates.w_g)])
    return mq, p, c


def _unfold_grads(params: ModelParams, d_fold, grads: ModelParams) -> None:
    """Add to grads the leaf gradients behind d_fold, the gradients of
    _fold's (mq, P, c)."""
    d_mq, d_p, d_c = d_fold
    d = params.dim
    w_f = params.fusion.W_f
    for l, (head, g_head) in enumerate(zip(params.lwa.heads, grads.lwa.heads)):
        d_m, d_p_l = d_mq[:, l * d:(l + 1) * d], d_p[l * d:(l + 1) * d]
        g_head.W_Q += d_m @ head.W_K
        g_head.W_K += d_m.T @ head.W_Q
        g_head.W_V += d_p_l @ w_f + np.outer(d_c[l], params.gates.w_g[l])
        grads.gates.w_g[l] += head.W_V.T @ d_c[l]
        grads.fusion.W_f += d_p_l.T @ head.W_V


def _forward_core(
    f: np.ndarray,
    coords: np.ndarray,
    params: ModelParams,
    t_mat: np.ndarray,
    fold,
    sizes: list[int],
    for_backward: bool = True,
):
    """The forward pass of a stack of slides; every pass (forward_slides,
    total_loss, grad_total_loss) runs through here.

    t_mat is the checked prototype matrix and fold is _fold(params), or
    None to bypass the refinement stage; _passes forms both once per call,
    and the cache keeps both for the backward. A stack concatenates its
    slides' rows in f and coords, sizes[j] rows for slide j. alpha and log_alpha are
    normalized within each slide, and p_slide is (n_slides, C). Returns
    the intermediates the backward reads, one copy of each: u_in =
    [H || phi] is built once and h, phi are views of its halves; h_hat is
    not kept (the backward recomputes it as h / h_norm); y = [Y_0 | Y_1 ...]
    is (M, L d) and gamma (L, M), and the gated z = [gamma_0 Y_0 |
    gamma_1 Y_1 ...] is not kept (the backward forms it again by _gated);
    attn holds each head's attention weights, one array per occupancy
    class in classes; table_rows
    holds the learned table's row of each patch, which the backward adds
    into. A buffer is allocated where it is first written. A pass with no
    backward after it (for_backward False) keeps none of y, attn and the
    padded inputs: it gates y in place and frees each head's weights once
    its Y_l is formed.
    """
    sizes = np.array(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    bounds = list(zip((ends - sizes).tolist(), ends.tolist()))
    cache: dict = {"f": f, "t_mat": t_mat, "fold": fold, "sizes": sizes, "bounds": bounds}
    d = params.dim
    if fold is not None:
        mq, p_fuse, c = fold
        classes = occupancy_classes(partition_coords(coords, params.window_size, sizes), d)
        f_pad = tuple(cls.pad(f) for cls in classes)  # shared by every head
        y = np.empty((f.shape[0], mq.shape[1]))
        attn = []
        for l, head in enumerate(params.lwa.heads):
            # f M_l one head at a time: an (M, L d) f mq would outweigh y
            # in a forward-only pass's peak
            cols = slice(l * d, (l + 1) * d)
            y[:, cols], a = window_attention(f_pad, f @ mq[:, cols], classes, head.bias_table)
            if for_backward:
                attn.append(a)
            del a
        y3 = y.reshape(f.shape[0], -1, d)  # (M, L, d) view
        gamma = _sigmoid(np.einsum("mld,ld->lm", y3, c) + params.gates.b_g[:, None])  # (L, M)
        z = _gated(y3, gamma, out=None if for_backward else y3)
        cache.update(classes=classes, gamma=gamma)
        if for_backward:
            cache.update(f_pad=f_pad, y=y, attn=attn)
        del f_pad, y, y3
        fused = z @ p_fuse
        fused += params.fusion.b_f
        del z
    else:
        fused = f
    u_in = np.empty((f.shape[0], 2 * d))  # first written here, after the refinement stage
    h, phi = u_in[:, :d], u_in[:, d:]
    h[...] = fused
    del fused
    h_norm = np.linalg.norm(h, axis=1)
    if np.any(h_norm == 0.0):
        raise ValueError("zero-norm fused feature; cannot take cosine scores")
    if not np.isfinite(h_norm).all():
        raise ValueError("non-finite fused-feature norm; cannot take cosine scores")
    s = (h / h_norm[:, None]) @ t_mat.T
    tau = params.temp.tau
    z_cls = s / tau
    logp = _log_softmax_rows(z_cls)
    p = np.exp(logp)

    if params.agg.positional_mode == "sinusoidal":
        phi[...] = sinusoidal_embeddings(coords, d)
    else:
        cache["table_rows"] = rows = table_rows(coords, params.agg)
        phi[...] = params.agg.table[rows]
    u = u_in @ params.agg.w
    alpha = np.empty_like(u)
    log_alpha = np.empty_like(u)
    p_slide = np.empty((len(bounds), p.shape[1]))
    for j, (a, b) in enumerate(bounds):
        u_j = u[a:b] - u[a:b].max()
        eu = np.exp(u_j)
        e_sum = eu.sum()
        alpha[a:b] = eu / e_sum
        log_alpha[a:b] = u_j - math.log(e_sum)
        p_slide[j] = alpha[a:b] @ p[a:b]

    cache.update(
        h=h, h_norm=h_norm, s=s, tau=tau, z_cls=z_cls,
        logp=logp, p=p, phi=phi, u_in=u_in, alpha=alpha, log_alpha=log_alpha,
        p_slide=p_slide,
    )
    return cache


def _stack_objective(cache: dict, labels: list[int], lam: float):
    """The stack's summed per-slide [mean patch CE + lam * slide CE], and
    the responsibilities r, one per row.

    The slide CE is -log P_y = -logsumexp_i(log alpha_i + log p_iy), and
    r = softmax_i(log alpha_i + log p_iy) within each slide, so no
    probability is ever divided by or logged directly.
    """
    total = 0.0
    r = np.empty_like(cache["alpha"])
    for (lo, hi), y in zip(cache["bounds"], labels):
        logp_y = cache["logp"][lo:hi, y]
        patch_ce = -logp_y.sum() / logp_y.shape[0]
        a = cache["log_alpha"][lo:hi] + logp_y
        a_max = a.max()
        e = np.exp(a - a_max)
        e_sum = e.sum()
        slide_ce = -(a_max + math.log(e_sum))
        total += patch_ce + lam * slide_ce
        r[lo:hi] = e / e_sum
    return total, r


def _backward_core(
    cache: dict, labels: list[int], lam: float, r: np.ndarray, params: ModelParams,
    grads: ModelParams, d_fold,
) -> None:
    """Accumulate the (unscaled) gradient contribution of a stack's slides
    into grads, and that of _fold's products into d_fold (zeros shaped
    like them, or None when the refinement stage is bypassed); r is the
    responsibility vector from _stack_objective.

    The cache is consumed: each large buffer leaves it at its last use, so
    the pass holds only what the backward still reads."""
    p = cache["p"]
    d = params.dim
    sizes = cache["sizes"]

    # both cross entropies through log p (rows of log-softmax over z = s / tau)
    # and through log alpha (log-softmax over u), each slide's patch CE a
    # mean over its own rows
    coef = np.repeat(1.0 / sizes, sizes) + lam * r
    dz = coef[:, None] * p
    dz[np.arange(p.shape[0]), np.repeat(labels, sizes)] -= coef
    du = lam * (cache["alpha"] - r)
    grads.temp.log_tau += -(dz * cache["z_cls"]).sum()
    ds = dz / cache["tau"]

    # cosine scores s = h_hat . T_c, h_hat recomputed as the forward took it;
    # dh = (d_hhat - (d_hhat . h_hat) h_hat) / |h| in that order, in place
    h_norm = cache["h_norm"][:, None]
    h_hat = cache["h"] / h_norm
    dh = ds @ cache["t_mat"]  # d_hhat
    h_hat *= (dh * h_hat).sum(axis=1, keepdims=True)
    dh -= h_hat
    dh /= h_norm
    del h_hat

    # aggregation logits u = [H || phi] . w
    grads.agg.w += cache["u_in"].T @ du
    del cache["u_in"], cache["h"], cache["phi"]
    dh += du[:, None] * params.agg.w[None, :d]
    if params.agg.positional_mode == "learned_table":
        rows = cache["table_rows"]
        d_phi = du[:, None] * params.agg.w[None, d:]
        for lo, hi in cache["bounds"]:
            # an indexed += adds a repeated cell only once: a slide's
            # cells are distinct, a stack's need not be
            grads.agg.table[rows[lo:hi]] += d_phi[lo:hi]
        del d_phi

    if cache["fold"] is None:
        return

    # fusion h = z P + b_f, z = [gamma_l Y_l]_l; dz becomes [dY_l]_l, then
    # [d fm_l]_l in place, head by head
    _, p_fuse, c = cache["fold"]
    d_mq, d_p, d_c = d_fold
    gamma, y, attn = cache["gamma"], cache.pop("y"), cache.pop("attn")
    grads.fusion.b_f += dh.sum(axis=0)
    d_p += _gated(y.reshape(y.shape[0], -1, d), gamma).T @ dh
    dz = dh @ p_fuse.T
    del dh

    f_pad, classes = cache.pop("f_pad"), cache["classes"]
    for l, (head, g_head) in enumerate(zip(params.lwa.heads, grads.lwa.heads)):
        cols = slice(l * d, (l + 1) * d)
        y_l, d_y = y[:, cols], dz[:, cols]
        da = gamma[l] * (1.0 - gamma[l]) * np.einsum("md,md->m", d_y, y_l)
        d_c[l] += da @ y_l
        grads.gates.b_g[l] += da.sum()
        d_y *= gamma[l][:, None]
        d_y += da[:, None] * c[l]
        d_y[...] = window_attention_backward(f_pad, classes, attn[l], d_y, g_head.bias_table)
        attn[l] = None  # this head's weights freed before the next
    d_mq += cache["f"].T @ dz


def _require_labeled(slides: list[SlideRecord], n_classes: int) -> None:
    if not slides:
        raise ValueError("empty batch")
    for s in slides:
        if s.label is None:
            raise ValueError(f"slide {s.slide_id!r} is unlabeled")
        if not 0 <= s.label < n_classes:
            raise ValueError(
                f"slide {s.slide_id!r} label {s.label} outside prototype set (C={n_classes})"
            )


def _stacks(slides: list[SlideRecord]) -> list[list[SlideRecord]]:
    """Consecutive runs of the batch with at most _STACK_ROWS rows in all; a
    slide with more rows is a stack of its own."""
    stacks: list[list[SlideRecord]] = []
    rows = 0
    for s in slides:
        if not stacks or rows + s.n_patches > _STACK_ROWS:
            stacks.append([])
            rows = 0
        stacks[-1].append(s)
        rows += s.n_patches
    return stacks


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays concatenated; a lone one is not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _passes(slides: list[SlideRecord], params: ModelParams, pset: PrototypeSet,
            lwa_gff: bool, for_backward: bool):
    """(stack, its _forward_core cache) for each stack of the batch, in
    order, for forward_slides, total_loss and grad_total_loss alike. The
    prototypes are checked and _fold formed once per call. The cache is
    yielded, never bound here, so once the caller drops it, it is freed
    before the next stack's forward."""
    if not slides:
        return
    t_mat = _checked_proto_matrix(pset, slides, params)
    fold = _fold(params) if lwa_gff else None
    for stack in _stacks(slides):
        yield stack, _forward_core(_joined([s.matrix() for s in stack]),
                                   _joined([s.coords() for s in stack]), params, t_mat, fold,
                                   [s.n_patches for s in stack], for_backward)


def forward_slides(
    slides: list[SlideRecord],
    params: ModelParams,
    pset: PrototypeSet,
    *,
    lwa_gff: bool = True,
) -> list:
    """Full pipeline for each slide, in input order, run as stacks (_passes).

    Returns one (the (M, C) patch class probabilities, SlidePrediction) per
    slide. With lwa_gff=False the refinement stage is bypassed and raw
    embeddings feed the classifier. A fault raises ValueError; over several
    slides it may be a later slide's fault than the first one's. Running
    them one at a time finds the first (cli's infer falls back to that).
    """
    out = []
    for _, cache in _passes(slides, params, pset, lwa_gff, False):
        p, alpha = cache["p"], cache["alpha"]
        for (a, b), p_j in zip(cache["bounds"], cache["p_slide"]):
            out.append((p[a:b], SlidePrediction(alpha[a:b], p_j, int(np.argmax(p_j)))))
        del cache  # freed before the next stack's forward
    return out


def forward_slide(
    slide: SlideRecord,
    params: ModelParams,
    pset: PrototypeSet,
    *,
    lwa_gff: bool = True,
):
    """forward_slides for one slide: (the (M, C) patch class probabilities,
    SlidePrediction)."""
    return forward_slides([slide], params, pset, lwa_gff=lwa_gff)[0]


def _finite(loss: float, grads: ModelParams | None = None) -> float:
    """loss, refused by name if it or any gradient is not finite."""
    if not math.isfinite(loss):
        raise ValueError(f"non-finite loss {float(loss)!r}")
    if grads is not None and not np.isfinite(grads.theta).all():
        bad = next(name for name, g in grads.leaves() if not np.isfinite(g).all())
        raise ValueError(f"non-finite gradient in parameter leaf {bad!r}")
    return loss


def total_loss(
    slides: list[SlideRecord],
    params: ModelParams,
    pset: PrototypeSet,
    lam: float,
    *,
    lwa_gff: bool = True,
) -> float:
    """Mean over the batch of [mean patch CE + lambda * slide CE]."""
    _require_labeled(slides, pset.n_classes)
    total = 0.0
    for stack, cache in _passes(slides, params, pset, lwa_gff, False):
        total += _stack_objective(cache, [s.label for s in stack], lam)[0]
        del cache  # freed before the next stack's forward
    return _finite(total / len(slides))


def grad_total_loss(
    slides: list[SlideRecord],
    params: ModelParams,
    pset: PrototypeSet,
    lam: float,
    *,
    lwa_gff: bool = True,
) -> tuple[float, ModelParams]:
    """total_loss and its exact gradient for every parameter leaf, from one
    forward and one backward pass per stack."""
    _require_labeled(slides, pset.n_classes)
    grads = grad_zeros(params)
    total, d_fold = 0.0, None
    for stack, cache in _passes(slides, params, pset, lwa_gff, True):
        if d_fold is None and cache["fold"] is not None:  # once, shaped like _fold's
            d_fold = tuple(np.zeros_like(x) for x in cache["fold"])
        labels = [s.label for s in stack]
        loss, r = _stack_objective(cache, labels, lam)
        total += loss
        _backward_core(cache, labels, lam, r, params, grads, d_fold)
        del cache, r  # freed before the next stack's forward
    if d_fold is not None:
        _unfold_grads(params, d_fold, grads)
    grads.theta *= 1.0 / len(slides)
    return _finite(total / len(slides), grads), grads


def _slope(loss_at, base: np.ndarray, v: np.ndarray, step: float) -> float:
    """The derivative of loss_at along v at base: central differences at
    step and step / 2, Richardson-extrapolated, which cancels their h^2
    truncation terms."""

    def central(h):
        return (loss_at(base + h * v) - loss_at(base - h * v)) / (2.0 * h)

    return (4.0 * central(step / 2) - central(step)) / 3.0


# the largest theta whose every scalar finite_diff_check checks
_FD_SCALARS = 5000


def _directions(params: ModelParams):
    """(leaf name, unit direction in theta) pairs: every coordinate of
    every leaf when theta has at most _FD_SCALARS scalars; otherwise one
    random direction within each leaf, so that small leaves such as log_tau
    are not drowned out by large ones, and one over the whole of theta,
    named "theta". The random directions are seeded, so a report is
    reproducible."""
    n = params.n_scalars
    rng = np.random.default_rng(0)
    pos = 0
    for name, leaf in params.leaves():
        if n <= _FD_SCALARS:
            for i in range(pos, pos + leaf.size):
                v = np.zeros(n)
                v[i] = 1.0
                yield name, v
        else:
            v = np.zeros(n)
            v[pos:pos + leaf.size] = rng.standard_normal(leaf.size)
            yield name, v / np.linalg.norm(v)
        pos += leaf.size
    if n > _FD_SCALARS:
        v = rng.standard_normal(n)
        yield "theta", v / np.linalg.norm(v)


def finite_diff_check(
    slides: list[SlideRecord],
    params: ModelParams,
    pset: PrototypeSet,
    lam: float,
    step: float = 1e-2,
    *,
    lwa_gff: bool = True,
) -> dict[str, float]:
    """The worst relative error of the analytic gradient along each of
    _directions(params), per parameter leaf (and "theta" for the
    direction over all of it), against finite differences of total_loss.

    The analytic derivative along a unit direction v is grads.theta . v;
    the numeric one is _slope at `step`. The relative error is
    |a - n| / max(1e-8, |a| + |n|). Per-scalar checks past _FD_SCALARS
    would take four loss passes per scalar (hours at the wsi-train shape),
    hence the directional check there (a JVP check, Baydin et al.,
    arXiv:1502.05767)."""
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    _, grads = grad_total_loss(slides, params, pset, lam, lwa_gff=lwa_gff)
    base = params.flatten()

    def loss_at(vec: np.ndarray) -> float:
        return total_loss(slides, params.with_flat(vec), pset, lam, lwa_gff=lwa_gff)

    worst: dict[str, float] = {}
    for name, v in _directions(params):
        a = float(grads.theta @ v)
        numeric = _slope(loss_at, base, v, step)
        rel = float(abs(a - numeric) / max(1e-8, abs(a) + abs(numeric)))
        worst[name] = max(worst.get(name, 0.0), rel)
    return worst


def adamw_step(
    params: ModelParams,
    grads: ModelParams,
    state: dict | None,
    cfg: TrainConfig,
) -> tuple[ModelParams, dict]:
    """One decoupled-weight-decay Adam update over the flat vectors; returns
    new params over a new vector, and the state.

    params and grads are left unchanged. The moments are updated in place:
    the state returned is the dict passed in (a new one when state is None
    or empty), its "m" and "v" arrays overwritten and its "step" advanced,
    so a caller that wants the previous moments copies them first. A step
    thus allocates two parameter-sized vectors, the new theta and one
    scratch vector. Weight decay applies where params.decay_mask() says:
    matrices and tables, never log_tau or the scalar biases.
    """
    g = grads.theta
    theta = params.theta
    if state is None or not state:
        state = {"step": 0, "m": np.zeros_like(theta), "v": np.zeros_like(theta)}
    m, v = state["m"], state["v"]
    if g.shape != theta.shape or m.shape != theta.shape or v.shape != theta.shape:
        raise ValueError("gradient/state shapes do not match params")
    b1, b2 = cfg.betas
    t = state["step"] + 1
    lr = cfg.learning_rate
    # theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta * mask, with
    # m_hat = m / (1 - b1^t) and v_hat = v / (1 - b2^t), one operation at a
    # time in the order that expression takes them (so the bytes are the
    # same), written into m, v, the new theta and one scratch vector
    scratch = np.multiply(g, 1.0 - b1)
    m *= b1
    m += scratch
    np.multiply(g, 1.0 - b2, out=scratch)
    scratch *= g
    v *= b2
    v += scratch
    new = np.divide(v, 1.0 - b2**t)
    np.sqrt(new, out=new)
    new += cfg.epsilon
    np.divide(m, 1.0 - b1**t, out=scratch)
    scratch *= lr
    scratch /= new
    np.subtract(theta, scratch, out=scratch)
    np.multiply(theta, lr * cfg.weight_decay, out=new)
    new *= params.decay_mask()
    np.subtract(scratch, new, out=new)
    del scratch  # freed before ModelParams checks the new vector
    state["step"] = t
    return ModelParams(new, **params.dims), state


def train(
    dataset: list[SlideRecord],
    cfg: TrainConfig,
    pset: PrototypeSet,
    *,
    params: ModelParams | None = None,
    window_size: int = 2,
    heads: int = 2,
    pos_mode: str = "sinusoidal",
    lwa_gff: bool = True,
) -> tuple[ModelParams, list[float]]:
    """Seeded mini-batch training; returns final params and per-step losses.

    Batch order comes from a seeded shuffle, reshuffled each epoch, so a
    fixed seed reproduces the trajectory exactly. The loss recorded at each
    step is the batch loss before the update.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    _require_labeled(dataset, pset.n_classes)
    dim = dataset[0].dim
    if any(s.dim != dim for s in dataset):
        raise ValueError("all training slides must share one embedding dim")
    if params is None:
        grid_rows = max(s.grid_rows for s in dataset)
        grid_cols = max(s.grid_cols for s in dataset)
        params = init_params(
            dim,
            window_size,
            heads,
            grid_rows=grid_rows,
            grid_cols=grid_cols,
            seed=cfg.seed,
            pos_mode=pos_mode,
        )
    rng = np.random.default_rng(cfg.seed)
    n = len(dataset)
    bs = min(cfg.batch_size, n)
    order = rng.permutation(n)
    pos = 0
    state: dict | None = None
    losses: list[float] = []
    for _ in range(cfg.iterations):
        if pos + bs > n:
            order = rng.permutation(n)
            pos = 0
        # fixed within-batch order so loss/gradient reduction is canonical
        batch = [dataset[i] for i in sorted(order[pos : pos + bs])]
        pos += bs
        # The recorded loss is its own total_loss pass, so a step runs two
        # forwards per stack of slides. perfbench's traced counts
        # (training.total_loss.calls, forward_passes_per_step) are pinned
        # to that loop; dropping the pass waits for ROADMAP item 1.
        losses.append(total_loss(batch, params, pset, cfg.lambda_slide, lwa_gff=lwa_gff))
        _, grads = grad_total_loss(batch, params, pset, cfg.lambda_slide, lwa_gff=lwa_gff)
        params, state = adamw_step(params, grads, state, cfg)
        del grads  # not held through the next step's passes
    return params, losses


def random_instance(
    seed: int,
    *,
    dim: int = 8,
    window_size: int = 2,
    heads: int = 2,
    classes: int = 3,
    patches: int = 6,
    n_slides: int = 2,
    pos_mode: str = "sinusoidal",
    grid_rows: int = 4,
    grid_cols: int = 4,
    randomize_params: bool = False,
):
    """A small seeded (slides, prototypes, params) triple for gradient checks.

    randomize_params perturbs every leaf away from its init so paths that
    are gradient-dead at fresh init (zero gates, zero aggregation w) carry
    nonzero flow too.
    """
    rng = np.random.default_rng(seed)
    slides = []
    for j in range(n_slides):
        cells = np.sort(rng.choice(grid_rows * grid_cols, size=patches, replace=False))
        feats = rng.standard_normal((patches, dim))
        label = int(rng.integers(classes))
        coords = np.stack(np.divmod(cells, grid_cols), axis=1)
        slides.append(SlideRecord(f"rand_{seed}_{j}", label, coords, feats, grid_rows, grid_cols))
    raw = rng.standard_normal((classes, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    pset = PrototypeSet(
        dim,
        [ClassPrototype(c, f"class {c}", f"class {c}", raw[c]) for c in range(classes)],
    )
    params = init_params(
        dim,
        window_size,
        heads,
        grid_rows=grid_rows,
        grid_cols=grid_cols,
        seed=seed,
        pos_mode=pos_mode,
    )
    if randomize_params:
        vec = params.flatten()
        params = params.with_flat(vec + 0.3 * rng.standard_normal(vec.size))
    return slides, pset, params
