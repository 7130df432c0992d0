"""Representative-patch selection applied before feature refinement."""

from dataclasses import dataclass

import numpy as np

from .data import SlideRecord

__all__ = ["SelectionStrategy", "select_patches"]

KINDS = ("all", "fps_embedding", "topk_norm")


@dataclass(frozen=True)
class SelectionStrategy:
    """How to reduce a slide to at most m_max representative patches."""

    kind: str
    m_max: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown selection kind {self.kind!r}; expected one of {KINDS}")
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")


def _fps_indices(x: np.ndarray, m: int) -> list[int]:
    """Farthest-point sampling on embeddings, seeded from the centroid.

    Each pick costs one GEMV: half the squared norms h = |x|^2 / 2 are
    computed once, and the running minimum of d^2 / 2 = h - x.x_n + h_n to
    the picked set is updated in place (halving is exact, so it orders as
    d^2 does). Picked indices carry -inf, so no index is picked twice.

    Ties resolve to the lowest index among equal computed distances (argmax
    picks the first max). Exact duplicates of a picked embedding need not
    compute to exactly 0, so among equally distant duplicates the pick
    follows that rounding residue, not the index.
    """
    centroid = x.mean(axis=0)
    seed = int(np.argmax(np.linalg.norm(x - centroid, axis=1)))
    h = 0.5 * np.einsum("ij,ij->i", x, x)
    h_list = h.tolist()  # Python floats: cheaper to add than numpy scalars
    selected = [seed]
    min_d = np.full(len(x), np.inf)
    for _ in range(m - 1):
        n = selected[-1]
        d = x.dot(x[n])  # the GEMV; x.dot dispatches faster than @ on small x
        np.subtract(h, d, out=d)
        d += h_list[n]
        np.minimum(min_d, d, out=min_d)
        min_d[n] = -np.inf
        selected.append(int(min_d.argmax()))
    return selected


def select_patches(slide: SlideRecord, strategy: SelectionStrategy) -> SlideRecord:
    """Keep min(m_max, M) patches; output order follows original patch order.

    With m_max >= M every strategy keeps every patch, so the slide is
    returned as it is (its arrays are read-only).
    """
    m = min(strategy.m_max, slide.n_patches)
    if m == slide.n_patches:
        return slide
    if strategy.kind == "all":
        idx = np.arange(m)
    elif strategy.kind == "topk_norm":
        norms = np.linalg.norm(slide.matrix(), axis=1)
        idx = np.sort(np.argsort(-norms, kind="stable")[:m])
    else:  # fps_embedding
        idx = np.sort(_fps_indices(slide.matrix(), m))
    return SlideRecord(
        slide.slide_id,
        slide.label,
        slide.coords()[idx],
        slide.matrix()[idx],
        slide.grid_rows,
        slide.grid_cols,
    )
