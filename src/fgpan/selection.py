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

    Ties resolve to the lowest original index (argmax picks the first max).
    Picked indices carry distance -1, so no index is picked twice, even
    when every remaining distance is 0 (duplicate embeddings).
    """
    centroid = x.mean(axis=0)
    seed = int(np.argmax(np.linalg.norm(x - centroid, axis=1)))
    selected = [seed]
    min_dist = np.linalg.norm(x - x[seed], axis=1)
    min_dist[seed] = -1.0
    while len(selected) < m:
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(x - x[nxt], axis=1))
        min_dist[nxt] = -1.0
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
