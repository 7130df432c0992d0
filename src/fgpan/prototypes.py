"""Prompt and description templates, prototype normalization, and the
inter-class separability metric.

Text generation and text encoding happen out of process: description
embeddings arrive through prototype files, which keeps everything here
deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .data import PrototypeSet

__all__ = [
    "PROMPT_TEMPLATE",
    "DescriptionTriple",
    "render_prompt",
    "render_description",
    "normalize_prototypes",
    "mean_description_embedding",
    "interclass_distance",
]

PROMPT_TEMPLATE = (
    "As a neuropathology expert, what distinctive multiscale features on "
    "whole slide images differentiate [class] from other [class] per WHO "
    "CNS5 criteria? Generate discriminative attribute pairs combining "
    "molecular profiles and histopathological signatures using the format: "
    "'[class] with [molecular feature] and [histological pattern]'."
)

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class DescriptionTriple:
    """The three slots of a class description."""

    class_name: str
    molecular_feature: str
    histological_pattern: str

    def __post_init__(self):
        for field in (self.class_name, self.molecular_feature, self.histological_pattern):
            if not field:
                raise ValueError("description fields must be non-empty")


def render_prompt(class_name: str, family_name: str) -> str:
    """Fill the query template: first [class] slot gets the subtype, second
    gets the family it is distinguished from. The format example at the end
    keeps its literal placeholders."""
    if not class_name or not family_name:
        raise ValueError("class_name and family_name must be non-empty")
    out = PROMPT_TEMPLATE.replace("[class]", class_name, 1)
    return out.replace("[class]", family_name, 1)


def render_description(t: DescriptionTriple) -> str:
    """'<class> with <molecular feature> and <histological pattern>'."""
    return f"{t.class_name} with {t.molecular_feature} and {t.histological_pattern}"


def normalize_prototypes(pset: PrototypeSet) -> PrototypeSet:
    """Rescale every embedding to unit L2 norm, preserving direction. Norms
    are taken one row at a time: a batched norm rounds differently."""
    rows = []
    for c, e in enumerate(pset.matrix()):
        n = float(np.linalg.norm(e))
        if n == 0.0:
            raise ValueError(f"prototype {c} has a zero embedding")
        rows.append(e / n)
    return PrototypeSet(pset.names, pset.descriptions, rows)


def mean_description_embedding(vectors) -> np.ndarray:
    """Collapse several description embeddings for one class into a single
    unit-norm class embedding (the normalized mean)."""
    stack = np.asarray(vectors, dtype=np.float64)
    if stack.ndim != 2 or stack.shape[0] < 1:
        raise ValueError("expected a non-empty list of embedding vectors")
    mean = stack.mean(axis=0)
    n = float(np.linalg.norm(mean))
    if n == 0.0:
        raise ValueError("description embeddings cancel to a zero mean")
    return mean / n


def interclass_distance(pset: PrototypeSet) -> float:
    """Mean Euclidean distance over all unordered class pairs.

    Requires at least two classes and unit-norm embeddings.
    """
    if pset.n_classes < 2:
        raise ValueError("inter-class distance needs at least two classes")
    x = pset.matrix()
    norms = np.linalg.norm(x, axis=1)
    if np.any(np.abs(norms - 1.0) > _NORM_TOL):
        raise ValueError("embeddings must be normalized before measuring distance")
    i, j = np.triu_indices(len(x), k=1)
    return float(np.linalg.norm(x[i] - x[j], axis=1).mean())
