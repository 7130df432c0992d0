"""Evaluation metrics: balanced accuracy, macro / weighted F1, and
one-vs-rest AUROC via the Mann-Whitney rank statistic with midranks."""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EvalRecord",
    "confusion_matrix",
    "balanced_accuracy",
    "f1_scores",
    "auroc_ovr",
    "binary_auroc",
]


@dataclass(eq=False)
class EvalRecord:
    """One slide's ground truth, prediction, and class distribution."""

    slide_id: str
    true_label: int
    predicted_label: int
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 1:
            raise ValueError("probs must be a vector")
        if not np.isfinite(self.probs).all():
            raise ValueError(f"probs must be finite, got {self.probs.tolist()}")
        if np.any(self.probs < 0) or abs(self.probs.sum() - 1.0) > 1e-9:
            raise ValueError("probs must be a probability distribution")
        c = self.probs.shape[0]
        if not (0 <= self.true_label < c and 0 <= self.predicted_label < c):
            raise ValueError("labels must lie in [0, C)")


def _n_classes(records: list[EvalRecord]) -> int:
    if not records:
        raise ValueError("no evaluation records")
    c = records[0].probs.shape[0]
    if any(r.probs.shape[0] != c for r in records):
        raise ValueError("records disagree on the number of classes")
    return c


def confusion_matrix(records: list[EvalRecord]) -> np.ndarray:
    """Counts indexed (true, predicted)."""
    c = _n_classes(records)
    out = np.zeros((c, c), dtype=np.int64)
    for r in records:
        out[r.true_label, r.predicted_label] += 1
    return out


def balanced_accuracy(records: list[EvalRecord]) -> float:
    """Mean recall across all classes; every class must appear in the truth."""
    cm = confusion_matrix(records)
    support = cm.sum(axis=1)
    if np.any(support == 0):
        missing = int(np.argmin(support))
        raise ValueError(f"class {missing} absent from true labels; recall undefined")
    return float((np.diag(cm) / support).mean())


def f1_scores(records: list[EvalRecord]) -> tuple[float, float]:
    """(macro F1, support-weighted F1); per-class F1 is 0 when P + R = 0."""
    cm = confusion_matrix(records)
    tp = np.diag(cm).astype(np.float64)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    denom = 2 * tp + fp + fn
    f1 = np.where(denom > 0, 2 * tp / np.where(denom > 0, denom, 1), 0.0)
    support = cm.sum(axis=1)
    macro = float(f1.mean())
    weighted = float((f1 * support).sum() / support.sum())
    return macro, weighted


def binary_auroc(scores: np.ndarray, positives: np.ndarray) -> float:
    """AUC from the rank-sum statistic; ties get midranks."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs at least one positive and one negative")
    if np.isnan(scores).any():
        raise ValueError("AUROC scores must not be NaN")
    _, tie_run, run_len = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(run_len)
    ranks = ((ends - run_len + 1 + ends) / 2)[tie_run]  # midranks, exact half-integers
    return float((ranks[positives].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def auroc_ovr(records: list[EvalRecord]) -> float:
    """One-vs-rest AUROC per class on P^(c), averaged unweighted."""
    c = _n_classes(records)
    truth = np.array([r.true_label for r in records])
    probs = np.stack([r.probs for r in records])
    aucs = []
    for cls in range(c):
        pos = truth == cls
        if pos.all() or not pos.any():
            raise ValueError(f"class {cls} has no positives or no negatives")
        aucs.append(binary_auroc(probs[:, cls], pos))
    return float(np.mean(aucs))
