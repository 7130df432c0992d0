"""Balanced accuracy, F1, and one-vs-rest AUROC against hand-computed cases."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fgpan.metrics import (
    EvalRecord,
    auroc_ovr,
    balanced_accuracy,
    binary_auroc,
    confusion_matrix,
    f1_scores,
)


def records_from_labels(true, pred, n_classes=None, scores=None):
    c = n_classes or (max(max(true), max(pred)) + 1)
    out = []
    for i, (t, p) in enumerate(zip(true, pred)):
        if scores is not None:
            probs = np.asarray(scores[i], dtype=np.float64)
        else:
            probs = np.full(c, 0.1 / (c - 1)) if c > 1 else np.ones(1)
            probs[p] = 0.9
        out.append(EvalRecord(f"s{i}", t, p, probs))
    return out


class TestConfusion:
    def test_perfect_is_diagonal(self):
        recs = records_from_labels([0, 1, 2, 1], [0, 1, 2, 1])
        cm = confusion_matrix(recs)
        np.testing.assert_array_equal(cm, np.diag([1, 2, 1]))

    def test_single_off_diagonal(self):
        recs = records_from_labels([1], [0])
        np.testing.assert_array_equal(confusion_matrix(recs), [[0, 0], [1, 0]])

    def test_row_sums_are_class_counts(self):
        rng = np.random.default_rng(0)
        true = list(rng.integers(0, 3, size=50))
        pred = list(rng.integers(0, 3, size=50))
        cm = confusion_matrix(records_from_labels(true, pred, 3))
        for c in range(3):
            assert cm[c].sum() == true.count(c)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no evaluation records"):
            confusion_matrix([])


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy(records_from_labels([0, 1, 1], [0, 1, 1])) == 1.0

    def test_hand_case(self):
        """true AABBB / pred ABBBB: recalls 1/2 and 1 -> 0.75."""
        recs = records_from_labels([0, 0, 1, 1, 1], [0, 1, 1, 1, 1])
        assert balanced_accuracy(recs) == 0.75

    def test_class_absent_from_truth_rejected(self):
        recs = records_from_labels([0, 0], [0, 1], n_classes=2)
        with pytest.raises(ValueError, match="absent"):
            balanced_accuracy(recs)

    def test_uniform_predictor_near_half(self):
        """Monte Carlo: random guessing on balanced binary data scores ~0.5."""
        rng = np.random.default_rng(42)
        n = 10_000
        true = [i % 2 for i in range(n)]
        pred = list(rng.integers(0, 2, size=n))
        bacc = balanced_accuracy(records_from_labels(true, pred, 2))
        assert abs(bacc - 0.5) <= 0.05

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        true = list(rng.integers(0, 3, size=60))
        pred = list(rng.integers(0, 3, size=60))
        base = balanced_accuracy(records_from_labels(true, pred, 3))
        perm = [2, 0, 1]
        remapped = balanced_accuracy(
            records_from_labels([perm[t] for t in true], [perm[p] for p in pred], 3)
        )
        assert abs(base - remapped) < 1e-12


class TestF1:
    def test_perfect(self):
        assert f1_scores(records_from_labels([0, 1], [0, 1])) == (1.0, 1.0)

    def test_hand_case(self):
        """true AAB / pred ABB: both classes get F1 = 2/3."""
        macro, weighted = f1_scores(records_from_labels([0, 0, 1], [0, 1, 1]))
        assert abs(macro - 2 / 3) < 1e-12
        assert abs(weighted - 2 / 3) < 1e-12

    def test_zero_division_convention(self):
        """A class never predicted and never truly positive has F1 = 0."""
        recs = records_from_labels([0, 1, 0, 1], [0, 1, 0, 1], n_classes=3)
        macro, _ = f1_scores(recs)
        assert abs(macro - 2 / 3) < 1e-12  # classes 0,1 perfect; class 2 zero

    def test_weighted_equals_macro_when_balanced(self):
        rng = np.random.default_rng(2)
        true = [0] * 30 + [1] * 30
        pred = list(rng.integers(0, 2, size=60))
        macro, weighted = f1_scores(records_from_labels(true, pred, 2))
        assert abs(macro - weighted) < 1e-12


class TestAuroc:
    def test_perfect_separation(self):
        assert binary_auroc([0.9, 0.8, 0.4, 0.3], [True, True, False, False]) == 1.0

    def test_half_concordant(self):
        """pos {0.9, 0.3} vs neg {0.8, 0.4}: 2 of 4 pairs concordant."""
        assert binary_auroc([0.9, 0.3, 0.8, 0.4], [True, True, False, False]) == 0.5

    def test_all_ties_is_half(self):
        assert binary_auroc([0.5, 0.5, 0.5], [True, False, False]) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=40)
        pos = rng.uniform(size=40) > 0.5
        base = binary_auroc(scores, pos)
        assert binary_auroc(np.exp(5 * scores), pos) == base
        assert binary_auroc(scores**3 + 7, pos) == base

    def test_nan_score_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            binary_auroc([0.9, np.nan, 0.1], [True, False, False])

    @given(st.one_of(
        st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]), min_size=2, max_size=40),
        st.lists(st.sampled_from([-1.0, 0.0, 2.0]), min_size=2, max_size=40),
        st.lists(st.floats(allow_nan=False), min_size=2, max_size=40),
    ), st.data())
    def test_equals_scipy_rank_sum_bitwise(self, scores, data):
        """Heavy ties (3 to 5 distinct values) and continuous scores, signed
        zeros and infinities included: the same float as the rank-sum formula
        over scipy's midranks."""
        rankdata = pytest.importorskip("scipy.stats").rankdata
        pos = np.array(data.draw(st.lists(st.booleans(), min_size=len(scores),
                                          max_size=len(scores))))
        assume(pos.any() and not pos.all())
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        want = (rankdata(scores)[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
        assert binary_auroc(scores, pos).hex() == float(want).hex()

    def test_ovr_macro_mean(self):
        scores = [
            [0.8, 0.1, 0.1],
            [0.1, 0.8, 0.1],
            [0.1, 0.1, 0.8],
            [0.6, 0.2, 0.2],
            [0.2, 0.6, 0.2],
            [0.2, 0.2, 0.6],
        ]
        recs = records_from_labels(
            [0, 1, 2, 0, 1, 2], [0, 1, 2, 0, 1, 2], scores=scores
        )
        assert auroc_ovr(recs) == 1.0

    def test_degenerate_class_rejected(self):
        recs = records_from_labels([0, 0], [0, 1], n_classes=2)
        with pytest.raises(ValueError, match="no positives"):
            auroc_ovr(recs)


class TestEvalRecord:
    def test_distribution_enforced(self):
        with pytest.raises(ValueError, match="probability"):
            EvalRecord("s", 0, 0, np.array([0.7, 0.7]))
        with pytest.raises(ValueError, match="labels"):
            EvalRecord("s", 5, 0, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(ValueError, match="probs must be finite"):
            EvalRecord("s", 0, 0, np.array([bad, 1.0]))
