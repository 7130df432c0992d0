"""Cosine scores and the temperature softmax, read from the forward cache
(s, p), and the cross entropy through total_loss."""

import math

import numpy as np
import pytest
from conftest import forward_cache, make_pset, make_slide

from fgpan.data import ClassPrototype, PrototypeSet
from fgpan.params import init_params
from fgpan.training import forward_slide, total_loss


def raw_params(d, log_tau=math.log(0.07)):
    params = init_params(d, 2, 1, seed=0)
    params.temp.log_tau = log_tau
    return params


def scores(features, protos, log_tau=math.log(0.07)):
    """Cache of the identity-feature pipeline: s and p are the raw
    embeddings' cosine scores and class probabilities."""
    features = np.atleast_2d(features)
    coords = [(0, i) for i in range(features.shape[0])]
    return forward_cache(features, coords, raw_params(features.shape[1], log_tau),
                         protos, lwa_gff=False)


def one_patch_ce(feature, protos, label, log_tau=0.0, lam=0.0):
    slide = make_slide([feature], [(0, 0)], label)
    return total_loss([slide], raw_params(len(feature), log_tau), make_pset(protos),
                      lam, lwa_gff=False)


class TestScores:
    def test_self_prototype_scores_one(self):
        protos = np.eye(4)[:3]
        np.testing.assert_allclose(scores(protos[0], protos)["s"][0], [1.0, 0.0, 0.0], atol=1e-15)

    def test_scale_invariance(self):
        protos = np.eye(4)[:3]
        h = np.random.default_rng(0).standard_normal(4)
        np.testing.assert_allclose(scores(h, protos)["s"], scores(5.0 * h, protos)["s"], atol=1e-15)

    def test_diagonal_direction(self):
        s = scores(np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2), np.eye(4)[:2])["s"]
        np.testing.assert_allclose(s[0], [0.7071067811865475] * 2, atol=1e-12)

    def test_scores_bounded(self):
        rng = np.random.default_rng(1)
        s = scores(rng.standard_normal((100, 8)) * 10, np.eye(8)[:4])["s"]
        assert np.all(s >= -1.0 - 1e-12) and np.all(s <= 1.0 + 1e-12)

    def test_zero_feature_rejected(self):
        slide = make_slide([[1.0, 0.0, 0.0, 0.0], [0.0] * 4], [(0, 0), (0, 1)])
        with pytest.raises(ValueError, match="zero-norm"):
            forward_slide(slide, raw_params(4), make_pset(np.eye(4)[:2]), lwa_gff=False)

    def test_unnormalized_prototypes_rejected(self):
        pset = PrototypeSet(4, [
            ClassPrototype(0, "a", "a", [2.0, 0.0, 0.0, 0.0]),
            ClassPrototype(1, "b", "b", [0.0, 1.0, 0.0, 0.0]),
        ])
        slide = make_slide([[1.0, 0.0, 0.0, 0.0]], [(0, 0)])
        with pytest.raises(ValueError, match="normalized"):
            forward_slide(slide, raw_params(4), pset)


class TestProbs:
    def test_softmax_values(self):
        p = scores(np.eye(4)[0], np.eye(4)[:2], log_tau=0.0)["p"][0]
        np.testing.assert_allclose(p, [0.7310585786300049, 0.2689414213699951], atol=1e-5)

    def test_equal_scores_uniform(self):
        p = scores(np.ones(8), np.eye(8)[:5])["p"]
        np.testing.assert_allclose(p, 0.2, atol=1e-15)

    def test_small_temperature_sharpens(self):
        p = scores(np.eye(4)[0], np.eye(4)[:2], log_tau=math.log(0.01))["p"][0]
        assert p[0] >= 1.0 - 1e-8

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            c = int(rng.integers(2, 6))
            tau = float(rng.uniform(0.01, 10))
            p = scores(rng.standard_normal((4, 8)), np.eye(8)[:c], math.log(tau))["p"]
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(p > 0) and np.all(p < 1)

    def test_temperature_never_changes_ranking(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = int(rng.integers(2, 8))
            tau = float(rng.uniform(0.01, 10))
            cache = scores(rng.standard_normal((3, 8)), np.eye(8)[:c], math.log(tau))
            np.testing.assert_array_equal(cache["p"].argmax(axis=1), cache["s"].argmax(axis=1))


class TestLoss:
    def test_perfect_prediction(self):
        """A patch exactly on its prototype at tau = 1e-3 has patch CE 0."""
        assert one_patch_ce(np.eye(4)[0], np.eye(4)[:2], 0, math.log(1e-3)) == 0.0

    def test_softmax_value(self):
        loss = one_patch_ce(np.eye(4)[0], np.eye(4)[:2], 0)
        assert abs(loss - 0.3132616875182228) < 1e-4

    def test_uniform_is_log_c(self):
        for c in (2, 3, 7):
            assert abs(one_patch_ce(np.ones(8), np.eye(8)[:c], 0) - math.log(c)) < 1e-12

    def test_loss_at_argmax_bounded_by_log_c(self):
        """Softmax of any scores puts >= 1/C on the argmax class."""
        rng = np.random.default_rng(4)
        for _ in range(100):
            c = int(rng.integers(2, 8))
            h = rng.standard_normal(8)
            log_tau = math.log(float(rng.uniform(0.05, 5)))
            y = int(np.argmax(scores(h, np.eye(8)[:c], log_tau)["p"][0]))
            assert one_patch_ce(h, np.eye(8)[:c], y, log_tau) <= math.log(c) + 1e-12

    def test_out_of_range_label(self):
        for label in (2, -1):
            with pytest.raises(ValueError, match="outside prototype set"):
                one_patch_ce(np.eye(4)[0], np.eye(4)[:2], label)
