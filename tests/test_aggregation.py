"""Positional encodings, importance weights and slide-level aggregation,
read from the forward cache (alpha, p, p_slide) and forward_slide."""

import math

import numpy as np
import pytest
from conftest import forward_cache, make_pset, make_slide

from fgpan.aggregation import SlidePrediction, sinusoidal_embeddings
from fgpan.params import ModelParams, init_params
from fgpan.training import forward_slide, total_loss


def sinusoidal_row(coord, d):
    return sinusoidal_embeddings(np.asarray([coord]), d)[0]


def identity_forward(features, w=None, protos=None, log_tau=math.log(0.07)):
    """Cache of the identity-feature pipeline with aggregation weights w, so
    the importance logits are w . [features || phi]."""
    features = np.asarray(features, dtype=np.float64)
    m, d = features.shape
    params = init_params(d, 2, 1, seed=0)
    params.temp.log_tau = log_tau
    if w is not None:
        params.agg.w = np.asarray(w, dtype=np.float64)
    protos = np.eye(d)[:2] if protos is None else protos
    return forward_cache(features, [(0, i) for i in range(m)], params, protos, lwa_gff=False)


def first_axis_w(d):
    """Logits read the first feature coordinate only."""
    w = np.zeros(2 * d)
    w[0] = 1.0
    return w


class TestPositionalEmbedding:
    def test_origin_alternates(self):
        np.testing.assert_array_equal(sinusoidal_row((0, 0), 8), [0.0, 1.0] * 4)

    def test_pure(self):
        np.testing.assert_array_equal(
            sinusoidal_row((3, 5), 12), sinusoidal_row((3, 5), 12)
        )

    def test_hand_values_d4(self):
        e = sinusoidal_row((1, 0), 4)
        np.testing.assert_allclose(
            e, [0.8414709848078965, 0.5403023058681398, 0.0, 1.0], atol=1e-5
        )

    def test_d_not_divisible_by_four(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            sinusoidal_row((0, 0), 6)


class TestPatchWeights:
    def test_single_patch(self):
        cache = identity_forward(np.ones((1, 4)), w=np.ones(8))
        np.testing.assert_array_equal(cache["alpha"], [1.0])

    def test_zero_projection_uniform(self):
        rng = np.random.default_rng(0)
        cache = identity_forward(rng.standard_normal((5, 4)))
        np.testing.assert_allclose(cache["alpha"], 0.2, atol=1e-15)

    def test_hand_softmax(self):
        """Logits (ln 2, 0) produce weights (2/3, 1/3)."""
        h = np.zeros((2, 4))
        h[:, 1] = 1.0
        h[0, 0] = math.log(2.0)
        cache = identity_forward(h, w=first_axis_w(4))
        np.testing.assert_allclose(cache["alpha"], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_logit_shift_invariance(self):
        """Adding a constant to every logit leaves alpha unchanged."""
        rng = np.random.default_rng(1)
        h = rng.standard_normal((6, 4))
        base = identity_forward(h, w=first_axis_w(4))["alpha"]
        shifted = h.copy()
        shifted[:, 0] += 7.5
        np.testing.assert_allclose(identity_forward(shifted, w=first_axis_w(4))["alpha"],
                                   base, atol=1e-12)

    def test_wrong_w_length(self):
        """w has length 2d: [feature || positional embedding]."""
        params = init_params(4, 2, 1, seed=0)
        with pytest.raises(ValueError, match=r"w must have shape \(8,\)"):
            params.agg.w = np.zeros(6)

    def test_learned_table_requires_table(self):
        """learned_table mode needs grid dims for its table; sinusoidal mode
        has no table to assign."""
        n = init_params(4, 2, 1, seed=0).n_scalars
        with pytest.raises(ValueError, match="requires positive grid dims"):
            ModelParams(np.zeros(n), dim=4, window_size=2, heads=1, pos_mode="learned_table")
        params = init_params(4, 2, 1, seed=0)
        assert params.agg.table is None
        with pytest.raises(AttributeError, match="no table leaf"):
            params.agg.table = np.zeros((4, 4))

    def test_learned_table_out_of_grid(self):
        params = init_params(4, 2, 1, seed=0, pos_mode="learned_table",
                             grid_rows=2, grid_cols=2)
        slide = make_slide(np.ones((1, 4)), [(5, 0)])
        with pytest.raises(ValueError, match="outside"):
            forward_slide(slide, params, make_pset(np.eye(4)[:2]))


class TestAggregate:
    def test_convex_midpoint(self):
        """Two mirror-image patches at equal weight give P = (1/2, 1/2)."""
        cache = identity_forward(np.eye(4)[:2])
        np.testing.assert_array_equal(cache["alpha"], [0.5, 0.5])
        np.testing.assert_allclose(cache["p_slide"], [0.5, 0.5], atol=1e-15)

    def test_identical_rows_fixed_point(self):
        """Equal patch distributions pass through any weighting unchanged."""
        h = np.tile([0.3, 0.5, 0.8, 0.1], (3, 1))
        cache = identity_forward(h, w=np.linspace(-1, 1, 8), protos=np.eye(4)[:3])
        np.testing.assert_allclose(cache["p_slide"], cache["p"][0], atol=1e-15)

    def test_degenerate_weighting(self):
        """A logit gap of 1000 puts all weight on one patch: P is its row."""
        h = np.array([[1000.0, 1.0, 0.0, 0.0], [0.0, 1.0, 2.0, 0.0]])
        cache = identity_forward(h, w=first_axis_w(4))
        np.testing.assert_array_equal(cache["alpha"], [1.0, 0.0])
        np.testing.assert_array_equal(cache["p_slide"], cache["p"][0])

    def test_convex_hull_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m, c = int(rng.integers(1, 8)), int(rng.integers(2, 5))
            cache = identity_forward(rng.standard_normal((m, 4)), w=rng.standard_normal(8),
                                     protos=np.eye(4)[:c], log_tau=rng.uniform(-3, 1))
            p, probs = cache["p_slide"], cache["p"]
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p >= probs.min(axis=0) - 1e-12)
            assert np.all(p <= probs.max(axis=0) + 1e-12)

    def test_patch_permutation_leaves_p_unchanged(self):
        """Reordering a slide's patches (coordinates travel with them) leaves
        the full pipeline's alpha-weighted P unchanged."""
        rng = np.random.default_rng(3)
        params = init_params(4, 2, 2, seed=3)
        vec = params.flatten()
        params = params.with_flat(vec + 0.3 * rng.standard_normal(vec.size))
        cells = rng.choice(16, size=6, replace=False)
        coords = np.array([(int(c) // 4, int(c) % 4) for c in cells])
        f = rng.standard_normal((6, 4))
        protos = np.eye(4)[:3]
        perm = rng.permutation(6)
        base = forward_cache(f, coords, params, protos)
        permuted = forward_cache(f[perm], coords[perm], params, protos)
        np.testing.assert_allclose(permuted["p_slide"], base["p_slide"], atol=1e-15)
        np.testing.assert_allclose(permuted["alpha"], base["alpha"][perm], atol=1e-15)


class TestSlideLoss:
    """The slide term is total_loss(lambda=1) - total_loss(lambda=0)."""

    @staticmethod
    def slide_term(features, protos, label, log_tau=0.0):
        slide = make_slide(features, [(0, i) for i in range(len(features))], label)
        params = init_params(len(features[0]), 2, 1, seed=0)
        params.temp.log_tau = log_tau
        pset = make_pset(protos)
        return (total_loss([slide], params, pset, 1.0, lwa_gff=False)
                - total_loss([slide], params, pset, 0.0, lwa_gff=False))

    def test_perfect(self):
        assert self.slide_term(np.eye(4)[:1] * 3, np.eye(4)[:2], 0, math.log(1e-3)) == 0.0

    def test_uniform(self):
        term = self.slide_term(np.ones((3, 8)), np.eye(8)[:4], 2)
        assert abs(term - math.log(4)) < 1e-12

    def test_half(self):
        """Mirror-image patches at equal weight: P_y = 1/2."""
        assert abs(self.slide_term(np.eye(4)[:2], np.eye(4)[:2], 1) - 0.6931471805599453) < 1e-5

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            self.slide_term(np.eye(4)[:2], np.eye(4)[:2], -1)


class TestSlidePrediction:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="probability"):
            SlidePrediction(np.array([0.5, 0.6]), np.array([1.0]), 0)
        with pytest.raises(ValueError, match="sum to 1"):
            SlidePrediction(np.array([1.0]), np.array([0.5, 0.4]), 0)
