"""Representative-patch selection strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fgpan.data import SlideRecord, SyntheticConfig, gen_synthetic
from fgpan.selection import SelectionStrategy, _fps_indices, select_patches


def slide_from_vectors(vectors):
    return SlideRecord("s", 0, [(0, i) for i in range(len(vectors))], vectors)


def random_slide(rng, m=12, dim=5):
    cells = rng.choice(100, size=m, replace=False)
    features = rng.standard_normal((m, dim))
    return SlideRecord("r", 0, np.stack(np.divmod(cells, 10), axis=1), features, 10, 10)


def fps_reference(x, m):
    """Farthest-point sampling in its direct form: the norm of the
    difference to each new pick, then the running minimum."""
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


class TestBounds:
    @pytest.mark.parametrize("kind", ["all", "fps_embedding", "topk_norm"])
    def test_m_max_at_least_m_is_identity(self, kind):
        rng = np.random.default_rng(0)
        s = random_slide(rng)
        out = select_patches(s, SelectionStrategy(kind, 50))
        assert out == s

    def test_output_size(self):
        rng = np.random.default_rng(1)
        s = random_slide(rng, m=10)
        for k in (1, 3, 10):
            out = select_patches(s, SelectionStrategy("fps_embedding", k))
            assert out.n_patches == k


class TestHandCases:
    def test_fps_picks_extremes(self):
        """1-d embeddings {0, 1, 10}: the centroid is 11/3, so the seed is 10
        and the next farthest-from-selected patch is 0."""
        s = slide_from_vectors([[0.0], [1.0], [10.0]])
        out = select_patches(s, SelectionStrategy("fps_embedding", 2))
        kept = sorted(out.matrix()[:, 0].tolist())
        assert kept == [0.0, 10.0]

    def test_fps_on_duplicate_embeddings_picks_distinct_patches(self):
        """A noise-free slide repeats embeddings: once every remaining
        distance is 0, the next pick is the lowest index not yet picked."""
        s = slide_from_vectors([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3)
        out = select_patches(s, SelectionStrategy("fps_embedding", 4))
        assert out.coords().tolist() == [[0, 0], [0, 1], [0, 2], [0, 3]]

    def test_topk_keeps_largest_norm(self):
        s = slide_from_vectors([[0.5], [2.0], [1.0]])
        out = select_patches(s, SelectionStrategy("topk_norm", 1))
        assert out.matrix().tolist() == [[2.0]]


class TestProperties:
    @pytest.mark.parametrize("kind", ["all", "fps_embedding", "topk_norm"])
    def test_idempotence(self, kind):
        rng = np.random.default_rng(2)
        for _ in range(5):
            s = random_slide(rng)
            strat = SelectionStrategy(kind, 5)
            once = select_patches(s, strat)
            twice = select_patches(once, strat)
            assert once == twice

    @pytest.mark.parametrize("kind", ["all", "fps_embedding", "topk_norm"])
    def test_subset_and_order_stability(self, kind):
        rng = np.random.default_rng(3)
        s = random_slide(rng)
        out = select_patches(s, SelectionStrategy(kind, 6))
        positions = []
        for coord, vec in zip(out.coords(), out.matrix()):
            same = (s.coords() == coord).all(axis=1) & (s.matrix() == vec).all(axis=1)
            assert same.any(), "output patch not found in the input"
            positions.append(int(np.argmax(same)))
        assert positions == sorted(positions)

    def test_topk_ties_break_to_lowest_index(self):
        s = slide_from_vectors([[2.0], [-2.0], [1.0]])
        out = select_patches(s, SelectionStrategy("topk_norm", 1))
        assert out.coords().tolist() == [[0, 0]]
        # full tie: the first m_max patches survive
        s = slide_from_vectors([[1.0], [-1.0], [1.0]])
        out = select_patches(s, SelectionStrategy("topk_norm", 2))
        assert out.coords().tolist() == [[0, 0], [0, 1]]

    def test_kind_validated(self):
        with pytest.raises(ValueError, match="unknown selection kind"):
            SelectionStrategy("bogus", 3)
        with pytest.raises(ValueError, match="m_max"):
            SelectionStrategy("all", 0)


class TestFpsOracle:
    @pytest.mark.parametrize(
        "cfg, m",
        [
            # the perfbench desk-train workload and its reference case (seed 1)
            *[(dict(seed=seed), 48) for seed in range(6)],
            (dict(slides_per_class=2, seed=1), 48),
            (dict(noise_sigma=0.3, seed=7), 16),
            (dict(noise_sigma=1e-3, seed=8), 32),
            (dict(dim=64, patches_per_slide=100, grid_rows=12, grid_cols=12, seed=9), 40),
        ],
        ids=[*(f"desk-train-seed{seed}" for seed in range(6)), "desk-reference", "sigma0.3",
             "sigma1e-3", "d64"],
    )
    def test_picks_equal_the_norm_of_difference_reference(self, cfg, m):
        """On gen corpora with noise the one-GEMV picks are the reference's."""
        base = dict(classes=4, slides_per_class=10, patches_per_slide=64, dim=16)
        slides, _ = gen_synthetic(SyntheticConfig(**{**base, **cfg}))
        for s in slides:
            assert _fps_indices(s.matrix(), m) == fps_reference(s.matrix(), m), s.slide_id

    @settings(max_examples=60)
    @given(st.tuples(st.integers(2, 30), st.integers(1, 6)).flatmap(lambda shape: st.tuples(
        arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)), st.integers(1, shape[0]))))
    def test_each_pick_is_farthest(self, case):
        """Picks are distinct, and each maximizes the exact squared
        min-distance to the earlier picks, up to 1e-9 of the larger of that
        maximum and the largest squared norm (the scale at which
        |x|^2 - 2 x.y + |y|^2 rounds)."""
        x, m = case
        picks = _fps_indices(x, m)
        assert len(set(picks)) == len(picks) == m
        scale = float(np.max(np.einsum("ij,ij->i", x, x)))
        for k in range(1, m):
            d2 = np.min(((x[:, None, :] - x[None, picks[:k], :]) ** 2).sum(axis=2), axis=1)
            d2[picks[:k]] = -np.inf
            best = float(d2.max())
            assert best - d2[picks[k]] <= 1e-9 * max(best, scale)
