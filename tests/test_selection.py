"""Representative-patch selection strategies."""

import numpy as np
import pytest

from fgpan.data import SlideRecord
from fgpan.selection import SelectionStrategy, select_patches


def slide_from_vectors(vectors):
    return SlideRecord("s", 0, [(0, i) for i in range(len(vectors))], vectors)


def random_slide(rng, m=12, dim=5):
    cells = rng.choice(100, size=m, replace=False)
    features = rng.standard_normal((m, dim))
    return SlideRecord("r", 0, np.stack(np.divmod(cells, 10), axis=1), features, 10, 10)


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
