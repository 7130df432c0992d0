"""Window partitioning and the window attention the forward pass runs,
checked against an independent dense-attention reference."""

import numpy as np
import pytest
from conftest import dense_attention_reference, forward_cache, make_pset, make_slide, random_head
from hypothesis import given, settings
from hypothesis import strategies as st

from fgpan.attention import AttentionHeadParams, partition_coords, window_attention
from fgpan.params import init_params
from fgpan.training import forward_slide


@st.composite
def coords_and_s(draw, max_patches=24):
    """Unique grid coordinates (file order random) and a window side S."""
    s = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    cells = draw(
        st.lists(st.integers(0, rows * cols - 1), min_size=1,
                 max_size=min(max_patches, rows * cols), unique=True)
    )
    return np.array([(c // cols, c % cols) for c in cells], dtype=np.int64), s


def expected_windows(coords, s):
    """Independent grouping: tile -> member indices in original order."""
    groups = {}
    for i, (r, c) in enumerate(coords.tolist()):
        groups.setdefault((r // s, c // s), []).append(i)
    return groups


def head_outputs(f, coords, heads, s):
    parts = partition_coords(coords, s)
    return [window_attention(f, parts, head)[0] for head in heads]


def attention_matrices(f, coords, head):
    _, wins = window_attention(f, partition_coords(coords, head.window_size), head)
    return [w[6] for w in wins]


class TestPartition:
    def test_singleton_windows_for_s1(self):
        parts = partition_coords(np.array([(0, 0), (3, 1), (7, 7)]), 1)
        assert len(parts) == 3
        assert all(idx.tolist() == [i] for i, (_, idx, _) in enumerate(parts))
        assert all(offs.tolist() == [[0, 0]] for _, _, offs in parts)

    def test_hand_tiling(self):
        parts = partition_coords(np.array([(0, 0), (0, 1), (1, 0), (5, 5)]), 2)
        assert {tile: len(idx) for tile, idx, _ in parts} == {(0, 0): 3, (2, 2): 1}

    @given(coords_and_s())
    def test_offsets_are_coords_mod_s(self, case):
        coords, s = case
        for tile, idx, offs in partition_coords(coords, s):
            np.testing.assert_array_equal(offs, coords[idx] % s)
            assert all(tuple(rc) == tile for rc in (coords[idx] // s).tolist())

    @given(coords_and_s())
    def test_every_patch_in_exactly_one_window(self, case):
        coords, s = case
        seen = np.concatenate([idx for _, idx, _ in partition_coords(coords, s)])
        assert sorted(seen.tolist()) == list(range(len(coords)))

    @given(coords_and_s())
    def test_row_major_tile_order(self, case):
        """Tiles come sorted row-major; members keep their original order."""
        coords, s = case
        want = expected_windows(coords, s)
        parts = partition_coords(coords, s)
        assert [tile for tile, _, _ in parts] == sorted(want)
        for tile, idx, _ in parts:
            assert idx.tolist() == want[tile]


class TestAttendWindow:
    def test_singleton_weight_is_one(self):
        rng = np.random.default_rng(0)
        head = random_head(rng, 4, 2)
        f = rng.standard_normal((1, 4))
        coords = np.array([(0, 1)])
        np.testing.assert_array_equal(attention_matrices(f, coords, head)[0], [[1.0]])
        out = head_outputs(f, coords, [head], 2)[0]
        np.testing.assert_allclose(out, f @ head.W_V, rtol=1e-15)

    def test_identical_patches_zero_bias_gives_uniform(self):
        rng = np.random.default_rng(1)
        head = random_head(rng, 4, 2)
        head.bias_table[:] = 0.0
        v = rng.standard_normal(4)
        f = np.stack([v, v])
        coords = np.array([(0, 0), (1, 1)])
        np.testing.assert_allclose(attention_matrices(f, coords, head)[0], 0.5, atol=1e-15)
        out = head_outputs(f, coords, [head], 2)[0]
        np.testing.assert_allclose(out[0], v @ head.W_V, rtol=1e-12)
        np.testing.assert_allclose(out[1], v @ head.W_V, rtol=1e-12)

    @settings(max_examples=60)
    @given(coords_and_s(), st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_matches_dense_reference(self, case, d, seed):
        """Every window of the running attention equals the scalar oracle."""
        coords, s = case
        rng = np.random.default_rng(seed)
        head = random_head(rng, d, s)
        f = rng.standard_normal((len(coords), d))
        out = head_outputs(f, coords, [head], s)[0]
        for idx in expected_windows(coords, s).values():
            want = dense_attention_reference(f[idx], coords[idx] % s, head)
            np.testing.assert_allclose(out[idx], want, rtol=1e-12, atol=1e-14)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            head = random_head(rng, 5, 2)
            cells = rng.choice(16, size=int(rng.integers(1, 9)), replace=False)
            coords = np.array([(int(c) // 4, int(c) % 4) for c in cells])
            f = rng.standard_normal((len(coords), 5)) * 3
            for a in attention_matrices(f, coords, head):
                np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        """A slide whose embedding width differs from the model's is refused."""
        rng = np.random.default_rng(5)
        slide = make_slide(rng.standard_normal((2, 8)), [(0, 0), (0, 1)])
        params = init_params(4, 2, 2, seed=0)
        with pytest.raises(ValueError, match="slide dim 8 does not match params dim 4"):
            forward_slide(slide, params, make_pset(np.eye(8)[:2]))


class TestLwaForward:
    def make(self, seed=0, dim=4, heads=2, s=2):
        rng = np.random.default_rng(seed)
        head_list = [random_head(rng, dim, s) for _ in range(heads)]
        cells = rng.choice(36, size=8, replace=False)
        coords = np.array([(int(c) // 6, int(c) % 6) for c in cells])
        return rng.standard_normal((8, dim)), coords, head_list

    def test_s1_reduces_to_value_projection(self):
        rng = np.random.default_rng(7)
        heads = [random_head(rng, 4, 1) for _ in range(2)]
        f = rng.standard_normal((3, 4))
        outs = head_outputs(f, np.array([(0, 0), (1, 2), (3, 3)]), heads, 1)
        for h, head in zip(outs, heads):
            np.testing.assert_allclose(h, f @ head.W_V, rtol=1e-12)

    def test_locality(self):
        """Zeroing one window's features leaves other windows' outputs alone."""
        f, coords, heads = self.make(seed=8)
        base = head_outputs(f, coords, heads, 2)
        first = partition_coords(coords, 2)[0][1]
        others = [i for i in range(f.shape[0]) if i not in first]
        f2 = f.copy()
        f2[first] = 0.0
        perturbed = head_outputs(f2, coords, heads, 2)
        for h0, h1 in zip(base, perturbed):
            np.testing.assert_array_equal(h0[others], h1[others])
            assert not np.allclose(h0[first], h1[first])

    def test_permutation_equivariance_within_window(self):
        rng = np.random.default_rng(9)
        head = random_head(rng, 4, 2)
        f = rng.standard_normal((4, 4))
        coords = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
        base = head_outputs(f, coords, [head], 2)[0]
        perm = [2, 0, 3, 1]
        permuted = head_outputs(f[perm], coords[perm], [head], 2)[0]
        np.testing.assert_allclose(permuted, base[perm], rtol=1e-12, atol=1e-14)

    def test_translation_invariance(self):
        """Shifting all coords by whole windows preserves every output."""
        f, coords, heads = self.make(seed=10)
        s = 2
        base = head_outputs(f, coords, heads, s)
        out = head_outputs(f, coords + np.array([3 * s, 5 * s]), heads, s)
        for h0, h1 in zip(base, out):
            np.testing.assert_array_equal(h0, h1)

    def test_duplicate_heads_agree(self):
        """Two heads with equal weights give equal outputs in the forward cache."""
        params = init_params(4, 2, 2, seed=11)
        h0, h1 = params.lwa.heads
        params.lwa.heads[1] = AttentionHeadParams(
            h0.W_Q.copy(), h0.W_K.copy(), h0.W_V.copy(), h0.bias_table.copy()
        )
        assert not np.array_equal(h1.W_Q, h0.W_Q)
        rng = np.random.default_rng(11)
        cache = forward_cache(
            rng.standard_normal((3, 4)), [(0, 0), (0, 1), (2, 2)], params, np.eye(4)[:2]
        )
        np.testing.assert_array_equal(cache["heads_h"][0], cache["heads_h"][1])
