"""Window partitioning and the window attention the forward pass runs,
checked against an independent dense-attention reference."""

import numpy as np
import pytest
from conftest import (
    dense_attention_reference,
    forward_cache,
    head_attention,
    int64_coords,
    kernel_reference,
    make_pset,
    make_slide,
    random_head,
    refinement_reference,
    window_weights,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgpan.attention import (
    occupancy_classes,
    partition_coords,
    window_attention,
    window_attention_backward,
)
from fgpan.params import init_params
from fgpan.training import (
    finite_diff_check,
    forward_slide,
    random_instance,
)


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
    layout = partition_coords(coords, s)
    return [head_attention(f, layout, head)[0] for head in heads]


def attention_weights(f, coords, head):
    """The layout and each window's (weights, slot mask), window_weights'
    reading of the kernel's per-class attention weights."""
    layout = partition_coords(coords, (head.bias_table.shape[0] + 1) // 2)
    classes = occupancy_classes(layout, f.shape[1])
    return layout, window_weights(classes, head_attention(f, layout, head)[1])


def attention_matrices(f, coords, head):
    """Per window, the weights among its real members (offset order)."""
    _, weights = attention_weights(f, coords, head)
    return [a[np.ix_(m, m)] for a, m in weights]


def window_members(layout, w):
    return np.flatnonzero(layout.window == w)


class TestPartition:
    def test_singleton_windows_for_s1(self):
        layout = partition_coords(np.array([(0, 0), (3, 1), (7, 7)]), 1)
        assert layout.n_windows == 3
        assert layout.window.tolist() == [0, 1, 2]
        assert layout.slot.tolist() == [0, 1, 2]
        assert layout.mask.shape == (3, 1) and layout.mask.all()
        assert layout.bias_index.tolist() == [[0]]

    def test_hand_tiling(self):
        layout = partition_coords(np.array([(0, 0), (0, 1), (1, 0), (5, 5)]), 2)
        assert layout.tiles.tolist() == [[0, 0], [2, 2]]
        assert layout.mask.sum(axis=1).tolist() == [3, 1]
        assert layout.slot.tolist() == [0, 1, 2, 7]

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValueError, match="duplicate patch coordinates"):
            partition_coords(np.array([(0, 0), (1, 1), (0, 0)]), 2)

    @given(coords_and_s())
    def test_offsets_are_coords_mod_s(self, case):
        """A patch's slot within its window is its offset (coords mod S);
        its window's tile is coords // S."""
        coords, s = case
        layout = partition_coords(coords, s)
        offs = coords % s
        np.testing.assert_array_equal(layout.slot // (s * s), layout.window)
        np.testing.assert_array_equal(layout.slot % (s * s), offs[:, 0] * s + offs[:, 1])
        np.testing.assert_array_equal(layout.tiles[layout.window], coords // s)

    @given(coords_and_s())
    def test_every_patch_in_exactly_one_window(self, case):
        """Slots are distinct and the occupied slots are exactly the
        patches' slots: no patch is lost, doubled or sharing a slot."""
        coords, s = case
        layout = partition_coords(coords, s)
        assert layout.mask.shape == (layout.n_windows, s * s)
        assert sorted(layout.slot.tolist()) == np.flatnonzero(layout.mask).tolist()
        assert layout.mask.any(axis=1).all()

    @given(coords_and_s())
    def test_row_major_tile_order(self, case):
        """Tiles come sorted row-major; a window's members, in original
        order, are exactly the patches of its tile."""
        coords, s = case
        want = expected_windows(coords, s)
        layout = partition_coords(coords, s)
        assert [tuple(t) for t in layout.tiles.tolist()] == sorted(want)
        for w, tile in enumerate(layout.tiles.tolist()):
            assert window_members(layout, w).tolist() == want[tuple(tile)]

    @given(int64_coords(), st.integers(1, 4))
    @example(np.array([(0, 16), (16, 1), (0, 2**62)]), 2)
    @example(np.array([(0, 16), (16, 0), (0, 2**62)]), 2)
    def test_windows_up_to_int64_max(self, coords, s):
        """Where a row-major tile key would pass int64, the windows are
        still the brute-force grouping by (r // S, c // S), in row-major
        tile order, with each patch at its offset."""
        want = expected_windows(coords, s)
        layout = partition_coords(coords, s)
        assert [tuple(t) for t in layout.tiles.tolist()] == sorted(want)
        for w, tile in enumerate(layout.tiles.tolist()):
            assert window_members(layout, w).tolist() == want[tuple(tile)]
        offs = coords % s
        np.testing.assert_array_equal(layout.slot % (s * s), offs[:, 0] * s + offs[:, 1])

    @given(int64_coords(), st.integers(1, 4),
           st.tuples(st.integers(-2**63, 0), st.integers(-2**63, 0)))
    @example(np.array([(1, 0), (0, 2)]), 1, (0, -1))
    def test_negative_coordinates_group_by_floor_division(self, coords, s, shift):
        """Coordinates anywhere down to int64's minimum are grouped as the
        brute force groups them, by (r // S, c // S) with floor division,
        in row-major tile order, each patch at its offset coords mod S."""
        coords = coords + np.array(shift, dtype=np.int64)
        want = expected_windows(coords, s)
        layout = partition_coords(coords, s)
        assert [tuple(t) for t in layout.tiles.tolist()] == sorted(want)
        for w, tile in enumerate(layout.tiles.tolist()):
            assert window_members(layout, w).tolist() == want[tuple(tile)]
        offs = coords % s
        np.testing.assert_array_equal(layout.slot % (s * s), offs[:, 0] * s + offs[:, 1])

    @pytest.mark.parametrize(
        "coords", [[(2**63, 0), (0, 0)], np.array([(2**63, 0), (0, 0)], dtype=np.uint64)],
        ids=["list", "uint64"],
    )
    def test_coordinate_past_int64_named(self, coords):
        with pytest.raises(ValueError, match="coordinate 9223372036854775808 does not fit"):
            partition_coords(coords, 2)

    @pytest.mark.parametrize(
        "coords", [[(0, 1), (0.5, 1.7), (-0.5, 0.2)], np.array([(0.0, 1.0), (0.5, 1.7)])],
        ids=["list", "float64"],
    )
    def test_non_integer_coordinate_named(self, coords):
        """A fractional coordinate is refused by name, not truncated into a
        tile; an integral float is a coordinate like any other."""
        with pytest.raises(ValueError, match=r"coords: coordinate 0\.5 is not an integer"):
            partition_coords(coords, 1)
        assert partition_coords(np.asarray(coords)[:1], 1).tiles.tolist() == [[0, 1]]

    @given(st.lists(int64_coords(), min_size=1, max_size=4), st.integers(1, 4))
    def test_stack_layout_is_each_slides_in_turn(self, slides, s):
        """A stack's layout is each slide's own layout placed after the
        previous slides' layouts: windows and slots offset by the windows
        before, masks stacked, tiles concatenated."""
        stacked = partition_coords(np.concatenate(slides), s, [len(c) for c in slides])
        alone = [partition_coords(c, s) for c in slides]
        before = np.cumsum([0] + [layout.n_windows for layout in alone])
        for name, shift in (("window", 1), ("slot", s * s)):
            want = [getattr(layout, name) + b * shift for layout, b in zip(alone, before)]
            np.testing.assert_array_equal(getattr(stacked, name), np.concatenate(want))
        for name in ("mask", "tiles"):
            want = np.concatenate([getattr(layout, name) for layout in alone])
            np.testing.assert_array_equal(getattr(stacked, name), want)
        np.testing.assert_array_equal(stacked.bias_index, alone[0].bias_index)

    @given(st.integers(1, 4))
    def test_bias_index_is_slot_displacement(self, s):
        """One (S^2, S^2) index maps slot pairs to their relative offset."""
        layout = partition_coords(np.array([(0, 0)]), s)
        side = 2 * s - 1
        for i in range(s * s):
            for j in range(s * s):
                dr = i // s - j // s + s - 1
                dc = i % s - j % s + s - 1
                assert layout.bias_index[i, j] == dr * side + dc


@st.composite
def class_layouts(draw):
    """Grid coordinates, in random row order, of 2-6 windows of an S x S
    tiling (S in 1..4), whose occupancies differ where S > 1, and S."""
    s = draw(st.integers(1, 4))
    tiles = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=2,
                          max_size=6, unique=True))
    sizes = [draw(st.integers(1, s * s)) for _ in tiles]
    if s > 1 and len(set(sizes)) == 1:
        sizes[-1] = 1 if sizes[0] > 1 else 2
    cells = []
    for (tr, tc), k in zip(tiles, sizes):
        for off in draw(st.permutations(range(s * s)))[:k]:
            cells.append((tr * s + off // s, tc * s + off % s))
    return np.array(draw(st.permutations(cells)), dtype=np.int64), s


def padded_kernel(f, fm, layout, bias_table):
    """Y and the weights of every window padded to S^2 slots by offset and
    run as one batch, from the layout's slot, mask and bias_index: the
    kernel's arithmetic for a layout of one class of capacity S^2."""
    n, s2 = layout.mask.shape
    d = f.shape[1]

    def pad(x):
        out = np.zeros((n * s2, d))
        out[layout.slot] = x
        return out.reshape(n, s2, d)

    f_pad = pad(f)
    z = pad(fm) @ f_pad.transpose(0, 2, 1)
    z += bias_table.ravel()[layout.bias_index]
    z /= np.sqrt(d)
    z = np.where(layout.mask[:, None, :], z, -np.inf)
    z -= z.max(axis=2, keepdims=True)
    a = np.exp(z, out=z)
    a /= a.sum(axis=2, keepdims=True)
    return (a @ f_pad).reshape(-1, d)[layout.slot], a


class TestOccupancyClasses:
    @settings(max_examples=80)
    @given(class_layouts(), st.sampled_from([10**6, 20_000, 5_000, 1_000]), st.integers(2, 6),
           st.integers(0, 2**32 - 1))
    def test_kernels_match_dense_reference(self, case, price_dim, d, seed):
        """Y, d fm and the bias-table gradient of the kernels over every
        class of a layout equal the brute-force per-window reference to
        1e-12 relative. Classes are priced at a width price_dim apart from
        the features' own: at 10^6 each occupancy keeps a class of its own;
        the smaller the width, the more classes merge into padded larger
        ones, compacted or of capacity S^2."""
        coords, s = case
        classes = occupancy_classes(partition_coords(coords, s), price_dim)
        if price_dim == 10**6 and s > 1:
            assert len(classes) >= 2
        rng = np.random.default_rng(seed)
        f, fm, g = (rng.standard_normal((len(coords), d)) for _ in range(3))
        table = rng.standard_normal((2 * s - 1, 2 * s - 1))
        f_pad = tuple(cls.pad(f) for cls in classes)
        y, a = window_attention(f_pad, fm, classes, table)
        d_bias = np.zeros_like(table)
        d_fm = window_attention_backward(f_pad, classes, a, g, d_bias)
        want = kernel_reference(f, fm, coords, s, table, g)
        for got, ref in zip((y, d_fm, d_bias), want):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @given(class_layouts(), st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_one_class_is_the_padded_batch(self, case, d, seed):
        """Where every class merges into capacity S^2 (the padding priced
        at d=1), the one class keeps the layout's own slots, mask and
        shared bias index, and its Y and weights equal one padded batch
        over all windows bit for bit."""
        coords, s = case
        layout = partition_coords(coords, s)
        (cls,) = occupancy_classes(layout, 1)
        assert cls.capacity == s * s
        np.testing.assert_array_equal(cls.windows, np.arange(layout.n_windows))
        np.testing.assert_array_equal(cls.rows, np.arange(len(coords)))
        for name in ("slot", "mask", "bias_index"):
            np.testing.assert_array_equal(getattr(cls, name), getattr(layout, name))
        rng = np.random.default_rng(seed)
        f, fm = rng.standard_normal((len(coords), d)), rng.standard_normal((len(coords), d))
        table = rng.standard_normal((2 * s - 1, 2 * s - 1))
        y, (a,) = window_attention((cls.pad(f),), fm, (cls,), table)
        want_y, want_a = padded_kernel(f, fm, layout, table)
        assert a.tobytes() == want_a.tobytes()
        assert y.tobytes() == want_y.tobytes()


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
        """Every window of the batched attention equals the scalar oracle."""
        coords, s = case
        rng = np.random.default_rng(seed)
        head = random_head(rng, d, s)
        f = rng.standard_normal((len(coords), d))
        out = head_outputs(f, coords, [head], s)[0]
        for idx in expected_windows(coords, s).values():
            want = dense_attention_reference(f[idx], coords[idx] % s, head)
            np.testing.assert_allclose(out[idx], want, rtol=1e-12, atol=1e-14)

    def test_rows_sum_to_one(self):
        """Real query rows sum to 1 over the real keys; empty key slots get
        exactly zero weight."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            head = random_head(rng, 5, 2)
            cells = rng.choice(16, size=int(rng.integers(1, 9)), replace=False)
            coords = np.array([(int(c) // 4, int(c) % 4) for c in cells])
            f = rng.standard_normal((len(coords), 5)) * 3
            _, weights = attention_weights(f, coords, head)
            for a, m in weights:
                np.testing.assert_allclose(a[np.ix_(m, m)].sum(axis=1), 1.0, atol=1e-12)
                assert np.all(a[:, ~m] == 0.0)

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
        first = window_members(partition_coords(coords, 2), 0)
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
        assert not np.array_equal(h1.W_Q, h0.W_Q)
        h1.W_Q, h1.W_K, h1.W_V, h1.bias_table = h0.W_Q, h0.W_K, h0.W_V, h0.bias_table
        rng = np.random.default_rng(11)
        cache = forward_cache(
            rng.standard_normal((3, 4)), [(0, 0), (0, 1), (2, 2)], params, np.eye(4)[:2]
        )
        y = cache["y"]
        np.testing.assert_array_equal(y[:, :4], y[:, 4:])
        np.testing.assert_array_equal(cache["gamma"][0], cache["gamma"][1])

    @settings(max_examples=40)
    @given(
        st.integers(1, 3),
        st.sampled_from(["sinusoidal", "learned_table"]),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_three_projection_reference(self, s, pos_mode, patches, seed):
        """h and alpha of the re-associated forward equal the textbook
        three-projection form (per-head W_Q, W_K, W_V, scalar gates, g_sum,
        then W_f) to 1e-12 relative, on random sparse slides with every
        parameter moved off its init."""
        slides, _, params = random_instance(
            seed % 1000, dim=4, window_size=s, heads=2, patches=patches, n_slides=1,
            grid_rows=6, grid_cols=6, pos_mode=pos_mode, randomize_params=True,
        )
        f, coords = slides[0].matrix(), slides[0].coords()
        cache = forward_cache(f, coords, params, np.eye(4)[:2])
        want_h, want_alpha = refinement_reference(f, coords, params)
        for got, want in ((cache["h"], want_h), (cache["alpha"], want_alpha)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def attention_fd_error(slides, params, pset, lam):
    """finite_diff_check's worst relative error over the attention leaves
    (every head's W_Q, W_K, W_V and bias table)."""
    report = finite_diff_check(slides, params, pset, lam)
    return max(err for name, err in report.items() if name.startswith("lwa."))


class TestWindowAttentionGradients:
    @settings(max_examples=20)
    @given(
        st.integers(1, 3),
        st.integers(2, 6),
        st.integers(2, 6),
        st.sampled_from(["sinusoidal", "learned_table"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_finite_differences(self, s, rows, cols, pos_mode, seed):
        """The batched backward's bias-table, W_Q, W_K and W_V gradients
        agree with finite differences on random sparse slides: about a
        third of the grid cells hold a patch, so windows are partly empty
        and padding and masking are exercised. Parameters start at init
        with random bias tables."""
        slides, pset, params = random_instance(
            seed % 1000, dim=4, window_size=s, heads=2, patches=max(1, rows * cols // 3),
            grid_rows=rows, grid_cols=cols, pos_mode=pos_mode,
        )
        rng = np.random.default_rng(seed)
        for head in params.lwa.heads:
            head.bias_table[:] = 0.5 * rng.standard_normal(head.bias_table.shape)
        layout = partition_coords(slides[0].coords(), s)
        assert layout.mask.sum() == slides[0].n_patches
        for lam in (0.0, 1.0):
            assert attention_fd_error(slides, params, pset, lam) <= 1e-5
