"""Parameter initialization, flat ordering, and checkpoint IO."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ADVERSARIAL

from fgpan.params import init_params, load_checkpoint, save_checkpoint


class TestInit:
    def test_seed_determinism(self):
        a = init_params(8, 2, 2, seed=7)
        b = init_params(8, 2, 2, seed=7)
        np.testing.assert_array_equal(a.flatten(), b.flatten())

    def test_different_seeds_differ(self):
        a = init_params(8, 2, 2, seed=7)
        b = init_params(8, 2, 2, seed=8)
        assert not np.array_equal(a.flatten(), b.flatten())

    def test_zero_init_structure(self):
        p = init_params(8, 2, 2, seed=0)
        np.testing.assert_array_equal(p.gates.w_g, 0.0)
        np.testing.assert_array_equal(p.gates.b_g, 0.0)
        np.testing.assert_array_equal(p.fusion.W_f, np.eye(8))
        np.testing.assert_array_equal(p.fusion.b_f, 0.0)
        np.testing.assert_array_equal(p.agg.w, 0.0)
        for head in p.lwa.heads:
            np.testing.assert_array_equal(head.bias_table, 0.0)
        assert abs(p.temp.tau - 0.07) < 1e-15

    def test_learned_table_drawn_only_when_used(self):
        p = init_params(8, 2, 2, seed=0, pos_mode="learned_table", grid_rows=3, grid_cols=3)
        assert p.agg.learned_table.shape == (9, 8)
        q = init_params(8, 2, 2, seed=0)
        assert q.agg.learned_table is None

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            init_params(0, 2, 2)
        with pytest.raises(ValueError, match="grid dims"):
            init_params(8, 2, 2, pos_mode="learned_table")


class TestFlatOrdering:
    def test_round_trip(self):
        p = init_params(6, 2, 3, seed=1)
        vec = p.flatten()
        q = p.with_flat(vec)
        np.testing.assert_array_equal(q.flatten(), vec)

    def test_with_flat_replaces_values(self):
        p = init_params(4, 2, 1, seed=2)
        vec = p.flatten()
        vec2 = vec + 1.0
        q = p.with_flat(vec2)
        np.testing.assert_array_equal(q.flatten(), vec2)
        np.testing.assert_array_equal(p.flatten(), vec)  # original untouched

    def test_leaf_names_stable(self):
        p = init_params(4, 2, 2, seed=0)
        names = [n for n, _ in p.leaves()]
        assert names == [
            "lwa.h0.W_Q", "lwa.h0.W_K", "lwa.h0.W_V", "lwa.h0.bias_table",
            "lwa.h1.W_Q", "lwa.h1.W_K", "lwa.h1.W_V", "lwa.h1.bias_table",
            "gates.w_g", "gates.b_g", "fusion.W_f", "fusion.b_f",
            "temp.log_tau", "agg.w",
        ]

    def test_decay_mask_excludes_scalars_and_biases(self):
        p = init_params(4, 2, 1, seed=0)
        mask = p.decay_mask()
        by_name = {}
        pos = 0
        for name, arr in p.leaves():
            by_name[name] = mask[pos : pos + arr.size]
            pos += arr.size
        assert by_name["lwa.h0.W_Q"].all()
        assert by_name["lwa.h0.bias_table"].all()
        assert by_name["fusion.W_f"].all()
        assert by_name["gates.w_g"].all()
        assert by_name["agg.w"].all()
        assert not by_name["gates.b_g"].any()
        assert not by_name["fusion.b_f"].any()
        assert not by_name["temp.log_tau"].any()


class TestCheckpoint:
    def test_round_trip_lossless(self, tmp_path):
        p = init_params(8, 3, 2, seed=5, pos_mode="learned_table", grid_rows=4, grid_cols=5)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        np.testing.assert_array_equal(q.flatten(), p.flatten())
        assert q.agg.positional_mode == "learned_table"
        assert (q.agg.grid_rows, q.agg.grid_cols) == (4, 5)

    def test_fresh_init_checkpoint_matches_reinit(self, tmp_path):
        p = init_params(8, 2, 2, seed=7)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        np.testing.assert_array_equal(q.flatten(), init_params(8, 2, 2, seed=7).flatten())

    def test_save_deterministic(self, tmp_path):
        p = init_params(8, 2, 2, seed=7)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_checkpoint(p, a)
        save_checkpoint(p, b)
        assert a.read_bytes() == b.read_bytes()

    def test_dim_mismatch_rejected(self, tmp_path):
        p = init_params(8, 2, 2, seed=0)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(p, path)
        with pytest.raises(ValueError, match="dim=8, run expects 16"):
            load_checkpoint(path, expect_dim=16)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            '{"format": "fgpan-checkpoint", "version": 99, "dim": 2, '
            '"window_size": 1, "heads": 1, "pos_mode": "sinusoidal", '
            '"grid_rows": null, "grid_cols": null}\n'
        )
        with pytest.raises(ValueError, match="version 99"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header, match",
        [
            ('[1, 2]', "malformed checkpoint header: not an object"),
            ('{"format": "fgpan-checkpoint", "version": 1}', "missing field 'dim'"),
            (
                '{"format": "fgpan-checkpoint", "version": 1, "dim": 2, "window_size": 1, '
                '"heads": 1, "pos_mode": "sinusoidal", "grid_rows": null}',
                "missing field 'grid_cols'",
            ),
            (
                '{"format": "fgpan-checkpoint", "version": 1, "dim": null, "window_size": 1, '
                '"heads": 1, "pos_mode": "sinusoidal", "grid_rows": null, "grid_cols": null}',
                "field 'dim' must be a positive integer",
            ),
            (
                '{"format": "fgpan-checkpoint", "version": 1, "dim": 2, "window_size": 1, '
                '"heads": 0, "pos_mode": "sinusoidal", "grid_rows": null, "grid_cols": null}',
                "field 'heads' must be a positive integer",
            ),
            (
                '{"format": "fgpan-checkpoint", "version": 1, "dim": 2, "window_size": 1, '
                '"heads": 1, "pos_mode": "learned_table", "grid_rows": null, "grid_cols": null}',
                "learned_table checkpoint without grid dims",
            ),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, header, match):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    def test_bad_value_names_file_and_leaf(self, tmp_path):
        p = init_params(4, 2, 1, seed=0)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(p, path)
        path.write_text(path.read_text().replace("agg.w ", "agg.w oops ", 1))
        with pytest.raises(ValueError, match=r"ckpt\.txt: leaf 'agg\.w': could not convert"):
            load_checkpoint(path)

    def test_missing_leaf_rejected(self, tmp_path):
        p = init_params(4, 2, 1, seed=0)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(p, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop agg.w
        with pytest.raises(ValueError, match="missing leaves"):
            load_checkpoint(path)


class TestCheckpointRoundTrip:
    @settings(max_examples=40)
    @given(
        st.integers(1, 5),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from(["sinusoidal", "learned_table"]),
        st.integers(1, 3),
        st.integers(1, 3),
        st.data(),
    )
    def test_save_load_is_bitwise(self, dim, heads, s, pos_mode, rows, cols, data):
        """save -> load reproduces flatten() bit for bit, and save -> load ->
        save writes the same bytes, for any finite values."""
        params = init_params(dim, s, heads, grid_rows=rows, grid_cols=cols, pos_mode=pos_mode)
        values = data.draw(
            st.lists(
                st.one_of(st.sampled_from(ADVERSARIAL), st.floats(allow_nan=False,
                                                                  allow_infinity=False)),
                min_size=params.n_scalars, max_size=params.n_scalars,
            )
        )
        params = params.with_flat(np.array(values))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.ckpt"), os.path.join(tmp, "b.ckpt")
            save_checkpoint(params, first)
            loaded = load_checkpoint(first)
            assert loaded.flatten().tobytes() == params.flatten().tobytes()
            save_checkpoint(loaded, second)
            with open(first, "rb") as fa, open(second, "rb") as fb:
                assert fa.read() == fb.read()
