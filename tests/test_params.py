"""The parameter schema, initialization, flat ordering, and checkpoint IO."""

import builtins
import math
import operator
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ADVERSARIAL

import fgpan.params
import fgpan.rowtext
from fgpan.data import _parse_decimals
from fgpan.params import (
    ModelParams,
    _checkpoint_zeros,
    _fast_decimals,
    _schema,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

# every leaf of a learned_table model, the largest schema
TABLE_LEAVES = [
    name for name, _ in
    init_params(4, 2, 2, pos_mode="learned_table", grid_rows=2, grid_cols=3).leaves()
]


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
        assert p.agg.table.shape == (9, 8)
        q = init_params(8, 2, 2, seed=0)
        assert q.agg.table is None

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


class TestSchema:
    @settings(max_examples=60)
    @given(
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from(["sinusoidal", "learned_table"]),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    def test_leaves_tile_theta_in_schema_order(self, dim, s, heads, pos_mode, rows, cols):
        """leaves() are views of theta in schema order, covering each scalar
        exactly once, and save_checkpoint writes its leaf lines in that
        order."""
        params = init_params(dim, s, heads, grid_rows=rows, grid_cols=cols, pos_mode=pos_mode)
        schema = _schema(dim, s, heads, pos_mode,
                         rows if pos_mode == "learned_table" else None,
                         cols if pos_mode == "learned_table" else None)
        leaves = params.leaves()
        assert [(n, a.shape) for n, a in leaves] == [(n, shape) for n, shape, _ in schema]
        base = params.theta.__array_interface__["data"][0]
        pos = 0
        for _, arr in leaves:
            assert np.shares_memory(arr, params.theta) and arr.flags.c_contiguous
            assert arr.__array_interface__["data"][0] == base + 8 * pos
            pos += arr.size
        assert pos == params.theta.size == params.n_scalars
        np.testing.assert_array_equal(np.concatenate([a.ravel() for _, a in leaves]),
                                      params.flatten())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.ckpt")
            save_checkpoint(params, path)
            with open(path, encoding="utf-8") as fh:
                names = [ln.split(" ", 1)[0] for ln in fh.read().splitlines()[1:]]
        assert names == [n for n, _ in leaves]

    # five leaves keep their short ids, so recorded results still match by name
    @pytest.mark.parametrize("leaf", TABLE_LEAVES, ids=lambda leaf: {
        "temp.log_tau": "log_tau", "fusion.W_f": "W_f", "gates.b_g": "b_g",
        "agg.table": "table", "lwa.h1.bias_table": "bias_table",
    }.get(leaf, leaf))
    def test_leaf_rebinding_writes_through(self, leaf):
        """Assigning a leaf attribute, reached by its schema name ("lwa.h1.W_Q"
        is lwa.heads[1].W_Q), changes exactly that leaf's slice of
        flatten()."""
        p = init_params(4, 2, 2, seed=1, pos_mode="learned_table", grid_rows=2, grid_cols=3)
        *path, attr = leaf.split(".")
        group = getattr(p, path[0])
        if path[0] == "lwa":
            group = group.heads[int(path[1].removeprefix("h"))]
        value = np.arange(p[leaf].size).reshape(p[leaf].shape) + 0.5
        before = p.flatten()
        setattr(group, attr, value.item() if attr == "log_tau" else value)
        after = p.flatten()
        np.testing.assert_array_equal(p[leaf], value)
        np.testing.assert_array_equal(np.delete(after, _offsets(p)[leaf]),
                                      np.delete(before, _offsets(p)[leaf]))

    @pytest.mark.parametrize("rebind, error", [
        (lambda p: operator.setitem(p.lwa.heads, 1, p.lwa.heads[0]), TypeError),
        (lambda p: setattr(p.lwa, "heads", ()), AttributeError),
        (lambda p: setattr(p, "gates", p.fusion), AttributeError),
        (lambda p: setattr(p, "theta", np.zeros(p.n_scalars)), AttributeError),
        (lambda p: setattr(p.agg, "positional_mode", "learned_table"), AttributeError),
        (lambda p: setattr(p.agg, "table", np.zeros((4, 4))), AttributeError),
        (lambda p: setattr(p.fusion, "W_g", np.eye(4)), AttributeError),
        (lambda p: setattr(p.fusion, "W_f", np.eye(3)), ValueError),
    ], ids=["heads[1]", "heads", "gates", "theta", "positional_mode", "sinusoidal-table",
            "unknown-leaf", "wrong-shape"])
    def test_other_rebinding_raises(self, rebind, error):
        """Anything but a leaf assignment of the right shape raises and
        leaves theta as it was."""
        p = init_params(4, 2, 2, seed=1)
        before = p.flatten()
        with pytest.raises(error):
            rebind(p)
        np.testing.assert_array_equal(p.flatten(), before)

    def test_wrong_vector_length(self):
        p = init_params(4, 2, 1, seed=0)
        with pytest.raises(ValueError, match=rf"must have shape \({p.n_scalars},\)"):
            p.with_flat(np.zeros(p.n_scalars + 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_with_flat_refuses_non_finite(self, bad):
        p = init_params(4, 2, 1, seed=0)
        vec = p.flatten()
        vec[-1] = bad
        with pytest.raises(ValueError, match="leaf 'agg.w' holds a non-finite value"):
            p.with_flat(vec)

    @pytest.mark.parametrize("log_tau", [709.0, -708.39])
    def test_tau_at_the_edges_of_the_doubles(self, log_tau):
        p = init_params(4, 2, 1, seed=0)
        p.temp.log_tau = log_tau
        assert 0.0 < p.temp.tau < math.inf

    @pytest.mark.parametrize("log_tau", [710.0, 800.0, 1e300, -708.4, -745.0, -746.0, -800.0,
                                         -1e300])
    def test_tau_out_of_range_names_log_tau(self, log_tau):
        """exp(log_tau) overflowing, rounding to 0 or falling below the
        smallest normal double is a named error, not an OverflowError or a
        tau that overflows the scores."""
        p = init_params(4, 2, 1, seed=0)
        p.temp.log_tau = log_tau
        with pytest.raises(ValueError, match=re.escape(f"temp.log_tau = {log_tau!r}: tau = exp")):
            p.temp.tau


def _offsets(p):
    out, pos = {}, 0
    for name, arr in p.leaves():
        out[name] = slice(pos, pos + arr.size)
        pos += arr.size
    return out


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

    def test_interrupted_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        """A KeyboardInterrupt raised in the row formatter partway through
        save_checkpoint over an existing checkpoint leaves that file byte
        for byte as it was, and no temporary file beside it."""
        path = tmp_path / "ckpt.txt"
        save_checkpoint(init_params(8, 2, 2, seed=1), path)
        old = path.read_bytes()
        real = fgpan.rowtext._texts

        def interrupted(values, widths):
            texts = real(values, widths)
            for _ in range(3):
                yield next(texts)
            raise KeyboardInterrupt

        monkeypatch.setattr(fgpan.rowtext, "_texts", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(init_params(8, 2, 2, seed=2), path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["ckpt.txt"]

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

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("leaf", TABLE_LEAVES)
    def test_non_finite_value_names_file_and_leaf(self, tmp_path, leaf, token):
        p = init_params(4, 2, 2, seed=0, pos_mode="learned_table", grid_rows=2, grid_cols=3)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(p, path)
        lines = path.read_text().splitlines()
        for i, ln in enumerate(lines):
            tokens = ln.split(" ")
            if tokens[0] == leaf:
                tokens[1] = token  # the leaf's first value
                lines[i] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError,
                           match=rf"ckpt\.txt: parameter leaf '{leaf}' holds a non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda lines: lines + [lines[4]], "duplicate checkpoint leaf 'lwa.h0.bias_table'"),
        (lambda lines: lines[:4] + [lines[4] + " 0.5"] + lines[5:],
         r"leaf 'lwa.h0.bias_table' has 10 values, expected \(3, 3\)"),
        (lambda lines: lines + ["agg.extra 1.0"], "unexpected checkpoint leaf 'agg.extra'"),
        (lambda lines: [], "empty checkpoint"),
    ], ids=["duplicate", "wrong-count", "unknown", "empty"])
    def test_malformed_body_rejected(self, tmp_path, edit, match):
        p = init_params(4, 2, 1, seed=0)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(p, path)
        path.write_text("".join(ln + "\n" for ln in edit(path.read_text().splitlines())))
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    def test_blank_lines_skipped(self, tmp_path):
        p = init_params(4, 2, 1, seed=3)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(p, path)
        path.write_text("\n" + path.read_text().replace("\n", "\n\n"))
        np.testing.assert_array_equal(load_checkpoint(path).flatten(), p.flatten())

    def test_missing_leaf_rejected(self, tmp_path):
        p = init_params(4, 2, 1, seed=0)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(p, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop agg.w
        with pytest.raises(ValueError, match="missing leaves"):
            load_checkpoint(path)


def _refuse(*args, **kwargs):
    raise AssertionError("_parse_decimals called")


class TestCheckpointFastPath:
    @settings(max_examples=200)
    @given(st.lists(st.one_of(st.sampled_from(ADVERSARIAL),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=40))
    def test_reads_a_leaf_as_the_token_parser_does(self, values):
        """A leaf line as save_checkpoint writes it reads through the fast
        path, bit for bit as _parse_decimals reads its tokens."""
        text = " ".join(map(repr, values)) + "\n"
        got = _fast_decimals(text)
        assert got is not None
        want = _parse_decimals(text.split(), "leaf")
        assert got.tobytes() == want.tobytes() == np.array(values).tobytes()

    @settings(max_examples=300)
    @given(st.text(alphabet="0123456789.eE+-_ \t\n\r\x0b\x0c\x1c\x00naifxNIF()", max_size=16))
    def test_accepts_only_what_the_token_parser_reads_alike(self, text):
        """Whatever text the fast path accepts, the token parser reads to
        the same bits; everything else is left to the token parser."""
        got = _fast_decimals(text)
        if got is not None:
            assert got.tobytes() == _parse_decimals(text.split(), "leaf").tobytes()

    @pytest.mark.parametrize("text", ["", "\n", "  \n", "1 2 x\n", "1-2\n", "nan(1)\n",
                                      "inf\n", "1e400\n", "0x1p3\n", "1_0\n"])
    def test_refuses_what_it_might_misread(self, text):
        """Blank text (which np.fromstring reads as [-1.0]), text it cannot
        read to its end and non-finite values all go to the token parser."""
        assert _fast_decimals(text) is None

    def test_written_file_takes_the_fast_path(self, tmp_path, monkeypatch):
        p = init_params(8, 3, 2, seed=5, pos_mode="learned_table", grid_rows=4, grid_cols=5)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(p, path)
        monkeypatch.setattr(fgpan.params, "_parse_decimals", _refuse)
        assert load_checkpoint(path).flatten().tobytes() == p.flatten().tobytes()

    @pytest.mark.parametrize("token", ["nan(1)", "-nan(0x7)", "inf(2)"])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_token_only_strtod_reads_is_refused(self, tmp_path, token, where):
        """np.fromstring takes nan(1); float() does not, and neither does
        load_checkpoint: the error names the file, the leaf and the token."""
        p = init_params(4, 2, 1, seed=0, pos_mode="learned_table", grid_rows=2, grid_cols=3)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(p, path)
        lines = path.read_text().splitlines()
        tokens = lines[-1].split(" ")
        assert tokens[0] == "agg.table"
        tokens[1 if where == "first" else -1] = token
        path.write_text("\n".join(lines[:-1] + [" ".join(tokens)]) + "\n")
        want = f"ckpt.txt: leaf 'agg.table': could not convert string to float: '{token}'"
        with pytest.raises(ValueError, match=re.escape(want)):
            load_checkpoint(path)


def _token_reading(path) -> ModelParams:
    """The reference reading of a checkpoint: each line whole, blank lines
    skipped, the first other line the header, then each line's leaf name
    and its tokens parsed by _parse_decimals, leaves in any order."""
    with open(path, encoding="utf-8") as fh:
        lines = (ln for ln in fh if ln.strip())
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty checkpoint")
        params = _checkpoint_zeros(first, path)
        seen = set()
        for ln in lines:
            name, _, rest = ln.partition(" ")
            try:
                leaf = params[name]
            except KeyError:
                raise ValueError(f"{path}: unexpected checkpoint leaf {name!r}") from None
            if name in seen:
                raise ValueError(f"{path}: duplicate checkpoint leaf {name!r}")
            seen.add(name)
            vals = _parse_decimals(rest.split(), f"{path}: leaf {name!r}")
            if vals.size != leaf.size:
                raise ValueError(
                    f"{path}: leaf {name!r} has {vals.size} values, expected {leaf.shape}"
                )
            leaf.reshape(-1)[:] = vals
    missing = [name for name, _ in params.leaves() if name not in seen]
    if missing:
        raise ValueError(f"{path}: checkpoint missing leaves {sorted(missing)}")
    try:
        return ModelParams(params.theta, **params.dims)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_outcome(load, path):
    """What load gives for path: the bytes of theta, or the error."""
    try:
        return load(path).theta.tobytes()
    except ValueError as exc:
        return str(exc)


# tokens and separators of leaf text, valid or not
_TOKENS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.sampled_from(["nan", "inf", "x", "1e", "--1", "nan(1)", "", "1_0"]))
_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \x0b ", "\x1c", "\u2028", " \x85 ", "\n"])


def _wsi_checkpoint(tmp_path, last=None):
    """A wsi-shape checkpoint (d=256, S=4, 2 heads, a 64 x 64 learned
    table: 1.51M values, 12 MB as theta and 32 MB as text) of standard
    normal values, its last agg.table value replaced by the token last."""
    p = init_params(256, 4, 2, pos_mode="learned_table", grid_rows=64, grid_cols=64)
    p = p.with_flat(np.random.default_rng(0).standard_normal(p.n_scalars))
    path = tmp_path / "wsi.ckpt"
    save_checkpoint(p, path)
    if last is not None:
        text = path.read_text()
        path.write_text(text[: text.rstrip("\n").rfind(" ") + 1] + last + "\n")
    return p, path


def _traced_load(path):
    """load_checkpoint(path)'s parameters or ValueError, and its peak of
    traced memory in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        try:
            result = load_checkpoint(path)
        except ValueError as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestCheckpointPieces:
    """A leaf line is parsed in pieces of _PIECE_CHARS characters, a value
    cut at a piece's end carried into the next, and _parse_decimals reads
    only a piece np.fromstring refuses: every file loads, or fails, as the
    whole-line token reading (_token_reading) reads it, in pieces of any
    size."""

    @settings(max_examples=300)
    @given(st.lists(st.tuples(_TOKENS, _SEPARATORS), max_size=6), st.integers(1, 12))
    def test_any_leaf_text_loads_as_it_does_whole(self, tokens, piece):
        params = init_params(1, 1, 1, seed=3)  # agg.w, the last leaf, has 2 values
        text = "".join(t + sep for t, sep in tokens)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ckpt.txt")
            save_checkpoint(params, path)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines[:-1] + ["agg.w " + text]) + "\n")
            whole = _load_outcome(_token_reading, path)
            assert _load_outcome(load_checkpoint, path) == whole
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fgpan.params, "_PIECE_CHARS", piece)
                assert _load_outcome(load_checkpoint, path) == whole

    @pytest.mark.parametrize("piece", [1, 2, 7, 24, 25, 1 << 20])
    def test_written_file_takes_the_fast_path_in_any_pieces(self, tmp_path, monkeypatch, piece):
        p = init_params(8, 3, 2, seed=5, pos_mode="learned_table", grid_rows=4, grid_cols=5)
        p = p.with_flat(np.random.default_rng(piece).choice(ADVERSARIAL, size=p.n_scalars))
        path = tmp_path / "ckpt.txt"
        save_checkpoint(p, path)
        monkeypatch.setattr(fgpan.params, "_PIECE_CHARS", piece)
        monkeypatch.setattr(fgpan.params, "_parse_decimals", _refuse)
        assert _load_outcome(load_checkpoint, path) == p.theta.tobytes()

    @pytest.mark.parametrize("last", [None, "oops", "1_0"])
    def test_opens_the_file_once(self, tmp_path, monkeypatch, last):
        p = init_params(4, 2, 1, seed=0, pos_mode="learned_table", grid_rows=2, grid_cols=3)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(p, path)
        if last is not None:
            text = path.read_text()
            path.write_text(text[: text.rstrip("\n").rfind(" ") + 1] + last + "\n")
        calls, real = [], builtins.open
        monkeypatch.setattr(builtins, "open", lambda *a, **k: calls.append(a) or real(*a, **k))
        _load_outcome(load_checkpoint, path)
        assert len(calls) == 1

    def test_wsi_table_checkpoint_peak_memory(self, tmp_path):
        """A wsi-shape checkpoint loads within theta plus 8 MB of traced
        memory; reading each leaf line whole peaked at 57 MB."""
        p, path = _wsi_checkpoint(tmp_path)
        q, peak = _traced_load(path)
        assert q.theta.tobytes() == p.theta.tobytes()
        assert peak <= p.theta.nbytes + (8 << 20), peak

    def test_wsi_checkpoint_with_a_refused_last_value_peak_memory(self, tmp_path):
        """A last value np.fromstring refuses raises if float() refuses it
        too (oops), and loads as float() reads it (1_0 as 10.0), within
        theta plus 8 MB of traced memory; reading the whole file again as
        tokens peaked at 146 MB."""
        p, path = _wsi_checkpoint(tmp_path, "oops")
        error, peak = _traced_load(path)
        assert str(error) == f"{path}: leaf 'agg.table': could not convert string to float: 'oops'"
        assert peak <= p.theta.nbytes + (8 << 20), peak
        text = path.read_text()
        path.write_text(text.replace(" oops\n", " 1_0\n"))
        del text
        q, peak = _traced_load(path)
        want = p.flatten()
        want[-1] = 10.0
        assert q.theta.tobytes() == want.tobytes()
        assert peak <= p.theta.nbytes + (8 << 20), peak


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
