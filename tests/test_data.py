"""Value types, file round-trips, and the synthetic generator."""

import builtins
import json
import math
import os
import re
import tempfile
import tracemalloc
from operator import itemgetter

import numpy as np
import pytest
from conftest import ADVERSARIAL
from hypothesis import given, settings
from hypothesis import strategies as st

import fgpan.data
from fgpan.data import (
    PrototypeSet,
    SlideRecord,
    SyntheticConfig,
    _parse_decimals,
    _slide_header,
    coarse_prototypes,
    gen_synthetic,
    load_prototypes,
    load_slide,
    save_prototypes,
    save_slide,
)


def make_slide(slide_id="s0", label=1):
    coords = [(0, 0), (0, 1), (2, 3)]
    features = [[1.0, 0.5, -0.25], [0.125, 2.0, 3.0], [-1.0, 0.0, 1e-17]]
    return SlideRecord(slide_id, label, coords, features, 4, 4)


HEADER = '{"slide_id": "x", "label": 0, "d": 3, "M": 2, "grid_rows": 2, "grid_cols": 2}'


class TestSlideInvariants:
    def test_empty_slide_rejected(self):
        with pytest.raises(ValueError, match="no patches"):
            SlideRecord("s", 0, np.zeros((0, 2), dtype=np.int64), np.zeros((0, 3)))

    def test_duplicate_coords_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate coordinate \(0, 0\)"):
            SlideRecord("s", 0, [(0, 0), (0, 1), (0, 0)], [[1.0], [2.0], [3.0]])

    @pytest.mark.parametrize("big", [0, 2**62], ids=["small", "past-int64-keys"])
    def test_first_duplicate_in_row_major_order_is_named(self, big):
        coords = [(3 + big, 1), (2 + big, 5 + big), (3 + big, 1), (2 + big, 5 + big), (0, 0)]
        with pytest.raises(ValueError, match=rf"duplicate coordinate \({2 + big}, {5 + big}\)"):
            SlideRecord("s", 0, coords, np.ones((5, 1)))

    def test_negative_coords_rejected(self):
        with pytest.raises(ValueError, match=r"negative coordinate \(-1, 0\)"):
            SlideRecord("s", 0, [(-1, 0)], [[1.0]])

    def test_coordinate_past_int64_named(self):
        """A uint64 coordinate int64 cannot hold is named as given, not wrapped."""
        with pytest.raises(ValueError, match="coordinate 9223372036854775808 does not fit"):
            SlideRecord("s", 0, np.array([[2**63, 0]], dtype=np.uint64), [[1.0]])

    def test_dim_mismatch_rejected(self):
        """A feature vector without its d axis is not an (M, d) matrix."""
        with pytest.raises(ValueError, match=r"features must be an \(M, d\) array"):
            SlideRecord("s", 0, [(0, 0)], [1.0])

    @pytest.mark.parametrize(
        "coords",
        [[(0, 0)], [(0, 0, 0), (0, 1, 0)], [(0.0, 0.0), (0.0, 1.0)]],
        ids=["fewer-rows", "three-columns", "float"],
    )
    def test_coords_shape_and_dtype_rejected(self, coords):
        with pytest.raises(ValueError, match=r"coords must be an \(M, 2\) integer array"):
            SlideRecord("s", 0, coords, [[1.0], [2.0]])

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError, match="outside grid 2x2"):
            SlideRecord("s", 0, [(0, 0), (1, 2)], [[1.0], [2.0]], 2, 2)

    def test_non_finite_vector_rejected(self):
        with pytest.raises(ValueError, match=r"non-finite value at \(0, 1\)"):
            SlideRecord("s", 0, [(0, 0), (0, 1)], [[1.0, 2.0], [1.0, np.nan]])

    def test_columns_are_stored_once(self):
        s = make_slide()
        assert s.matrix() is s.matrix() and s.coords() is s.coords()
        assert s.matrix().dtype == np.float64 and s.coords().dtype == np.int64
        assert (s.n_patches, s.dim) == (3, 3)
        with pytest.raises(ValueError, match="read-only"):
            s.matrix()[0, 0] = 2.0


class TestSlideFiles:
    def test_round_trip_identity(self, tmp_path):
        s = make_slide()
        path = tmp_path / "s0.slide"
        save_slide(s, path)
        assert load_slide(path) == s

    def test_save_is_deterministic(self, tmp_path):
        s = make_slide()
        p1, p2 = tmp_path / "a.slide", tmp_path / "b.slide"
        save_slide(s, p1)
        save_slide(s, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unlabeled_round_trip(self, tmp_path):
        s = make_slide(label=None)
        path = tmp_path / "u.slide"
        save_slide(s, path)
        back = load_slide(path)
        assert back.label is None and back == s

    def test_non_finite_rejected_before_write(self, tmp_path):
        features = np.array([[1.0, 0.5], [0.125, 2.0]])
        s = SlideRecord("s", 0, [(0, 0), (0, 1)], features)
        features[1, 0] = np.inf  # the caller's array, mutated after construction
        with pytest.raises(ValueError, match=r"non-finite value at \(0, 1\)"):
            save_slide(s, tmp_path / "bad.slide")
        assert not (tmp_path / "bad.slide").exists()

    def test_header_dim_mismatch(self, tmp_path):
        path = tmp_path / "bad.slide"
        header = '{"slide_id": "x", "label": 0, "d": 8, "M": 1, "grid_rows": 2, "grid_cols": 2}'
        path.write_text(header + "\n0 0 1.0 2.0 3.0 4.0 5.0 6.0 7.0\n")
        with pytest.raises(ValueError, match="d=8"):
            load_slide(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.slide"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="malformed header"):
            load_slide(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("label", 1.5), ("label", True), ("grid_rows", 2.7), ("grid_cols", None),
            ("d", "3"), ("M", 2.0), ("slide_id", 7), ("d", 0), ("d", -1), ("grid_rows", 0),
        ],
    )
    def test_header_field_types(self, tmp_path, field, value):
        header = json.loads(HEADER)
        header[field] = value
        path = tmp_path / "bad.slide"
        path.write_text(json.dumps(header) + "\n0 0 1.0 2.0 3.0\n0 1 4.0 5.0 6.0\n")
        with pytest.raises(ValueError, match=f"malformed header: field '{field}' must be"):
            load_slide(path)

    def test_header_missing_field(self, tmp_path):
        path = tmp_path / "bad.slide"
        path.write_text(HEADER.replace('"grid_cols": 2', '"cols": 2') + "\n")
        with pytest.raises(ValueError, match="missing field 'grid_cols'"):
            load_slide(path)

    @pytest.mark.parametrize(
        "body, match",
        [
            ("0 0 1.0 x 3.0\n0 1 4.0 5.0 6.0\n",
             r"bad\.slide: could not convert string to float: 'x'"),
            ("0 0.5 1.0 2.0 3.0\n0 1 4.0 5.0 6.0\n", r"bad\.slide: invalid literal for int\(\)"),
            ("0 0 1.0 2.0 3.0 4.0\n0 1 5.0 6.0\n", "row has 2 values, header declares d=3"),
            ("0 0 1.0 2.0 3.0 4.0\n0 1 4.0 5.0 6.0\n", "row has 4 values, header declares d=3"),
            ("0 0 1.0 2.0 3.0\n", "header declares M=2 but file has 1 patch rows"),
            ("0 0 1.0 2.0 3.0\n0 0 4.0 5.0 6.0\n", "duplicate coordinate"),
        ],
        ids=["float-token", "coordinate-token", "ragged-compensating", "ragged", "short",
             "duplicate"],
    )
    def test_bad_body_rejected(self, tmp_path, body, match):
        path = tmp_path / "bad.slide"
        path.write_text(HEADER + "\n" + body)
        with pytest.raises(ValueError, match=match):
            load_slide(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_slide(tmp_path / "absent.slide")

    def test_synthetic_slide_loads_with_full_patch_count(self, tmp_path):
        cfg = SyntheticConfig(
            classes=2, slides_per_class=1, patches_per_slide=300, dim=16,
            grid_rows=20, grid_cols=20, seed=5,
        )
        slides, _ = gen_synthetic(cfg)
        path = tmp_path / "big.slide"
        save_slide(slides[0], path)
        assert load_slide(path).n_patches == 300


class TestSlideRoundTrip:
    @settings(max_examples=40)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4), st.data())
    def test_save_load_is_bitwise(self, rows, cols, d, data):
        """save -> load gives bitwise-equal coords() and matrix(), and
        save -> load -> save writes the same bytes, for sparse coordinates
        and any finite values."""
        cells = data.draw(
            st.lists(st.integers(0, rows * cols - 1), min_size=1, max_size=rows * cols,
                     unique=True)
        )
        values = data.draw(
            st.lists(
                st.one_of(st.sampled_from(ADVERSARIAL), st.floats(allow_nan=False,
                                                                  allow_infinity=False)),
                min_size=len(cells) * d, max_size=len(cells) * d,
            )
        )
        label = data.draw(st.none() | st.integers(0, 9))
        coords = np.stack(np.divmod(np.array(cells), cols), axis=1)
        s = SlideRecord("s", label, coords, np.reshape(values, (len(cells), d)), rows, cols)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.slide"), os.path.join(tmp, "b.slide")
            save_slide(s, first)
            back = load_slide(first)
            assert back.coords().tobytes() == s.coords().tobytes()
            assert back.matrix().tobytes() == s.matrix().tobytes()
            assert back == s
            save_slide(back, second)
            with open(first, "rb") as fa, open(second, "rb") as fb:
                assert fa.read() == fb.read()


def _token_text(value, data):
    """One valid decimal spelling of an int or float: str or repr, or for a
    float a longer or shorter form, maybe with a leading '+' and zeros."""
    forms = [str] if isinstance(value, int) else [repr, "{:.17e}".format, "{:.20g}".format,
                                                  "{:E}".format]
    text = data.draw(st.sampled_from(forms))(value)
    if text.startswith("-"):
        sign, text = "-", text[1:]
    else:
        sign = data.draw(st.sampled_from(["", "+"]))
    return sign + "0" * data.draw(st.integers(0, 2)) + text


NOT_INT = "invalid literal for int() with base 10: "


def _token_reading(path) -> SlideRecord:
    """The reference reading of a slide file: its whole text split into
    lines by str.splitlines, blank ones dropped, a wrong row count named
    first, then each block of _PARSE_ROWS rows split into tokens (a ragged
    row named before a bad token) and parsed by _parse_decimals."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty slide file")
    slide_id, label, d, m, grid_rows, grid_cols = _slide_header(lines[0], path)
    body = list(filter(str.strip, lines[1:]))
    if len(body) != m:
        raise ValueError(f"{path}: header declares M={m} but file has {len(body)} patch rows")
    coords = np.empty((m, 2), dtype=np.int64)
    features = np.empty((m, d))
    block_rows = fgpan.data._PARSE_ROWS
    for start in range(0, m, block_rows):
        rows = list(map(str.split, body[start : start + block_rows]))
        ragged = set(map(len, rows)) - {2 + d}
        if ragged:
            raise ValueError(f"{path}: row has {min(ragged) - 2} values, header declares d={d}")
        block = slice(start, start + len(rows))
        coords[block] = _parse_decimals(list(map(itemgetter(0, 1), rows)), str(path), np.int64)
        features[block] = _parse_decimals(list(map(itemgetter(slice(2, None)), rows)), str(path))
    return SlideRecord(slide_id, label, coords, features, grid_rows, grid_cols)


def _outcome(load, path):
    """What load gives for path: the record's column bytes, or the error."""
    try:
        s = load(path)
    except ValueError as exc:
        return str(exc)
    return s.slide_id, s.label, s.coords().tobytes(), s.matrix().tobytes()


def _refuse(*args, **kwargs):
    raise AssertionError("_parse_decimals called")


@pytest.mark.filterwarnings("error")
class TestBulkLoader:
    """load_slide reads a body in blocks of _PARSE_ROWS lines, one
    np.loadtxt call each, and sends only a block np.loadtxt refuses to
    _parse_decimals: every file reads as the whole-file token reading
    (_token_reading) reads it, and a bad body gets its error, word for
    word."""

    @settings(max_examples=60)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.integers(1, 3), st.data())
    def test_valid_body_reads_as_the_token_parser_does(self, rows, cols, d, block_rows, data):
        cells = data.draw(
            st.lists(st.integers(0, rows * cols - 1), min_size=1, max_size=rows * cols,
                     unique=True)
        )
        values = data.draw(
            st.lists(
                st.one_of(st.sampled_from(ADVERSARIAL), st.floats(allow_nan=False,
                                                                  allow_infinity=False)),
                min_size=len(cells) * d, max_size=len(cells) * d,
            )
        )
        gap = st.sampled_from([" ", "\t", "  ", " \t "])
        # a form feed or U+2028 at a line's edge splits off a blank line only
        edge = st.sampled_from(["", " ", "\t", "\f", "\u2028"])
        blank = st.lists(st.sampled_from(["", "   ", "\t", " \t"]), max_size=2)
        header = {"slide_id": "s", "label": 0, "d": d, "M": len(cells),
                  "grid_rows": rows, "grid_cols": cols}
        lines = [json.dumps(header)]
        for i, cell in enumerate(cells):
            lines += data.draw(blank)
            row = [_token_text(v, data) for v in divmod(cell, cols)]
            row += [_token_text(v, data) for v in values[i * d:(i + 1) * d]]
            line = row[0]
            for token in row[1:]:
                line += data.draw(gap) + token
            lines.append(data.draw(edge) + line + data.draw(edge))
        lines += data.draw(blank)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = os.path.join(tmp, "a.slide")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + data.draw(st.sampled_from(["", "\n"])))
            mp.setattr(fgpan.data, "_PARSE_ROWS", block_rows)
            expected = _token_reading(path)
            # np.loadtxt reads every block of a valid body itself
            mp.setattr(fgpan.data, "_parse_decimals", _refuse)
            back = load_slide(path)
        assert back.coords().tobytes() == expected.coords().tobytes()
        assert back.matrix().tobytes() == expected.matrix().tobytes()
        assert back.matrix().flags.c_contiguous and back.coords().flags.c_contiguous
        assert back == expected

    @settings(max_examples=150)
    @given(
        st.lists(st.lists(st.sampled_from(["0", "1", "2", "3", "0.5", "-2.5", "1_0", "x", "nan",
                                           "1e999", "+1", "٣"]),
                          min_size=1, max_size=5), max_size=6),
        st.integers(0, 7), st.integers(1, 3), st.sampled_from(["\n", "\n\n", "\v", " \n"]),
    )
    def test_any_body_loads_as_the_token_parser_does(self, rows, m, block_rows, end):
        """Any body (bad tokens, ragged or blank rows, a wrong count, line
        breaks str.splitlines alone takes) gives the record or the error
        of the token reading, whatever the block size."""
        header = dict(json.loads(HEADER), M=m, grid_rows=4, grid_cols=4)
        text = json.dumps(header) + "\n" + "".join(" ".join(row) + end for row in rows)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = os.path.join(tmp, "a.slide")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            mp.setattr(fgpan.data, "_PARSE_ROWS", block_rows)
            assert _outcome(load_slide, path) == _outcome(_token_reading, path)

    @pytest.mark.parametrize(
        "body, match",
        [
            ("0 3.0 1.0 2.0 3.0\n0 1 4.0 5.0 6.0\n", NOT_INT + "'3.0'"),
            ("0 1e0 1.0 2.0 3.0\n0 1 4.0 5.0 6.0\n", NOT_INT + "'1e0'"),
            ("0 0.5 1.0 2.0 3.0\n0 1 4.0 5.0 6.0\n", NOT_INT + "'0.5'"),
            ("0 0 1.0 # 3.0\n0 1 4.0 5.0 6.0\n", "could not convert string to float: '#'"),
            ("0 0 1.0 2.0 3.0 4.0\n0 1 5.0 6.0\n", "row has 2 values, header declares d=3"),
            ("0 0 1.0 2.0 3.0\n", "header declares M=2 but file has 1 patch rows"),
            ("", "header declares M=2 but file has 0 patch rows"),
            ("\n \n", "header declares M=2 but file has 0 patch rows"),
            ("0 0 1.0 2.0\v3.0\n0 1 4.0 5.0 6.0\n", "declares M=2 but file has 3 patch rows"),
        ],
        ids=["coord-3.0", "coord-1e0", "coord-0.5", "hash-token", "ragged-compensating",
             "short", "empty", "blank", "vertical-tab-break"],
    )
    def test_bad_body_error_is_the_token_parsers(self, tmp_path, body, match):
        path = tmp_path / "bad.slide"
        path.write_text(HEADER + "\n" + body)
        with pytest.raises(ValueError) as expected:
            _token_reading(path)
        with pytest.raises(ValueError) as got:
            load_slide(path)
        assert str(got.value) == str(expected.value)
        assert match in str(got.value)

    def test_underscore_digits_load_through_the_fallback(self, tmp_path):
        """float() reads 1_0 as 10.0, np.loadtxt refuses it: _parse_decimals
        reads that block."""
        path = tmp_path / "u.slide"
        path.write_text(HEADER + "\n0 0 1_0 2.0 3.0\n0 1 4.0 5.0 6.0\n")
        s = load_slide(path)
        assert s.matrix().tolist() == [[10.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    @pytest.mark.parametrize("last", [None, "oops", "1_0"])
    def test_opens_the_file_once(self, tmp_path, monkeypatch, last):
        path = tmp_path / "s.slide"
        save_slide(make_slide(), path)
        if last is not None:
            text = path.read_text()
            path.write_text(text[: text.rstrip("\n").rfind(" ") + 1] + last + "\n")
        calls, real = [], builtins.open
        monkeypatch.setattr(builtins, "open", lambda *a, **k: calls.append(a) or real(*a, **k))
        _outcome(load_slide, path)
        assert len(calls) == 1

    def test_refused_last_value_peak_memory(self, tmp_path):
        """A 2048 x 256 slide (4 MB as features) whose last value is bad
        raises the token error within 16 MB of traced memory; reading the
        whole file again as tokens peaked at 24 MB."""
        rng = np.random.default_rng(0)
        cells = rng.choice(64 * 64, size=2048, replace=False)
        s = SlideRecord("wsi", 0, np.stack(np.divmod(cells, 64), axis=1),
                        rng.standard_normal((2048, 256)), 64, 64)
        path = tmp_path / "wsi.slide"
        save_slide(s, path)
        text = path.read_text()
        path.write_text(text[: text.rstrip("\n").rfind(" ") + 1] + "oops\n")
        del text
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with pytest.raises(ValueError) as got:
                load_slide(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert str(got.value) == f"{path}: could not convert string to float: 'oops'"
        assert peak < 16 << 20, peak


NOT_A_MATRIX = r"prototype set must be a non-empty \(C, d\) matrix, got shape "


class TestPrototypeSet:
    def test_matrix_is_a_read_only_copy(self):
        """Unlike a SlideRecord's features (TestSlideFiles'
        test_non_finite_rejected_before_write), the matrix is the set's own:
        a later write to the caller's array does not reach it."""
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        pset = PrototypeSet(["a", "b"], ["x", "y"], rows)
        rows[0, 0] = np.nan
        np.testing.assert_array_equal(pset.matrix(), [[1.0, 0.0], [0.0, 1.0]])
        assert not pset.matrix().flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pset.matrix()[1, 1] = 2.0
        assert (pset.n_classes, pset.dim) == (2, 2)

    @pytest.mark.parametrize("names, descs, rows, match", [
        (["a"], ["x", "y"], np.eye(2), "prototype rows 0..1 need one name each, got 1"),
        (["a", "b", "c"], ["x", "y"], np.eye(2), "prototype rows 0..1 need one name each, got 3"),
        (["a", "b"], ["x"], np.eye(2), "prototype rows 0..1 need one description each, got 1"),
        (["a", "b", "c"], ["x", "y", "z"], [[1.0, 0.0], [0.0, 1.0], [np.inf, 0.0]],
         "prototype row 2 contains non-finite values"),
        (["a", "b"], ["x", "y"], [[1.0, np.nan], [0.0, np.nan]],
         "prototype row 0 contains non-finite values"),
        ([], [], np.zeros((0, 4)), NOT_A_MATRIX + r"\(0, 4\)"),
        (["a"], ["x"], np.zeros((1, 0)), NOT_A_MATRIX + r"\(1, 0\)"),
        (["a"], ["x"], [1.0, 0.0], NOT_A_MATRIX + r"\(2,\)"),
    ], ids=["few-names", "many-names", "few-descriptions", "inf-row", "nan-rows",
            "no-rows", "no-columns", "one-dimensional"])
    def test_refusal_names_the_rows(self, names, descs, rows, match):
        with pytest.raises(ValueError, match="^" + match + "$"):
            PrototypeSet(names, descs, rows)


class TestPrototypeFiles:
    def make_set(self, dim=4, classes=3):
        rng = np.random.default_rng(0)
        return PrototypeSet([f"class {c}" for c in range(classes)],
                            [f"desc {c}" for c in range(classes)],
                            rng.standard_normal((classes, dim)))

    def test_parse_counts(self, tmp_path):
        path = tmp_path / "p.jsonl"
        save_prototypes(self.make_set(), path)
        back = load_prototypes(path)
        assert back.n_classes == 3 and back.dim == 4

    def test_round_trip(self, tmp_path):
        pset = self.make_set()
        path = tmp_path / "p.jsonl"
        save_prototypes(pset, path)
        assert load_prototypes(path) == pset

    def test_duplicate_class_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = '{"class_id": 7, "name": "a", "description": "b", "embedding": [1.0, 0.0]}'
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ValueError, match="duplicate class_id"):
            load_prototypes(path)

    def test_ragged_embeddings_rejected(self, tmp_path):
        path = tmp_path / "ragged.jsonl"
        path.write_text(
            '{"class_id": 0, "name": "a", "description": "b", "embedding": [1.0, 0.0]}\n'
            '{"class_id": 1, "name": "c", "description": "d", "embedding": [1.0]}\n'
        )
        with pytest.raises(ValueError, match="ragged"):
            load_prototypes(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_prototypes(path)

    @pytest.mark.parametrize("field, value, match", [
        ("class_id", '"abc"', "field 'class_id' must be an integer, got 'abc'"),
        ("class_id", "1.5", "field 'class_id' must be an integer, got 1.5"),
        ("class_id", "true", "field 'class_id' must be an integer"),
        ("name", "5", "field 'name' must be a string, got 5"),
        ("description", "null", "field 'description' must be a string"),
        ("embedding", '"xy"', "field 'embedding' must be a non-empty list of finite numbers"),
        ("embedding", "[[1.0, 0.0]]", "field 'embedding' must be a non-empty list"),
        ("embedding", "[1.0, NaN]", "field 'embedding' must be a non-empty list"),
        ("embedding", "[1.0, Infinity]", "field 'embedding' must be a non-empty list"),
        ("embedding", '[1.0, "2"]', "field 'embedding' must be a non-empty list"),
        ("embedding", "[]", "field 'embedding' must be a non-empty list"),
        ("embedding", None, "missing field 'embedding'"),
    ])
    def test_bad_field_names_file_and_line(self, tmp_path, field, value, match):
        """A prototype field of the wrong type is refused with the file and
        the line (blank lines counted) in the message."""
        fields = {"class_id": "1", "name": '"b"', "description": '"y"', "embedding": "[0.0, 1.0]"}
        if value is None:
            del fields[field]
        else:
            fields[field] = value
        bad = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"class_id": 0, "name": "a", "description": "x", "embedding": [1.0, 0.0]}\n\n'
            + bad + "\n"
        )
        with pytest.raises(ValueError, match=r"bad\.jsonl: malformed prototype line 3: " + match):
            load_prototypes(path)

    def test_class_ids_reindexed_in_file_order(self, tmp_path):
        path = tmp_path / "sparse.jsonl"
        path.write_text(
            '{"class_id": 30, "name": "a", "description": "x", "embedding": [1.0, 0.0]}\n'
            '{"class_id": 10, "name": "b", "description": "y", "embedding": [0.0, 1.0]}\n'
        )
        back = load_prototypes(path)
        assert back.names == ("a", "b") and back.descriptions == ("x", "y")
        np.testing.assert_array_equal(back.matrix(), [[1.0, 0.0], [0.0, 1.0]])
        save_prototypes(back, path)
        assert [json.loads(ln)["class_id"] for ln in path.read_text().splitlines()] == [0, 1]


class TestSyntheticGenerator:
    def test_noise_free_full_signal_equals_prototype(self):
        cfg = SyntheticConfig(
            classes=3, slides_per_class=1, patches_per_slide=9, dim=8,
            signal_fraction=1.0, noise_sigma=0.0, grid_rows=3, grid_cols=3, seed=1,
        )
        slides, pset = gen_synthetic(cfg)
        for s in slides:
            proto = pset.matrix()[s.label]
            for vector in s.matrix():
                np.testing.assert_array_equal(vector, proto)

    def test_seed_determinism_byte_identical(self, tmp_path):
        cfg = SyntheticConfig(
            classes=2, slides_per_class=2, patches_per_slide=12, dim=8,
            grid_rows=4, grid_cols=4, seed=9,
        )
        blobs = []
        for run in range(2):
            slides, pset = gen_synthetic(cfg)
            d = tmp_path / f"run{run}"
            d.mkdir()
            for s in slides:
                save_slide(s, d / f"{s.slide_id}.slide")
            save_prototypes(pset, d / "protos.jsonl")
            blob = b"".join(
                p.read_bytes() for p in sorted(d.iterdir())
            )
            blobs.append(blob)
        assert blobs[0] == blobs[1]

    def test_orthogonalized_prototypes(self):
        cfg = SyntheticConfig(
            classes=4, slides_per_class=1, patches_per_slide=4, dim=16,
            grid_rows=4, grid_cols=4, seed=3,
        )
        _, pset = gen_synthetic(cfg)
        gram = pset.matrix() @ pset.matrix().T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_noise_free_signal_patches_match_label(self):
        """For sigma=0, every signal patch's nearest prototype is the label."""
        cfg = SyntheticConfig(
            classes=4, slides_per_class=2, patches_per_slide=10, dim=8,
            signal_fraction=0.5, noise_sigma=0.0, grid_rows=5, grid_cols=5, seed=11,
        )
        slides, pset = gen_synthetic(cfg)
        t = pset.matrix()
        n_sig = 5
        for s in slides:
            for vector in s.matrix()[:n_sig]:
                sims = t @ vector
                assert int(np.argmax(sims)) == s.label

    def test_signal_block_is_contiguous(self):
        cfg = SyntheticConfig(
            classes=1, slides_per_class=3, patches_per_slide=10, dim=4,
            signal_fraction=0.4, grid_rows=6, grid_cols=6, seed=2,
        )
        slides, _ = gen_synthetic(cfg)
        for s in slides:
            sig = s.coords()[:4]
            assert sig[:, 0].max() - sig[:, 0].min() <= 1
            assert sig[:, 1].max() - sig[:, 1].min() <= 1

    @pytest.mark.parametrize("bad, match", [
        (dict(noise_sigma=math.nan), "noise_sigma must be finite and non-negative, got nan"),
        (dict(noise_sigma=math.inf), "noise_sigma must be finite and non-negative, got inf"),
        (dict(noise_sigma=-0.5), "noise_sigma must be finite and non-negative, got -0.5"),
        (dict(grid_rows=0), "grid_rows must be positive, got 0"),
        (dict(grid_rows=-2, grid_cols=-40), "grid_rows must be positive, got -2"),
        (dict(grid_cols=-40), "grid_cols must be positive, got -40"),
    ], ids=["sigma-nan", "sigma-inf", "sigma-negative", "rows-0", "both-negative", "cols-negative"])
    def test_config_refuses_bad_field_by_name(self, bad, match):
        """Refused before the generator runs: a NaN sigma would fail as a
        non-finite slide, and two negative grid dims pass the capacity
        check, their product being positive."""
        with pytest.raises(ValueError, match="^" + re.escape(match) + "$"):
            SyntheticConfig(classes=2, slides_per_class=1, patches_per_slide=4, dim=4, **bad)

    def test_config_invariants(self):
        with pytest.raises(ValueError, match="grid capacity"):
            SyntheticConfig(classes=2, slides_per_class=1, patches_per_slide=10,
                            dim=4, grid_rows=3, grid_cols=3)
        with pytest.raises(ValueError, match="dim >= classes"):
            SyntheticConfig(classes=8, slides_per_class=1, patches_per_slide=4, dim=4)
        with pytest.raises(ValueError, match="signal_fraction"):
            SyntheticConfig(classes=2, slides_per_class=1, patches_per_slide=4,
                            dim=4, signal_fraction=0.0)

    def test_coarse_prototypes_overlap_more(self):
        cfg = SyntheticConfig(
            classes=4, slides_per_class=1, patches_per_slide=4, dim=16,
            grid_rows=4, grid_cols=4, seed=3,
        )
        _, pset = gen_synthetic(cfg)
        coarse = coarse_prototypes(pset, seed=3)
        fine_cos = pset.matrix() @ pset.matrix().T
        coarse_cos = coarse.matrix() @ coarse.matrix().T
        off = ~np.eye(4, dtype=bool)
        assert coarse_cos[off].mean() > fine_cos[off].mean()
        np.testing.assert_allclose(np.linalg.norm(coarse.matrix(), axis=1), 1.0, atol=1e-12)
        assert coarse.descriptions == coarse.names
