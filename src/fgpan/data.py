"""Core value types, on-disk formats, and the synthetic corpus generator.

A slide is held as two column arrays (SlideRecord): coords (M, 2) int64
and features (M, d) float64, validated once when the record is built.

Slide file format (UTF-8, LF endings):
    line 1:       JSON header {"slide_id", "label", "d", "M", "grid_rows", "grid_cols"}
                  (slide_id a string, label an integer or null, the rest integers)
    lines 2..M+1: "row col v1 ... vd" space-separated decimals

Prototype file format: one JSON object per line,
    {"class_id", "name", "description", "embedding": [...]}
    (class_id an integer, name and description strings, embedding a
    non-empty list of finite numbers)

Floats are written with the shortest round-trip decimal representation so
identical records serialize to identical bytes; a large slide's text is
formatted on every CPU the process may use (fgpan.rowtext), to the same
bytes, and a large batch of slide files is read there too. A slide file is
read in one pass, one np.loadtxt call per block of _PARSE_ROWS body lines;
only a block it refuses goes to _parse_decimals (shared with checkpoints),
which reads each token as float() or int() does or names the bad one, so
at most one block's tokens are alive at a time.
"""

import json
import math
import sys
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .rowtext import atomic_text, reader, row_texts

__all__ = [
    "SlideRecord",
    "PrototypeSet",
    "SyntheticConfig",
    "load_slide",
    "save_slide",
    "load_prototypes",
    "save_prototypes",
    "gen_synthetic",
    "coarse_prototypes",
]

def _parse_decimals(tokens: list, where: str, dtype=np.float64) -> np.ndarray:
    """Decimal text tokens (a list, or a list of equal-length rows) parsed
    in one call; each value is what float() (or int(), for an integer
    dtype) gives for its token. A bad token, or an integer beyond the
    dtype's range, raises ValueError naming where."""
    try:
        return np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _json_object(line: str, path, what: str) -> dict:
    """The JSON object on one line of a file (a header or a record)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: malformed {what}: not an object")
    return obj


_FIELD_KINDS = {
    "int": ((int,), "an integer"),
    "int>0": ((int,), "a positive integer"),
    "int?": ((int, type(None)), "an integer or null"),
    "str": ((str,), "a string"),
    "vector": ((list,), "a non-empty list of finite numbers"),
}


def _finite_numbers(v: list) -> bool:
    """A non-empty list of JSON numbers, each finite as a float64."""
    return bool(v) and all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in v)


def _header_fields(header: dict, path, what: str, **kinds: str) -> list:
    """The values of the named header fields, in order, each checked to be
    of its kind in _FIELD_KINDS (a bool is never an integer)."""
    values = []
    for key, kind in kinds.items():
        if key not in header:
            raise ValueError(f"{path}: malformed {what}: missing field {key!r}")
        types, name = _FIELD_KINDS[kind]
        v = header[key]
        if (isinstance(v, bool) or not isinstance(v, types) or (kind == "int>0" and v < 1)
                or (kind == "vector" and not _finite_numbers(v))):
            raise ValueError(f"{path}: malformed {what}: field {key!r} must be {name}, got {v!r}")
        values.append(v)
    return values


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def _groups(*keys: np.ndarray):
    """Rows grouped by equal integer keys, in np.lexsort's order (the last
    key first). Returns each row's group index and each group's first row.
    The sort compares the values themselves, so no key can overflow."""
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for k in keys:
        k = k[order]
        new[1:] |= k[1:] != k[:-1]
    group = np.empty_like(order)
    group[order] = new.cumsum() - 1
    return group, order[new]


def _int64(values, where: str) -> np.ndarray:
    """values as an int64 array, itself if it is one. A value that is not
    an integer, which a cast would truncate (0.5), or that int64 cannot
    hold, which a cast would wrap (uint64) or overflow (a Python int),
    raises ValueError naming it as given."""
    if isinstance(values, np.ndarray) and np.can_cast(values.dtype, np.int64):
        return values.astype(np.int64, copy=False)
    given = np.asarray(values, dtype=object)  # exact Python numbers
    for v in given.flat:
        if not v % 1 == 0:
            raise ValueError(f"{where}: coordinate {v} is not an integer")
        if not -(1 << 63) <= v < 1 << 63:
            raise ValueError(f"{where}: coordinate {v} does not fit in int64")
    return given.astype(np.int64)


class SlideRecord:
    """One slide as two column arrays, row i being patch i in file order:
    coords (M, 2) int64 grid positions and features (M, d) float64 patch
    embeddings.

    The arrays are validated once, here: at least one patch, matching row
    counts, finite features, non-negative and unique coordinates inside the
    grid (grid_rows/grid_cols default to the bounding box). They are stored
    as read-only views; coords() and matrix() return them as they are.
    """

    def __init__(self, slide_id, label, coords, features, grid_rows=None, grid_cols=None):
        self.slide_id = slide_id
        self.label = None if label is None else int(label)
        coords = np.asarray(coords)
        features = np.asarray(features, dtype=np.float64)
        if coords.size == 0:
            raise ValueError(f"slide {slide_id!r} has no patches")
        if features.ndim != 2:
            raise ValueError(
                f"slide {slide_id!r}: features must be an (M, d) array, got shape {features.shape}"
            )
        if coords.shape != (features.shape[0], 2) or coords.dtype.kind not in "iu":
            raise ValueError(
                f"slide {slide_id!r}: coords must be an (M, 2) integer array for "
                f"M={features.shape[0]} feature rows, got {coords.dtype} {coords.shape}"
            )
        coords = _int64(coords, f"slide {slide_id!r}")
        for bad, problem in (
            (~np.isfinite(features).all(axis=1), "non-finite value at"),
            ((coords < 0).any(axis=1), "negative coordinate"),
        ):
            if bad.any():
                first = tuple(coords[np.argmax(bad)].tolist())
                raise ValueError(f"slide {slide_id!r}: {problem} {first}")
        max_r, max_c = coords.max(axis=0).tolist()
        # groups are in row-major order: the first shared one is the first duplicate
        cell, first = _groups(coords[:, 1], coords[:, 0])
        if len(first) < len(coords):
            dup = tuple(coords[first[np.argmax(np.bincount(cell) > 1)]].tolist())
            raise ValueError(f"slide {slide_id!r}: duplicate coordinate {dup}")
        self.grid_rows = max_r + 1 if grid_rows is None else int(grid_rows)
        self.grid_cols = max_c + 1 if grid_cols is None else int(grid_cols)
        if max_r >= self.grid_rows or max_c >= self.grid_cols:
            raise ValueError(
                f"slide {slide_id!r}: coordinate ({max_r},{max_c}) outside "
                f"grid {self.grid_rows}x{self.grid_cols}"
            )
        self._coords = coords.view()
        self._coords.flags.writeable = False
        self._features = features.view()
        self._features.flags.writeable = False

    @property
    def dim(self) -> int:
        return self._features.shape[1]

    @property
    def n_patches(self) -> int:
        return self._features.shape[0]

    def matrix(self) -> np.ndarray:
        """The (M, d) float64 patch embeddings, file order (read-only)."""
        return self._features

    def coords(self) -> np.ndarray:
        """The (M, 2) int64 patch coordinates, file order (read-only)."""
        return self._coords

    def __reduce__(self):
        """Pickled as its constructor's arguments: unpickling checks them again."""
        return SlideRecord, (self.slide_id, self.label, self._coords, self._features,
                             self.grid_rows, self.grid_cols)

    def __eq__(self, other):
        return (
            isinstance(other, SlideRecord)
            and (self.slide_id, self.label, self.grid_rows, self.grid_cols)
            == (other.slide_id, other.label, other.grid_rows, other.grid_cols)
            and np.array_equal(self._coords, other._coords)
            and np.array_equal(self._features, other._features)
        )


class PrototypeSet:
    """Class prototypes as one read-only (C, d) float64 matrix: row c is
    class c's embedding, names[c] and descriptions[c] its text.

    The matrix is a copy of the caller's array, checked once: non-empty,
    two-dimensional, one name and one description per row, finite rows.
    """

    def __init__(self, names, descriptions, embeddings):
        t = np.array(embeddings, dtype=np.float64)
        if t.ndim != 2 or t.size == 0:
            raise ValueError(f"prototype set must be a non-empty (C, d) matrix, got shape {t.shape}")
        self.names, self.descriptions = tuple(names), tuple(descriptions)
        for what, texts in (("name", self.names), ("description", self.descriptions)):
            if len(texts) != len(t):
                raise ValueError(f"prototype rows 0..{len(t) - 1} need one {what} each, "
                                 f"got {len(texts)}")
        bad = np.flatnonzero(~np.isfinite(t).all(axis=1))
        if bad.size:
            raise ValueError(f"prototype row {bad[0]} contains non-finite values")
        t.flags.writeable = False
        self._matrix = t

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def n_classes(self) -> int:
        return self._matrix.shape[0]

    def matrix(self) -> np.ndarray:
        """The (C, d) prototype embeddings, row c for class c (read-only)."""
        return self._matrix

    def __eq__(self, other):
        return (
            isinstance(other, PrototypeSet)
            and (self.names, self.descriptions) == (other.names, other.descriptions)
            and np.array_equal(self._matrix, other._matrix)
        )


@dataclass
class SyntheticConfig:
    """Settings for the deterministic desk-scale corpus generator."""

    classes: int
    slides_per_class: int
    patches_per_slide: int
    dim: int
    signal_fraction: float = 0.6
    noise_sigma: float = 0.05
    grid_rows: int = 8
    grid_cols: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.classes < 1 or self.slides_per_class < 1:
            raise ValueError("classes and slides_per_class must be positive")
        if self.patches_per_slide < 1:
            raise ValueError("patches_per_slide must be positive")
        if not 0.0 < self.signal_fraction <= 1.0:
            raise ValueError("signal_fraction must lie in (0, 1]")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ValueError(f"noise_sigma must be finite and non-negative, got {self.noise_sigma}")
        for name in ("grid_rows", "grid_cols"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.patches_per_slide > self.grid_rows * self.grid_cols:
            raise ValueError("patches_per_slide exceeds grid capacity")
        if self.dim < self.classes:
            raise ValueError("orthogonal prototypes require dim >= classes")


# ---------------------------------------------------------------------------
# slide files


def save_slide(record: SlideRecord, path) -> None:
    """Write a slide file; identical records produce identical bytes.

    Unlike the package's other writes, a slide is written in place, not
    through rowtext.atomic_text. Replacing a file by rename cost about 100
    us more per file than rewriting it on a 2-core host's ext4, and a
    rewritten desk corpus (40 slides of 64 x 16 values) was written 15-24%
    slower that way. Slides are inputs, which can be written again."""
    coords, features = record.coords(), record.matrix()
    bad = ~np.isfinite(features).all(axis=1)
    if bad.any():
        first = tuple(coords[np.argmax(bad)].tolist())
        raise ValueError(f"slide {record.slide_id!r}: non-finite value at {first}")
    header = {
        "slide_id": record.slide_id,
        "label": record.label,
        "d": record.dim,
        "M": record.n_patches,
        "grid_rows": record.grid_rows,
        "grid_cols": record.grid_cols,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header) + "\n")
        # one row per write: the slide's text never sits in memory whole (a
        # large slide's worker rows arrive in pieces of about 64k values)
        texts = row_texts(features.reshape(-1), [record.dim] * record.n_patches)
        for (r, c), text in zip(coords.tolist(), texts):
            fh.write(f"{r} {c} {text}\n")


_PARSE_ROWS = 256  # slide rows parsed per call: bounds the token strings alive at once


def _slide_header(line: str, path) -> list:
    """slide_id, label, d, M, grid_rows, grid_cols from a header line."""
    return _header_fields(
        _json_object(line, path, "header"), path, "header",
        slide_id="str", label="int?", d="int>0", M="int", grid_rows="int>0", grid_cols="int>0",
    )


def _slide_block(block: list, d: int, path) -> tuple:
    """coords (n, 2) int64 and features (n, d) float64 of a block of n
    non-blank body lines: one np.loadtxt call, or, for a block it does not
    read as exactly n rows without a warning, each line's tokens as int()
    and float() read them. A ragged row or a bad token raises a ValueError
    naming the file."""
    row = np.dtype([("rc", np.int64, (2,)), ("f", np.float64, (d,))])
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = np.loadtxt(block, dtype=row, comments=None, ndmin=1)
        if not caught and table.shape == (len(block),):
            return np.ascontiguousarray(table["rc"]), np.ascontiguousarray(table["f"])
    except ValueError:
        pass
    rows = list(map(str.split, block))
    ragged = set(map(len, rows)) - {2 + d}
    if ragged:
        raise ValueError(f"{path}: row has {min(ragged) - 2} values, header declares d={d}")
    return (_parse_decimals(list(map(itemgetter(0, 1), rows)), str(path), np.int64),
            _parse_decimals(list(map(itemgetter(slice(2, None)), rows)), str(path)))


def load_slide(path) -> SlideRecord:
    """Read a slide file in one pass, preserving patch order.

    Lines are split as str.splitlines splits them and blank ones dropped.
    The body goes through _slide_block in blocks of _PARSE_ROWS lines, so
    only one block's text and tokens are alive at a time. A wrong row count
    is named before the first bad block's fault; once either is found, the
    rest of the file is only counted.
    """
    with open(path, encoding="utf-8") as fh:
        lines = chain.from_iterable(map(str.splitlines, fh))
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty slide file")
        slide_id, label, d, m, grid_rows, grid_cols = _slide_header(first, path)
        body = filter(str.strip, lines)
        # each column starts empty, so an empty body still concatenates
        coords, features = [np.empty((0, 2), np.int64)], [np.empty((0, d))]
        n, fault = 0, None
        while block := list(islice(body, _PARSE_ROWS)):
            n += len(block)
            if fault is None and n <= m:
                try:
                    rc, f = _slide_block(block, d, path)
                except ValueError as exc:
                    fault = exc
                else:
                    coords.append(rc)
                    features.append(f)
    if n != m:
        raise ValueError(f"{path}: header declares M={m} but file has {n} patch rows")
    if fault is not None:
        raise fault
    return SlideRecord(slide_id, label, np.concatenate(coords), np.concatenate(features),
                       grid_rows, grid_cols)


reader("slide", load_slide)


# ---------------------------------------------------------------------------
# prototype files


def save_prototypes(pset: PrototypeSet, path) -> None:
    """Write a prototype file, one JSON object per line, replacing it whole
    or not at all (rowtext.atomic_text)."""
    lines = [
        json.dumps({"class_id": c, "name": name, "description": desc,
                    "embedding": [float(v) for v in row]})
        for c, (name, desc, row) in enumerate(zip(pset.names, pset.descriptions, pset.matrix()))
    ]
    with atomic_text(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_prototypes(path) -> PrototypeSet:
    """Read a prototype file; class_ids re-indexed densely in file order.

    Embeddings are returned exactly as stored (no normalization). A field
    of the wrong type, a duplicate class_id or a ragged embedding raises a
    ValueError naming the file and the line.
    """
    seen_ids = set()
    names, descs, rows = [], [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, 1):
            if not ln.strip():
                continue
            what = f"prototype line {lineno}"
            cid, name, desc, emb = _header_fields(
                _json_object(ln, path, what), path, what,
                class_id="int", name="str", description="str", embedding="vector",
            )
            if cid in seen_ids:
                raise ValueError(f"{path}: {what}: duplicate class_id {cid}")
            seen_ids.add(cid)
            if rows and len(emb) != len(rows[0]):
                raise ValueError(
                    f"{path}: {what}: ragged embedding lengths ({len(emb)} vs {len(rows[0])})"
                )
            names.append(name)
            descs.append(desc)
            rows.append(emb)
    if not rows:
        raise ValueError(f"{path}: empty prototype file")
    return PrototypeSet(names, descs, rows)


# ---------------------------------------------------------------------------
# synthetic corpus


def _class_directions(rng: np.random.Generator, cfg: SyntheticConfig):
    """Draw C class directions plus one background direction, all unit norm.

    The class directions are orthonormal (SyntheticConfig requires
    dim >= classes), so synthetic classes are maximally separated; so is the
    background when dim > classes, and otherwise it is a random unit vector.
    """
    c, d = cfg.classes, cfg.dim
    raw = rng.standard_normal((c + 1, d))
    k = c + 1 if d >= c + 1 else c
    q, r = np.linalg.qr(raw[:k].T)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    dirs = (q * signs).T
    background = dirs[c] if k == c + 1 else _unit(raw[c])
    return dirs[:c], background


def _signal_block(rng: np.random.Generator, cfg: SyntheticConfig, n_sig: int) -> np.ndarray:
    """Pick a contiguous rectangular block of n_sig grid cells, as an
    (n_sig, 2) array in row-major order."""
    side = math.ceil(math.sqrt(n_sig))
    block_rows = min(side, cfg.grid_rows)
    block_cols = math.ceil(n_sig / block_rows)
    if block_cols > cfg.grid_cols:
        block_cols = cfg.grid_cols
        block_rows = math.ceil(n_sig / block_cols)
    anchor_r = int(rng.integers(0, cfg.grid_rows - block_rows + 1))
    anchor_c = int(rng.integers(0, cfg.grid_cols - block_cols + 1))
    t = np.arange(n_sig)
    return np.stack([anchor_r + t // block_cols, anchor_c + t % block_cols], axis=1)


def gen_synthetic(cfg: SyntheticConfig) -> tuple[list[SlideRecord], PrototypeSet]:
    """Generate a deterministic labeled corpus plus matching prototypes.

    Each slide of class c carries ceil(signal_fraction * M) signal patches,
    unit-normalize(T_c + sigma * g), clustered in a contiguous grid block;
    the remaining patches are a shared background unit vector plus sigma
    noise. Identical configs produce identical output.
    """
    rng = np.random.default_rng(cfg.seed)
    protos, background = _class_directions(rng, cfg)
    pset = PrototypeSet(
        [f"class {c}" for c in range(cfg.classes)],
        [f"class {c} with synthetic marker {c} and synthetic pattern {c}"
         for c in range(cfg.classes)],
        protos,
    )
    all_cells = np.arange(cfg.grid_rows * cfg.grid_cols)  # row-major cell keys
    m = cfg.patches_per_slide
    n_sig = math.ceil(cfg.signal_fraction * m)
    n_bg = m - n_sig
    slides = []
    for c in range(cfg.classes):
        for j in range(cfg.slides_per_class):
            signal = _signal_block(rng, cfg, n_sig)
            remaining = np.setdiff1d(all_cells, signal[:, 0] * cfg.grid_cols + signal[:, 1])
            bg = remaining[:0]
            if n_bg:
                bg = remaining[np.sort(rng.choice(len(remaining), size=n_bg, replace=False))]
            coords = np.concatenate([signal, np.stack(np.divmod(bg, cfg.grid_cols), axis=1)])
            # one draw, row by row, is the stream of one draw per patch
            g = rng.standard_normal((m, cfg.dim))
            if cfg.noise_sigma > 0:
                # per-vector norms: a batched norm rounds differently
                sig = np.stack([_unit(v) for v in protos[c] + cfg.noise_sigma * g[:n_sig]])
            else:
                sig = np.tile(protos[c], (n_sig, 1))  # exact noise-free limit
            features = np.concatenate([sig, background + cfg.noise_sigma * g[n_sig:]])
            slides.append(
                SlideRecord(
                    f"syn_c{c:02d}_s{j:03d}",
                    c,
                    coords,
                    features,
                    cfg.grid_rows,
                    cfg.grid_cols,
                )
            )
    return slides, pset


_COARSE_SPREAD = 0.1
_COARSE_JITTER = 0.6


def coarse_prototypes(pset: PrototypeSet, seed: int) -> PrototypeSet:
    """Name-only stand-in prototypes: overlapping and systematically misaligned.

    All classes are pulled toward the shared mean direction (small pairwise
    separation: _COARSE_SPREAD) and perturbed by a seeded random offset of
    norm ~_COARSE_JITTER, so the misalignment is class-level and survives
    slide-level averaging. Descriptions collapse to the bare name. The
    jitter stream is decorrelated from the generator stream that produced
    the prototypes themselves.
    """
    t = pset.matrix()
    shared = _unit(t.sum(axis=0))
    rng = np.random.default_rng([seed, 0xC0A25E])
    scale = _COARSE_JITTER / math.sqrt(pset.dim)
    # one draw, row by row, is the stream of one draw per class; per-row
    # norms: a batched norm rounds differently
    noise = rng.standard_normal(t.shape)
    rows = [_unit(shared + _COARSE_SPREAD * e + scale * n) for e, n in zip(t, noise)]
    return PrototypeSet(pset.names, pset.names, rows)
