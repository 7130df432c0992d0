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

from .rowtext import reader, row_texts

__all__ = [
    "SlideRecord",
    "ClassPrototype",
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
        coords = coords.astype(np.int64, copy=False)
        for bad, problem in (
            (~np.isfinite(features).all(axis=1), "non-finite value at"),
            ((coords < 0).any(axis=1), "negative coordinate"),
        ):
            if bad.any():
                first = tuple(coords[np.argmax(bad)].tolist())
                raise ValueError(f"slide {slide_id!r}: {problem} {first}")
        max_r, max_c = coords.max(axis=0).tolist()
        # row-major cell keys: the first duplicate key is the first duplicate
        # cell in row-major order. Coordinates too large for such a key in
        # int64 are replaced by their ranks, which keep the order.
        rows, cols = coords.T
        span = max_c + 1
        if max_r * span + max_c > np.iinfo(np.int64).max:
            rows, cols = (np.unique(v, return_inverse=True)[1] for v in coords.T)
            span = len(coords)
        keys = rows * span + cols
        cells, counts = np.unique(keys, return_counts=True)
        if (counts > 1).any():
            first = tuple(coords[np.argmax(keys == cells[np.argmax(counts > 1)])].tolist())
            raise ValueError(f"slide {slide_id!r}: duplicate coordinate {first}")
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


@dataclass(eq=False)
class ClassPrototype:
    """Textual class anchor: name, description, and its embedding vector."""

    class_id: int
    name: str
    description: str
    embedding: np.ndarray

    def __post_init__(self):
        self.class_id = int(self.class_id)
        self.embedding = np.asarray(self.embedding, dtype=np.float64)
        if self.embedding.ndim != 1:
            raise ValueError("prototype embedding must be one-dimensional")
        if not np.all(np.isfinite(self.embedding)):
            raise ValueError("prototype embedding contains non-finite values")

    def __eq__(self, other):
        return (
            isinstance(other, ClassPrototype)
            and self.class_id == other.class_id
            and self.name == other.name
            and self.description == other.description
            and np.array_equal(self.embedding, other.embedding)
        )


@dataclass(eq=False)
class PrototypeSet:
    """Class prototypes indexed densely 0..C-1, all sharing one dimension."""

    dim: int
    prototypes: list[ClassPrototype]

    def __post_init__(self):
        self.dim = int(self.dim)
        if not self.prototypes:
            raise ValueError("prototype set is empty")
        for i, p in enumerate(self.prototypes):
            if p.class_id != i:
                raise ValueError(
                    f"prototype class_ids must be exactly 0..{len(self.prototypes) - 1}; "
                    f"position {i} has class_id {p.class_id}"
                )
            if p.embedding.shape != (self.dim,):
                raise ValueError(
                    f"prototype {p.class_id} has dim {p.embedding.shape[0]}, expected {self.dim}"
                )

    @property
    def n_classes(self) -> int:
        return len(self.prototypes)

    def matrix(self) -> np.ndarray:
        """Prototype embeddings stacked into a (C, d) array."""
        return np.stack([p.embedding for p in self.prototypes])

    def __eq__(self, other):
        return (
            isinstance(other, PrototypeSet)
            and self.dim == other.dim
            and len(self.prototypes) == len(other.prototypes)
            and all(a == b for a, b in zip(self.prototypes, other.prototypes))
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
    orthogonal_prototypes: bool = True

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
        if self.orthogonal_prototypes and self.dim < self.classes:
            raise ValueError("orthogonal prototypes require dim >= classes")


# ---------------------------------------------------------------------------
# slide files


def save_slide(record: SlideRecord, path) -> None:
    """Write a slide file; identical records produce identical bytes."""
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
    """Write a prototype file, one JSON object per line."""
    lines = []
    for p in pset.prototypes:
        lines.append(
            json.dumps(
                {
                    "class_id": p.class_id,
                    "name": p.name,
                    "description": p.description,
                    "embedding": [float(v) for v in p.embedding],
                }
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_prototypes(path) -> PrototypeSet:
    """Read a prototype file; class_ids re-indexed densely in file order.

    Embeddings are returned exactly as stored (no normalization). A field
    of the wrong type, a duplicate class_id or a ragged embedding raises a
    ValueError naming the file and the line.
    """
    seen_ids = set()
    protos = []
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
            if protos and len(emb) != protos[0].embedding.size:
                raise ValueError(
                    f"{path}: {what}: ragged embedding lengths "
                    f"({len(emb)} vs {protos[0].embedding.size})"
                )
            protos.append(ClassPrototype(len(protos), name, desc, emb))
    if not protos:
        raise ValueError(f"{path}: empty prototype file")
    return PrototypeSet(protos[0].embedding.size, protos)


# ---------------------------------------------------------------------------
# synthetic corpus


def _class_directions(rng: np.random.Generator, cfg: SyntheticConfig):
    """Draw C class directions plus one background direction, all unit norm.

    When the dimension allows, directions are orthogonalized so synthetic
    classes are maximally separated and the background is uncorrelated.
    """
    c, d = cfg.classes, cfg.dim
    raw = rng.standard_normal((c + 1, d))
    if cfg.orthogonal_prototypes and d >= c:
        k = c + 1 if d >= c + 1 else c
        q, r = np.linalg.qr(raw[:k].T)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        dirs = (q * signs).T
        protos = dirs[:c]
        background = dirs[c] if k == c + 1 else _unit(raw[c])
    else:
        protos = np.stack([_unit(v) for v in raw[:c]])
        background = _unit(raw[c])
    return protos, background


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
        cfg.dim,
        [
            ClassPrototype(
                c,
                f"class {c}",
                f"class {c} with synthetic marker {c} and synthetic pattern {c}",
                protos[c],
            )
            for c in range(cfg.classes)
        ],
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


def coarse_prototypes(
    pset: PrototypeSet, seed: int, spread: float = 0.1, jitter: float = 0.6
) -> PrototypeSet:
    """Name-only stand-in prototypes: overlapping and systematically misaligned.

    All classes are pulled toward the shared mean direction (small pairwise
    separation) and perturbed by a seeded random offset of norm ~jitter, so
    the misalignment is class-level and survives slide-level averaging.
    Descriptions collapse to the bare name. The jitter stream is decorrelated
    from the generator stream that produced the prototypes themselves.
    """
    t = pset.matrix()
    shared = _unit(t.sum(axis=0))
    rng = np.random.default_rng([seed, 0xC0A25E])
    scale = jitter / math.sqrt(pset.dim)
    out = []
    for p in pset.prototypes:
        noise = rng.standard_normal(pset.dim)
        v = _unit(shared + spread * p.embedding + scale * noise)
        out.append(ClassPrototype(p.class_id, p.name, p.name, v))
    return PrototypeSet(pset.dim, out)
