"""Core value types, on-disk formats, and the synthetic corpus generator.

Slide file format (UTF-8, LF endings):
    line 1:       JSON header {"slide_id", "label", "d", "M", "grid_rows", "grid_cols"}
    lines 2..M+1: "row col v1 ... vd" space-separated decimals

Prototype file format: one JSON object per line,
    {"class_id", "name", "description", "embedding": [...]}

Floats are written with the shortest round-trip decimal representation so
identical records serialize to identical bytes.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PatchEmbedding",
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


def _fmt_row(values: np.ndarray) -> str:
    """Space-separated canonical decimals of a float64 vector (shortest
    exact round-trip form of each value)."""
    return " ".join(map(repr, values.tolist()))


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


@dataclass(eq=False)
class PatchEmbedding:
    """One patch: integer grid coordinate plus its embedding vector."""

    coord: tuple[int, int]
    vector: np.ndarray

    def __post_init__(self):
        r, c = self.coord
        self.coord = (int(r), int(c))
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.ndim != 1:
            raise ValueError("patch vector must be one-dimensional")
        if not np.all(np.isfinite(self.vector)):
            raise ValueError("patch vector contains non-finite values")

    def __eq__(self, other):
        return (
            isinstance(other, PatchEmbedding)
            and self.coord == other.coord
            and np.array_equal(self.vector, other.vector)
        )


@dataclass(eq=False)
class SlideRecord:
    """One slide: ordered patches with unique non-negative grid coordinates."""

    slide_id: str
    label: int | None
    dim: int
    patches: list[PatchEmbedding]
    grid_rows: int | None = None
    grid_cols: int | None = None

    def __post_init__(self):
        if not self.patches:
            raise ValueError(f"slide {self.slide_id!r} has no patches")
        if self.label is not None:
            self.label = int(self.label)
        self.dim = int(self.dim)
        seen = set()
        for p in self.patches:
            if p.vector.shape != (self.dim,):
                raise ValueError(
                    f"slide {self.slide_id!r}: patch at {p.coord} has "
                    f"{p.vector.shape[0]} values, expected d={self.dim}"
                )
            r, c = p.coord
            if r < 0 or c < 0:
                raise ValueError(f"slide {self.slide_id!r}: negative coordinate {p.coord}")
            if p.coord in seen:
                raise ValueError(f"slide {self.slide_id!r}: duplicate coordinate {p.coord}")
            seen.add(p.coord)
        max_r = max(p.coord[0] for p in self.patches)
        max_c = max(p.coord[1] for p in self.patches)
        if self.grid_rows is None:
            self.grid_rows = max_r + 1
        if self.grid_cols is None:
            self.grid_cols = max_c + 1
        self.grid_rows = int(self.grid_rows)
        self.grid_cols = int(self.grid_cols)
        if max_r >= self.grid_rows or max_c >= self.grid_cols:
            raise ValueError(
                f"slide {self.slide_id!r}: coordinate ({max_r},{max_c}) outside "
                f"grid {self.grid_rows}x{self.grid_cols}"
            )

    @property
    def n_patches(self) -> int:
        return len(self.patches)

    def matrix(self) -> np.ndarray:
        """Patch embeddings stacked into an (M, d) array, file order."""
        return np.stack([p.vector for p in self.patches])

    def coords(self) -> np.ndarray:
        """Patch coordinates stacked into an (M, 2) int array, file order."""
        return np.array([p.coord for p in self.patches], dtype=np.int64)

    def __eq__(self, other):
        return (
            isinstance(other, SlideRecord)
            and self.slide_id == other.slide_id
            and self.label == other.label
            and self.dim == other.dim
            and self.grid_rows == other.grid_rows
            and self.grid_cols == other.grid_cols
            and len(self.patches) == len(other.patches)
            and all(a == b for a, b in zip(self.patches, other.patches))
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
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be non-negative")
        if self.patches_per_slide > self.grid_rows * self.grid_cols:
            raise ValueError("patches_per_slide exceeds grid capacity")
        if self.orthogonal_prototypes and self.dim < self.classes:
            raise ValueError("orthogonal prototypes require dim >= classes")


# ---------------------------------------------------------------------------
# slide files


def save_slide(record: SlideRecord, path) -> None:
    """Write a slide file; identical records produce identical bytes."""
    for p in record.patches:
        if not np.all(np.isfinite(p.vector)):
            raise ValueError(f"slide {record.slide_id!r}: non-finite value at {p.coord}")
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
        for p in record.patches:
            r, c = p.coord
            fh.write(f"{r} {c} {_fmt_row(p.vector)}\n")


def load_slide(path) -> SlideRecord:
    """Read a slide file, preserving patch order."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty slide file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: malformed header: not an object")
    try:
        slide_id = header["slide_id"]
        label = header["label"]
        d = int(header["d"])
        m = int(header["M"])
        grid_rows = int(header["grid_rows"])
        grid_cols = int(header["grid_cols"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed header: missing field {exc}") from exc
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise ValueError(f"{path}: header declares M={m} but file has {len(body)} patch rows")
    patches = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2 + d:
            raise ValueError(
                f"{path}: row has {len(parts) - 2} values, header declares d={d}"
            )
        coord = (int(parts[0]), int(parts[1]))
        vec = np.array([float(s) for s in parts[2:]], dtype=np.float64)
        patches.append(PatchEmbedding(coord, vec))
    return SlideRecord(slide_id, label, d, patches, grid_rows, grid_cols)


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

    Embeddings are returned exactly as stored (no normalization).
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty prototype file")
    seen_ids = set()
    protos = []
    dim = None
    for i, ln in enumerate(lines):
        try:
            obj = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed prototype line {i + 1}: {exc}") from exc
        try:
            cid = int(obj["class_id"])
            name = obj["name"]
            desc = obj["description"]
            emb = np.asarray(obj["embedding"], dtype=np.float64)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed prototype line {i + 1}: {exc}") from exc
        if cid in seen_ids:
            raise ValueError(f"{path}: duplicate class_id {cid}")
        seen_ids.add(cid)
        if dim is None:
            dim = emb.shape[0]
        elif emb.shape[0] != dim:
            raise ValueError(
                f"{path}: ragged embedding lengths ({emb.shape[0]} vs {dim})"
            )
        protos.append(ClassPrototype(i, name, desc, emb))
    return PrototypeSet(dim, protos)


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


def _signal_block(rng: np.random.Generator, cfg: SyntheticConfig, n_sig: int):
    """Pick a contiguous rectangular block of n_sig grid cells."""
    side = math.ceil(math.sqrt(n_sig))
    block_rows = min(side, cfg.grid_rows)
    block_cols = math.ceil(n_sig / block_rows)
    if block_cols > cfg.grid_cols:
        block_cols = cfg.grid_cols
        block_rows = math.ceil(n_sig / block_cols)
    anchor_r = int(rng.integers(0, cfg.grid_rows - block_rows + 1))
    anchor_c = int(rng.integers(0, cfg.grid_cols - block_cols + 1))
    return [
        (anchor_r + t // block_cols, anchor_c + t % block_cols) for t in range(n_sig)
    ]


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
    all_cells = [
        (r, c) for r in range(cfg.grid_rows) for c in range(cfg.grid_cols)
    ]
    m = cfg.patches_per_slide
    n_sig = math.ceil(cfg.signal_fraction * m)
    slides = []
    for c in range(cfg.classes):
        for j in range(cfg.slides_per_class):
            signal_cells = _signal_block(rng, cfg, n_sig)
            taken = set(signal_cells)
            remaining = [cell for cell in all_cells if cell not in taken]
            n_bg = m - n_sig
            if n_bg:
                chosen = rng.choice(len(remaining), size=n_bg, replace=False)
                bg_cells = [remaining[i] for i in sorted(chosen)]
            else:
                bg_cells = []
            patches = []
            for cell in signal_cells:
                g = rng.standard_normal(cfg.dim)
                if cfg.noise_sigma > 0:
                    vec = _unit(protos[c] + cfg.noise_sigma * g)
                else:
                    vec = protos[c]  # exact noise-free limit, no renormalization drift
                patches.append(PatchEmbedding(cell, vec))
            for cell in bg_cells:
                g = rng.standard_normal(cfg.dim)
                patches.append(PatchEmbedding(cell, background + cfg.noise_sigma * g))
            slides.append(
                SlideRecord(
                    f"syn_c{c:02d}_s{j:03d}",
                    c,
                    cfg.dim,
                    patches,
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
