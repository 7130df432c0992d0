"""The full learnable parameter set: construction, a stable flat scalar
ordering shared by the optimizer / gradient checker / checkpoints, and
checkpoint file IO.

Checkpoint format (UTF-8, LF): line 1 is a JSON header with the format
version and model dims; each following line is "<leaf-name> v1 v2 ..." with
the leaf's values flattened row-major in canonical decimal text.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .aggregation import AggregationParams
from .attention import AttentionHeadParams, LwaParams
from .classifier import TemperatureParam
from .data import _fmt_row
from .fusion import FusionParams, GateParams

__all__ = [
    "ModelParams",
    "GradientBundle",
    "init_params",
    "grad_zeros",
    "flatten_grads",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1

# GradientBundle: one array per ModelParams leaf, keyed by leaf name.
GradientBundle = dict[str, np.ndarray]


@dataclass(eq=False)
class ModelParams:
    """Every learnable tensor of the pipeline."""

    lwa: LwaParams
    gates: GateParams
    fusion: FusionParams
    temp: TemperatureParam
    agg: AggregationParams

    def __post_init__(self):
        d = self.lwa.dim
        if self.gates.n_heads != self.lwa.n_heads:
            raise ValueError("gate count must match attention head count")
        if self.gates.w_g.shape[1] != d or self.fusion.b_f.shape[0] != d:
            raise ValueError("gate/fusion dimensions must match the feature dim")
        if self.agg.dim != d:
            raise ValueError("aggregation w must have length 2d")

    @property
    def dim(self) -> int:
        return self.lwa.dim

    @property
    def window_size(self) -> int:
        return self.lwa.window_size

    @property
    def n_heads(self) -> int:
        return self.lwa.n_heads

    def leaves(self) -> list[tuple[str, np.ndarray]]:
        """Named leaf tensors in the stable flat order."""
        out = []
        for l, head in enumerate(self.lwa.heads):
            out.append((f"lwa.h{l}.W_Q", head.W_Q))
            out.append((f"lwa.h{l}.W_K", head.W_K))
            out.append((f"lwa.h{l}.W_V", head.W_V))
            out.append((f"lwa.h{l}.bias_table", head.bias_table))
        out.append(("gates.w_g", self.gates.w_g))
        out.append(("gates.b_g", self.gates.b_g))
        out.append(("fusion.W_f", self.fusion.W_f))
        out.append(("fusion.b_f", self.fusion.b_f))
        out.append(("temp.log_tau", np.array([self.temp.log_tau])))
        out.append(("agg.w", self.agg.w))
        if self.agg.learned_table is not None:
            out.append(("agg.table", self.agg.learned_table))
        return out

    @property
    def n_scalars(self) -> int:
        return sum(arr.size for _, arr in self.leaves())

    def flatten(self) -> np.ndarray:
        return np.concatenate([arr.ravel() for _, arr in self.leaves()])

    def with_flat(self, vec: np.ndarray) -> "ModelParams":
        """A new ModelParams with the same structure and values taken from vec."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n_scalars,):
            raise ValueError(f"flat vector must have {self.n_scalars} scalars")
        pieces = {}
        pos = 0
        for name, arr in self.leaves():
            pieces[name] = vec[pos : pos + arr.size].reshape(arr.shape).copy()
            pos += arr.size
        return _assemble(
            pieces,
            dim=self.dim,
            heads=self.n_heads,
            pos_mode=self.agg.positional_mode,
            grid_rows=self.agg.grid_rows,
            grid_cols=self.agg.grid_cols,
        )

    def decay_mask(self) -> np.ndarray:
        """Per-scalar flag: True where weight decay applies.

        Decay hits projection matrices, bias/positional tables, and the gate
        and aggregation projections; never log_tau, b_g, or b_f.
        """
        skip = {"gates.b_g", "fusion.b_f", "temp.log_tau"}
        parts = []
        for name, arr in self.leaves():
            parts.append(np.full(arr.size, name not in skip))
        return np.concatenate(parts)


def _assemble(pieces, *, dim, heads, pos_mode, grid_rows, grid_cols) -> ModelParams:
    head_params = [
        AttentionHeadParams(
            pieces[f"lwa.h{l}.W_Q"],
            pieces[f"lwa.h{l}.W_K"],
            pieces[f"lwa.h{l}.W_V"],
            pieces[f"lwa.h{l}.bias_table"],
        )
        for l in range(heads)
    ]
    return ModelParams(
        lwa=LwaParams(head_params, dim),
        gates=GateParams(pieces["gates.w_g"], pieces["gates.b_g"]),
        fusion=FusionParams(pieces["fusion.W_f"], pieces["fusion.b_f"]),
        temp=TemperatureParam(float(pieces["temp.log_tau"][0])),
        agg=AggregationParams(
            pieces["agg.w"],
            positional_mode=pos_mode,
            learned_table=pieces.get("agg.table"),
            grid_rows=grid_rows if pos_mode == "learned_table" else None,
            grid_cols=grid_cols if pos_mode == "learned_table" else None,
        ),
    )


def init_params(
    dim: int,
    window_size: int,
    heads: int,
    *,
    grid_rows: int | None = None,
    grid_cols: int | None = None,
    seed: int = 0,
    pos_mode: str = "sinusoidal",
    tau0: float = 0.07,
) -> ModelParams:
    """Fresh parameters, deterministic per seed.

    Projections draw from normal(0, 1/sqrt(d)); bias tables, gate weights
    and biases, b_f, and the aggregation w start at zero; W_f starts at
    identity; tau starts at tau0.
    """
    if dim < 1 or window_size < 1 or heads < 1:
        raise ValueError("dim, window_size, and heads must be positive")
    if pos_mode == "learned_table" and (grid_rows is None or grid_cols is None):
        raise ValueError("learned_table mode requires grid dims")
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(dim)
    side = 2 * window_size - 1
    head_params = []
    for _ in range(heads):
        head_params.append(
            AttentionHeadParams(
                rng.standard_normal((dim, dim)) * scale,
                rng.standard_normal((dim, dim)) * scale,
                rng.standard_normal((dim, dim)) * scale,
                np.zeros((side, side)),
            )
        )
    table = None
    if pos_mode == "learned_table":
        table = rng.standard_normal((grid_rows * grid_cols, dim)) * 0.02
    return ModelParams(
        lwa=LwaParams(head_params, dim),
        gates=GateParams(np.zeros((heads, dim)), np.zeros(heads)),
        fusion=FusionParams(np.eye(dim), np.zeros(dim)),
        temp=TemperatureParam(math.log(tau0)),
        agg=AggregationParams(
            np.zeros(2 * dim),
            positional_mode=pos_mode,
            learned_table=table,
            grid_rows=grid_rows if pos_mode == "learned_table" else None,
            grid_cols=grid_cols if pos_mode == "learned_table" else None,
        ),
    )


def grad_zeros(params: ModelParams) -> GradientBundle:
    """A zero gradient bundle shape-congruent with params."""
    return {name: np.zeros_like(arr) for name, arr in params.leaves()}


def flatten_grads(grads: GradientBundle, params: ModelParams) -> np.ndarray:
    """Gradient bundle flattened in the params leaf order."""
    return np.concatenate([grads[name].ravel() for name, _ in params.leaves()])


def save_checkpoint(params: ModelParams, path) -> None:
    """Write a checkpoint; round-trips every scalar losslessly."""
    header = {
        "format": "fgpan-checkpoint",
        "version": CHECKPOINT_VERSION,
        "dim": params.dim,
        "window_size": params.window_size,
        "heads": params.n_heads,
        "pos_mode": params.agg.positional_mode,
        "grid_rows": params.agg.grid_rows,
        "grid_cols": params.agg.grid_cols,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header) + "\n")
        for name, arr in params.leaves():
            # one row at a time: a leaf's text never sits in memory whole
            fh.write(name)
            for row in arr.reshape(-1, arr.shape[-1]):
                fh.write(" " + _fmt_row(row))
            fh.write("\n")


def load_checkpoint(
    path,
    *,
    expect_dim: int | None = None,
    expect_window_size: int | None = None,
    expect_heads: int | None = None,
) -> ModelParams:
    """Read a checkpoint, optionally enforcing the run's model dims."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty checkpoint")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed checkpoint header: {exc}") from exc
    if header.get("format") != "fgpan-checkpoint":
        raise ValueError(f"{path}: not a checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {header.get('version')} "
            f"not supported (expected {CHECKPOINT_VERSION})"
        )
    dim = int(header["dim"])
    window_size = int(header["window_size"])
    heads = int(header["heads"])
    pos_mode = header["pos_mode"]
    grid_rows = header["grid_rows"]
    grid_cols = header["grid_cols"]
    for label, got, want in (
        ("dim", dim, expect_dim),
        ("window_size", window_size, expect_window_size),
        ("heads", heads, expect_heads),
    ):
        if want is not None and got != want:
            raise ValueError(f"{path}: checkpoint {label}={got}, run expects {want}")

    side = 2 * window_size - 1
    shapes: dict[str, tuple] = {}
    for l in range(heads):
        shapes[f"lwa.h{l}.W_Q"] = (dim, dim)
        shapes[f"lwa.h{l}.W_K"] = (dim, dim)
        shapes[f"lwa.h{l}.W_V"] = (dim, dim)
        shapes[f"lwa.h{l}.bias_table"] = (side, side)
    shapes["gates.w_g"] = (heads, dim)
    shapes["gates.b_g"] = (heads,)
    shapes["fusion.W_f"] = (dim, dim)
    shapes["fusion.b_f"] = (dim,)
    shapes["temp.log_tau"] = (1,)
    shapes["agg.w"] = (2 * dim,)
    if pos_mode == "learned_table":
        shapes["agg.table"] = (grid_rows * grid_cols, dim)

    pieces = {}
    for ln in lines[1:]:
        name, _, rest = ln.partition(" ")
        if name not in shapes:
            raise ValueError(f"{path}: unexpected checkpoint leaf {name!r}")
        shape = shapes[name]
        vals = np.array([float(s) for s in rest.split()], dtype=np.float64)
        if vals.size != int(np.prod(shape)):
            raise ValueError(f"{path}: leaf {name!r} has {vals.size} values, expected {shape}")
        pieces[name] = vals.reshape(shape)
    missing = set(shapes) - set(pieces)
    if missing:
        raise ValueError(f"{path}: checkpoint missing leaves {sorted(missing)}")
    return _assemble(
        pieces,
        dim=dim,
        heads=heads,
        pos_mode=pos_mode,
        grid_rows=grid_rows,
        grid_cols=grid_cols,
    )
