"""The learnable parameter set: one schema over one flat vector, and
checkpoint file IO.

_schema is the only place the parameters are written down: each leaf's
name, shape, place in the flat order and weight-decay membership. A
ModelParams owns one contiguous float64 vector theta laid out by that
schema, and every leaf is a reshaped view into it. The groups (lwa with its
attention heads, gates, fusion, temp, agg) bundle those views by name.
Assigning a group's leaf attribute copies the value into its view, and any
other assignment raises, so no leaf ever holds its values outside theta. A
gradient is a ModelParams of the same schema, accumulated through the same
views, so the optimizer works on two flat vectors.

Checkpoint format (UTF-8, LF): line 1 is a JSON header with the format
version and model dims; each following line is "<leaf-name> v1 v2 ..." with
the leaf's values flattened row-major in canonical decimal text, one line
per leaf in schema order. load_checkpoint reads a file in one pass, each
leaf line in pieces of _PIECE_CHARS characters: np.fromstring parses a
piece, and _parse_decimals only a piece it refuses, so at most one piece's
tokens are alive at a time.
"""

import functools
import json
import math
import sys
import warnings
from itertools import islice

import numpy as np

from .data import _header_fields, _json_object, _parse_decimals
from .rowtext import reader, row_texts

__all__ = [
    "ModelParams",
    "AttentionHeadParams",
    "LwaParams",
    "GateParams",
    "FusionParams",
    "TemperatureParam",
    "AggregationParams",
    "init_params",
    "grad_zeros",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1
POSITIONAL_MODES = ("sinusoidal", "learned_table")


@functools.lru_cache(maxsize=None)
def _schema(dim, window_size, heads, pos_mode, grid_rows, grid_cols):
    """Every leaf as (name, shape, decays), in the flat order of theta.

    Weight decay applies to the projection matrices, the bias and
    positional tables, and the gate and aggregation projections; never to
    b_g, b_f or log_tau. The learned positional table, indexed by
    row * grid_cols + col, exists only in learned_table mode.
    """
    if dim < 1 or window_size < 1 or heads < 1:
        raise ValueError("dim, window_size, and heads must be positive")
    if pos_mode not in POSITIONAL_MODES:
        raise ValueError(f"positional mode must be one of {POSITIONAL_MODES}")
    side = 2 * window_size - 1
    leaves = []
    for l in range(heads):
        leaves += [
            (f"lwa.h{l}.W_Q", (dim, dim), True),
            (f"lwa.h{l}.W_K", (dim, dim), True),
            (f"lwa.h{l}.W_V", (dim, dim), True),
            (f"lwa.h{l}.bias_table", (side, side), True),
        ]
    leaves += [
        ("gates.w_g", (heads, dim), True),
        ("gates.b_g", (heads,), False),
        ("fusion.W_f", (dim, dim), True),
        ("fusion.b_f", (dim,), False),
        ("temp.log_tau", (1,), False),
        ("agg.w", (2 * dim,), True),
    ]
    if pos_mode == "learned_table":
        if grid_rows is None or grid_cols is None or grid_rows < 1 or grid_cols < 1:
            raise ValueError("learned_table mode requires positive grid dims")
        leaves.append(("agg.table", (grid_rows * grid_cols, dim), True))
    return tuple(leaves)


@functools.lru_cache(maxsize=8)
def _decay_mask(**dims) -> np.ndarray:
    mask = np.concatenate(
        [np.full(math.prod(shape), decays) for _, shape, decays in _schema(**dims)]
    )
    mask.flags.writeable = False
    return mask


class _Leaf:
    """A leaf attribute of a parameter group. Reading gives the leaf's view
    (None for a leaf this model does not have); assigning copies the value
    into that view, so the leaf stays part of theta."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, group, owner=None):
        return self if group is None else group._views.get(self.name)

    def __set__(self, group, value):
        view = group._views.get(self.name)
        if view is None:
            raise AttributeError(f"this model has no {self.name} leaf")
        value = np.asarray(value, dtype=np.float64)
        if value.shape != view.shape:
            raise ValueError(f"{self.name} must have shape {view.shape}, got {value.shape}")
        view[...] = value


class _ScalarLeaf(_Leaf):
    """A one-element leaf read and assigned as a Python float."""

    def __get__(self, group, owner=None):
        return self if group is None else float(group._views[self.name][0])

    def __set__(self, group, value):
        group._views[self.name][0] = float(value)


class _Group:
    """Named leaf views. Only leaf attributes can be assigned; assigning
    any attribute the object it already holds (as an in-place operator
    such as `grads.theta *= c` does) is a no-op."""

    __slots__ = ("_views",)

    @classmethod
    def _over(cls, views: dict, **fields):
        group = cls.__new__(cls)
        object.__setattr__(group, "_views", views)
        for key, value in fields.items():
            object.__setattr__(group, key, value)
        return group

    def __setattr__(self, name, value):
        if hasattr(self, name) and value is getattr(self, name):
            return
        if not isinstance(getattr(type(self), name, None), _Leaf):
            raise AttributeError(f"{type(self).__name__}.{name} is not a parameter leaf")
        object.__setattr__(self, name, value)


class AttentionHeadParams(_Group):
    """One attention head: d x d projections and the (2S-1) x (2S-1)
    relative positional bias table."""

    __slots__ = ()
    W_Q = _Leaf()
    W_K = _Leaf()
    W_V = _Leaf()
    bias_table = _Leaf()

    def __init__(self, W_Q, W_K, W_V, bias_table):
        """A standalone head over float64 copies of the four arrays."""
        views = dict(W_Q=W_Q, W_K=W_K, W_V=W_V, bias_table=bias_table)
        views = {k: np.array(v, dtype=np.float64) for k, v in views.items()}
        *projections, table = views.values()
        d, side = projections[0].shape[0], table.shape[0]
        if any(w.shape != (d, d) for w in projections):
            raise ValueError(f"W_Q, W_K and W_V must be square of shape ({d}, {d})")
        if table.shape != (side, side) or side % 2 == 0:
            raise ValueError("bias_table must be square with odd side 2S-1")
        if not all(np.isfinite(v).all() for v in views.values()):
            raise ValueError("attention head contains non-finite values")
        object.__setattr__(self, "_views", views)

    @property
    def dim(self) -> int:
        return self.W_Q.shape[0]

    @property
    def window_size(self) -> int:
        return (self.bias_table.shape[0] + 1) // 2


class LwaParams(_Group):
    """The attention heads of the refinement stage, as a tuple: a head
    changes through its leaves, never by rebinding heads[l]."""

    __slots__ = ("heads",)


class GateParams(_Group):
    """Per-head gate weights w_g (L, d) and biases b_g (L,)."""

    __slots__ = ()
    w_g = _Leaf()
    b_g = _Leaf()


class FusionParams(_Group):
    """Affine projection W_f (d, d), b_f (d,) of the gated-head sum."""

    __slots__ = ()
    W_f = _Leaf()
    b_f = _Leaf()


class TemperatureParam(_Group):
    """Softmax temperature stored as log_tau, so tau = exp(log_tau) > 0 by
    construction; the gradient flows through the exponential."""

    __slots__ = ()
    log_tau = _ScalarLeaf()

    @property
    def tau(self) -> float:
        """exp(log_tau); a ValueError where that overflows, rounds to 0 or is
        subnormal. A normal tau keeps every score s / tau, |s| <= 1, finite."""
        try:
            tau = math.exp(self.log_tau)
        except OverflowError:
            tau = math.inf
        if not 0.0 < tau < math.inf:
            raise ValueError(f"temp.log_tau = {self.log_tau!r}: tau = exp(log_tau) "
                             f"overflows or rounds to 0")
        if tau < sys.float_info.min:
            raise ValueError(f"temp.log_tau = {self.log_tau!r}: tau = exp(log_tau) = {tau!r} "
                             f"is subnormal, so s / tau would overflow")
        return tau


class AggregationParams(_Group):
    """Projection vector w (length 2d) plus the positional embedding
    choice; table, (grid_rows * grid_cols, d), is None in sinusoidal mode."""

    __slots__ = ("positional_mode", "grid_rows", "grid_cols")
    w = _Leaf()
    table = _Leaf()


class ModelParams(_Group):
    """Every learnable tensor of the pipeline, as views into theta.

    theta must be a finite vector with exactly the schema's scalar count;
    a float64 theta is used as given, not copied. grid_rows and grid_cols
    are kept in learned_table mode only.
    """

    __slots__ = ("theta", "_dims", "lwa", "gates", "fusion", "temp", "agg")

    def __init__(self, theta, *, dim, window_size, heads, pos_mode="sinusoidal",
                 grid_rows=None, grid_cols=None):
        if pos_mode != "learned_table":
            grid_rows = grid_cols = None
        dims = dict(dim=dim, window_size=window_size, heads=heads, pos_mode=pos_mode,
                    grid_rows=grid_rows, grid_cols=grid_cols)
        schema = _schema(**dims)
        theta = np.asarray(theta, dtype=np.float64)
        size = sum(math.prod(shape) for _, shape, _ in schema)
        if theta.shape != (size,):
            raise ValueError(f"parameter vector must have shape ({size},), got {theta.shape}")
        views, pos = {}, 0
        for name, shape, _ in schema:
            views[name] = theta[pos : pos + math.prod(shape)].reshape(shape)
            pos += views[name].size
        if not np.isfinite(theta).all():
            bad = next(name for name, v in views.items() if not np.isfinite(v).all())
            raise ValueError(f"parameter leaf {bad!r} holds a non-finite value")
        # group the views by name: "lwa.h0.W_Q" -> tree["lwa"]["h0"]["W_Q"]
        tree: dict = {}
        for name, view in views.items():
            *path, leaf = name.split(".")
            node = tree
            for key in path:
                node = node.setdefault(key, {})
            node[leaf] = view
        head_groups = tuple(AttentionHeadParams._over(v) for v in tree["lwa"].values())
        for key, value in (
            ("theta", theta),
            ("_views", views),
            ("_dims", dims),
            ("lwa", LwaParams._over({}, heads=head_groups)),
            ("gates", GateParams._over(tree["gates"])),
            ("fusion", FusionParams._over(tree["fusion"])),
            ("temp", TemperatureParam._over(tree["temp"])),
            ("agg", AggregationParams._over(tree["agg"], positional_mode=pos_mode,
                                            grid_rows=grid_rows, grid_cols=grid_cols)),
        ):
            object.__setattr__(self, key, value)

    def __reduce__(self):
        """Pickled as its constructor's arguments: unpickling checks them again."""
        return functools.partial(ModelParams, **self._dims), (self.theta,)

    @property
    def dims(self) -> dict:
        """The schema's dims, as ModelParams takes them by keyword."""
        return dict(self._dims)

    @property
    def dim(self) -> int:
        return self._dims["dim"]

    @property
    def window_size(self) -> int:
        return self._dims["window_size"]

    @property
    def n_heads(self) -> int:
        return self._dims["heads"]

    def __getitem__(self, name: str) -> np.ndarray:
        """The view of the leaf called name."""
        return self._views[name]

    def leaves(self) -> list[tuple[str, np.ndarray]]:
        """Named leaf views in schema order; together they tile theta."""
        return list(self._views.items())

    @property
    def n_scalars(self) -> int:
        return self.theta.size

    def flatten(self) -> np.ndarray:
        """A copy of theta."""
        return self.theta.copy()

    def with_flat(self, vec: np.ndarray) -> "ModelParams":
        """A new ModelParams of the same schema over a copy of vec."""
        return ModelParams(np.array(vec, dtype=np.float64), **self._dims)

    def decay_mask(self) -> np.ndarray:
        """Read-only per-scalar flags, True where weight decay applies; one
        array per schema."""
        return _decay_mask(**self._dims)


def _zeros(**dims) -> ModelParams:
    size = sum(math.prod(shape) for _, shape, _ in _schema(**dims))
    return ModelParams(np.zeros(size), **dims)


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
    identity; tau starts at tau0; the learned positional table draws from
    normal(0, 0.02).
    """
    params = _zeros(dim=dim, window_size=window_size, heads=heads, pos_mode=pos_mode,
                    grid_rows=grid_rows, grid_cols=grid_cols)
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(dim)
    for head in params.lwa.heads:
        head.W_Q = rng.standard_normal((dim, dim)) * scale
        head.W_K = rng.standard_normal((dim, dim)) * scale
        head.W_V = rng.standard_normal((dim, dim)) * scale
    params.fusion.W_f = np.eye(dim)
    params.temp.log_tau = math.log(tau0)
    if params.agg.table is not None:
        params.agg.table = rng.standard_normal(params.agg.table.shape) * 0.02
    return params


def grad_zeros(params: ModelParams) -> ModelParams:
    """A zero gradient: a ModelParams of the same schema."""
    return _zeros(**params.dims)


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
    leaves = params.leaves()
    rows = [arr.size // arr.shape[-1] for _, arr in leaves]  # rows per leaf
    widths = [arr.shape[-1] for (_, arr), n in zip(leaves, rows) for _ in range(n)]
    texts = row_texts(params.theta, widths)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header) + "\n")
        for (name, _), n in zip(leaves, rows):
            # one row at a time: a leaf's text never sits in memory whole (a
            # large checkpoint's worker rows arrive in pieces of about 64k values)
            fh.write(name)
            for text in islice(texts, n):
                fh.write(" " + text)
            fh.write("\n")


def _fast_decimals(text: str) -> np.ndarray | None:
    """The values of a piece of a checkpoint line, parsed by one
    np.fromstring call, which builds no string per value. None where that
    call might not read them as _parse_decimals does: text it does not
    read to its end, blank text (which it reads as [-1.0]), or a non-finite
    value, since it takes tokens such as nan(1) that float() refuses."""
    if not text or text.isspace():
        return None
    try:
        with warnings.catch_warnings():
            # older numpy warns, rather than raises, on text it cannot read
            warnings.simplefilter("error", DeprecationWarning)
            vals = np.fromstring(text, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    return vals if np.isfinite(vals).all() else None


def _checkpoint_zeros(line: str, path, expects: dict) -> ModelParams:
    """Zero parameters of the dims a checkpoint header line declares, each
    checked against expects (dim, window_size, heads; None: any)."""
    header = _json_object(line, path, "checkpoint header")
    if header.get("format") != "fgpan-checkpoint":
        raise ValueError(f"{path}: not a checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {header.get('version')} "
            f"not supported (expected {CHECKPOINT_VERSION})"
        )
    kinds = dict(dim="int>0", window_size="int>0", heads="int>0", pos_mode="str",
                 grid_rows="int?", grid_cols="int?")
    dims = dict(zip(kinds, _header_fields(header, path, "checkpoint header", **kinds)))
    if dims["pos_mode"] == "learned_table" and None in (dims["grid_rows"], dims["grid_cols"]):
        raise ValueError(f"{path}: learned_table checkpoint without grid dims")
    for label, want in expects.items():
        if want is not None and dims[label] != want:
            raise ValueError(f"{path}: checkpoint {label}={dims[label]}, run expects {want}")
    try:
        return _zeros(**dims)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


_PIECE_CHARS = 1 << 20  # characters of a leaf line read and parsed at a time


def _line_pieces(fh):
    """The next line of fh, read _PIECE_CHARS characters at a time so that
    its text never sits in memory whole: first the text before its first
    space (the leaf name), then the rest in pieces, none blank, each cut
    after its last space (a value cut there is carried into the next).
    Nothing at the end of the file."""
    carry, name = "", None
    while True:
        text = fh.readline(_PIECE_CHARS)
        end = text.endswith("\n") or len(text) < _PIECE_CHARS  # line or file ended
        text = carry + text
        cut = len(text) if end else text.rfind(" ") + 1  # after the last whole value
        text, carry = text[:cut], text[cut:]
        if name is None and text:
            name, _, text = text.partition(" ")
            yield name
        if text and not text.isspace():
            yield text
        if end:
            return


def load_checkpoint(
    path,
    *,
    expect_dim: int | None = None,
    expect_window_size: int | None = None,
    expect_heads: int | None = None,
) -> ModelParams:
    """Read a checkpoint in one pass, optionally enforcing the run's model
    dims.

    Blank lines are skipped; the first other line is the header, and each
    line after it is "<leaf-name> v1 v2 ...", leaves in any order. A leaf
    line is read in pieces (_line_pieces) into its slice of a preallocated
    theta: each piece's values are parsed by _fast_decimals, and only a
    piece it refuses by _parse_decimals, which reads what float() reads or
    names the bad token, so at most one piece's tokens are alive at a time.
    Values past the leaf's size are only counted. An unknown, duplicate,
    missing, miscounted or non-finite leaf raises a ValueError naming the
    file and the leaf.
    """
    expects = dict(dim=expect_dim, window_size=expect_window_size, heads=expect_heads)
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        while first.isspace():
            first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty checkpoint")
        params = _checkpoint_zeros(first, path, expects)
        seen = set()
        while True:
            pieces = _line_pieces(fh)
            name = next(pieces, None)
            if name is None:
                break
            if not name.strip() and next(pieces, None) is None:
                continue  # a blank line
            try:
                view = params[name]
            except KeyError:
                raise ValueError(f"{path}: unexpected checkpoint leaf {name!r}") from None
            if name in seen:
                raise ValueError(f"{path}: duplicate checkpoint leaf {name!r}")
            seen.add(name)
            leaf, filled = view.reshape(-1), 0
            for text in pieces:
                vals = _fast_decimals(text)
                if vals is None:
                    vals = _parse_decimals(text.split(), f"{path}: leaf {name!r}")
                if filled + vals.size <= leaf.size:  # past it, only counted
                    leaf[filled : filled + vals.size] = vals
                filled += vals.size
            if filled != leaf.size:
                raise ValueError(
                    f"{path}: leaf {name!r} has {filled} values, expected {view.shape}"
                )
    missing = [name for name, _ in params.leaves() if name not in seen]
    if missing:
        raise ValueError(f"{path}: checkpoint missing leaves {sorted(missing)}")
    try:
        # rebuilt over the filled theta (no copy) for the finiteness check
        return ModelParams(params.theta, **params.dims)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


reader("checkpoint", load_checkpoint)
