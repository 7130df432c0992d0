"""Workload definitions, set-up and one timed iteration of each workload.

Every workload follows the same closed loop with one client: ingest (write
each slide file with the data layer's writer), then the workload's CLI
commands in order, each driven in-process through ``fgpan.cli.parse_config``
and ``fgpan.cli.dispatch``. The workload seed only shapes the generated
inputs; the program sees nothing but files.
"""

import contextlib
import io
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import fgpan.data
from fgpan.cli import dispatch, parse_config
from fgpan.data import SyntheticConfig, gen_synthetic, save_prototypes
from fgpan.selection import SelectionStrategy, select_patches

_SELECT_KINDS = {"all": "all", "fps": "fps_embedding", "topk": "topk_norm"}


@dataclass(frozen=True)
class Workload:
    name: str
    # corpus (gen-style occupancy: a contiguous signal block plus scattered
    # background cells on a grid x grid lattice)
    classes: int
    slides_per_class: int
    patches: int
    dim: int
    grid: int
    # model and strategy flags, as the CLI spells them
    window_size: int
    heads: int
    pos_mode: str
    select: str
    m_max: int
    # train command
    iterations: int
    batch_size: int
    # eval command and its balanced-accuracy floor (None: no eval)
    min_bacc: float | None
    # ingest and infer run this many times per iteration, so that short
    # commands still give a steady median
    reps: int
    # overrides that turn this workload into its fixed-seed reference case
    reference: dict = field(default_factory=dict)

    def reference_case(self) -> "Workload":
        return replace(self, name=self.name + "/reference", reference={}, **self.reference)


WORKLOADS = {
    "desk-train": Workload(
        name="desk-train",
        classes=4, slides_per_class=10, patches=64, dim=16, grid=8,
        window_size=2, heads=2, pos_mode="sin", select="fps", m_max=48,
        iterations=100, batch_size=4, min_bacc=0.95, reps=10,
        reference=dict(slides_per_class=2, iterations=20),
    ),
    "wsi-train": Workload(
        name="wsi-train",
        classes=4, slides_per_class=1, patches=2048, dim=256, grid=64,
        window_size=4, heads=2, pos_mode="table", select="all", m_max=2048,
        iterations=4, batch_size=2, min_bacc=None, reps=2,
        reference=dict(patches=128, grid=16, m_max=128),
    ),
}


@dataclass
class State:
    """What set-up leaves behind for the timed iterations."""

    spec: Workload
    seed: int
    root: str
    slides: list  # in-memory records, the ground truth for round-trip checks
    pset: object

    @property
    def data_dir(self) -> str:
        return os.path.join(self.root, "data")

    @property
    def proto_path(self) -> str:
        return os.path.join(self.root, "prototypes.jsonl")

    @property
    def trained_path(self) -> str:
        return os.path.join(self.root, "trained.ckpt")

    @property
    def preds_path(self) -> str:
        return os.path.join(self.root, "preds.jsonl")

    def slide_path(self, rec) -> str:
        return os.path.join(self.data_dir, f"{rec.slide_id}.slide")


def setup(spec: Workload, seed: int, root: str) -> State:
    """Generate the workload's inputs from its seed into a fresh directory."""
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(os.path.join(root, "data"))
    slides, pset = gen_synthetic(
        SyntheticConfig(
            classes=spec.classes,
            slides_per_class=spec.slides_per_class,
            patches_per_slide=spec.patches,
            dim=spec.dim,
            grid_rows=spec.grid,
            grid_cols=spec.grid,
            seed=seed,
        )
    )
    state = State(spec, seed, root, slides, pset)
    save_prototypes(pset, state.proto_path)
    return state


def infer_view(state: State) -> list:
    """The slides as the infer command sees them, after selection."""
    spec = state.spec
    strategy = SelectionStrategy(_SELECT_KINDS[spec.select], spec.m_max)
    return [select_patches(s, strategy) for s in state.slides]


def _model_flags(state: State) -> list[str]:
    spec = state.spec
    return [
        "--dim", str(spec.dim), "--window-size", str(spec.window_size),
        "--heads", str(spec.heads), "--pos-mode", spec.pos_mode,
        "--select", spec.select, "--m-max", str(spec.m_max), "--seed", str(state.seed),
    ]


def commands(state: State) -> list[tuple[str, list[str]]]:
    """The CLI invocations of one iteration, in order."""
    spec = state.spec
    common = ["--data", state.data_dir, "--prototypes", state.proto_path]
    cmds = [
        ("train", ["train", *common, "--checkpoint", state.trained_path,
                   "--iterations", str(spec.iterations),
                   "--batch-size", str(spec.batch_size), *_model_flags(state)]),
        ("infer", ["infer", *common, "--checkpoint", state.trained_path,
                   "--out", state.preds_path, *_model_flags(state)]),
    ]
    if spec.min_bacc is not None:
        cmds.append(("eval", ["eval", "--data", state.data_dir,
                              "--predictions", state.preds_path]))
    return cmds


@dataclass
class CommandRun:
    name: str
    seconds: float
    code: int | None  # None: the command raised
    stdout: str
    stderr: str


def run_command(name: str, argv: list[str], tracer=None) -> CommandRun:
    """parse_config + dispatch in-process, output captured, wall time taken."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
    code: int | None = None
    t0 = time.perf_counter()
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dispatch(parse_config(argv))
        except Exception:  # an op boundary: record and keep running
            err.write(traceback.format_exc())
    return CommandRun(name, time.perf_counter() - t0, code, out.getvalue(), err.getvalue())


def ingest(state: State, tracer=None) -> tuple[float, list[str]]:
    """Write every slide file with the data layer's writer. Returns the wall
    seconds and one error message per slide ('' when its write succeeded)."""
    errors = []
    span = tracer.span("bench.ingest") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with span:
        for rec in state.slides:
            try:
                # looked up at call time so a traced run sees the wrapper
                fgpan.data.save_slide(rec, state.slide_path(rec))
                errors.append("")
            except (ValueError, OSError) as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, errors


# ---------------------------------------------------------------------------
# computed kernel counts


def window_sizes(slides, window_size: int) -> list[int]:
    """Members per non-empty S x S tile, over every slide."""
    sizes = []
    for s in slides:
        tiles = s.coords() // window_size
        _, counts = np.unique(tiles, axis=0, return_counts=True)
        sizes.extend(int(c) for c in counts)
    return sizes


def attention_gflop(sizes: list[int], dim: int, heads: int) -> float:
    """Multiply-add FLOPs of one forward pass of window attention: per head
    and window of k members, Q/K/V projections (3 * 2kd^2) plus scores and
    the weighted sum of values (2 * 2k^2 d)."""
    k = np.asarray(sizes, dtype=np.float64)
    per_head = (6.0 * k * dim * dim + 4.0 * k * k * dim).sum()
    return heads * per_head / 1e9


def matmul_gflop_per_s(n: int = 512, reps: int = 9) -> float:
    """Median rate of a plain float64 n x n numpy matmul, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    a @ b  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * n**3 / float(np.median(times)) / 1e9


def window_fill(sizes: list[int], window_size: int) -> float:
    """Mean members per window over the window capacity S^2."""
    return float(np.mean(sizes)) / (window_size * window_size)
