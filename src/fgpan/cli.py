"""Command-line surface: gen, train, infer, eval, gradcheck, proto-dist.

Flag precedence: command-line flags override config-file values, which
override built-in defaults. Every run echoes its resolved config, seed, and
a config digest for provenance. The seed falls back to the FGPAN_SEED
environment variable when --seed is absent.
"""

import argparse
import glob
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import (
    SyntheticConfig,
    coarse_prototypes,
    gen_synthetic,
    load_prototypes,
    load_slide,
    save_prototypes,
    save_slide,
)
from .metrics import EvalRecord, auroc_ovr, balanced_accuracy, f1_scores
from .params import init_params, load_checkpoint, save_checkpoint
from .prototypes import interclass_distance, normalize_prototypes
from .selection import SelectionStrategy, select_patches
from .training import (
    TrainConfig,
    desk_profile,
    finite_diff_check,
    forward_slide,
    paper_profile,
    random_instance,
    train,
)

__all__ = ["RunConfig", "parse_config", "dispatch", "main"]

COMMANDS = ("gen", "train", "infer", "eval", "gradcheck", "proto-dist")

SELECT_CHOICES = ("all", "fps", "topk")
_SELECT_KINDS = {"all": "all", "fps": "fps_embedding", "topk": "topk_norm"}
POS_CHOICES = ("sin", "table")
_POS_MODES = {"sin": "sinusoidal", "table": "learned_table"}

PROFILES = {"desk": desk_profile, "paper": paper_profile}


@dataclass
class RunConfig:
    """Resolved settings for one CLI run."""

    command: str | None = None
    # paths
    data: str | None = None
    prototypes: str | None = None
    checkpoint: str | None = None
    out: str | None = None
    predictions: str | None = None
    # model dims
    dim: int = 16
    window_size: int = 2
    heads: int = 2
    # strategy flags
    select: str = "all"
    m_max: int | None = None
    pos_mode: str = "sin"
    lambda_slide: float = 1.0
    lwa_gff: str = "on"
    fine_grained_prototypes: str = "on"
    # training profile and overrides
    profile: str = "desk"
    learning_rate: float | None = None
    weight_decay: float | None = None
    batch_size: int | None = None
    iterations: int | None = None
    # generator settings
    classes: int = 4
    slides_per_class: int = 10
    patches_per_slide: int = 64
    signal_fraction: float = 0.6
    noise_sigma: float = 0.05
    grid_rows: int = 8
    grid_cols: int = 8
    # gradient check
    tolerance: float = 1e-5
    fd_step: float = 1e-4
    seed: int = 0

    def train_config(self) -> TrainConfig:
        overrides = {
            key: getattr(self, key)
            for key in ("learning_rate", "weight_decay", "batch_size", "iterations")
            if getattr(self, key) is not None
        }
        return PROFILES[self.profile](
            lambda_slide=self.lambda_slide, seed=self.seed, **overrides
        )

    def internal_pos_mode(self) -> str:
        return _POS_MODES[self.pos_mode]

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("common")
    g.add_argument("--config", type=str, default=None, help="JSON config file")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--dim", type=int, default=None)
    g.add_argument("--window-size", type=int, default=None, dest="window_size")
    g.add_argument("--heads", type=int, default=None)
    g.add_argument("--select", choices=SELECT_CHOICES, default=None)
    g.add_argument("--m-max", type=int, default=None, dest="m_max")
    g.add_argument("--pos-mode", choices=POS_CHOICES, default=None, dest="pos_mode")
    g.add_argument("--lambda-slide", type=float, default=None, dest="lambda_slide")
    g.add_argument("--lwa-gff", choices=("on", "off"), default=None, dest="lwa_gff")
    g.add_argument(
        "--fine-grained-prototypes",
        choices=("on", "off"),
        default=None,
        dest="fine_grained_prototypes",
    )
    g.add_argument("--profile", choices=tuple(PROFILES), default=None)
    g.add_argument("--learning-rate", type=float, default=None, dest="learning_rate")
    g.add_argument("--weight-decay", type=float, default=None, dest="weight_decay")
    g.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    g.add_argument("--iterations", type=int, default=None)

    parser = argparse.ArgumentParser(
        prog="fgpan",
        description="Zero-shot whole-slide classification over patch embeddings.",
    )
    sub = parser.add_subparsers(dest="command")

    p_gen = sub.add_parser("gen", parents=[common], help="generate a synthetic corpus")
    p_gen.add_argument("--out", type=str, default=None)
    p_gen.add_argument("--classes", type=int, default=None)
    p_gen.add_argument("--slides-per-class", type=int, default=None, dest="slides_per_class")
    p_gen.add_argument(
        "--patches-per-slide", type=int, default=None, dest="patches_per_slide"
    )
    p_gen.add_argument(
        "--signal-fraction", type=float, default=None, dest="signal_fraction"
    )
    p_gen.add_argument("--noise-sigma", type=float, default=None, dest="noise_sigma")
    p_gen.add_argument("--grid-rows", type=int, default=None, dest="grid_rows")
    p_gen.add_argument("--grid-cols", type=int, default=None, dest="grid_cols")

    p_train = sub.add_parser("train", parents=[common], help="train on labeled slides")
    p_train.add_argument("--data", type=str, default=None)
    p_train.add_argument("--prototypes", type=str, default=None)
    p_train.add_argument("--checkpoint", type=str, default=None)

    p_infer = sub.add_parser("infer", parents=[common], help="predict slide labels")
    p_infer.add_argument("--data", type=str, default=None)
    p_infer.add_argument("--prototypes", type=str, default=None)
    p_infer.add_argument("--checkpoint", type=str, default=None)
    p_infer.add_argument("--out", type=str, default=None)

    p_eval = sub.add_parser("eval", parents=[common], help="score predictions")
    p_eval.add_argument("--data", type=str, default=None)
    p_eval.add_argument("--predictions", type=str, default=None)

    p_grad = sub.add_parser("gradcheck", parents=[common], help="verify gradients")
    p_grad.add_argument("--classes", type=int, default=None)
    p_grad.add_argument(
        "--patches-per-slide", type=int, default=None, dest="patches_per_slide"
    )
    p_grad.add_argument("--tolerance", type=float, default=None)
    p_grad.add_argument("--fd-step", type=float, default=None, dest="fd_step")

    p_dist = sub.add_parser(
        "proto-dist", parents=[common], help="print the inter-class distance"
    )
    p_dist.add_argument("--prototypes", type=str, default=None)

    return parser


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve a RunConfig: CLI flags over config-file values over defaults."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    provided = {k: v for k, v in vars(ns).items() if v is not None and k != "config"}

    merged: dict = {}
    config_path = getattr(ns, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            file_vals = json.load(fh)
        known = {f.name for f in fields(RunConfig)}
        for key, val in file_vals.items():
            if key not in known:
                raise ValueError(f"unknown config file key {key!r}")
            if key == "command":
                raise ValueError("the command cannot be set from a config file")
            merged[key] = val
    merged.update(provided)

    # gradcheck defaults to the small random instance
    if ns.command == "gradcheck":
        for key, val in (("dim", 8), ("classes", 3), ("patches_per_slide", 6)):
            merged.setdefault(key, val)

    if "seed" not in merged:
        env_seed = os.environ.get("FGPAN_SEED")
        if env_seed is not None:
            merged["seed"] = int(env_seed)

    cfg = RunConfig(**merged)
    if cfg.select not in SELECT_CHOICES:
        raise ValueError(f"--select must be one of {SELECT_CHOICES}")
    if cfg.pos_mode not in POS_CHOICES:
        raise ValueError(f"--pos-mode must be one of {POS_CHOICES}")
    if cfg.profile not in PROFILES:
        raise ValueError(f"--profile must be one of {tuple(PROFILES)}")
    if cfg.dim < 1 or cfg.window_size < 1 or cfg.heads < 1:
        raise ValueError("model dims must be positive")
    return cfg


def _echo(cfg: RunConfig) -> None:
    print(f"config: {json.dumps(asdict(cfg), sort_keys=True)}")
    print(f"seed: {cfg.seed} config-digest: {cfg.digest()}")


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ValueError(f"command {cfg.command!r} requires --{name.replace('_', '-')}")


def _load_slides(data_dir: str):
    paths = sorted(glob.glob(os.path.join(data_dir, "*.slide")))
    if not paths:
        raise ValueError(f"no *.slide files found in {data_dir}")
    return [load_slide(p) for p in paths]


def _apply_selection(cfg: RunConfig, slides):
    if cfg.select == "all" and cfg.m_max is None:
        return slides
    m_max = cfg.m_max if cfg.m_max is not None else max(s.n_patches for s in slides)
    strategy = SelectionStrategy(_SELECT_KINDS[cfg.select], m_max)
    return [select_patches(s, strategy) for s in slides]


def _cmd_gen(cfg: RunConfig) -> int:
    _require(cfg, "out")
    syn = SyntheticConfig(
        classes=cfg.classes,
        slides_per_class=cfg.slides_per_class,
        patches_per_slide=cfg.patches_per_slide,
        dim=cfg.dim,
        signal_fraction=cfg.signal_fraction,
        noise_sigma=cfg.noise_sigma,
        grid_rows=cfg.grid_rows,
        grid_cols=cfg.grid_cols,
        seed=cfg.seed,
    )
    slides, pset = gen_synthetic(syn)
    if cfg.fine_grained_prototypes == "off":
        pset = coarse_prototypes(pset, cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    for s in slides:
        save_slide(s, os.path.join(cfg.out, f"{s.slide_id}.slide"))
    proto_path = os.path.join(cfg.out, "prototypes.jsonl")
    save_prototypes(pset, proto_path)
    print(f"wrote {len(slides)} slides and 1 prototype file to {cfg.out}")
    return 0


def _cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "data", "prototypes", "checkpoint")
    slides = _apply_selection(cfg, _load_slides(cfg.data))
    pset = normalize_prototypes(load_prototypes(cfg.prototypes))
    params, losses = train(
        slides,
        cfg.train_config(),
        pset,
        window_size=cfg.window_size,
        heads=cfg.heads,
        pos_mode=cfg.internal_pos_mode(),
        lwa_gff=cfg.lwa_gff == "on",
    )
    save_checkpoint(params, cfg.checkpoint)
    print(
        f"steps: {len(losses)} first-loss: {float(losses[0])!r} "
        f"final-loss: {float(losses[-1])!r}"
    )
    print(f"wrote checkpoint to {cfg.checkpoint}")
    return 0


def _infer_params(cfg: RunConfig, slides):
    if cfg.checkpoint:
        return load_checkpoint(
            cfg.checkpoint,
            expect_dim=cfg.dim,
            expect_window_size=cfg.window_size,
            expect_heads=cfg.heads,
        )
    grid_rows = max(s.grid_rows for s in slides)
    grid_cols = max(s.grid_cols for s in slides)
    return init_params(
        cfg.dim,
        cfg.window_size,
        cfg.heads,
        grid_rows=grid_rows,
        grid_cols=grid_cols,
        seed=cfg.seed,
        pos_mode=cfg.internal_pos_mode(),
    )


def _cmd_infer(cfg: RunConfig) -> int:
    _require(cfg, "data", "prototypes", "out")
    slides = _apply_selection(cfg, _load_slides(cfg.data))
    pset = normalize_prototypes(load_prototypes(cfg.prototypes))
    params = _infer_params(cfg, slides)
    lines = []
    for s in sorted(slides, key=lambda x: x.slide_id):
        _, pred = forward_slide(s, params, pset, lwa_gff=cfg.lwa_gff == "on")
        lines.append(
            json.dumps(
                {
                    "slide_id": s.slide_id,
                    "predicted": pred.predicted,
                    "P": [float(v) for v in pred.P],
                }
            )
        )
    with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} predictions to {cfg.out}")
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    _require(cfg, "data", "predictions")
    truth = {}
    for s in _load_slides(cfg.data):
        if s.label is None:
            raise ValueError(f"slide {s.slide_id!r} has no ground-truth label")
        truth[s.slide_id] = s.label
    by_id = {}
    n_classes = None
    with open(cfg.predictions, encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh.read().splitlines(), 1):
            if not ln.strip():
                continue
            where = f"{cfg.predictions} line {lineno}"
            try:
                obj = json.loads(ln)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: malformed prediction: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{where}: prediction is not a JSON object")
            absent = [key for key in ("slide_id", "predicted", "P") if key not in obj]
            if absent:
                raise ValueError(f"{where}: prediction lacks {', '.join(absent)}")
            sid = obj["slide_id"]
            if not isinstance(sid, str) or sid not in truth:
                raise ValueError(f"prediction for unknown slide {sid!r}")
            if sid in by_id:
                raise ValueError(f"duplicate prediction for slide {sid!r}")
            try:
                probs = np.asarray(obj["P"], dtype=np.float64)
                if n_classes is None:
                    n_classes = probs.size
                if probs.shape != (n_classes,):
                    raise ValueError(
                        f"P has shape {probs.shape}, other rows have {n_classes} entries"
                    )
                by_id[sid] = EvalRecord(sid, truth[sid], int(obj["predicted"]), probs)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"slide {sid!r}: bad prediction: {exc}") from exc
    missing = sorted(set(truth) - set(by_id))
    if missing:
        raise ValueError(f"no prediction for labeled slide(s) {', '.join(map(repr, missing))}")
    records = list(by_id.values())
    bacc = balanced_accuracy(records)
    macro, weighted = f1_scores(records)
    auroc = auroc_ovr(records)
    print(
        f'{{"bacc": {bacc:.4f}, "f1_macro": {macro:.4f}, '
        f'"f1_weighted": {weighted:.4f}, "auroc": {auroc:.4f}}}'
    )
    return 0


def _cmd_gradcheck(cfg: RunConfig) -> int:
    slides, pset, params = random_instance(
        cfg.seed,
        dim=cfg.dim,
        window_size=cfg.window_size,
        heads=cfg.heads,
        classes=cfg.classes,
        patches=cfg.patches_per_slide,
        pos_mode=cfg.internal_pos_mode(),
    )
    err = finite_diff_check(
        slides,
        params,
        pset,
        cfg.lambda_slide,
        cfg.fd_step,
        lwa_gff=cfg.lwa_gff == "on",
    )
    print(f"max-rel-error: {err!r} tolerance: {cfg.tolerance!r}")
    return 0 if err <= cfg.tolerance else 1


def _cmd_proto_dist(cfg: RunConfig) -> int:
    _require(cfg, "prototypes")
    pset = normalize_prototypes(load_prototypes(cfg.prototypes))
    print(f"{interclass_distance(pset):.6f}")
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "proto-dist": _cmd_proto_dist,
}


def dispatch(cfg: RunConfig) -> int:
    """Route a resolved config to its command; returns the exit status."""
    if cfg.command is None:
        print("error: no command given; expected one of " + ", ".join(COMMANDS), file=sys.stderr)
        return 2
    _echo(cfg)
    try:
        return _HANDLERS[cfg.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error ({cfg.command}): {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> None:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(dispatch(cfg))
