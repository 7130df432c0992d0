"""Command-line surface: gen, train, infer, eval, gradcheck, proto-dist.

Flag precedence: command-line flags override config-file values, which
override built-in defaults. Every run echoes its resolved config, seed, and
a config digest for provenance. The seed falls back to the FGPAN_SEED
environment variable when --seed is absent.

RunConfig and the command table _COMMANDS declare the whole surface. Each
field but `command` is a flag --name-with-dashes, typed by its annotation
and limited to the values _CHOICES gives it, and a config-file key under
the same checks.

infer runs its slides, sorted by slide_id, through forward_slides, so small
slides share stacks and the refinement products are formed once per run.

Run it as `fgpan`, `python -m fgpan` or `python -m fgpan.cli`.
"""

import argparse
import glob
import hashlib
import inspect
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import get_args

from .data import (
    SyntheticConfig,
    _header_fields,
    _json_object,
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
from .rowtext import atomic_text, read_files
from .selection import SelectionStrategy, select_patches
from .training import (
    TrainConfig,
    desk_profile,
    finite_diff_check,
    forward_slide,
    forward_slides,
    paper_profile,
    random_instance,
    train,
)

__all__ = ["RunConfig", "parse_config", "dispatch", "main"]


def _default(func, name: str):
    return inspect.signature(func).parameters[name].default


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


_ON_OFF = {"on": True, "off": False}
# the values each choice field takes on the command line, mapped to what the
# library takes for them
_CHOICES = {
    "select": {"all": "all", "fps": "fps_embedding", "topk": "topk_norm"},
    "pos_mode": {"sin": "sinusoidal", "table": "learned_table"},
    "lwa_gff": _ON_OFF,
    "fine_grained_prototypes": _ON_OFF,
    "profile": {"desk": desk_profile, "paper": paper_profile},
}


@dataclass
class RunConfig:
    """Resolved settings for one CLI run."""

    command: str | None = None
    seed: int = 0  # first field, so --seed leads every command's help
    # paths
    data: str | None = None
    prototypes: str | None = None
    checkpoint: str | None = None
    out: str | None = None
    predictions: str | None = None
    # model dims
    dim: int = 16
    window_size: int = _default(train, "window_size")
    heads: int = _default(train, "heads")
    # strategy flags
    select: str = "all"
    m_max: int | None = None
    pos_mode: str = "sin"
    lambda_slide: float = TrainConfig.lambda_slide
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
    signal_fraction: float = SyntheticConfig.signal_fraction
    noise_sigma: float = SyntheticConfig.noise_sigma
    grid_rows: int = SyntheticConfig.grid_rows
    grid_cols: int = SyntheticConfig.grid_cols
    # gradient check
    tolerance: float = 1e-5
    fd_step: float = _default(finite_diff_check, "step")

    def train_config(self) -> TrainConfig:
        overrides = {
            key: getattr(self, key)
            for key in ("learning_rate", "weight_decay", "batch_size", "iterations")
            if getattr(self, key) is not None
        }
        return self.choice("profile")(lambda_slide=self.lambda_slide, seed=self.seed, **overrides)

    def choice(self, name: str):
        """What the library takes for the value of choice field `name`."""
        return _CHOICES[name][getattr(self, name)]

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


# each field's types: (int,) for `int`, (int, NoneType) for `int | None`
_TYPES = {f.name: get_args(f.type) or (f.type,) for f in fields(RunConfig) if f.name != "command"}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", type(None): "null"}


def _bad_value(where: str, name: str, value) -> ValueError:
    expected = " or ".join(_TYPE_NAMES[t] for t in _TYPES[name])
    return ValueError(f"{where}: {name} must be {expected}, got {value!r}")


def _read_config(path: str) -> dict:
    """A config file's values, each checked against its field: a bool is
    never a number, an int stands for a float (and is read as one), null
    only for `... | None`."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    where = f"config file {path}"
    values = _json_object(text, where, "config")
    for name, value in values.items():
        if name == "command":
            raise ValueError("the command cannot be set from a config file")
        if name not in _TYPES:
            raise ValueError(f"unknown config file key {name!r}")
        types = _TYPES[name] + ((int,) if float in _TYPES[name] else ())
        if isinstance(value, bool) or not isinstance(value, types):
            raise _bad_value(where, name, value)
        if name in _CHOICES and value not in _CHOICES[name]:
            raise ValueError(
                f"{where}: {name} must be one of {', '.join(_CHOICES[name])}, got {value!r}"
            )
        if float in _TYPES[name] and value is not None:  # read as its flag reads it
            values[name] = float(value)
    return values


def _build_parser() -> argparse.ArgumentParser:
    """One flag per field: each command's own options (_COMMANDS), and every
    field no command lists, on all of them."""

    def add_flags(group, names):
        for name in names:
            group.add_argument(_flag(name), type=_TYPES[name][0],
                               choices=_CHOICES.get(name))

    listed = {name for _, _, options in _COMMANDS.values() for name in options}
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("common")
    group.add_argument("--config", type=str, help="JSON config file")
    add_flags(group, [name for name in _TYPES if name not in listed])

    parser = argparse.ArgumentParser(
        prog="fgpan",
        description="Zero-shot whole-slide classification over patch embeddings.",
    )
    sub = parser.add_subparsers(dest="command")
    for command, (_, help_line, options) in _COMMANDS.items():
        add_flags(sub.add_parser(command, parents=[common], help=help_line), options)
    return parser


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve a RunConfig: CLI flags over config-file values over defaults."""
    ns = _build_parser().parse_args(argv)
    provided = {k: v for k, v in vars(ns).items() if v is not None and k != "config"}

    config_path = getattr(ns, "config", None)
    merged = _read_config(config_path) if config_path else {}
    merged.update(provided)

    # gradcheck defaults to random_instance's small instance
    if ns.command == "gradcheck":
        for key, param in (("dim", "dim"), ("classes", "classes"), ("patches_per_slide", "patches")):
            merged.setdefault(key, _default(random_instance, param))

    env_seed = os.environ.get("FGPAN_SEED")
    if "seed" not in merged and env_seed is not None:
        try:
            merged["seed"] = int(env_seed)
        except ValueError:
            raise _bad_value("FGPAN_SEED", "seed", env_seed) from None

    cfg = RunConfig(**merged)
    if cfg.dim < 1 or cfg.window_size < 1 or cfg.heads < 1:
        raise ValueError("model dims must be positive")
    return cfg


def _echo(cfg: RunConfig) -> None:
    print(f"config: {json.dumps(asdict(cfg), sort_keys=True)}")
    print(f"seed: {cfg.seed} config-digest: {cfg.digest()}")


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ValueError(f"command {cfg.command!r} requires {_flag(name)}")


def _load_slides(data_dir: str, *extra: tuple) -> tuple[list, list]:
    """The slides under data_dir in sorted path order, read in one batch
    with the extra reads (fgpan.rowtext.read_files), whose results are
    returned as callables that give each one or raise its error. Two files
    that declare one slide_id are refused by name."""
    paths = sorted(glob.glob(os.path.join(data_dir, "*.slide")))
    if not paths:
        raise ValueError(f"no *.slide files found in {data_dir}")
    results = read_files([("slide", partial(load_slide, p)) for p in paths] + list(extra))
    slides, owners = [result() for result in results[: len(paths)]], {}
    for path, s in zip(paths, slides):
        owner = owners.setdefault(s.slide_id, path)
        if owner != path:
            raise ValueError(f"{owner} and {path} both declare slide_id {s.slide_id!r}")
    return slides, results[len(paths) :]


def _apply_selection(cfg: RunConfig, slides):
    if cfg.select == "all" and cfg.m_max is None:
        return slides
    m_max = cfg.m_max if cfg.m_max is not None else max(s.n_patches for s in slides)
    strategy = SelectionStrategy(cfg.choice("select"), m_max)
    return [select_patches(s, strategy) for s in slides]


def _cmd_gen(cfg: RunConfig) -> int:
    _require(cfg, "out")
    # each generator setting the CLI offers is the RunConfig field of its name
    syn = {f.name: getattr(cfg, f.name) for f in fields(SyntheticConfig) if f.name in _TYPES}
    slides, pset = gen_synthetic(SyntheticConfig(**syn))
    if not cfg.choice("fine_grained_prototypes"):
        pset = coarse_prototypes(pset, cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    for s in slides:
        save_slide(s, os.path.join(cfg.out, f"{s.slide_id}.slide"))
    proto_path = os.path.join(cfg.out, "prototypes.jsonl")
    save_prototypes(pset, proto_path)
    print(f"wrote {len(slides)} slides and 1 prototype file to {cfg.out}")
    return 0


def _check_model(cfg: RunConfig, where: str, **model) -> None:
    """Refuse a model setting (dim, window_size, heads, pos_mode) that
    differs from the run's flag of that name."""
    for key, value in model.items():
        want = cfg.choice(key) if key in _CHOICES else getattr(cfg, key)
        if value != want:
            raise ValueError(f"{where} {key}={value}, run expects {want}")


def _cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "data", "prototypes", "checkpoint")
    slides = _apply_selection(cfg, _load_slides(cfg.data)[0])
    for s in slides:
        _check_model(cfg, f"slide {s.slide_id!r}", dim=s.dim)
    pset = normalize_prototypes(load_prototypes(cfg.prototypes))
    params, losses = train(
        slides,
        cfg.train_config(),
        pset,
        window_size=cfg.window_size,
        heads=cfg.heads,
        pos_mode=cfg.choice("pos_mode"),
        lwa_gff=cfg.choice("lwa_gff"),
    )
    save_checkpoint(params, cfg.checkpoint)
    steps = f"steps: {len(losses)}"
    if losses:  # --iterations 0 writes the initial parameters and no loss
        steps += f" first-loss: {float(losses[0])!r} final-loss: {float(losses[-1])!r}"
    print(steps)
    print(f"wrote checkpoint to {cfg.checkpoint}")
    return 0


def _infer_params(cfg: RunConfig, slides, checkpoint):
    """The checkpoint's parameters, taken from the batch that read it with
    the slides and refused if the run's flags name another model, or fresh
    ones without a checkpoint."""
    if checkpoint:
        params = checkpoint[0]()
        keys = ("dim", "window_size", "heads", "pos_mode")
        _check_model(cfg, f"{cfg.checkpoint}: checkpoint", **{k: params.dims[k] for k in keys})
        return params
    print(f"note: no --checkpoint; using fresh-init parameters (seed {cfg.seed})",
          file=sys.stderr)
    grid_rows = max(s.grid_rows for s in slides)
    grid_cols = max(s.grid_cols for s in slides)
    return init_params(
        cfg.dim,
        cfg.window_size,
        cfg.heads,
        grid_rows=grid_rows,
        grid_cols=grid_cols,
        seed=cfg.seed,
        pos_mode=cfg.choice("pos_mode"),
    )


def _predict(slides, params, pset, lwa_gff: bool) -> list:
    """forward_slides over the slides, in stacks. When that raises, the
    slides run again one at a time, so the error names the first slide
    that fails on its own, as it does in a per-slide loop."""
    try:
        return forward_slides(slides, params, pset, lwa_gff=lwa_gff)
    except ValueError:
        pass
    out = []
    for s in slides:
        try:
            out.append(forward_slide(s, params, pset, lwa_gff=lwa_gff))
        except ValueError as exc:
            raise ValueError(f"slide {s.slide_id!r}: {exc}") from exc
    return out


def _cmd_infer(cfg: RunConfig) -> int:
    _require(cfg, "data", "prototypes", "out")
    extra = []
    if cfg.checkpoint:  # read in the slides' batch, taken in _infer_params
        extra.append(("checkpoint", partial(load_checkpoint, cfg.checkpoint)))
    slides, checkpoint = _load_slides(cfg.data, *extra)
    slides = _apply_selection(cfg, slides)
    pset = normalize_prototypes(load_prototypes(cfg.prototypes))
    params = _infer_params(cfg, slides, checkpoint)
    slides = sorted(slides, key=lambda x: x.slide_id)
    lines = []
    for s, (_, pred) in zip(slides, _predict(slides, params, pset, cfg.choice("lwa_gff"))):
        lines.append(
            json.dumps(
                {
                    "slide_id": s.slide_id,
                    "predicted": pred.predicted,
                    "P": [float(v) for v in pred.P],
                }
            )
        )
    with atomic_text(cfg.out) as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} predictions to {cfg.out}")
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    _require(cfg, "data", "predictions")
    truth = {}
    for s in _load_slides(cfg.data)[0]:
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
            sid, predicted, probs = _header_fields(
                _json_object(ln, where, "prediction"), where, "prediction",
                slide_id="str", predicted="int", P="vector",
            )
            if sid not in truth:
                raise ValueError(f"prediction for unknown slide {sid!r}")
            if sid in by_id:
                raise ValueError(f"duplicate prediction for slide {sid!r}")
            try:
                if n_classes is None:
                    n_classes = len(probs)
                if len(probs) != n_classes:
                    raise ValueError(
                        f"P has shape ({len(probs)},), other rows have {n_classes} entries"
                    )
                by_id[sid] = EvalRecord(sid, truth[sid], predicted, probs)
            except ValueError as exc:
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
        pos_mode=cfg.choice("pos_mode"),
    )
    report = finite_diff_check(
        slides,
        params,
        pset,
        cfg.lambda_slide,
        cfg.fd_step,
        lwa_gff=cfg.choice("lwa_gff"),
    )
    err = max(report.values())
    print(f"max-rel-error: {err!r} tolerance: {cfg.tolerance!r}")
    return 0 if err <= cfg.tolerance else 1


def _cmd_proto_dist(cfg: RunConfig) -> int:
    _require(cfg, "prototypes")
    pset = normalize_prototypes(load_prototypes(cfg.prototypes))
    print(f"{interclass_distance(pset):.6f}")
    return 0


# command: (handler, help line, the fields it takes beyond the common ones);
# a field that no command lists is common to all of them
_COMMANDS = {
    "gen": (_cmd_gen, "generate a synthetic corpus",
            ("out", "classes", "slides_per_class", "patches_per_slide", "signal_fraction",
             "noise_sigma", "grid_rows", "grid_cols")),
    "train": (_cmd_train, "train on labeled slides", ("data", "prototypes", "checkpoint")),
    "infer": (_cmd_infer, "predict slide labels", ("data", "prototypes", "checkpoint", "out")),
    "eval": (_cmd_eval, "score predictions", ("data", "predictions")),
    "gradcheck": (_cmd_gradcheck, "verify gradients",
                  ("classes", "patches_per_slide", "tolerance", "fd_step")),
    "proto-dist": (_cmd_proto_dist, "print the inter-class distance", ("prototypes",)),
}


def dispatch(cfg: RunConfig) -> int:
    """Route a resolved config to its command; returns the exit status."""
    if cfg.command is None:
        print("error: no command given; expected one of " + ", ".join(_COMMANDS), file=sys.stderr)
        return 2
    _echo(cfg)
    try:
        return _COMMANDS[cfg.command][0](cfg)
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


if __name__ == "__main__":
    main()
