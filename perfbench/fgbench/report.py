"""Metric names and units, per-layer metrics from spans, and the environment
record attached to every result."""

import hashlib
import os
import platform
import statistics
import sys

import numpy as np
import scipy

from .tracing import Span, self_times

# (name, unit, better); the same lists appear in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("infer_slides_per_s", "1/s", "higher"),
    ("ingest_slides_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("data.save_slide.s", "s", "lower"),
    ("data.save_slide.mb_per_s", "MB/s", "higher"),
    ("data.load_slide.s", "s", "lower"),
    ("data.load_slide.mb_per_s", "MB/s", "higher"),
    ("data.slide_file.mb", "MB", "lower"),
    ("selection.select_patches.s", "s", "lower"),
    ("attention.partition.s", "s", "lower"),
    ("attention.windows", "count", "lower"),
    ("attention.window_fill", "frac", "higher"),
    ("attention.gflop", "GFLOP", "lower"),
    ("attention.gflop_per_s", "GFLOP/s", "higher"),
    ("attention.peak_frac", "frac", "higher"),
    ("training.forward_slide.s", "s", "lower"),
    ("training.forward_refine.s", "s", "lower"),
    ("training.forward_head.s", "s", "lower"),
    ("training.total_loss.calls", "count", "lower"),
    ("training.total_loss.s", "s", "lower"),
    ("training.grad_total_loss.calls", "count", "lower"),
    ("training.grad_total_loss.s", "s", "lower"),
    ("training.backward.s", "s", "lower"),
    ("training.forward_passes_per_step", "count", "lower"),
    ("training.adamw_step.s", "s", "lower"),
    ("training.train.self_s", "s", "lower"),
    ("params.save_checkpoint.s", "s", "lower"),
    ("params.load_checkpoint.s", "s", "lower"),
    ("params.checkpoint.mb", "MB", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

# Derived from sizes, not timed.
COMPUTED = {
    "data.slide_file.mb",
    "attention.windows",
    "attention.window_fill",
    "attention.gflop",
    "params.checkpoint.mb",
}

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def summary(samples: list[float]) -> dict:
    """Median of the samples, with their count and quartiles."""
    out = {"value": statistics.median(samples), "n": len(samples), "samples": samples}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        out.update(q1=q1, q3=q3)
    return out


def iteration_layer_metrics(
    spans: list[Span], slide_bytes: float, n_slides: int
) -> tuple[dict, dict]:
    """Per-layer figures of one traced iteration, and each layer's self time.

    slide_bytes: the mean slide file size. Times are totals over the iteration, except forward_slide, which
    is per infer pass over the n_slides slides; .calls are call counts.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    batch: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        calls[s.name] = calls.get(s.name, 0) + 1
        batch[s.name] = batch.get(s.name, 0) + (s.batch or 0)
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + own[s.span_id]

    def t(name):
        return total.get(name, 0.0)

    steps = calls.get("training.adamw_step", 0)
    loss_slides = batch.get("training.total_loss", 0)
    grad_slides = batch.get("training.grad_total_loss", 0)
    # grad minus loss on the same number of slides; with no loss calls every
    # second of the gradient pass counts
    fwd = t("training.total_loss") * grad_slides / loss_slides if loss_slides else 0.0
    train_self = sum(own[s.span_id] for s in spans if s.name == "training.train")
    infer_passes = calls.get("training.forward_slide", 0) / n_slides
    mb = 1e6
    out = {
        "data.save_slide.s": t("data.save_slide"),
        "data.save_slide.mb_per_s": _rate(
            calls.get("data.save_slide", 0) * slide_bytes / mb, t("data.save_slide")
        ),
        "data.load_slide.s": t("data.load_slide"),
        "data.load_slide.mb_per_s": _rate(
            calls.get("data.load_slide", 0) * slide_bytes / mb, t("data.load_slide")
        ),
        "selection.select_patches.s": t("selection.select_patches"),
        "attention.partition.s": t("attention.partition"),
        "training.forward_slide.s": _rate(t("training.forward_slide"), infer_passes),
        "training.total_loss.calls": calls.get("training.total_loss", 0),
        "training.total_loss.s": t("training.total_loss"),
        "training.grad_total_loss.calls": calls.get("training.grad_total_loss", 0),
        "training.grad_total_loss.s": t("training.grad_total_loss"),
        "training.backward.s": t("training.grad_total_loss") - fwd,
        "training.forward_passes_per_step": (loss_slides + grad_slides) / steps if steps else 0.0,
        "training.adamw_step.s": t("training.adamw_step"),
        "training.train.self_s": train_self / steps if steps else train_self,
        "params.save_checkpoint.s": t("params.save_checkpoint"),
        "params.load_checkpoint.s": t("params.load_checkpoint"),
        "cli.self_s": layer_self.get("cli", 0.0),
    }
    return out, layer_self


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for ln in fh:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def source_digest(root: str) -> str:
    """sha256 over the library sources, which identifies the code measured
    when there is no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "fgpan")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _blas_name() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        return cfg["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def environment(root: str, blas_threads: str) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas_name(),
        "blas_threads": blas_threads,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_digest": source_digest(root),
        "loop": "closed, one client, one process",
    }
