"""Span recording around the library's public call sites.

A Tracer replaces selected module attributes (functions the library looks
up at call time, such as ``fgpan.cli.load_slide``) with wrappers that record
one span per call: name, start, end, parent. Spans stay in memory until the
run ends. Untraced runs never construct or install a Tracer.
"""

import contextlib
import importlib
import json
import time
from dataclasses import dataclass

# (module, attribute, span name). The span name's prefix before the first
# dot is the layer the call belongs to.
CALL_SITES = (
    ("fgpan.cli", "load_slide", "data.load_slide"),
    ("fgpan.cli", "load_prototypes", "data.load_prototypes"),
    ("fgpan.data", "save_slide", "data.save_slide"),
    ("fgpan.cli", "select_patches", "selection.select_patches"),
    ("fgpan.cli", "normalize_prototypes", "prototypes.normalize_prototypes"),
    ("fgpan.cli", "train", "training.train"),
    ("fgpan.cli", "forward_slide", "training.forward_slide"),
    ("fgpan.training", "total_loss", "training.total_loss"),
    ("fgpan.training", "grad_total_loss", "training.grad_total_loss"),
    ("fgpan.training", "adamw_step", "training.adamw_step"),
    ("fgpan.training", "partition_coords", "attention.partition"),
    ("fgpan.training", "init_params", "params.init_params"),
    ("fgpan.cli", "init_params", "params.init_params"),
    ("fgpan.cli", "save_checkpoint", "params.save_checkpoint"),
    ("fgpan.cli", "load_checkpoint", "params.load_checkpoint"),
    ("fgpan.cli", "balanced_accuracy", "metrics.balanced_accuracy"),
    ("fgpan.cli", "f1_scores", "metrics.f1_scores"),
    ("fgpan.cli", "auroc_ovr", "metrics.auroc_ovr"),
)


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    # size of the first list argument (a batch of slides), when there is one
    batch: int | None = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, batch: int | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), parent, name, time.perf_counter_ns(), batch=batch)
        self.spans.append(rec)
        self._stack.append(rec.span_id)
        try:
            yield rec
        finally:
            rec.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            batch = len(args[0]) if args and isinstance(args[0], list) else None
            with self.span(name, batch):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, sites=CALL_SITES) -> None:
        for mod_name, attr, name in sites:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.span_id,
                            "parent": s.parent,
                            "name": s.name,
                            "start_ns": s.start_ns,
                            "end_ns": s.end_ns,
                            "batch": s.batch,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover, in s."""
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + (s.end_ns - s.start_ns)
    return {
        s.span_id: (s.end_ns - s.start_ns - child_ns.get(s.span_id, 0)) / 1e9
        for s in spans
    }

