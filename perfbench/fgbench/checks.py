"""Correctness checks on what the workload's commands wrote.

An operation is one slide ingested, one slide predicted, one ``train`` or one
``eval`` command. Each check that fails marks its operation failed; the
ledger counts attempted and failed operations and keeps the reasons.
"""

import hashlib
import json
import math
import os
import re

import numpy as np

from fgpan.data import load_slide
from fgpan.params import load_checkpoint, save_checkpoint

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")
REFERENCE_SEED = 1
# |P - P_ref| bound: far above the drift of reordered float64 sums through a
# short training run, far below any change to what the pipeline computes.
REFERENCE_ATOL = 1e-8
SUM_TOL = 1e-9

# the train command prints each loss with repr(), which numpy wraps as np.float64(x)
_LOSSES = re.compile(
    r"first-loss: (?:np\.float64\()?([^\s()]+)\)? final-loss: (?:np\.float64\()?([^\s()]+)"
)
_BACC = re.compile(r'"bacc": ([0-9.eE+-]+|nan)')


class Ledger:
    """Attempted/failed operation counts and the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(problems))


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def command_problems(run) -> list[str]:
    if run.code == 0:
        return []
    return [f"{run.name} exited with {run.code}: {run.stderr.strip()[-300:]}"]


def slide_roundtrip_problems(rec, path) -> list[str]:
    """The file must load back to exactly the record that was written."""
    try:
        back = load_slide(path)
    except (ValueError, OSError) as exc:
        return [f"reload failed: {exc}"]
    same = (
        back.slide_id == rec.slide_id
        and back.label == rec.label
        and (back.grid_rows, back.grid_cols) == (rec.grid_rows, rec.grid_cols)
        and np.array_equal(back.coords(), rec.coords())
        and np.array_equal(back.matrix(), rec.matrix())
    )
    return [] if same else ["slide file does not round-trip exactly"]


def checkpoint_roundtrip_problems(path, scratch_path) -> list[str]:
    """Load then save must reproduce the checkpoint byte for byte."""
    try:
        params = load_checkpoint(path)
        if not np.all(np.isfinite(params.flatten())):
            return ["checkpoint holds non-finite values"]
        save_checkpoint(params, scratch_path)
    except (ValueError, OSError) as exc:
        return [f"checkpoint reload failed: {exc}"]
    same = file_digest(path) == file_digest(scratch_path)
    os.remove(scratch_path)
    return [] if same else ["checkpoint does not round-trip exactly"]


def loss_problems(stdout: str) -> list[str]:
    m = _LOSSES.search(stdout)
    if not m:
        return ["train printed no losses"]
    first, final = float(m.group(1)), float(m.group(2))
    if not (math.isfinite(first) and math.isfinite(final)):
        return [f"non-finite loss (first {first}, final {final})"]
    if not final < first:
        return [f"final loss {final!r} not below first loss {first!r}"]
    return []


def bacc_problems(stdout: str, floor: float) -> list[str]:
    m = _BACC.search(stdout)
    if not m:
        return ["eval printed no balanced accuracy"]
    bacc = float(m.group(1))
    return [] if bacc >= floor else [f"balanced accuracy {bacc} below {floor}"]


def read_predictions(path) -> dict[str, tuple[str, dict]]:
    """slide_id -> (raw line, parsed object); missing file reads as empty."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError:
        return {}
    out = {}
    for ln in lines:
        try:
            obj = json.loads(ln)
            out[obj["slide_id"]] = (ln, obj)
        except (json.JSONDecodeError, KeyError, TypeError):
            continue
    return out


def prediction_problems(entry, n_classes: int) -> list[str]:
    """P must be a finite distribution over the classes, argmax = predicted."""
    if entry is None:
        return ["no prediction written"]
    _, obj = entry
    p = np.asarray(obj.get("P", []), dtype=np.float64)
    if p.shape != (n_classes,):
        return [f"P has shape {p.shape}, expected ({n_classes},)"]
    if not np.all(np.isfinite(p)):
        return ["P is not finite"]
    if abs(p.sum() - 1.0) > SUM_TOL or p.min() < 0.0:
        return [f"P is not a distribution (sum {p.sum()!r})"]
    if obj.get("predicted") != int(np.argmax(p)):
        return ["predicted label is not the argmax of P"]
    return []


def load_reference(name: str) -> dict[str, list[float]] | None:
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            return json.load(fh).get(name)
    except (OSError, json.JSONDecodeError):
        return None


def reference_problems(entry, expected) -> list[str]:
    if expected is None:
        return ["no committed reference P"]
    if entry is None:
        return ["no prediction written"]
    got = np.asarray(entry[1].get("P", []), dtype=np.float64)
    want = np.asarray(expected, dtype=np.float64)
    if got.shape != want.shape:
        return [f"P has shape {got.shape}, reference {want.shape}"]
    err = float(np.max(np.abs(got - want)))
    return [] if err <= REFERENCE_ATOL else [f"P differs from the reference by {err:.3g}"]
