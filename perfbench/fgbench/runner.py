"""One benchmark run: set-up, reference case, timed loop, checks, report.

Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
(--trace 1) alternate untraced and traced iterations, starting untraced, so
the tracing overhead is measured in the same process between warm
iterations, and report the per-layer metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np

from fgpan.params import load_checkpoint
from fgpan.prototypes import normalize_prototypes
from fgpan.training import forward_slide

from . import checks
from .report import (
    COMPUTED,
    END_TO_END,
    PER_LAYER,
    UNITS,
    environment,
    iteration_layer_metrics,
    summary,
)
from .tracing import Tracer
from .workloads import (
    WORKLOADS,
    Workload,
    attention_gflop,
    commands,
    ingest,
    infer_view,
    matmul_gflop_per_s,
    run_command,
    setup,
    window_fill,
    window_sizes,
)

# set-up runs SETUPS times before the timed loop, and again after each
# untraced iteration until SETUP_PER_ITERATION_S have been spent there, so
# its samples are many and spread over the run like the others
SETUPS = 2
SETUP_PER_ITERATION_S = 0.25
# two iterations at least, so every output is written twice and the repeat
# is checked byte for byte against the first
MIN_ITERATIONS = 2
HEAD_PROBE_REPS = 3


@dataclass
class Iteration:
    traced: bool
    ingest_s: list  # wall seconds of each ingest repeat
    seconds: dict  # command name -> wall seconds of each run
    span_range: tuple[int, int] | None = None

    @property
    def e2e_s(self) -> float:
        return sum(self.ingest_s) + sum(sum(v) for v in self.seconds.values())


def run_iteration(state, ledger, baseline: dict, tracer=None, *, reference=None,
                  inject=None) -> Iteration:
    """The workload's repeats, each checked right after it ran (outside its
    timed region). Each repeat ingests, then infers; train runs once, after
    the first ingest, and eval once, after the last infer, so the samples of
    one iteration spread over it.

    baseline: digests from the first run of each output, filled as they
    appear; every later run must reproduce them byte for byte. reference:
    committed slide-level P per slide id (None: not checked). inject:
    "predictions" corrupts the predictions file before it is checked.
    """
    reps = state.spec.reps
    it = Iteration(tracer is not None, [], {})
    first_span = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    try:
        once = {"train": 0, "eval": reps - 1}  # command -> the repeat it runs in
        for rep in range(reps):
            seconds, errors = ingest(state, tracer)
            it.ingest_s.append(seconds)
            _check_ingest(state, ledger, baseline, errors)
            for name, argv in commands(state):
                if once.get(name, rep) != rep:
                    continue
                run = run_command(name, argv, tracer)
                it.seconds.setdefault(name, []).append(run.seconds)
                if name == "infer" and inject == "predictions":
                    _corrupt_predictions(state.preds_path)
                _CHECKS[name](state, ledger, baseline, run, reference)
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        it.span_range = (first_span, len(tracer.spans))
    return it


def _corrupt_predictions(path) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    obj = json.loads(lines[0])
    obj["P"][0] += 0.5
    lines[0] = json.dumps(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _same_as_first(baseline: dict, key: str, value, what: str) -> list[str]:
    if key not in baseline:
        baseline[key] = value
        return []
    return [] if baseline[key] == value else [f"{what} differs from its first run"]


def _check_ingest(state, ledger, baseline, errors) -> None:
    for rec, err in zip(state.slides, errors):
        path = state.slide_path(rec)
        key = "slide:" + rec.slide_id
        if err:
            problems = [err]
        elif key not in baseline:
            problems = checks.slide_roundtrip_problems(rec, path)
            baseline[key] = checks.file_digest(path)
        else:
            problems = _same_as_first(baseline, key, checks.file_digest(path), "slide file")
        ledger.op(f"ingest {rec.slide_id}", problems)


def _check_train(state, ledger, baseline, run, reference) -> None:
    problems = checks.command_problems(run)
    if not problems:
        problems += checks.loss_problems(run.stdout)
        if "checkpoint" not in baseline:
            problems += checks.checkpoint_roundtrip_problems(
                state.trained_path, state.trained_path + ".roundtrip"
            )
        problems += _same_as_first(
            baseline, "checkpoint", checks.file_digest(state.trained_path), "checkpoint"
        )
    ledger.op("train", problems)


def _check_infer(state, ledger, baseline, run, reference) -> None:
    cmd_problems = checks.command_problems(run)
    preds = checks.read_predictions(state.preds_path) if not cmd_problems else {}
    for rec in state.slides:
        entry = preds.get(rec.slide_id)
        problems = cmd_problems + checks.prediction_problems(entry, state.pset.n_classes)
        if entry is not None:
            problems += _same_as_first(baseline, "pred:" + rec.slide_id, entry[0], "prediction")
        if reference is not None:
            problems += checks.reference_problems(entry, reference.get(rec.slide_id))
        ledger.op(f"predict {rec.slide_id}", problems)


def _check_eval(state, ledger, baseline, run, reference) -> None:
    problems = checks.command_problems(run)
    if not problems:
        problems += checks.bacc_problems(run.stdout, state.spec.min_bacc)
    ledger.op("eval", problems)


_CHECKS = {"train": _check_train, "infer": _check_infer, "eval": _check_eval}


def run_reference_case(spec: Workload, workdir: str, ledger, reference=None):
    """The workload at reduced size on a fixed seed, checked against the
    committed slide-level P. Returns its state."""
    state = setup(spec.reference_case(), checks.REFERENCE_SEED,
                  os.path.join(workdir, "reference"))
    run_iteration(state, ledger, {}, reference=reference)
    return state


def _head_probe(state) -> tuple[float, list]:
    """forward_slide with the refinement stage off, over the slides infer
    sees: (median seconds over the slide set, those slides)."""
    slides = infer_view(state)
    params = load_checkpoint(state.trained_path)
    pset = normalize_prototypes(state.pset)
    times = []
    for _ in range(HEAD_PROBE_REPS):
        t0 = time.perf_counter()
        for s in slides:
            forward_slide(s, params, pset, lwa_gff=False)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), slides


def layer_report(state, tracer, iterations) -> tuple[dict, dict]:
    """Per-layer metrics (median over traced iterations), and the extra
    figures behind them: each layer's self time in the first traced
    iteration and the plain matmul rate."""
    spec = state.spec
    slide_bytes = float(np.mean([os.path.getsize(state.slide_path(r)) for r in state.slides]))
    per_iter = []
    layer_self = None
    for it in iterations:
        if not it.traced:
            continue
        lo, hi = it.span_range
        metrics, own = iteration_layer_metrics(tracer.spans[lo:hi], slide_bytes, len(state.slides))
        per_iter.append(metrics)
        if layer_self is None:
            layer_self = own
    values = {name: statistics.median(m[name] for m in per_iter) for name in per_iter[0]}

    head_s, slides = _head_probe(state)
    sizes_w = window_sizes(slides, spec.window_size)
    gflop = attention_gflop(sizes_w, spec.dim, spec.heads)
    refine_s = values["training.forward_slide.s"] - head_s
    peak = matmul_gflop_per_s()
    gflop_per_s = gflop / refine_s if refine_s > 0 else 0.0
    # the first iteration runs cold, so the overhead compares warm ones only
    traced = [it.e2e_s for it in iterations[1:] if it.traced]
    plain = [it.e2e_s for it in iterations[1:] if not it.traced]
    values.update({
        "data.slide_file.mb": slide_bytes / 1e6,
        "attention.windows": len(sizes_w),
        "attention.window_fill": window_fill(sizes_w, spec.window_size),
        "attention.gflop": gflop,
        "attention.gflop_per_s": gflop_per_s,
        "attention.peak_frac": gflop_per_s / peak,
        "training.forward_refine.s": refine_s,
        "training.forward_head.s": head_s,
        "params.checkpoint.mb": os.path.getsize(state.trained_path) / 1e6,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
    })
    return values, {"layer_self_s": layer_self, "matmul_gflop_per_s": peak}


def run_workload(spec: Workload, seed: int, seconds: float, trace: bool, workdir: str,
                 *, inject=None, reference=None) -> dict:
    """Run one workload; returns the full result (the printed line is its
    'result' entry). reference: slide-level P of the reference case
    (default: the committed values)."""
    ledger = checks.Ledger()
    setup_times = []

    def timed_setup(root):
        t0 = time.perf_counter()
        state = setup(spec, seed, os.path.join(workdir, root))
        setup_times.append(time.perf_counter() - t0)
        return state

    # a traced run does not report setup_s
    state = timed_setup("main")
    for _ in range(SETUPS - 1 if not trace else 0):
        timed_setup("setup")

    if reference is None:
        reference = checks.load_reference(spec.name) or {}
    run_reference_case(spec, workdir, ledger, reference=reference)

    tracer = Tracer() if trace else None
    iterations: list[Iteration] = []
    baseline: dict = {}
    t_start = time.perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 1
        iterations.append(
            run_iteration(state, ledger, baseline, tracer if traced else None,
                          inject=inject if not iterations else None)
        )
        if not trace:
            spent = 0.0
            while spent < SETUP_PER_ITERATION_S:
                timed_setup("setup")
                spent += setup_times[-1]
        enough = MIN_ITERATIONS + (1 if trace else 0)
        if len(iterations) >= enough and time.perf_counter() - t_start >= seconds:
            break
    measured_s = time.perf_counter() - t_start

    plain = [it for it in iterations if not it.traced]
    n = len(state.slides)
    e2e = {
        "setup_s": summary(setup_times),
        "train_s": summary([t for it in plain for t in it.seconds["train"]]),
        "infer_slides_per_s": summary([n / t for it in plain for t in it.seconds["infer"]]),
        "ingest_slides_per_s": summary([n / t for it in plain for t in it.ingest_s]),
        "peak_rss_mb": summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]),
    }
    detail = {
        "workload": asdict(spec),
        "seed": seed,
        "seconds": seconds,
        "measured_s": measured_s,
        "iterations": [asdict(it) for it in iterations],
        "end_to_end": e2e,
        "failed_frac": ledger.failed / ledger.attempted,
        "failures": ledger.failures,
    }
    if trace:
        values, extra = layer_report(state, tracer, iterations)
        detail["per_layer"] = {
            name: {"value": values[name], "unit": unit,
                   "kind": "computed" if name in COMPUTED else "measured"}
            for name, unit, _ in PER_LAYER
        }
        detail.update(extra)
        chosen = {name: values[name] for name, _, _ in PER_LAYER}
    else:
        chosen = {name: e2e[name]["value"] for name, _, _ in END_TO_END}
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in chosen.items()},
    }
    return {"result": result, "detail": detail, "tracer": tracer}


def main(argv, root: str, blas_threads: str) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = os.path.join(root, ".perfbench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(out_dir, "work", f"{tag}-{os.getpid()}")
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    try:
        full = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = full["detail"]
    detail["env"] = environment(root, blas_threads)
    if full["tracer"] is not None:
        spans_path = os.path.join(results_dir, tag + ".spans.jsonl")
        full["tracer"].write_jsonl(spans_path)
        detail["spans_file"] = os.path.relpath(spans_path, root)
    with open(os.path.join(results_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"result": full["result"], "detail": detail}, fh, indent=1)
    print("detail: " + json.dumps(detail))
    print(json.dumps(full["result"]))
    return 0
