"""The benchmark's own tests, on a tiny desk-style workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fgpan.cli  # noqa: E402
import fgpan.training  # noqa: E402
from fgbench import checks  # noqa: E402
from fgbench.report import END_TO_END, PER_LAYER  # noqa: E402
from fgbench.runner import run_reference_case, run_workload  # noqa: E402
from fgbench.workloads import WORKLOADS  # noqa: E402

TINY = dataclasses.replace(
    WORKLOADS["desk-train"],
    name="tiny",
    classes=2, slides_per_class=2, patches=12, dim=8, grid=5, m_max=10,
    iterations=8, batch_size=2, reps=2,
    reference=dict(slides_per_class=1, iterations=4),
)


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    """Slide-level P of the tiny reference case, standing in for the
    committed reference values of the real workloads."""
    ledger = checks.Ledger()
    state = run_reference_case(TINY, str(tmp_path_factory.mktemp("ref")), ledger)
    assert ledger.failed == 0, ledger.failures
    preds = checks.read_predictions(state.preds_path)
    return {sid: obj["P"] for sid, (_, obj) in preds.items()}


def _run(tmp_path, reference, trace=False, **kw):
    return run_workload(TINY, 3, 0.0, trace, str(tmp_path), reference=reference, **kw)


def _check_metrics(metrics, table):
    assert list(metrics) == [name for name, _, _ in table]
    for name, unit, _ in table:
        assert set(metrics[name]) == {"value", "unit"}
        assert metrics[name]["unit"] == unit
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name


def test_untraced_result_schema(tmp_path, tiny_reference):
    result = _run(tmp_path, tiny_reference)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    _check_metrics(result["metrics"], END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result, allow_nan=False)


def test_traced_run_reports_per_layer_metrics(tmp_path, tiny_reference):
    full = _run(tmp_path, tiny_reference, trace=True)
    result = full["result"]
    assert result["correct"] is True, full["detail"]["failures"]
    _check_metrics(result["metrics"], PER_LAYER)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["training.forward_passes_per_step"] == 2 * TINY.batch_size
    assert m["training.total_loss.calls"] == TINY.iterations
    assert m["attention.windows"] > 0 and 0 < m["attention.window_fill"] <= 1
    json.dumps(result, allow_nan=False)


def test_layer_self_times_within_end_to_end(tmp_path, tiny_reference):
    full = _run(tmp_path, tiny_reference, trace=True)
    traced = [it for it in full["detail"]["iterations"] if it["traced"]]
    e2e = sum(traced[0]["ingest_s"]) + sum(sum(v) for v in traced[0]["seconds"].values())
    layer_self = full["detail"]["layer_self_s"]
    assert {"data", "training", "attention", "params", "cli"} <= set(layer_self)
    assert all(v >= 0 for v in layer_self.values())
    assert sum(layer_self.values()) <= e2e


def test_tracing_leaves_call_sites_untouched(tmp_path, tiny_reference):
    before = (fgpan.cli.load_slide, fgpan.training.total_loss, fgpan.training.adamw_step)
    _run(tmp_path, tiny_reference, trace=True)
    after = (fgpan.cli.load_slide, fgpan.training.total_loss, fgpan.training.adamw_step)
    assert before == after


def test_injected_wrong_output_is_a_failure(tmp_path, tiny_reference):
    result = _run(tmp_path, tiny_reference, inject="predictions")["result"]
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_changed_result_fails_the_reference_check(tmp_path, tiny_reference):
    shifted = {sid: [p + 1e-6 for p in ps] for sid, ps in tiny_reference.items()}
    full = _run(tmp_path, shifted)
    assert full["result"]["failed"] == TINY.reps * len(shifted)  # every infer run
    assert all("reference" in f for f in full["detail"]["failures"])


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[key]] == list(table)


def test_committed_reference_covers_every_workload():
    for name in WORKLOADS:
        assert checks.load_reference(name), name


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
