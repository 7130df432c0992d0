"""Regenerate fgbench/reference.json: the slide-level P of each workload's
fixed-seed reference case at the current library version.

    python3 perfbench/make_reference.py

Only run this when a change to the library is meant to change results, and
say so in the change's description.
"""

import json
import os
import shutil
import sys
import tempfile

import run


def main() -> int:
    if run.bootstrap() is None:
        return 2
    from fgbench import checks
    from fgbench.runner import run_reference_case
    from fgbench.workloads import WORKLOADS

    out = {}
    out_dir = os.path.join(run.ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_dir)
    try:
        for name, spec in WORKLOADS.items():
            ledger = checks.Ledger()
            state = run_reference_case(spec, os.path.join(workdir, name), ledger)
            if ledger.failed:
                print(f"{name}: reference case failed: {ledger.failures}", file=sys.stderr)
                return 1
            preds = checks.read_predictions(state.preds_path)
            out[name] = {sid: obj["P"] for sid, (_, obj) in sorted(preds.items())}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
