#!/usr/bin/env python3
"""Record the test AUCs that the benchmark's checks compare against.

    python3 perfbench/record.py

Runs one pass of `train_default` and `score_cohort` for each seed in SEEDS,
as the benchmark does, and writes each operation's test (ROC AUC, PR AUC) to
`aucs.json` together with the inputs they belong to.  Re-record only when a
change is meant to alter what is learned or scored, and say so where the
change is described.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # pins BLAS threads and puts src/ on the path, as a benchmark run does
import workloads

RECORDED = ("score_cohort", "train_default")
SEEDS = range(100)


def record(name: str, seed: int) -> list[list[float]]:
    w = workloads.WORKLOADS[name]
    work = run.OUT_DIR / f"record-{name}-{seed}"
    try:
        workloads.set_up(w, seed, work)
        ops = workloads.run_pass(w, work, 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not all(op.ok for op in ops):
        sys.exit(f"{name} seed {seed}: {[op.result for op in ops]}")
    return [[float(op.result["roc_auc"]), float(op.result["pr_auc"])] for op in ops]


def main() -> int:
    entries = []
    for name in RECORDED:
        seeds = []
        for seed in SEEDS:
            aucs = record(name, seed)
            print(name, seed, aucs, flush=True)
            seeds.append(f'  "{seed}": {json.dumps(aucs)}')
        inputs = json.dumps(workloads.inputs_spec(workloads.WORKLOADS[name]))
        entries.append(f' "{name}": {{"inputs": {inputs}, "seeds": {{\n' + ",\n".join(seeds) + "\n }}")
    workloads.AUCS_PATH.write_text("{\n" + ",\n".join(entries) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
