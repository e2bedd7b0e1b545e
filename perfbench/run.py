#!/usr/bin/env python3
"""Benchmark for the seizureformer package: one workload, one seed, one run.

    python3 perfbench/run.py --workload train_default --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from `src/`.  The run
sets up the workload's inputs in fresh interpreters (many times, for
`setup_s`), then runs measured passes one after another until `--seconds`
have passed, checks every output, and prints a table of metrics with units.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  A traced run alternates untraced and
traced passes; its tracing overhead is the traced pass time minus the
untraced one.
Scratch files go under `.perfbench/` and are removed at the end; the spans of
a traced run are kept there.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads; set-up children inherit this.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles the same sources
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

OUT_DIR = ROOT / ".perfbench"
SETUP_TIMEOUT_S = 120

# Pass timings take each operation at its fastest across the run's passes:
# contention from other tenants of the host only ever adds time, and medians
# over passes were not steady (see NOTES.md).  setup_s is the median of the
# workload's set-ups.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "windows_per_s": "windows/s",
    "peak_rss_mb": "MB",
}
# printed in the table only: the percentiles follow the host's speed swings,
# error_rate is 0 on a correct run, and the AUCs are checked, not timed
TABLE_ONLY_UNITS = {
    "patient_ms_p50": "ms",
    "patient_ms_p90": "ms",
    "error_rate": "ratio",
    "test_roc_auc": "-",
    "test_pr_auc": "-",
}
COUNTER_UNITS = {
    "train.steps": "count",
    "train.step_ms": "ms",
    "train.useful_epoch_ratio": "ratio",
    "data.windows": "count",
    "data.windows_kept_ratio": "ratio",
    "cli.checkpoint_bytes": "bytes",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in tracing.TRACED for kind, unit in (("ms", "ms"), ("calls", "count"))},
    **COUNTER_UNITS,
}


class SetupError(RuntimeError):
    pass


def machine_note() -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
    }


def measure_setup(w: Workload, seed: int, work_root: Path) -> tuple[list[float], Path]:
    """Set the workload up `w.setup_repeats` times, each in a fresh interpreter.

    Each time runs from process start to the end of set-up.  The inputs of the
    last set-up are the ones measured.
    """
    spec = json.dumps(dataclasses.asdict(w))
    times, target = [], None
    for k in range(w.setup_repeats):
        if target is not None:
            shutil.rmtree(target)
        target = work_root / f"setup{k}"
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child", str(target),
             "--seed", str(seed), "--spec", spec],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SetupError(proc.stderr.strip()[-2000:])
        done = json.loads(proc.stdout.strip().splitlines()[-1])["setup_done"]
        times.append(done - start)
    return times, target


def setup_child(work: Path, seed: int, spec: str) -> int:
    fields = json.loads(spec)
    fields["train_args"] = tuple(fields["train_args"])
    workloads.set_up(Workload(**fields), seed, work)
    print(json.dumps({"setup_done": time.monotonic()}))  # CLOCK_MONOTONIC is system-wide
    return 0


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the report."""
    work_root = OUT_DIR / f"work-{os.getpid()}"
    try:
        setup_times, work = measure_setup(w, seed, work_root)
        tracer = tracing.Tracer()
        passes: list[tuple[bool, list[workloads.Op]]] = []
        peak_kb = 0
        min_passes = max(w.min_passes, 2 if trace else 1)
        start = time.monotonic()
        last = 0.0
        # a pass starts only if one as long as the last still ends within --seconds
        while len(passes) < min_passes or time.monotonic() - start + last <= seconds:
            index = len(passes)
            pass_start = time.monotonic()
            traced = trace and index % 2 == 1
            if traced:
                tracer.pass_id = index
                tracer.install(tracing.OBSERVERS)
            try:
                ops = workloads.run_pass(w, work, index)
            finally:
                tracer.uninstall()
            passes.append((traced, ops))
            last = time.monotonic() - pass_start
            if index == 0:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            gc.collect()

        checker = workloads.Checker(w, seed, work)
        for _, ops in passes:
            checker.check(ops)
        report = summarize(w, passes, setup_times, peak_kb, checker)
        if trace:
            report["layers"] = layer_metrics(passes, tracer)
            tracer.write(OUT_DIR / f"trace-{w.name}-seed{seed}.jsonl", f"{w.name}-seed{seed}")
        return report
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def best_pass_seconds(passes: list[list[workloads.Op]]) -> float:
    """One pass with every operation at its fastest over ``passes``."""
    best: dict[int, float] = {}
    for ops in passes:
        for op in ops:
            best[op.patient] = min(best.get(op.patient, op.seconds), op.seconds)
    return sum(best.values())


def summarize(w, passes, setup_times, peak_kb, checker) -> dict:
    plain = [ops for traced, ops in passes if not traced]
    wall = best_pass_seconds(plain)
    op_ms = [1000.0 * op.seconds for ops in plain for op in ops]
    all_ops = [op for _, ops in passes for op in ops]
    failed = sum(not op.ok for op in all_ops)
    first = [op.result for op in passes[0][1] if op.ok]
    table = {
        "patient_ms_p50": float(np.percentile(op_ms, 50)),
        "patient_ms_p90": float(np.percentile(op_ms, 90)),
        "error_rate": failed / len(all_ops),
        "test_roc_auc": None,
        "test_pr_auc": None,
    }
    if first:
        for key in ("roc_auc", "pr_auc"):
            table[f"test_{key}"] = statistics.fmean(float(r[key]) for r in first)
    return {
        "end_to_end": {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "windows_per_s": sum(op.windows for op in plain[0]) / wall,
            "peak_rss_mb": peak_kb / 1024.0,
        },
        "table_only": table,
        "samples": {"setups": len(setup_times), "passes": len(plain), "patient_ops": len(op_ms)},
        "attempted": len(all_ops),
        "failed": failed,
        "failures": checker.failures,
        "unchecked": checker.unchecked,
    }


def layer_metrics(passes, tracer: tracing.Tracer) -> dict:
    """Per-pass means over the traced passes."""
    n = sum(traced for traced, _ in passes)
    totals = tracing.layer_totals(tracer.spans)
    out = {}
    for name in tracing.TRACED:
        self_s, calls = totals.get(name, (0.0, 0))
        out[f"{name}.ms"] = 1000.0 * self_s / n
        out[f"{name}.calls"] = calls / n
    counters = tracer.counters
    steps = totals.get("train.optimizer_step", (0.0, 0))[1]
    loop_s = totals.get("train.train_loop", (0.0, 0))[0]
    out["train.steps"] = steps / n
    out["train.step_ms"] = 1000.0 * loop_s / steps if steps else 0.0
    epochs = counters.get("train.epochs", 0)
    out["train.useful_epoch_ratio"] = counters.get("train.best_epochs", 0) / epochs if epochs else 0.0
    out["data.windows"] = counters.get("data.windows", 0) / n
    split_in = counters.get("data.split_in", 0)
    out["data.windows_kept_ratio"] = counters.get("data.split_out", 0) / split_in if split_in else 0.0
    out["cli.checkpoint_bytes"] = counters.get("cli.checkpoint_bytes", 0)
    out["trace.spans"] = len(tracer.spans) / n
    traced_wall = best_pass_seconds([ops for traced, ops in passes if traced])
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - best_pass_seconds([ops for traced, ops in passes if not traced])
    return {"values": out, "absent": list(tracer.absent)}


def render(w: Workload, seed: int, seconds: float, trace: bool, report: dict) -> tuple[list[str], dict]:
    """Human-readable lines and the final JSON object."""
    note = machine_note()
    lines = [
        f"# perfbench workload={w.name} seed={seed} seconds={seconds:g} trace={int(trace)}",
        f"# why: {w.why}",
        "# machine: " + " ".join(f"{k}={v}" for k, v in note.items()),
        "# closed loop, one operation at a time; samples: "
        + " ".join(f"{k}={v}" for k, v in report["samples"].items()),
    ]
    e2e = report["end_to_end"]
    for name, unit in END_TO_END_UNITS.items():
        lines.append(f"{name:28s} {e2e[name]:16.6f} {unit}")
    for name, unit in TABLE_ONLY_UNITS.items():
        value = report["table_only"][name]
        lines.append(f"{name:28s} {'n/a':>16s} {unit}" if value is None else f"{name:28s} {value:16.6f} {unit}")
    lines.extend(f"# check failed: {msg}" for msg in report["failures"][:20])
    lines.extend(f"# not checked: {msg}" for msg in report["unchecked"])

    if trace:
        layers = report["layers"]
        lines.append("# per-layer, per traced pass (self time; calls)")
        for name, unit in PER_LAYER_UNITS.items():
            lines.append(f"{name:28s} {layers['values'][name]:16.6f} {unit}")
        lines.extend(f"# absent from the program: {name}" for name in layers["absent"])
        metrics = {name: {"value": layers["values"][name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    return lines, result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--spec", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_child is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_child is not None:
        return setup_child(Path(args.setup_child), args.seed, args.spec)
    try:
        import seizureformer
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(seizureformer.__file__).resolve().parents:
        print(f"perfbench: seizureformer was imported from {seizureformer.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    try:
        report = run_workload(w, args.seed, args.seconds, bool(args.trace))
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    lines, result = render(w, args.seed, args.seconds, bool(args.trace), report)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
