"""Command-line entry point: synthesize cohorts, train and evaluate models,
run the benchmark matrix, verify gradients, and export plot data.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure.  Every training/evaluation command writes a flat key=value manifest
(config echo, seed, input hash, metrics) from which the run can be replayed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, baselines, gradcheck, kv, metrics, synth
from .data import (
    DEFAULT_HORIZONS,
    DEFAULT_LABEL_FRACTION,
    DEFAULT_LABEL_WINDOW,
    DEFAULT_MIN_HISTORY,
    DataError,
    PatientSeries,
    WindowSet,
    label_days,
    make_windows,
    parse_csv,
    split_chronological,
    write_csv,
    zscore_normalize,
)
from .model import PIPELINE_KEYS, ModelConfig, SeizureFormer, model_from_checkpoint, save_checkpoint
from .tensor import BLAS_THREADS
from .kv import write_manifest
from .train import TrainConfig, evaluate, train_loop

ABLATIONS = {
    "cnn": {"use_cnn_embed": False},
    "cvt": {"use_cvt": False},
    "se": {"use_se": False},
    "all": {"use_cnn_embed": False, "use_cvt": False, "use_se": False},
}

BENCHMARK_MODELS = (
    "seizureformer",
    "seizureformer-no-cnn",
    "seizureformer-no-se",
    "seizureformer-no-cvt",
    "seizureformer-no-all",
    "logistic",
    "poisson",
    "dlinear",
)


@dataclass
class RunConfig:
    """Model, training, and pipeline settings merged into one flat key space."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    label_window: int = DEFAULT_LABEL_WINDOW
    label_fraction: float = DEFAULT_LABEL_FRACTION
    min_history: int = DEFAULT_MIN_HISTORY
    horizons: tuple[int, ...] = DEFAULT_HORIZONS


def _flat_keys(cfg: RunConfig) -> dict[str, tuple[object, type]]:
    """Every config key -> (the dataclass instance that holds it, its type)."""
    keys = {}
    for owner in (cfg.model, cfg.train, cfg):
        for name, kind in kv.field_types(type(owner)).items():
            if not dataclasses.is_dataclass(kind):
                keys[name] = (owner, kind)
    return keys


def load_run_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Defaults, then key=value lines from ``path``, then --set overrides.

    Unknown keys are rejected; '#' starts a comment.
    """
    entries = []
    if path:
        for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
            if text := line.split("#", 1)[0].strip():
                entries.append((f"{path}:{n}", text))
    entries += [("--set", item) for item in overrides or []]

    cfg = RunConfig()
    keys = _flat_keys(cfg)
    for where, text in entries:
        key, sep, raw = text.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"{where}: expected key=value, got {text!r}")
        if key not in keys:
            raise ValueError(f"{where}: unknown config key {key!r}")
        owner, kind = keys[key]
        setattr(owner, key, kv.parse_value(key, raw, kind))
    cfg.model.validate()
    cfg.train.validate()
    for key in ("label_window", "label_fraction", "min_history"):  # the parser takes finite floats only
        if getattr(cfg, key) <= 0:
            raise ValueError(f"{key} must be positive, got {getattr(cfg, key)}")
    return cfg


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _build_samples(source: str | Path | PatientSeries, run_cfg: RunConfig, horizon: int) -> WindowSet:
    """The windows of one patient, read from a CSV path or given as a series."""
    series = source if isinstance(source, PatientSeries) else parse_csv(source)[0]
    normalized = zscore_normalize(series)
    if normalized.z.shape[1] != run_cfg.model.channels:
        raise ValueError(f"channels is {run_cfg.model.channels}, but the data has {normalized.z.shape[1]} channels")
    labels = label_days(series, run_cfg.label_window, run_cfg.label_fraction, run_cfg.min_history)
    return make_windows(normalized, labels, run_cfg.model.lookback, horizon)


def _pipeline(run_cfg: RunConfig, horizon: int) -> dict[str, object]:
    """The settings a checkpoint records besides its model config (``model.PIPELINE_KEYS``)."""
    return {key: horizon if key == "horizon" else getattr(run_cfg, key) for key in PIPELINE_KEYS}


def _config_manifest(run_cfg: RunConfig) -> dict[str, object]:
    """What every manifest starts with: the BLAS thread count, the versions and the flat config."""
    head = {"blas_threads": BLAS_THREADS, "package_version": __version__, "numpy_version": np.__version__,
            "python_version": platform.python_version()}
    return head | {f"config.{k}": getattr(o, k) for k, (o, _) in _flat_keys(run_cfg).items()}


# -- commands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    series = synth.generate_patient(synth.SynthConfig(seed=args.seed, days=args.days))
    write_csv(series, args.out)
    labels = label_days(series)
    labeled = labels.labels != -1
    positives = int((labels.labels == 1).sum())
    share = positives / max(int(labeled.sum()), 1)
    print(f"wrote {len(series)} days to {args.out}")
    print(f"high-risk prevalence under default labeling: {positives}/{int(labeled.sum())} ({share:.3f})")
    return 0


def cmd_train(args) -> int:
    run_cfg = load_run_config(args.config, args.set)
    if args.ablate:
        for key, value in ABLATIONS[args.ablate].items():
            setattr(run_cfg.model, key, value)
    if args.horizon not in run_cfg.horizons:
        raise ValueError(f"horizon {args.horizon} not in configured horizons {run_cfg.horizons}")

    samples = _build_samples(args.data, run_cfg, args.horizon)
    train_s, val_s, test_s = split_chronological(samples)
    model = SeizureFormer(run_cfg.model, np.random.default_rng(run_cfg.train.seed))
    _, history = train_loop(model, train_s, val_s, run_cfg.train)
    test_report = evaluate(model, test_s)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "checkpoint.txt", run_cfg.model, model.params, _pipeline(run_cfg, args.horizon))
    history_lines = ["epoch,train_loss,val_roc_auc"]
    for i, (loss, auc) in enumerate(zip(history.train_loss, history.val_roc_auc)):
        history_lines.append(f"{i},{kv.format_value(loss)},{kv.format_value(auc)}")
    kv.write_atomic(out_dir / "history.csv", "\n".join(history_lines) + "\n")

    manifest = _config_manifest(run_cfg) | {
        "command": "train",
        "variant": run_cfg.model.variant,
        "horizon": args.horizon,
        "data_sha256": _sha256(args.data),
        "split.train": len(train_s),
        "split.val": len(val_s),
        "split.test": len(test_s),
        "train.pos_weight": history.pos_weight,
        "train.best_epoch": history.best_epoch,
        "train.stop_reason": history.stop_reason,
        "train.val_best_roc_auc": history.val_roc_auc[history.best_epoch],
        "metrics.test_roc_auc": test_report.roc_auc,
        "metrics.test_pr_auc": test_report.pr_auc,
    }
    write_manifest(out_dir / "manifest.txt", manifest)
    print(f"variant: {run_cfg.model.variant}")
    print(f"best val ROC AUC {history.val_roc_auc[history.best_epoch]:.4f} at epoch {history.best_epoch}")
    print(f"test ROC AUC {test_report.roc_auc:.4f}  test PR AUC {test_report.pr_auc:.4f}")
    print(f"outputs in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    run_cfg = load_run_config(args.config, args.set)
    model, trained = model_from_checkpoint(args.checkpoint)
    if args.horizon not in run_cfg.horizons:
        raise ValueError(f"horizon {args.horizon} not in configured horizons {run_cfg.horizons}")
    trained["lookback"] = model.config.lookback
    wanted = {"lookback": run_cfg.model.lookback, **_pipeline(run_cfg, args.horizon)}
    if key := next((k for k in wanted if wanted[k] != trained[k]), None):
        raise ValueError(f"{args.checkpoint} was trained with {key}={kv.format_value(trained[key])}, "
                         f"this run has {key}={kv.format_value(wanted[key])}")
    run_cfg.model = model.config
    samples = _build_samples(args.data, run_cfg, args.horizon)
    train_s, val_s, test_s = split_chronological(samples)
    block = {"train": train_s, "val": val_s, "test": test_s}[args.split]
    rep = evaluate(model, block)
    print(f"{args.split} ROC AUC {rep.roc_auc:.4f}  PR AUC {rep.pr_auc:.4f}  (n={len(block)})")
    if args.manifest:
        manifest = _config_manifest(run_cfg) | {
            "command": "eval",
            "split": args.split,
            "horizon": args.horizon,
            "data_sha256": _sha256(args.data),
            "checkpoint": str(args.checkpoint),
            "metrics.roc_auc": rep.roc_auc,
            "metrics.pr_auc": rep.pr_auc,
        }
        write_manifest(args.manifest, manifest)
    return 0


def _benchmark_cell(kind: str, samples, run_cfg: RunConfig, cell_seed: int):
    """(roc, pr) for one model on one patient/horizon; degenerate data raises ``DataError``."""
    train_s, val_s, test_s = split_chronological(samples)
    if kind == "logistic":
        fit = baselines.logistic_fit(baselines.window_features(train_s), train_s.y)
        rep = metrics.report(baselines.logistic_predict(fit, baselines.window_features(test_s)), test_s.y)
    elif kind == "poisson":
        fit = baselines.poisson_fit(baselines.window_features(train_s), train_s.horizon_le_sum)
        rep = metrics.report(baselines.poisson_predict(fit, baselines.window_features(test_s)), test_s.y)
    else:
        if kind == "dlinear":
            rng = np.random.default_rng(cell_seed)
            model = baselines.DLinearModel(run_cfg.model.lookback, run_cfg.model.channels, rng=rng)
        elif kind.startswith("seizureformer"):
            model_cfg = dataclasses.replace(run_cfg.model)
            if suffix := kind[len("seizureformer"):].lstrip("-"):
                for key, value in ABLATIONS[suffix.replace("no-", "")].items():
                    setattr(model_cfg, key, value)
            model = SeizureFormer(model_cfg, np.random.default_rng(cell_seed))
        else:
            raise ValueError(f"unknown benchmark model {kind!r}")
        train_loop(model, train_s, val_s, dataclasses.replace(run_cfg.train, seed=cell_seed))
        rep = evaluate(model, test_s)
    return rep.roc_auc, rep.pr_auc


def _int_list(flag: str, text: str) -> list[int]:
    """The integers of a comma-separated flag value; blank entries are skipped."""
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, got {text!r}") from None


def cmd_benchmark(args) -> int:
    run_cfg = load_run_config(args.config, args.set)
    seeds, horizons = _int_list("--cohort-seeds", args.cohort_seeds), _int_list("--horizons", args.horizons)
    if not horizons or len(set(horizons)) != len(horizons):
        raise ValueError(f"benchmark horizons must be one or more distinct values, got {args.horizons!r}")
    for h in horizons:
        if h not in run_cfg.horizons:
            raise ValueError(f"horizon {h} not in configured horizons {run_cfg.horizons}")

    # samples per (seed, horizon), shared across every model for like-for-like cells
    patients = synth.generate_cohort(seeds, synth.SynthConfig(days=args.days))
    cohort = {(seed, h): _build_samples(series, run_cfg, h) for seed, series in zip(seeds, patients) for h in horizons}

    rows = ["model,patient,horizon,roc_auc,pr_auc"]
    means = []
    na_reasons = []  # a degenerate cell is NA; any other error is a bug and ends the run
    for kind in BENCHMARK_MODELS:
        cells = []
        for seed in seeds:
            for horizon in horizons:
                cell_seed = run_cfg.train.seed + 10_000 * seed + 100 * horizon
                try:
                    cell = _benchmark_cell(kind, cohort[(seed, horizon)], run_cfg, cell_seed)
                except DataError as exc:
                    rows.append(f"{kind},synth-{seed},{horizon},NA,NA")
                    na_reasons.append(f"{kind},synth-{seed},{horizon}: {exc}")
                    continue
                rows.append(f"{kind},synth-{seed},{horizon},{cell[0]:.6f},{cell[1]:.6f}")
                cells.append(cell)
        if cells:
            roc = sum(c[0] for c in cells) / len(cells)
            pr = sum(c[1] for c in cells) / len(cells)
            means.append(f"{kind},mean,all,{roc:.6f},{pr:.6f}")
        else:
            means.append(f"{kind},mean,all,NA,NA")
    rows.extend(means)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    kv.write_atomic(out, "\n".join(rows) + "\n")
    kv.write_atomic(str(out) + ".na", "".join(f"{reason}\n" for reason in na_reasons))
    manifest = _config_manifest(run_cfg) | {
        "command": "benchmark",
        "cohort_seeds": tuple(seeds),
        "benchmark_horizons": tuple(horizons),
        "days": args.days,
        "models": BENCHMARK_MODELS,
    }
    write_manifest(str(out) + ".manifest", manifest)
    print(f"wrote {len(rows) - 1} result rows to {out}")
    return 0


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_all(epsilon=args.epsilon, threshold=args.threshold)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failures += 0 if res.passed else 1
        print(f"{status} {res.name} max_rel_error={res.max_rel_error:.3e}")
    print(f"{len(results) - failures}/{len(results)} gradient checks passed")
    if failures:
        raise FloatingPointError(f"{failures} gradient checks exceeded {args.threshold}")
    return 0


def _render_svg(z, label_values) -> str:
    width, height, pad = 1000, 280, 20
    n = len(z)
    span = max(n - 1, 1)
    lo = min(float(z.min()), -1.0)
    hi = max(float(z.max()), 1.0)

    def sx(i: int) -> float:
        return pad + (width - 2 * pad) * i / span

    def sy(v: float) -> float:
        return pad + (height - 2 * pad) * (hi - v) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    colors = ("#1f77b4", "#2ca02c")
    for c in range(z.shape[1]):
        pts = " ".join(f"{sx(i):.2f},{sy(float(z[i, c])):.2f}" for i in range(n))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{colors[c % 2]}" stroke-width="1"/>')
    for i in range(n):
        if label_values[i] == 1:
            parts.append(f'<rect x="{sx(i) - 2:.2f}" y="{pad / 2:.2f}" width="4" height="4" fill="#d62728"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_export_plot(args) -> int:
    run_cfg = load_run_config(args.config, args.set)
    series, _ = parse_csv(args.data)
    normalized = zscore_normalize(series)
    labels = label_days(series, run_cfg.label_window, run_cfg.label_fraction, run_cfg.min_history)

    lines = ["date,z_ch1,z_ch2,risk"]
    for i, day in enumerate(normalized.dates):
        risk = "" if labels.labels[i] == -1 else str(int(labels.labels[i]))
        z = ",".join(kv.format_value(v) for v in normalized.z[i])
        lines.append(f"{day},{z},{risk}")
    kv.write_atomic(args.out_csv, "\n".join(lines) + "\n")
    kv.write_atomic(args.out_svg, _render_svg(normalized.z, labels.labels))
    print(f"wrote {len(normalized.dates)} rows to {args.out_csv} and figure to {args.out_svg}")
    return 0


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", default=None, help="flat key=value config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override one config key")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seizureformer", description=__doc__)
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("synth", parents=[], help="generate a synthetic patient CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("train", help="train on a CSV and write checkpoint + manifest")
    p.add_argument("--data", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--out-dir", default="run")
    p.add_argument("--ablate", choices=sorted(ABLATIONS), default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="evaluate a checkpoint on a data split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--manifest", default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("benchmark", help="train all models over a seeded cohort")
    p.add_argument("--cohort-seeds", required=True, help="comma-separated seeds")
    p.add_argument("--horizons", default="1,3,7,14")
    p.add_argument("--days", type=int, default=1000)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_benchmark)

    p = subs.add_parser("gradcheck", help="finite-difference check of ops and model")
    p.add_argument("--epsilon", type=float, default=gradcheck.DEFAULT_EPSILON)
    p.add_argument("--threshold", type=float, default=gradcheck.DEFAULT_THRESHOLD)
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("export-plot", help="per-day plot data as CSV plus an SVG figure")
    p.add_argument("--data", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_export_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
