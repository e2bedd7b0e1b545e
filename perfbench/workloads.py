"""The benchmark's workloads: their inputs, one measured pass, and the checks.

End-to-end passes call only `seizureformer.cli.main` and names exported in
`seizureformer.__all__`.  Every workload is a closed loop: one process runs
one operation at a time.  An operation is one CLI call; it fails on a
non-zero exit, an exception or a failed correctness check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference

DIGESTS_PATH = Path(__file__).with_name("digests.json")
AUCS_PATH = Path(__file__).with_name("aucs.json")
DIGEST_HORIZONS = (1, 3, 7, 14)
# Test AUCs are bit-deterministic for a seed; the tolerance lets a change of
# float rounding flip a few near-tied rankings, and is well below the 0.0017
# PR AUC margin of acceptance criterion 6.
AUC_TOLERANCE = 5e-4
CHECKPOINT_PATIENT = 99  # patient index of the score_cohort training patient


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "train" or "score"
    days: int  # length of each synthetic patient
    patients: int = 1  # patients per pass
    train_args: tuple[str, ...] = ()  # extra `train` flags (score: for the fixed checkpoint)
    checkpoint_days: int = 0  # score only: length of the checkpoint's training patient
    min_passes: int = 1
    setup_repeats: int = 15  # fresh-interpreter set-ups; setup_s is their median


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_default",
            "one headline-cohort cell at laptop defaults; isolates per-op dispatch, graph bookkeeping, finiteness guards "
            "and per-tap conv loops in tensor, model and train",
            "train",
            days=1000,
            # 6 epochs is the shortest run early stopping allows (best epoch 0 + patience 5),
            # so the work per pass does not depend on where a seed's best epoch lands
            train_args=("--set", "max_epochs=6"),
            min_passes=2,  # two passes on one seed must write identical checkpoints
        ),
        Workload(
            "train_wide",
            "one epoch at reference_preset widths, batch 128 as 2048 does not fit in 8 GB; isolates GEMM work and memory "
            "in tensor (matmul VJP) and the checkpoint write",
            "train",
            days=500,
            # reference_preset() widths; batch 2048 (REFERENCE_BATCH_SIZE) does not fit in 8 GB
            train_args=(
                "--set", "embed_dim=128", "--set", "encoder_layers=3", "--set", "ffn_dim=1024",
                "--set", "batch_size=128", "--set", "max_epochs=1",
            ),
            min_passes=2,
        ),
        Workload(
            "score_cohort",
            "eval of one fixed checkpoint over long patients; isolates eval-mode forward, data and metrics with no "
            "backward or optimizer, so backward changes predict no change",
            "score",
            days=4000,
            patients=4,
            train_args=("--set", "max_epochs=1"),
            checkpoint_days=1000,
            setup_repeats=5,  # each set-up trains the fixed checkpoint
        ),
    )
}


def patient_seed(seed: int, patient: int) -> int:
    return seed * 100 + patient


def inputs_spec(w: Workload) -> dict:
    """The fields that decide a workload's outputs, as stored in aucs.json."""
    return {"days": w.days, "patients": w.patients, "train_args": list(w.train_args),
            "checkpoint_days": w.checkpoint_days}


@dataclass
class Op:
    """One operation of a pass: which patient, how long, how many windows."""

    patient: int
    seconds: float
    windows: int = 0
    ok: bool = True
    result: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`seizureformer` CLI in-process; returns (exit code, captured stdout)."""
    from seizureformer import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def read_manifest(path: Path) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split("=", 1) for line in lines if "=" in line)


# -- set-up ---------------------------------------------------------------------


def patient_csv(work: Path, patient: int) -> Path:
    return work / f"patient{patient}.csv"


def checkpoint_path(work: Path) -> Path:
    return work / "fixed" / "checkpoint.txt"


def set_up(w: Workload, seed: int, work: Path) -> None:
    """Write the workload's input CSVs (and, for score, its fixed checkpoint)."""
    work.mkdir(parents=True, exist_ok=True)
    for i in range(w.patients):
        _must(run_cli(["synth", "--seed", patient_seed(seed, i), "--days", w.days, "--out", patient_csv(work, i)]))
    if w.kind == "score":
        data = patient_csv(work, CHECKPOINT_PATIENT)
        _must(run_cli(["synth", "--seed", patient_seed(seed, CHECKPOINT_PATIENT), "--days", w.checkpoint_days,
                       "--out", data]))
        _must(run_cli(["train", "--data", data, "--horizon", 1, "--out-dir", checkpoint_path(work).parent,
                       *w.train_args]))


def _must(result: tuple[int, str]) -> None:
    code, text = result
    if code != 0:
        raise RuntimeError(f"set-up command exited {code}: {text.strip()[-500:]}")


# -- one measured pass ----------------------------------------------------------


def run_pass(w: Workload, work: Path, index: int) -> list[Op]:
    """Run every operation of one pass; only the operations are timed."""
    op_fn = {"train": _train_op, "score": _score_op}[w.kind]
    ops = []
    for patient in range(1 if w.kind == "train" else w.patients):
        start = time.perf_counter()
        try:
            ops.append(op_fn(w, work, index, patient))
        except Exception as exc:  # a crashing operation counts as failed; the run goes on
            error = f"{type(exc).__name__}: {exc}"
            ops.append(Op(patient, time.perf_counter() - start, ok=False, result={"error": error}))
    return ops


def _train_op(w: Workload, work: Path, index: int, patient: int) -> Op:
    out_dir = work / f"pass{index}"
    start = time.perf_counter()
    code, _ = run_cli(["train", "--data", patient_csv(work, patient), "--horizon", 1, "--out-dir", out_dir,
                       *w.train_args])
    op = Op(patient, time.perf_counter() - start, ok=code == 0)
    if op.ok:
        manifest = read_manifest(out_dir / "manifest.txt")
        epochs = len((out_dir / "history.csv").read_text(encoding="utf-8").splitlines()) - 1
        op.windows = int(manifest["split.train"]) * epochs
        op.result = {
            "roc_auc": manifest["metrics.test_roc_auc"],
            "pr_auc": manifest["metrics.test_pr_auc"],
            "checkpoint": out_dir / "checkpoint.txt",
        }
    return op


def _score_op(w: Workload, work: Path, index: int, patient: int) -> Op:
    manifest_path = work / f"eval-{index}-{patient}.txt"
    start = time.perf_counter()
    code, _ = run_cli(["eval", "--data", patient_csv(work, patient), "--checkpoint", checkpoint_path(work),
                       "--horizon", 1, "--manifest", manifest_path])
    op = Op(patient, time.perf_counter() - start, ok=code == 0)
    if op.ok:
        manifest = read_manifest(manifest_path)
        op.result = {"roc_auc": manifest["metrics.roc_auc"], "pr_auc": manifest["metrics.pr_auc"]}
    return op


# -- correctness ----------------------------------------------------------------


class Checker:
    """Marks operations failed when their outputs are wrong.

    Outputs are checked against values recorded for the seed (`aucs.json`,
    `digests.json`) or recomputed without the program (`reference.py`), and
    against the run's own first pass.
    """

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w, self.seed, self.work = w, seed, work
        self.first: dict[int, dict] = {}  # patient -> first pass's result
        self.digests = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
        record = json.loads(AUCS_PATH.read_text(encoding="utf-8")).get(w.name, {})
        same_inputs = record.get("inputs") == inputs_spec(w)
        self.aucs = record["seeds"].get(str(seed)) if same_inputs else None  # per patient [roc, pr]
        self.data: dict[int, tuple[str | None, int]] = {}  # patient -> (data problem, test windows)
        self.failures: list[str] = []
        self.unchecked: list[str] = []
        if self.aucs is None:
            self.unchecked.append(f"no recorded test AUCs for {w.name} seed {seed}; checked against the first pass only")

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            if not op.ok:
                self.failures.append(f"patient {op.patient}: {op.result.get('error', 'non-zero exit')}")
                continue
            problem = getattr(self, f"_check_{self.w.kind}")(op) or self._check_aucs(op)
            if problem:
                op.ok = False
                self.failures.append(f"patient {op.patient}: {problem}")

    def _check_train(self, op: Op) -> str | None:
        ckpt = op.result["checkpoint"]
        digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
        first = self.first.setdefault(op.patient, {**op.result, "sha": digest})
        if digest != first["sha"]:
            return "checkpoint bytes differ from the first pass on the same seed"
        manifest = ckpt.parent / "eval.txt"
        code, _ = run_cli(["eval", "--data", patient_csv(self.work, op.patient), "--checkpoint", ckpt,
                           "--horizon", 1, "--split", "test", "--manifest", manifest])
        if code != 0:
            return f"eval of the written checkpoint exited {code}"
        if read_manifest(manifest)["metrics.roc_auc"] != op.result["roc_auc"]:
            return "eval of the written checkpoint does not reproduce the manifest's test ROC AUC"
        return None

    def _check_score(self, op: Op) -> str | None:
        if op.patient not in self.data:
            self.data[op.patient] = self._check_data(op.patient)
        problem, op.windows = self.data[op.patient]
        for key in ("roc_auc", "pr_auc"):
            if not 0.0 <= float(op.result[key]) <= 1.0:
                return f"{key} {op.result[key]} outside [0, 1]"
        first = self.first.setdefault(op.patient, op.result)
        if first != op.result:
            return "metrics differ from the first pass on the same checkpoint"
        return problem

    def _check_data(self, patient: int) -> tuple[str | None, int]:
        """Digest the labels and windows the program builds from a patient's CSV."""
        import seizureformer as sf

        csv_path = patient_csv(self.work, patient)
        series, _ = sf.parse_csv(csv_path)
        normalized, labels = sf.zscore_normalize(series), sf.label_days(series)
        splits = {h: sf.split_chronological(sf.make_windows(normalized, labels, _lookback(), h))
                  for h in DIGEST_HORIZONS}
        recorded = self.digests.get(f"{self.w.days}/{patient_seed(self.seed, patient)}")
        if recorded:
            expected = {int(h): d for h, d in recorded.items()}
        else:
            expected = reference.reference_digests(csv_path, _lookback(), DIGEST_HORIZONS)
        wrong = [h for h, split in splits.items() if reference.program_digest(labels.labels, split) != expected[h]]
        problem = f"horizons {wrong}: window/label digest differs from the recorded value" if wrong else None
        return problem, len(splits[1][2])

    def _check_aucs(self, op: Op) -> str | None:
        if self.aucs is None:
            return None
        for key, want in zip(("roc_auc", "pr_auc"), self.aucs[op.patient]):
            if abs(float(op.result[key]) - want) > AUC_TOLERANCE:
                return f"test {key} {op.result[key]} differs from the recorded {want}"
        return None


def _lookback() -> int:
    import seizureformer as sf

    return sf.ModelConfig().lookback
