"""Tests of the benchmark's own code: metric names, span self time, the
correctness checks and their recorded values, and a tiny-size run of every
workload.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load_spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class TestMetricNames:
    def test_every_emitted_name_and_unit_is_valid(self):
        for table in (run.END_TO_END_UNITS, run.PER_LAYER_UNITS):
            for name, unit in table.items():
                assert NAME.fullmatch(name), name
                assert UNIT.fullmatch(unit), unit

    def test_benchmark_json_matches_what_the_run_emits(self):
        spec = load_spec()
        assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
        assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in spec["workloads"])
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
        assert len(names) == len(set(names))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(
            m["bound"] for m in spec["end_to_end"])}]
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
        assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


class TestSelfTime:
    def test_children_are_subtracted_from_their_parent(self):
        ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0, 10.0])
        tracer = tracing.Tracer(clock=lambda: next(ticks))
        leaf = tracer.wrap("leaf", lambda: None)
        mid = tracer.wrap("mid", lambda: leaf())
        other = tracer.wrap("other", lambda: None)

        def body():
            mid()
            other()

        tracing_root = tracer.wrap("root", body)
        tracing_root()
        totals = tracing.layer_totals(tracer.spans)
        # root 0-10, mid 2-5 (leaf 3-4), other 6-9
        assert totals == {"root": (4.0, 1), "mid": (2.0, 1), "leaf": (1.0, 1), "other": (3.0, 1)}

    def test_overlapping_children_are_counted_once(self):
        spans = [
            tracing.Span(1, 0, "p", 0.0, 10.0, 0),
            tracing.Span(2, 1, "c", 1.0, 4.0, 0),
            tracing.Span(3, 1, "c", 3.0, 6.0, 0),
            tracing.Span(4, 1, "c", 9.0, 12.0, 0),  # runs past its parent's end
        ]
        assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_install_wraps_every_binding_and_uninstall_restores(self, monkeypatch):
        import seizureformer
        from seizureformer import cli, data, model, tensor, train

        originals = (cli.train_loop, model.matmul, tensor.matmul, seizureformer.parse_csv, tensor.Tensor.backward)
        monkeypatch.setitem(tracing.TRACED, "model.removed_stage", ("model", "no_such_stage"))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert cli.train_loop is not originals[0] and train.train_loop is cli.train_loop
            assert model.matmul is not originals[1] and tensor.matmul is model.matmul
            assert seizureformer.parse_csv is data.parse_csv is cli.parse_csv
            assert seizureformer.parse_csv is not originals[3]
            assert tensor.Tensor.backward is not originals[4]
            assert tracer.absent == ["model.removed_stage"]
        finally:
            tracer.uninstall()
        assert (cli.train_loop, model.matmul, tensor.matmul, seizureformer.parse_csv,
                tensor.Tensor.backward) == originals


def test_reference_reproduces_a_recorded_digest(tmp_path):
    w = workloads.WORKLOADS["score_cohort"]
    path = tmp_path / "p.csv"
    assert workloads.run_cli(["synth", "--seed", 1, "--days", w.days, "--out", path])[0] == 0
    recorded = json.loads(workloads.DIGESTS_PATH.read_text())[f"{w.days}/1"]
    got = reference.reference_digests(path, 30, workloads.DIGEST_HORIZONS)
    assert {str(h): d for h, d in got.items()} == recorded


def test_recorded_aucs_belong_to_the_workloads():
    recorded = json.loads(workloads.AUCS_PATH.read_text())
    assert set(recorded) == {"train_default", "score_cohort"}
    for name, entry in recorded.items():
        w = workloads.WORKLOADS[name]
        assert entry["inputs"] == workloads.inputs_spec(w)
        assert all(len(aucs) == w.patients for aucs in entry["seeds"].values())


TINY_TRAIN = ("--set", "max_epochs=1", "--set", "embed_dim=8", "--set", "ffn_dim=16", "--set", "encoder_layers=1")
TINY = {
    "train_default": dict(days=400, train_args=TINY_TRAIN, setup_repeats=3),
    "train_wide": dict(days=400, train_args=TINY_TRAIN, setup_repeats=3),
    "score_cohort": dict(days=400, patients=2, checkpoint_days=400, train_args=TINY_TRAIN, setup_repeats=3),
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


class TestChecks:
    """A changed output marks its operation failed."""

    @pytest.fixture(scope="class")
    def train(self, tmp_path_factory):
        w, work = tiny("train_default"), tmp_path_factory.mktemp("train")
        workloads.set_up(w, 3, work)
        return w, work, [workloads.run_pass(w, work, index) for index in range(2)]

    def test_changed_checkpoint(self, train):
        w, work, (first, second) = train
        ckpt = second[0].result["checkpoint"]
        original = ckpt.read_bytes()
        ckpt.write_bytes(original + b"\n")
        try:
            checker = workloads.Checker(w, 3, work)
            checker.check(first)
            checker.check(second)
        finally:
            ckpt.write_bytes(original)
        assert first[0].ok and not second[0].ok
        assert "checkpoint bytes differ" in checker.failures[0]

    def test_changed_auc(self, train):
        w, work, (first, _) = train
        roc, pr = float(first[0].result["roc_auc"]), float(first[0].result["pr_auc"])
        for shift, ok in ((0.1 * workloads.AUC_TOLERANCE, True), (10 * workloads.AUC_TOLERANCE, False)):
            op = dataclasses.replace(first[0])
            checker = workloads.Checker(w, 3, work)
            checker.aucs = [[roc, pr + shift]]
            checker.check([op])
            assert op.ok is ok, checker.failures

    def test_changed_digest(self, tmp_path):
        w = tiny("score_cohort")
        workloads.set_up(w, 3, tmp_path)
        ops = workloads.run_pass(w, tmp_path, 0)
        checker = workloads.Checker(w, 3, tmp_path)
        key = f"{w.days}/{workloads.patient_seed(3, 0)}"
        assert key not in checker.digests  # patient 1 is checked against reference.py
        checker.digests[key] = {str(h): "0" * 64 for h in workloads.DIGEST_HORIZONS}
        checker.check(ops)
        assert [op.ok for op in ops] == [False, True]
        assert "digest differs" in checker.failures[0]
        assert ops[1].windows > 0


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    w = tiny(name)
    report = run.run_workload(w, seed=3, seconds=0, trace=trace)
    lines, result = run.render(w, 3, 0, trace, report)
    assert result["correct"], report["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(result["metrics"]) == set(expected)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == expected[metric]
        assert math.isfinite(entry["value"])
    for metric in (*run.END_TO_END_UNITS, *run.TABLE_ONLY_UNITS):
        assert any(line.startswith(metric) for line in lines)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    json.dumps(result)
    if trace:
        assert (tmp_path / f"trace-{name}-seed3.jsonl").exists()
