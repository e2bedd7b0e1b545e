import base64
import hashlib
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import seizureformer
from seizureformer import baselines, cli, gradcheck, kv
from seizureformer import tensor as T
from seizureformer.cli import load_run_config, main
from seizureformer.data import parse_csv, zscore_normalize
from seizureformer.tensor import Tensor


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "patient.csv"
    assert main(["synth", "--seed", "3", "--days", "400", "--out", str(path)]) == 0
    return path


FAST_TRAIN = [
    "--set", "max_epochs=2", "--set", "batch_size=64",
    "--set", "embed_dim=8", "--set", "ffn_dim=16", "--set", "encoder_layers=1",
    "--set", "kernel_sizes=3", "--set", "embed_features=4",
]


@pytest.fixture(scope="module")
def trained_checkpoint(synth_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["train", "--data", str(synth_csv), "--horizon", "1", "--out-dir", str(out)] + FAST_TRAIN) == 0
    return out / "checkpoint.txt"


class TestSynthCommand:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", "--seed", "7", "--days", "200", "--out", str(a)]) == 0
        assert main(["synth", "--seed", "7", "--days", "200", "--out", str(b)]) == 0
        assert hashlib.sha256(a.read_bytes()).hexdigest() == hashlib.sha256(b.read_bytes()).hexdigest()

    def test_row_count(self, tmp_path):
        out = tmp_path / "p.csv"
        main(["synth", "--seed", "1", "--days", "150", "--out", str(out)])
        assert len(out.read_text().splitlines()) == 151  # header + rows

    def test_failed_write_leaves_old_csv(self, tmp_path, monkeypatch):
        out = tmp_path / "p.csv"
        out.write_text("old series\n")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(kv.os, "replace", broken_replace)
        assert main(["synth", "--seed", "1", "--days", "150", "--out", str(out)]) == 2
        assert out.read_text() == "old series\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv"]

    def test_too_few_days_usage_error(self, tmp_path):
        assert main(["synth", "--seed", "1", "--days", "100", "--out", str(tmp_path / "p.csv")]) == 1

    def test_prevalence_printed(self, tmp_path, capsys):
        main(["synth", "--seed", "2", "--days", "150", "--out", str(tmp_path / "p.csv")])
        assert "prevalence" in capsys.readouterr().out


class TestRunConfig:
    def test_defaults(self):
        cfg = load_run_config()
        assert cfg.model.lookback == 30
        assert cfg.train.learning_rate == 0.003
        assert cfg.horizons == (1, 3, 7, 14)

    def test_file_with_comments_and_overrides(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# experiment\nlookback=20\nlearning_rate=0.01  # fast\nuse_se=false\n")
        cfg = load_run_config(str(f), ["patience=3", "kernel_sizes=3,5"])
        assert cfg.model.lookback == 20
        assert cfg.train.learning_rate == 0.01
        assert cfg.model.use_se is False
        assert cfg.train.patience == 3
        assert cfg.model.kernel_sizes == (3, 5)

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("not_a_key=1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_run_config(str(f))

    def test_optimizer_is_not_a_key(self, synth_csv, tmp_path, capsys):
        code = main(["train", "--data", str(synth_csv), "--horizon", "1", "--out-dir", str(tmp_path),
                     "--set", "optimizer=adam"])
        assert code == 1
        assert "unknown config key 'optimizer'" in capsys.readouterr().err

    def test_malformed_override(self):
        with pytest.raises(ValueError, match="key=value"):
            load_run_config(None, ["oops"])

    @pytest.mark.parametrize(
        "override", ["label_fraction=nan", "learning_rate=inf", "use_se=yes", "kernel_sizes=3,,5", "lookback=30.0"]
    )
    def test_strict_values_exit_one_naming_the_key(self, synth_csv, tmp_path, capsys, override):
        code = main(["train", "--data", str(synth_csv), "--horizon", "1", "--out-dir", str(tmp_path), "--set", override])
        assert code == 1
        assert f"error: {override.partition('=')[0]} expects" in capsys.readouterr().err

    def test_negative_weight_decay_exits_one_naming_the_key(self, synth_csv, tmp_path, capsys):
        code = main(
            ["train", "--data", str(synth_csv), "--horizon", "1", "--out-dir", str(tmp_path), "--set", "weight_decay=-1"]
        )
        assert code == 1
        assert "error: weight_decay must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["heads=0", "heads=-2", "embed_dim=0"])
    def test_width_below_one_exits_one_naming_the_key(self, synth_csv, tmp_path, capsys, override):
        """Checked before ``embed_dim % heads``, which divides by zero at heads=0."""
        code = main(["train", "--data", str(synth_csv), "--horizon", "1", "--out-dir", str(tmp_path), "--set", override])
        assert code == 1
        assert f"error: {override.partition('=')[0]} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ("seed=-1", "seed must be >= 0, got -1"),  # numpy's own message named no key
        ("channels=3", "channels is 3, but the data has 2 channels"),  # was a model-shape message
        ("channels=1", "channels is 1, but the data has 2 channels"),
        ("label_window=0", "label_window must be positive, got 0"),  # was "window must be >= 1"
        ("label_fraction=0", "label_fraction must be positive, got 0.0"),
        ("label_fraction=-0.5", "label_fraction must be positive, got -0.5"),
        ("min_history=0", "min_history must be positive, got 0"),
    ])
    def test_out_of_range_value_exits_one_naming_the_key(self, synth_csv, tmp_path, capsys, override, message):
        out = tmp_path / "run"
        code = main(["train", "--data", str(synth_csv), "--horizon", "1", "--out-dir", str(out), "--set", override])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommand:
    def test_writes_checkpoint_and_manifest(self, synth_csv, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--data", str(synth_csv), "--horizon", "1", "--out-dir", str(out)] + FAST_TRAIN)
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        assert "metrics.test_roc_auc=" in manifest
        assert "variant=Full Model" in manifest
        assert "data_sha256=" in manifest
        assert (out / "checkpoint.txt").exists()
        assert (out / "history.csv").exists()

    def test_history_fields_are_numbers(self, synth_csv, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", str(synth_csv), "--horizon", "1", "--out-dir", str(out)] + FAST_TRAIN) == 0
        header, *rows = (out / "history.csv").read_text().splitlines()
        assert header == "epoch,train_loss,val_roc_auc"
        assert len(rows) == 2
        for row in rows:
            [float(field) for field in row.split(",")]

    def test_ablate_se_recorded(self, synth_csv, tmp_path):
        out = tmp_path / "run-se"
        code = main(
            ["train", "--data", str(synth_csv), "--horizon", "1", "--out-dir", str(out), "--ablate", "se"]
            + FAST_TRAIN
        )
        assert code == 0
        assert "variant=w/o SE Block" in (out / "manifest.txt").read_text()

    def test_horizon_outside_configured_set(self, synth_csv, tmp_path, capsys):
        code = main(["train", "--data", str(synth_csv), "--horizon", "5", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "1, 3, 7, 14" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope.csv"), "--horizon", "1"]) == 2

    def test_zero_min_history_rejected(self, synth_csv, tmp_path, capsys):
        code = main(
            ["train", "--data", str(synth_csv), "--horizon", "1", "--out-dir", str(tmp_path), "--set", "min_history=0"]
        )
        assert code == 1
        assert "min_history" in capsys.readouterr().err


class TestManifests:
    def test_blas_threads_in_every_manifest(self, synth_csv, trained_checkpoint, tmp_path):
        """Checkpoint bytes depend on the BLAS thread count, so train, eval and
        benchmark manifests record it, and two benchmark runs stay byte-identical."""
        expected = T.BLAS_THREADS
        eval_manifest = tmp_path / "eval.txt"
        code = main(["eval", "--data", str(synth_csv), "--checkpoint", str(trained_checkpoint), "--horizon", "1",
                     "--manifest", str(eval_manifest)])
        assert code == 0
        outputs = []
        for run in range(2):
            out = tmp_path / f"table{run}.csv"
            code = main(["benchmark", "--cohort-seeds", "1", "--horizons", "1", "--days", "240", "--out", str(out)]
                        + FAST_TRAIN)
            assert code == 0
            outputs.append(out.read_bytes() + (tmp_path / f"table{run}.csv.manifest").read_bytes())
        assert outputs[0] == outputs[1]
        versions = (f"package_version={seizureformer.__version__}\n", f"numpy_version={np.__version__}\n",
                    f"python_version={platform.python_version()}\n")
        for path in (trained_checkpoint.parent / "manifest.txt", eval_manifest, tmp_path / "table0.csv.manifest"):
            text = path.read_text()
            assert f"blas_threads={expected}\n" in text, path
            assert all(line in text for line in versions), path

    def test_same_bytes_under_any_blas_environment(self, synth_csv, tmp_path):
        """The package sets numpy's OpenBLAS to one thread at import, so no thread variable
        of the caller's picks the code path or a byte, and each manifest states the count in force."""
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
        settings = [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "01"},
                    {"GOTO_NUM_THREADS": "1"}]
        outputs = []
        for run, setting in enumerate(settings):
            out = tmp_path / f"run{run}"
            proc = subprocess.run([sys.executable, "-m", "seizureformer.cli", "train", "--data", str(synth_csv),
                                   "--horizon", "1", "--out-dir", str(out), "--set", "max_epochs=3"],
                                  env=env | setting, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes() for name in ("checkpoint.txt", "history.csv", "manifest.txt")])
            assert b"blas_threads=1\n" in outputs[-1][2], setting
        for setting, files in zip(settings[1:], outputs[1:]):
            assert files == outputs[0], setting


class TestEvalCommand:
    def test_roundtrip(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--data", str(synth_csv), "--horizon", "1", "--out-dir", str(out)] + FAST_TRAIN)
        capsys.readouterr()
        code = main(
            [
                "eval", "--data", str(synth_csv), "--checkpoint", str(out / "checkpoint.txt"),
                "--horizon", "1", "--manifest", str(tmp_path / "eval.txt"),
            ]
        )
        assert code == 0
        assert "test ROC AUC" in capsys.readouterr().out
        assert "metrics.roc_auc=" in (tmp_path / "eval.txt").read_text()

    def test_non_finite_worker_chunk_exits_three(self, synth_csv, trained_checkpoint, monkeypatch, capsys):
        """A NaN made in one worker's chunk of the no-grad encoder is caught by the
        whole-output check once every chunk is done, and eval exits 3."""
        fwd, poisoned = T._layer_norm_fwd, threading.Event()

        def poison(*args):
            if threading.current_thread() is threading.main_thread():
                assert poisoned.wait(10)  # hold the caller back until a worker has poisoned its chunk
                return fwd(*args)
            out, xhat, inv = fwd(*args)
            if not poisoned.is_set():
                out[0, 0] = np.nan
                poisoned.set()
            return out, xhat, inv

        monkeypatch.setattr(T, "_layer_norm_fwd", poison)
        monkeypatch.setattr(T, "_WORKERS", 1)
        monkeypatch.setattr(T, "_CHUNK_ROWS", 4 * 14)  # 4 sequences a chunk at FAST_TRAIN widths
        capsys.readouterr()
        code = main(["eval", "--data", str(synth_csv), "--checkpoint", str(trained_checkpoint), "--horizon", "1"])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_malformed_checkpoint_exits_one(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--data", str(synth_csv), "--horizon", "1", "--out-dir", str(out)] + FAST_TRAIN)
        checkpoint = out / "checkpoint.txt"
        checkpoint.write_text(checkpoint.read_text().replace("config.use_se=true", "config.use_se=yes"))
        capsys.readouterr()
        code = main(["eval", "--data", str(synth_csv), "--checkpoint", str(checkpoint), "--horizon", "1"])
        assert code == 1
        assert "use_se expects true or false" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "override, key",
        [
            (["--set", "lookback=20"], "lookback"),
            (["--set", "label_window=30"], "label_window"),
            (["--set", "label_fraction=0.6"], "label_fraction"),
            (["--set", "min_history=10"], "min_history"),
            (["--horizon", "3"], "horizon"),
            (["--set", "label_window=30", "--set", "min_history=10"], "label_window"),
        ],
    )
    def test_pipeline_mismatch_exits_one_naming_the_key(self, synth_csv, trained_checkpoint, capsys, override, key):
        argv = ["eval", "--data", str(synth_csv), "--checkpoint", str(trained_checkpoint), "--horizon", "1"]
        capsys.readouterr()
        assert main(argv + override) == 1
        assert f"was trained with {key}=" in capsys.readouterr().err

    def test_v1_checkpoint_exits_one(self, synth_csv, trained_checkpoint, tmp_path, capsys):
        lines = trained_checkpoint.read_text().splitlines()
        for version in ("v1", "v2"):
            old = tmp_path / f"{version}.txt"
            old.write_text("\n".join([f"format=risk-model-checkpoint-{version}"] + lines[1:]) + "\n")
            capsys.readouterr()
            assert main(["eval", "--data", str(synth_csv), "--checkpoint", str(old), "--horizon", "1"]) == 1
            err = capsys.readouterr().err
            assert f"{version} checkpoint" in err and "retrain" in err

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda v: v[:-1], "are not valid base64"),
            (lambda v: base64.b64encode(base64.b64decode(v)[:-8]).decode("ascii"), "bytes, needs"),
        ],
    )
    def test_corrupt_values_exit_one_naming_the_line(self, synth_csv, trained_checkpoint, tmp_path, capsys,
                                                     corrupt, message):
        lines = trained_checkpoint.read_text().splitlines()
        at = next(n for n, l in enumerate(lines) if l.startswith("param=se.w1 ")) + 1
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines[:at] + [corrupt(lines[at])] + lines[at + 1 :]) + "\n")
        capsys.readouterr()
        assert main(["eval", "--data", str(synth_csv), "--checkpoint", str(bad), "--horizon", "1"]) == 1
        err = capsys.readouterr().err
        assert f"{bad}:{at + 1}: " in err and "'se.w1'" in err and message in err


class TestGradcheckCommand:
    def test_passes_with_line_per_check(self, capsys):
        assert main(["gradcheck"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("PASS")]
        assert len(lines) > 30

    def test_injected_bad_gradient_reported(self, monkeypatch, capsys):
        """A deliberately wrong vjp among the op checks fails the command: exit 3, one
        FAIL line naming it, and every other check passes."""
        from oracles import tsum

        def bad_double(t):
            def vjp(g):
                T._accum(t, g)  # claims d/dt(2t) = 1

            return tsum(T._result(t.data * 2.0, (t,), vjp))

        op_checks = gradcheck._op_checks
        monkeypatch.setattr(gradcheck, "_op_checks",
                            lambda rng: op_checks(rng) + [("bad_double", bad_double, Tensor(np.ones(3)))])
        assert main(["gradcheck"]) == 3
        out, err = capsys.readouterr()
        lines = out.splitlines()
        failed = [l for l in lines[:-1] if not l.startswith("PASS ")]
        assert len(failed) == 1 and failed[0].startswith("FAIL bad_double ")
        assert lines[-1] == f"{len(lines) - 2}/{len(lines) - 1} gradient checks passed"
        assert "1 gradient checks exceeded" in err


class TestExportPlotCommand:
    def test_csv_schema_and_row_count(self, synth_csv, tmp_path):
        csv_out, svg_out = tmp_path / "plot.csv", tmp_path / "plot.svg"
        assert main(["export-plot", "--data", str(synth_csv), "--out-csv", str(csv_out), "--out-svg", str(svg_out)]) == 0
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "date,z_ch1,z_ch2,risk"
        assert len(lines) == 401
        assert svg_out.read_text().startswith("<svg")

    def test_z_values_are_plain_floats(self, synth_csv, tmp_path):
        """Each z field is the normalized value's float text, bit for bit (not ``np.float64(...)``),
        and each date is the input row's date text, byte for byte."""
        csv_out = tmp_path / "plot.csv"
        assert main(["export-plot", "--data", str(synth_csv), "--out-csv", str(csv_out),
                     "--out-svg", str(tmp_path / "plot.svg")]) == 0
        z = zscore_normalize(parse_csv(synth_csv)[0]).z
        rows = [line.split(",") for line in csv_out.read_bytes().decode().splitlines()[1:]]
        assert np.array([[float(v) for v in row[1:3]] for row in rows]).tobytes() == z.tobytes()
        input_dates = [line.split(b",")[0] for line in synth_csv.read_bytes().splitlines()[1:]]
        assert [row[0].encode() for row in rows] == input_dates

    def test_no_high_risk_days_no_markers(self, tmp_path):
        flat = tmp_path / "flat.csv"
        rows = ["date,ab_ch1,ab_ch2,le_count"]
        import datetime

        for i in range(150):
            day = datetime.date(2020, 1, 1) + datetime.timedelta(days=i)
            rows.append(f"{day.isoformat()},{10 + (i % 3)},{11 + (i % 2)},0")
        flat.write_text("\n".join(rows) + "\n")
        svg_out = tmp_path / "flat.svg"
        main(["export-plot", "--data", str(flat), "--out-csv", str(tmp_path / "flat-plot.csv"), "--out-svg", str(svg_out)])
        assert 'fill="#d62728"' not in svg_out.read_text()


def _raising(error):
    def broken_split(samples):
        raise error("injected")

    return broken_split


class TestBenchmarkCommand:
    def test_tiny_benchmark_table(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(
            ["benchmark", "--cohort-seeds", "1", "--horizons", "1", "--days", "240", "--out", str(out)]
            + FAST_TRAIN
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "model,patient,horizon,roc_auc,pr_auc"
        data_rows = [l for l in lines[1:] if not l.split(",")[1] == "mean"]
        mean_rows = [l for l in lines[1:] if l.split(",")[1] == "mean"]
        assert len(data_rows) == 8  # one per model for 1 seed x 1 horizon
        assert len(mean_rows) == 8
        assert (tmp_path / "table.csv.manifest").exists()

    def test_degenerate_cells_become_na(self, tmp_path):
        """Horizon 14 on a short series saturates to one class; cells turn NA."""
        out = tmp_path / "na.csv"
        code = main(
            ["benchmark", "--cohort-seeds", "1", "--horizons", "14", "--days", "240", "--out", str(out)]
            + FAST_TRAIN
        )
        assert code == 0
        rows = [l for l in out.read_text().splitlines()[1:] if l.split(",")[1] != "mean"]
        assert all(l.endswith(",NA,NA") for l in rows)
        reasons = (tmp_path / "na.csv.na").read_text().splitlines()
        assert [r.split(":")[0] for r in reasons] == [l.removesuffix(",NA,NA") for l in rows]

    @pytest.mark.parametrize("target, name, value, code", [
        pytest.param(cli, "split_chronological", _raising(ValueError), 1, id="ValueError-1"),
        pytest.param(cli, "split_chronological", _raising(FloatingPointError), 3, id="FloatingPointError-3"),
        pytest.param(baselines, "MAX_ITER", 1, 3, id="unconverged-fit-3"),
    ])
    def test_cell_bug_is_not_na(self, tmp_path, monkeypatch, target, name, value, code):
        """Only degenerate data (DataError) makes a cell NA; a bug, or a baseline fit that
        stops at its step cap, exits under its own code and prints no number."""
        monkeypatch.setattr(target, name, value)
        out = tmp_path / "t.csv"
        assert main(["benchmark", "--cohort-seeds", "1", "--horizons", "1", "--days", "240", "--out", str(out)]
                    + FAST_TRAIN) == code
        assert not out.exists()

    def test_failed_table_write_leaves_old_table(self, tmp_path, monkeypatch):
        out = tmp_path / "table.csv"
        out.write_text("old table\n")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(kv.os, "replace", broken_replace)
        code = main(["benchmark", "--cohort-seeds", "1", "--horizons", "14", "--days", "240", "--out", str(out)]
                    + FAST_TRAIN)
        assert code == 2
        assert out.read_text() == "old table\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]

    @pytest.mark.parametrize("flag", ["--cohort-seeds", "--horizons"])
    def test_non_integer_list_entry_names_the_flag(self, tmp_path, capsys, flag):
        args = {"--cohort-seeds": "1", "--horizons": "1", flag: "1,x"}
        out = tmp_path / "t.csv"
        assert main(["benchmark", *(v for item in args.items() for v in item), "--out", str(out)]) == 1
        assert f"{flag} takes comma-separated integers, got '1,x'" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_seeds_rejected(self, tmp_path):
        assert main(["benchmark", "--cohort-seeds", "1,1", "--horizons", "1", "--out", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize("horizons", [",", "1,1"])
    def test_empty_or_repeated_horizons_rejected(self, tmp_path, capsys, horizons):
        out = tmp_path / "t.csv"
        assert main(["benchmark", "--cohort-seeds", "1", "--horizons", horizons, "--days", "240", "--out", str(out)]
                    + FAST_TRAIN) == 1
        assert f"benchmark horizons must be one or more distinct values, got {horizons!r}" in capsys.readouterr().err
        assert not out.exists()


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "synth" in capsys.readouterr().out

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["synth", "--bogus"]) == 1
