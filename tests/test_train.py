import datetime
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from seizureformer.data import DataError, WindowSample, samples_to_arrays
from seizureformer.model import ModelConfig, SeizureFormer, weighted_bce
from seizureformer.tensor import Tensor, zero_grad
from seizureformer.kv import write_manifest
from seizureformer import tensor as T
from seizureformer import train
from seizureformer.train import OptimizerState, TrainConfig, evaluate, optimizer_step, train_loop

DAY0 = datetime.date(2021, 1, 1)


def toy_samples(n, lookback=16, channels=2, seed=0, separation=2.0):
    """Windows whose label is a noisy threshold on the channel-0 mean."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        y = i % 2
        x = rng.standard_normal((lookback, channels))
        x[:, 0] += separation * (1 if y else -1)
        samples.append(WindowSample(x=x, y=y, horizon=1, anchor_date=DAY0 + datetime.timedelta(days=i)))
    return samples


def tiny_model(seed=0):
    cfg = ModelConfig(
        lookback=16, patch_length=4, stride=2, kernel_sizes=(3,), embed_features=4,
        embed_dim=8, heads=2, encoder_layers=1, ffn_dim=16, dropout_rate=0.1,
    )
    return SeizureFormer(cfg, np.random.default_rng(seed))


class TestTrainConfig:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.1])
    def test_learning_rate_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            TrainConfig(learning_rate=value).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_weight_decay_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="weight_decay must be finite and >= 0"):
            TrainConfig(weight_decay=value).validate()

    def test_zero_weight_decay_accepted(self):
        TrainConfig(weight_decay=0.0).validate()


class TestOptimizerStep:
    def test_zero_grads_no_decay_leaves_params(self):
        params = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        params["w"].grad = np.zeros(2)
        optimizer_step(params, OptimizerState(), lr=0.1, weight_decay=0.0)
        assert_allclose(params["w"].data, [1.0, -2.0])

    def test_descends_quadratic(self):
        theta = Tensor(np.array([1.0]), requires_grad=True)
        params = {"theta": theta}
        state = OptimizerState()
        for _ in range(20):
            theta.grad = 2.0 * theta.data  # d/dtheta theta^2
            optimizer_step(params, state, lr=0.05)
        assert theta.data[0] ** 2 < 1.0

    def test_decay_shrinks_weights(self):
        theta = Tensor(np.array([3.0, -4.0]), requires_grad=True)
        params = {"theta": theta}
        theta.grad = np.zeros(2)
        optimizer_step(params, OptimizerState(), lr=0.1, weight_decay=0.01)
        assert np.all(np.abs(params["theta"].data) < np.array([3.0, 4.0]))

    def test_missing_grads_error(self):
        params = {"w": Tensor(np.ones(2), requires_grad=True)}
        with pytest.raises(ValueError, match="missing gradients"):
            optimizer_step(params, OptimizerState(), lr=0.1)


class _ScriptedModel:
    """Stub exposing the training interface with scripted validation scores."""

    def __init__(self, per_epoch_scores):
        self.per_epoch_scores = per_epoch_scores
        self.eval_calls = 0
        self.params = {"w": Tensor(np.zeros(1), requires_grad=True)}

    def forward(self, x, training=False, rng=None):
        n = x.shape[0]
        if training:
            logits = Tensor(np.zeros((n, 1))) + self.params["w"] * 0.0
            from seizureformer.tensor import sigmoid

            return sigmoid(logits)
        scores = self.per_epoch_scores[min(self.eval_calls, len(self.per_epoch_scores) - 1)]
        self.eval_calls += 1
        return Tensor(np.asarray(scores[:n], dtype=float).reshape(n, 1))


class TestTrainLoop:
    def test_patience_one_stops_after_second_epoch(self):
        """Monotonically worsening validation AUC stops the loop at epoch 2."""
        val = toy_samples(8)
        labels = np.array([s.y for s in val], dtype=float)
        # epoch 0 ranks perfectly, later epochs invert more and more
        scripted = [labels, 1.0 - labels, 1.0 - labels]
        model = _ScriptedModel([s + 0.1 for s in scripted])
        _, history = train_loop(model, toy_samples(12), val, TrainConfig(patience=1, max_epochs=10, batch_size=4))
        assert len(history.val_roc_auc) == 2
        assert history.best_epoch == 0
        assert history.stop_reason == "early_stopping"

    def test_ties_keep_first_best(self):
        val = toy_samples(8)
        labels = np.array([s.y for s in val], dtype=float)
        model = _ScriptedModel([labels, labels, labels, labels])  # constant perfect AUC
        _, history = train_loop(model, toy_samples(12), val, TrainConfig(patience=2, max_epochs=10, batch_size=4))
        assert history.best_epoch == 0
        assert history.stop_reason == "early_stopping"
        assert len(history.val_roc_auc) == 3  # epochs 0..2, stopped 2 after the best

    def test_best_epoch_values_restored_into_model_params(self):
        """Weight decay moves w every step; the loop must hand back epoch 0's w."""
        val = toy_samples(8)
        labels = np.array([s.y for s in val], dtype=float)
        model = _ScriptedModel([labels, 1.0 - labels])
        model.params["w"].data = np.array([1.0])
        cfg = TrainConfig(patience=1, max_epochs=10, batch_size=4, learning_rate=0.1, weight_decay=0.5)
        params, history = train_loop(model, toy_samples(12), val, cfg)
        assert history.best_epoch == 0 and len(history.val_roc_auc) == 2
        assert params is model.params
        decay = 1.0 - cfg.learning_rate * cfg.weight_decay
        assert_allclose(model.params["w"].data, [decay**3], rtol=1e-12)  # 3 steps of epoch 0, not 6

    def test_same_seed_identical_history(self):
        results = []
        for _ in range(2):
            model = tiny_model(seed=5)
            _, history = train_loop(
                model, toy_samples(48), toy_samples(16, seed=1), TrainConfig(seed=9, max_epochs=3, batch_size=16)
            )
            results.append((tuple(history.train_loss), tuple(history.val_roc_auc)))
        assert results[0] == results[1]

    def test_single_class_validation_aborts_with_counts(self):
        val = toy_samples(8)
        for s in val:
            s.y = 1
        with pytest.raises(DataError, match=r"pos=8, neg=0"):
            train_loop(tiny_model(), toy_samples(12), val, TrainConfig(max_epochs=2))

    def test_pos_weight_from_train_only(self):
        train = toy_samples(40)
        for s in train[:30]:
            s.y = 0
        for s in train[30:]:
            s.y = 1
        _, history = train_loop(tiny_model(), train, toy_samples(10, seed=2), TrainConfig(max_epochs=1))
        assert history.pos_weight == 3.0

    def test_best_params_reproduce_best_auc(self):
        model = tiny_model(seed=3)
        val = toy_samples(20, seed=4)
        _, history = train_loop(model, toy_samples(60, seed=3), val, TrainConfig(seed=1, max_epochs=4, batch_size=16))
        replayed = evaluate(model, val).roc_auc
        assert replayed == history.val_roc_auc[history.best_epoch]

    def test_previous_step_graph_freed_before_next_forward(self, monkeypatch):
        """No forward (training step or validation) runs while an earlier step's loss is alive."""
        model = tiny_model(seed=11)
        roots = []
        forward, bce = model.forward, train.weighted_bce

        def checked_forward(x, training=False, rng=None):
            assert all(ref() is None for ref in roots), "a previous step's graph is still alive"
            return forward(x, training=training, rng=rng)

        def recorded_bce(y_hat, y, pos_weight=1.0):
            loss = bce(y_hat, y, pos_weight)
            roots.append(weakref.ref(loss))
            return loss

        model.forward = checked_forward
        monkeypatch.setattr(train, "weighted_bce", recorded_bce)
        train_loop(model, toy_samples(40), toy_samples(12, seed=1), TrainConfig(max_epochs=2, batch_size=8))
        assert len(roots) == 10

    @pytest.mark.parametrize("cfg", [ModelConfig(), ModelConfig.reference_preset(encoder_layers=2),
                                     ModelConfig(dropout_rate=0.0)], ids=["default", "reference", "no_dropout"])
    def test_same_bytes_for_any_worker_count(self, monkeypatch, cfg):
        """The backward's parameter products run on pool threads, and every leaf grad is
        summed in walk order: params and history are the serial run's bytes.  At
        ``dropout_rate=0`` the wo product reads the array the input chain goes on from."""
        train, val = toy_samples(48, lookback=cfg.lookback, seed=12), toy_samples(16, lookback=cfg.lookback, seed=13)
        runs = []
        for workers in (0, 1, 3):
            monkeypatch.setattr(T, "_WORKERS", workers)
            params, history = train_loop(SeizureFormer(cfg, np.random.default_rng(12)), train, val,
                                         TrainConfig(seed=4, max_epochs=2, batch_size=16))
            runs.append(({name: t.data.tobytes() for name, t in params.items()},
                         np.array(history.train_loss + history.val_roc_auc).tobytes()))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_stop_reason_max_epochs(self):
        model = tiny_model(seed=6)
        _, history = train_loop(
            model, toy_samples(24), toy_samples(12, seed=5), TrainConfig(max_epochs=2, patience=5, batch_size=8)
        )
        assert history.stop_reason == "max_epochs"


class TestEvaluate:
    def test_constant_scores_give_half(self):
        model = _ScriptedModel([np.full(12, 0.5)])
        rep = evaluate(model, toy_samples(12))
        assert rep.roc_auc == 0.5

    def test_perfect_ranking(self):
        samples = toy_samples(12)
        model = _ScriptedModel([np.array([s.y for s in samples], dtype=float)])
        assert evaluate(model, samples).roc_auc == 1.0

    def test_matches_metrics_recomputation_bitwise(self):
        from seizureformer import metrics

        samples = toy_samples(20, seed=7)
        model = tiny_model(seed=7)
        rep = evaluate(model, samples)
        assert rep.roc_auc == metrics.roc_auc(rep.scores, rep.labels)
        assert rep.pr_auc == metrics.pr_auc(rep.scores, rep.labels)

    def test_single_class_errors(self):
        samples = toy_samples(6)
        for s in samples:
            s.y = 0
        with pytest.raises(DataError, match="single-class"):
            evaluate(tiny_model(), samples)

    def test_scores_match_recorded_forward_bytes(self):
        samples = toy_samples(21, seed=8)
        model = tiny_model(seed=8)
        rep = evaluate(model, samples, batch_size=8)
        x, _ = samples_to_arrays(samples)
        recorded = []
        for start in range(0, len(x), 8):
            out = model.forward(x[start : start + 8], training=False)
            assert out.requires_grad
            recorded.append(out.data.reshape(-1))
        assert np.array(rep.scores).tobytes() == np.concatenate(recorded).tobytes()

    @pytest.mark.parametrize("workers", [0, 1, 3])
    def test_scores_same_for_any_worker_count(self, monkeypatch, workers):
        """150 windows at default widths are 300 sequences, several chunks of the encoder's
        no-grad pass: the scores are the recorded forward's bytes whichever thread runs each."""
        model = SeizureFormer(ModelConfig(), np.random.default_rng(11))
        samples = toy_samples(150, lookback=model.config.lookback, seed=11)
        x, _ = samples_to_arrays(samples)
        recorded = model.forward(x, training=False)
        assert recorded.requires_grad
        monkeypatch.setattr(T, "_WORKERS", workers)
        assert np.array(evaluate(model, samples).scores).tobytes() == recorded.data.reshape(-1).tobytes()

    def test_forward_keeps_no_graph(self):
        model = tiny_model(seed=9)
        outputs = []
        forward = model.forward

        def spy(x, training=False, rng=None):
            outputs.append(forward(x, training=training, rng=rng))
            return outputs[-1]

        model.forward = spy
        evaluate(model, toy_samples(20, seed=9), batch_size=8)
        assert len(outputs) == 3
        assert all(not out.requires_grad and out._prev == () for out in outputs)

    def test_train_step_after_evaluate_fills_every_grad(self):
        samples = toy_samples(16, seed=10)
        model = tiny_model(seed=10)
        evaluate(model, samples)
        x, y = samples_to_arrays(samples)
        params = model.params
        zero_grad(params)
        weighted_bce(model.forward(x, training=True, rng=np.random.default_rng(0)), y).backward()
        missing = [name for name, p in params.items() if p.grad is None]
        assert not missing


class TestManifest:
    def test_flat_sorted_deterministic(self, tmp_path):
        path = tmp_path / "run.txt"
        write_manifest(path, {"b": 1.5, "a": True, "c": (1, 2, 3), "d": "adam"})
        assert path.read_text() == "a=true\nb=1.5\nc=1,2,3\nd=adam\n"
