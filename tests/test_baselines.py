import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from seizureformer import baselines
from seizureformer.baselines import (
    BaselineModel,
    DLinearModel,
    decompose_window,
    logistic_fit,
    logistic_predict,
    poisson_fit,
    poisson_predict,
    window_features,
)
from seizureformer.data import DataError, WindowSample, label_days, make_windows, zscore_normalize
from seizureformer.synth import SynthConfig, generate_patient
from seizureformer.train import TrainConfig, train_loop

from oracles import (
    backtracking_poisson_ascent,
    bb_logistic_ascent,
    logistic_gradient,
    logistic_objective,
    poisson_gradient,
    poisson_objective,
)

DAY0 = datetime.date(2021, 6, 1)


def make_samples(n=40, lookback=12, seed=0, separation=1.5):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        y = i % 2
        x = rng.standard_normal((lookback, 2))
        x[:, 0] += separation * (1 if y else -1)
        samples.append(
            WindowSample(
                x=x, y=y, horizon=3,
                anchor_date=DAY0 + datetime.timedelta(days=i),
                horizon_le_sum=int(rng.integers(0, 9)),
            )
        )
    return samples


class TestFeatures:
    def test_intercept_column(self):
        feats = window_features(make_samples(5, lookback=4))
        assert feats.shape == (5, 4 * 2 + 1)
        assert_allclose(feats[:, -1], 1.0)

    def test_window_set_matches_sample_list_bytes(self):
        series = generate_patient(SynthConfig(seed=6, days=200))
        windows = make_windows(zscore_normalize(series), label_days(series), 10, 3)
        samples = list(windows)
        per_row = np.stack([s.x.reshape(-1) for s in samples])  # (lookback, channels) rows flattened
        feats = window_features(windows)
        assert feats.tobytes() == window_features(samples).tobytes()
        assert feats.tobytes() == np.hstack([per_row, np.ones((len(samples), 1))]).tobytes()


class TestLogistic:
    def test_separable_order_preserved(self):
        x = np.array([[-1.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 1])
        model = logistic_fit(x, y)
        probs = logistic_predict(model, x)
        assert probs[1] > probs[0]

    def test_single_class_errors(self):
        with pytest.raises(DataError, match="both classes"):
            logistic_fit(np.ones((3, 2)), np.zeros(3))

    def test_gradient_norm_at_optimum(self):
        samples = make_samples(60, seed=1)
        x = window_features(samples)
        y = np.array([s.y for s in samples])
        model = logistic_fit(x, y)
        assert np.linalg.norm(logistic_gradient(model.weights, x, y)) < 1e-6

    def test_objective_beats_zero_weights(self):
        """Concave objective: the fit must be at least as good as w = 0."""
        samples = make_samples(50, seed=2)
        x = window_features(samples)
        y = np.array([s.y for s in samples], dtype=float)

        def objective(w):
            p = 1.0 / (1.0 + np.exp(-(x @ w)))
            return float(np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))

        model = logistic_fit(x, y)
        assert objective(model.weights) >= objective(np.zeros(x.shape[1]))


class TestPoisson:
    def test_zero_weights_rate_one(self):
        model = poisson_fit(np.ones((4, 1)), np.array([1, 1, 1, 1]))
        # any fit aside: predicted rate with zero weights is exp(0)
        zero = poisson_predict(BaselineModel("poisson", np.zeros(1), 0), np.ones((4, 1)))
        assert_allclose(zero, 1.0)

    def test_intercept_only_recovers_mean(self):
        """MLE of a constant-rate model is the sample mean."""
        targets = np.array([4, 4, 4, 4, 4])
        model = poisson_fit(np.ones((5, 1)), targets, l2=0.0)
        assert_allclose(poisson_predict(model, np.ones((1, 1)))[0], 4.0, atol=1e-4)

    def test_large_mean_needs_damped_steps(self):
        """A full Newton step from zero lands at exp(999), which overflows; the halved steps do not."""
        model = poisson_fit(np.ones((5, 1)), np.full(5, 1000), l2=0.0)
        assert_allclose(poisson_predict(model, np.ones((1, 1)))[0], 1000.0, rtol=0, atol=1e-6)

    def test_gradient_norm_small(self):
        rng = np.random.default_rng(3)
        x = np.hstack([rng.standard_normal((80, 3)) * 0.3, np.ones((80, 1))])
        targets = rng.poisson(2.0, size=80)
        model = poisson_fit(x, targets)
        assert np.linalg.norm(poisson_gradient(model.weights, x, targets)) < 1e-6

    def test_negative_targets_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            poisson_fit(np.ones((2, 1)), np.array([1, -1]))

    def test_objective_beats_zero_weights(self):
        rng = np.random.default_rng(10)
        x = np.hstack([rng.standard_normal((60, 2)) * 0.4, np.ones((60, 1))])
        targets = rng.poisson(3.0, size=60)

        def objective(w):
            eta = x @ w
            return float(np.mean(targets * eta - np.exp(eta)))

        model = poisson_fit(x, targets, l2=0.0)
        assert objective(model.weights) >= objective(np.zeros(3))

    def test_non_finite_features_rejected(self):
        x = np.ones((20, 3))
        x[7, 1] = np.nan
        with pytest.raises(ValueError, match="features must be finite"):
            poisson_fit(x, np.arange(20) % 4)

    def test_step_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = np.hstack([rng.standard_normal((80, 3)) * 0.3, np.ones((80, 1))])
        monkeypatch.setattr(baselines, "MAX_ITER", 1)
        with pytest.raises(FloatingPointError, match="poisson fit did not reach"):
            poisson_fit(x, rng.poisson(2.0, size=80))


def _design(draw, n, d):
    """n x (d + 1) design: bounded features plus the trailing intercept column."""
    return np.hstack([draw(arrays(np.float64, (n, d), elements=st.floats(-3.0, 3.0))), np.ones((n, 1))])


@st.composite
def logistic_problems(draw):
    n, d = draw(st.integers(2, 40)), draw(st.integers(0, 3))
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    y[draw(st.integers(1, n - 1))] = 1 - y[0]  # both classes
    return _design(draw, n, d), y


@st.composite
def poisson_problems(draw):
    n, d = draw(st.integers(1, 40)), draw(st.integers(0, 3))
    t = draw(arrays(np.int64, n, elements=st.integers(0, 12)))
    t[draw(st.integers(0, n - 1))] += 1  # some positive count, or the intercept has no optimum
    return _design(draw, n, d), t


def _at_least_ascent(fit, ascent, objective, gradient, x, targets):
    """The Newton fit reaches the gradient tolerance with an objective at least the ascent's.

    Both fits stop once the gradient norm is below 1e-6, so either may end
    nearer the optimum by a second-order amount. Concavity bounds the ascent's
    objective by the Newton point's tangent plane, f(w_a) <= f(w_n) + g_n . (w_a - w_n),
    which is what is asserted, with a few rounding units of the objective to spare.
    """
    w = fit(x, targets).weights
    g = gradient(w, x, targets)
    assert np.linalg.norm(g) < 1e-6
    reference, _ = ascent(x, targets)
    ours, theirs = objective(w, x, targets), objective(reference, x, targets)
    assert theirs <= ours + g @ (reference - w) + 1e-15 * max(1.0, abs(ours))


class TestNewtonAgainstAscent:
    @settings(max_examples=50, deadline=None)
    @given(logistic_problems())
    def test_logistic(self, problem):
        _at_least_ascent(logistic_fit, bb_logistic_ascent, logistic_objective, logistic_gradient, *problem)

    @settings(max_examples=50, deadline=None)
    @given(poisson_problems())
    def test_poisson(self, problem):
        _at_least_ascent(poisson_fit, backtracking_poisson_ascent, poisson_objective, poisson_gradient, *problem)


class TestDLinear:
    def test_constant_input_zero_seasonal(self):
        x = np.full((10, 2), 3.5)
        trend, seasonal = decompose_window(x, 5)
        assert_allclose(trend, 3.5)
        assert_allclose(seasonal, 0.0)

    def test_decomposition_reconstructs_exactly(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((15, 2))
        trend, seasonal = decompose_window(x, 5)
        assert_allclose(trend + seasonal, x, atol=0.0)

    def test_window_too_small(self):
        with pytest.raises(ValueError, match="exceeds"):
            decompose_window(np.zeros((3, 2)), 5)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            decompose_window(np.zeros((10, 2)), 4)

    def test_score_in_unit_interval(self):
        model = DLinearModel(lookback=12, channels=2, rng=np.random.default_rng(5))
        window = np.random.default_rng(6).standard_normal((12, 2))
        out = model.forward(window.T[None, :, :])  # (1, channels, lookback)
        assert out.shape == (1, 1)
        assert 0.0 < out.item() < 1.0

    def test_fit_learns_separable_data(self):
        train = make_samples(60, seed=7, separation=2.5)
        val = make_samples(20, seed=8, separation=2.5)
        model = DLinearModel(lookback=12, channels=2, rng=np.random.default_rng(9))
        _, history = train_loop(model, train, val, TrainConfig(seed=9, max_epochs=10, batch_size=16))
        assert max(history.val_roc_auc) > 0.9
