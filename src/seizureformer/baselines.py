"""Comparison models trained on the same window samples as the main network:
L2-regularized logistic regression, a log-link Poisson rate model scored
against the binary labels, and a trend/seasonal decomposition linear model.

Logistic and Poisson fits are damped Newton ascents on concave objectives,
run to gradient norm < 1e-6; a fit still short of that after ``MAX_ITER``
steps raises ``FloatingPointError`` rather than returning its weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, WindowSample, WindowSet, samples_to_arrays
from .tensor import Tensor, _sigmoid, add, matmul, sigmoid

GRAD_TOL = 1e-6
MAX_ITER = 100
MOVING_AVG = 5  # DLinear's centered trend window, in days


@dataclass
class BaselineModel:
    kind: str
    weights: np.ndarray
    iterations: int


def window_features(samples: WindowSet | list[WindowSample]) -> np.ndarray:
    """Flattened (lookback, channels) window per sample plus a trailing intercept column."""
    x, _ = samples_to_arrays(samples)
    return np.hstack([x.transpose(0, 2, 1).reshape(len(x), -1), np.ones((len(x), 1))])


def _newton_fit(kind: str, x: np.ndarray, loglik, moments, l2: float) -> BaselineModel:
    """Maximize ``loglik(X w) - (l2/2)||w[:-1]||^2``; the last column is the unpenalized intercept.

    ``loglik(eta)`` is the mean log-likelihood and ``moments(eta)`` its
    per-row derivative and negated second derivative in eta. Each step halves
    the Newton direction until the objective rises enough (Armijo), which also
    keeps a log link's exp(X w) finite.
    """
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    n, d = x.shape
    penalty = np.full(d, l2)
    penalty[-1] = 0.0

    def objective(w: np.ndarray) -> float:
        with np.errstate(over="ignore"):
            value = loglik(x @ w) - 0.5 * np.sum(penalty * w * w)
        return value if np.isfinite(value) else -np.inf

    w = np.zeros(d)
    current = objective(w)
    for iterations in range(1, MAX_ITER + 1):
        residual, curvature = moments(x @ w)
        grad = x.T @ residual / n - penalty * w
        if np.linalg.norm(grad) < GRAD_TOL:
            return BaselineModel(kind, w, iterations)
        direction = np.linalg.solve((x.T * curvature) @ x / n + np.diag(penalty), grad)
        rise = 1e-4 * (grad @ direction)
        step = 1.0
        proposal = objective(w + direction)
        while proposal < current + step * rise and step > 1e-18:
            step *= 0.5
            proposal = objective(w + step * direction)
        w = w + step * direction
        current = proposal
    raise FloatingPointError(f"{kind} fit did not reach gradient norm {GRAD_TOL} in {MAX_ITER} Newton steps")


def logistic_fit(x: np.ndarray, y: np.ndarray, l2: float = 1e-4) -> BaselineModel:
    """Maximize the mean Bernoulli log-likelihood minus (l2/2)||w||^2, intercept unpenalized."""
    y = np.asarray(y, dtype=np.float64)
    if len(np.unique(y)) < 2:
        raise DataError("logistic regression needs both classes in the training labels")

    def moments(eta: np.ndarray):
        p = _sigmoid(eta)
        return y - p, p * (1.0 - p)

    return _newton_fit("logistic", x, lambda eta: np.mean(y * eta - np.logaddexp(0.0, eta)), moments, l2)


def logistic_predict(model: BaselineModel, x: np.ndarray) -> np.ndarray:
    return _sigmoid(x @ model.weights)


def poisson_fit(x: np.ndarray, targets: np.ndarray, l2: float = 1e-4) -> BaselineModel:
    """Log-link rate model over non-negative integer targets (horizon LE sums)."""
    t = np.asarray(targets, dtype=np.float64)
    if np.any(t < 0) or np.any(t != np.round(t)):
        raise ValueError("Poisson targets must be non-negative integers")

    def moments(eta: np.ndarray):
        lam = np.exp(eta)
        return t - lam, lam

    return _newton_fit("poisson", x, lambda eta: np.mean(t * eta - np.exp(eta)), moments, l2)


def poisson_predict(model: BaselineModel, x: np.ndarray) -> np.ndarray:
    """Expected horizon counts; used directly as risk scores."""
    return np.exp(x @ model.weights)


# -- trend/seasonal linear model ------------------------------------------------


def decompose_window(x: np.ndarray, moving_avg: int = MOVING_AVG) -> tuple[np.ndarray, np.ndarray]:
    """Split (..., n, d) windows into a centered-moving-average trend over n and
    the seasonal remainder; edges replicate so trend + seasonal == x exactly."""
    if moving_avg % 2 == 0 or moving_avg < 1:
        raise ValueError(f"moving average window must be odd and positive, got {moving_avg}")
    n = x.shape[-2]
    if moving_avg > n:
        raise ValueError(f"moving average window {moving_avg} exceeds lookback {n}")
    pad = moving_avg // 2
    padded = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(pad, pad), (0, 0)], mode="edge")
    trend = np.zeros_like(x, dtype=np.float64)
    for j in range(moving_avg):
        trend += padded[..., j : j + n, :]
    trend /= moving_avg
    return trend, x - trend


class DLinearModel:
    """Sigmoid score over separate linear maps of the trend and seasonal parts.

    Shares the training-loop/model interface of the main network so it trains
    with the same weighted BCE loop.
    """

    def __init__(self, lookback: int, channels: int, rng: np.random.Generator):
        flat = lookback * channels
        bound = 1.0 / np.sqrt(flat)
        self.params = {
            "trend.weight": Tensor(rng.uniform(-bound, bound, (flat, 1)), requires_grad=True),
            "seasonal.weight": Tensor(rng.uniform(-bound, bound, (flat, 1)), requires_grad=True),
            "bias": Tensor(np.zeros(1), requires_grad=True),
        }

    def forward(self, x: np.ndarray, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        # x arrives (B, channels, lookback); decomposition runs over time
        batch = x.shape[0]
        trends, seasonals = decompose_window(np.transpose(x, (0, 2, 1)))
        t_flat = Tensor(trends.reshape(batch, -1))
        s_flat = Tensor(seasonals.reshape(batch, -1))
        logits = add(matmul(t_flat, self.params["trend.weight"]), matmul(s_flat, self.params["seasonal.weight"]))
        return sigmoid(add(logits, self.params["bias"]))
