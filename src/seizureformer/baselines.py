"""Comparison models trained on the same window samples as the main network:
L2-regularized logistic regression, a log-link Poisson rate model scored
against the binary labels, and a trend/seasonal decomposition linear model.

Logistic and Poisson fits are full-batch gradient ascent on concave
objectives, run to gradient norm < 1e-6 or an iteration cap; non-convergence
is reported on the returned model rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, WindowSample, WindowSet, samples_to_arrays
from .tensor import Tensor, matmul, sigmoid

GRAD_TOL = 1e-6
MAX_ITER = 10_000
MOVING_AVG = 5  # DLinear's centered trend window, in days


@dataclass
class BaselineModel:
    kind: str
    weights: np.ndarray
    iterations: int
    converged: bool


def window_features(samples: WindowSet | list[WindowSample]) -> np.ndarray:
    """Flattened (lookback, channels) window per sample plus a trailing intercept column."""
    x, _ = samples_to_arrays(samples)
    return np.hstack([x.transpose(0, 2, 1).reshape(len(x), -1), np.ones((len(x), 1))])


def _penalized(w: np.ndarray) -> np.ndarray:
    """Weight vector with the intercept (last coordinate) left unpenalized."""
    out = w.copy()
    out[-1] = 0.0
    return out


def _lipschitz_bound(x: np.ndarray, curvature: float, l2: float) -> float:
    # power iteration on X^T X gives the top eigenvalue deterministically
    v = np.ones(x.shape[1]) / np.sqrt(x.shape[1])
    lam = 1.0
    for _ in range(50):
        v = x.T @ (x @ v)
        lam = np.linalg.norm(v)
        if lam == 0:
            return l2 + 1e-12
        v = v / lam
    return curvature * lam / x.shape[0] + l2


def _sigmoid(z: np.ndarray) -> np.ndarray:
    t = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def logistic_fit(x: np.ndarray, y: np.ndarray, l2: float = 1e-4) -> BaselineModel:
    """Maximize the mean Bernoulli log-likelihood minus (l2/2)||w||^2.

    Full-batch gradient ascent with Barzilai-Borwein step sizes (falling back
    to 1/L when the curvature estimate is unusable); plain 1/L steps crawl on
    near-separable data.
    """
    y = np.asarray(y, dtype=np.float64)
    if len(np.unique(y)) < 2:
        raise DataError("logistic regression needs both classes in the training labels")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    n = len(y)
    w = np.zeros(x.shape[1])
    base_lr = 1.0 / _lipschitz_bound(x, 0.25, l2)
    w_prev = grad_prev = None
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        grad = x.T @ (y - _sigmoid(x @ w)) / n - l2 * _penalized(w)
        if np.linalg.norm(grad) < GRAD_TOL:
            converged = True
            break
        if grad_prev is None:
            alpha = base_lr
        else:
            s = w - w_prev
            curve = s @ (grad_prev - grad)
            alpha = min(s @ s / curve, 1e8) if curve > 1e-30 else base_lr
        w_prev, grad_prev = w, grad
        w = w + alpha * grad
    return BaselineModel("logistic", w, iterations, converged)


def logistic_predict(model: BaselineModel, x: np.ndarray) -> np.ndarray:
    return _sigmoid(x @ model.weights)


def poisson_fit(x: np.ndarray, targets: np.ndarray, l2: float = 1e-4) -> BaselineModel:
    """Log-link rate model over non-negative integer targets (horizon LE sums).

    Backtracking on the objective keeps exp(X w) finite while the ascent runs.
    """
    t = np.asarray(targets, dtype=np.float64)
    if np.any(t < 0) or np.any(t != np.round(t)):
        raise ValueError("Poisson targets must be non-negative integers")
    n = len(t)

    def objective(w: np.ndarray) -> float:
        eta = x @ w
        with np.errstate(over="ignore"):
            lam = np.exp(eta)
        if not np.all(np.isfinite(lam)):
            return -np.inf
        return float((t * eta - lam).mean() - 0.5 * l2 * np.sum(_penalized(w) ** 2))

    w = np.zeros(x.shape[1])
    current = objective(w)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        with np.errstate(over="ignore"):
            lam = np.exp(x @ w)
        grad = x.T @ (t - lam) / n - l2 * _penalized(w)
        gnorm = np.linalg.norm(grad)
        if gnorm < GRAD_TOL:
            converged = True
            break
        step = 1.0
        proposal = objective(w + step * grad)
        while proposal < current + 1e-4 * step * gnorm**2 and step > 1e-18:
            step *= 0.5
            proposal = objective(w + step * grad)
        w = w + step * grad
        current = proposal
    return BaselineModel("poisson", w, iterations, converged)


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
        logits = matmul(t_flat, self.params["trend.weight"]) + matmul(s_flat, self.params["seasonal.weight"])
        return sigmoid(logits + self.params["bias"])
