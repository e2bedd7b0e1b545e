"""Finite-difference verification of every differentiable operation and of the
full forward-plus-loss composition at small dimensions.

Each check wraps an operation into a scalar-valued function of one tensor and
compares the analytic gradient against central differences.  The model check
runs one closure per parameter so a failure names the offending weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import ModelConfig, SeizureFormer, weighted_bce
from .tensor import Tensor, grad_check

DEFAULT_THRESHOLD = 1e-4
DEFAULT_EPSILON = 1e-5
CHECK_SEED = 7  # draws every op input and the small model's weights


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.threshold


def _weighted_mean(out: Tensor) -> Tensor:
    """A scalar that weighs the elements of ``out`` 1, 2, ..., n: every element's grad
    is checked with a distinct weight, and no generator is drawn from."""
    return T.mean(T.mul(out, Tensor(np.arange(1.0, out.size + 1).reshape(out.shape))), tuple(range(out.ndim)))


def _op_checks(rng: np.random.Generator) -> list[tuple[str, object, Tensor]]:
    a53 = Tensor(rng.standard_normal((5, 3)))
    b34 = Tensor(rng.standard_normal((3, 4)))
    vec = Tensor(rng.standard_normal(9))
    grid = Tensor(rng.standard_normal((2, 7, 4)))
    w1d = Tensor(rng.standard_normal((3, 5)))
    bias = Tensor(rng.standard_normal(3))
    k2d = Tensor(rng.standard_normal((3, 3)))
    rows = Tensor(rng.standard_normal((4, 6)))
    pieces = Tensor(rng.standard_normal((2, 3)))
    positive = Tensor(rng.random(7) + 0.5)
    mix = Tensor(rng.standard_normal((5, 3)))
    # built from the draws above so the model checks see the same rng state
    ln_eps = 1e-5
    w_fold = Tensor(b34.data.T)
    # an embedding of grid's 4-wide rows: a (2, 3) kernel through a (4, 3) band, then the (4, 3) linear block
    emb = dict(input=grid, kernel=pieces, linear=w_fold, bias=Tensor(vec.data[:5]), proj=a53,
               pos=Tensor(grid.data[0, :, :3]))

    def embed(name: str, t: Tensor) -> Tensor:
        e = {**emb, name: t}
        banks = [(e["kernel"], a53.data[:4]), (e["linear"], None)]
        return _weighted_mean(T.folded_embed(e["input"], banks, [e["bias"]], e["proj"], e["pos"]))
    # an encoder layer over grid (d=4): two heads of width 2, an FFN of width 6
    enc_wt = [Tensor(m) for src in (a53.data, b34.data.T, mix.data) for m in (src[:4, :2], src[-4:, -2:])]
    enc_args = ((Tensor(1.0 + vec.data[:4]), Tensor(vec.data[4:8])), [tuple(enc_wt[0::2]), tuple(enc_wt[1::2])],
                Tensor(grid.data[0, :4]), (Tensor(1.0 + grid.data[1, 0]), Tensor(grid.data[1, 1])),
                (rows, Tensor(pieces.data.reshape(-1)), Tensor(rows.data.T), Tensor(positive.data[:4])))
    # probabilities in (0.1, 0.9), well inside the loss's clamp, and mixed labels
    probs, labels = Tensor(0.5 + 0.4 * np.tanh(w1d.data)), np.arange(w1d.size) % 3 == 0

    return [
        ("add_broadcast", lambda t: _weighted_mean(T.mul(T.add(t, Tensor(np.ones((1, 3)))), Tensor(2.0))), a53),
        ("mul_broadcast", lambda t: _weighted_mean(T.mul(t, Tensor(np.arange(1.0, 4.0)))), a53),
        ("matmul_left", lambda t: _weighted_mean(T.matmul(t, b34)), a53),
        ("matmul_right", lambda t: _weighted_mean(T.matmul(a53, t)), b34),
        ("matmul_bias_input", lambda t: _weighted_mean(T.matmul(t, w_fold, bias)), grid),
        ("matmul_bias_bias", lambda t: _weighted_mean(T.matmul(grid, w_fold, t)), bias),
        ("reshape", lambda t: _weighted_mean(T.reshape(t, (3, 3))), vec),
        ("mean_axes", lambda t: _weighted_mean(T.mean(t, (-2, -1))), grid),
        ("encoder_layer_input", lambda t: _weighted_mean(T.encoder_layer(t, *enc_args, ln_eps, 0.5)), grid),
        ("sigmoid", lambda t: _weighted_mean(T.sigmoid(t)), vec),
        ("relu", lambda t: _weighted_mean(T.relu(t)), vec),
        ("dropout_eval", lambda t: _weighted_mean(T.dropout(t, 0.5, training=False)), vec),
        ("conv2d_input", lambda t: _weighted_mean(T.conv2d(t, k2d)), grid),
        ("conv2d_kernel", lambda t: _weighted_mean(T.conv2d(grid, t)), k2d),
        ("weighted_bce_input", lambda t: weighted_bce(t, labels, 2.5), probs),
    ] + [(f"folded_embed_{name}", lambda t, name=name: embed(name, t), value) for name, value in emb.items()]


def small_model_config() -> ModelConfig:
    return ModelConfig(
        lookback=16,
        channels=2,
        patch_length=4,
        stride=2,
        kernel_sizes=(3, 5),
        embed_features=3,
        embed_dim=8,
        heads=2,
        encoder_layers=1,
        ffn_dim=16,
        dropout_rate=0.2,
    )


def _model_checks(rng: np.random.Generator) -> list[tuple[str, object, Tensor]]:
    cfg = small_model_config()
    model = SeizureFormer(cfg, rng)
    x = rng.standard_normal((2, cfg.channels, cfg.lookback))
    y = np.array([0.0, 1.0])
    pos_weight = 2.0

    checks = []
    for name in model.params:
        def loss_of(t: Tensor, _name: str = name) -> Tensor:
            original = model.params[_name]
            model.params[_name] = t
            try:
                return weighted_bce(model.forward(x, training=False), y, pos_weight)
            finally:
                model.params[_name] = original

        checks.append((f"model.{name}", loss_of, model.params[name]))
    return checks


def run_all(epsilon: float = DEFAULT_EPSILON, threshold: float = DEFAULT_THRESHOLD) -> list[CheckResult]:
    """Gradient-check every op and every model parameter; returns one result
    per check, in a fixed order."""
    rng = np.random.default_rng(CHECK_SEED)
    checks = _op_checks(rng) + _model_checks(rng)
    results = []
    for name, fn, x in checks:
        err = grad_check(fn, x, epsilon)
        results.append(CheckResult(name, err, threshold))
    return results
