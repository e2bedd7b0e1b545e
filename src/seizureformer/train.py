"""Mini-batch training with class-weighted BCE, decoupled weight decay, and
early stopping on validation ROC AUC.

The loop owns one explicit RNG (seeded from the config) that drives both the
epoch shuffles and training-mode dropout, so a fixed seed reproduces the whole
history bit-for-bit.  The positive-class weight comes from the training split
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .data import DataError, WindowSample, WindowSet, compute_pos_weight, samples_to_arrays
from .kv import write_manifest  # noqa: F401  (perfbench traces the manifest writer as train.write_manifest)
from .model import weighted_bce
from .tensor import Tensor, no_grad, zero_grad

REFERENCE_BATCH_SIZE = 2048  # full-scale reference preset; the default below is laptop-sized

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# glibc returns a freed heap top to the OS, so every training step and eval batch faults its
# temporaries in again, until freeing a block of several MB raises its trim threshold: free 8 MB once
np.empty(2**20)


@dataclass
class TrainConfig:
    learning_rate: float = 0.003
    batch_size: int = 64
    weight_decay: float = 0.0001
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0

    def validate(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.batch_size < 1 or self.patience < 1 or self.max_epochs < 1:
            raise ValueError("batch_size, patience, max_epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_roc_auc: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stop_reason: str = ""
    pos_weight: float = 1.0
    notes: list[str] = field(default_factory=list)


class OptimizerState:
    """Per-parameter moment buffers for Adam."""

    def __init__(self):
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def optimizer_step(
    params: dict[str, Tensor],
    state: OptimizerState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One Adam update over all parameters; weight decay is decoupled from the
    adaptive step (theta -= lr * mhat/(sqrt(vhat)+eps) + lr * wd * theta)."""
    missing = [name for name, p in params.items() if p.grad is None]
    if missing:
        raise ValueError(f"missing gradients for: {', '.join(missing[:5])}")
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = p.grad
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        state.m[name] = m
        state.v[name] = v
        step = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        p.data = p.data - lr * step - lr * weight_decay * p.data


def evaluate(model, samples: WindowSet | list[WindowSample], batch_size: int = 512) -> metrics.MetricsReport:
    """Eval-mode scores over all samples plus both AUCs; needs both classes.

    The forward passes run under ``no_grad``, so no graph is kept.
    """
    if not samples:
        raise DataError("cannot evaluate an empty sample set")
    x, y = samples_to_arrays(samples)
    if len(np.unique(y)) < 2:
        raise DataError(f"single-class evaluation set (pos={int(y.sum())}, neg={int(len(y) - y.sum())})")
    scores = np.empty(len(y))
    with no_grad():
        for start in range(0, len(y), batch_size):
            out = model.forward(x[start : start + batch_size], training=False)
            scores[start : start + batch_size] = out.data.reshape(-1)
    return metrics.report(scores, y)


def train_loop(
    model,
    train_samples: WindowSet | list[WindowSample],
    val_samples: WindowSet | list[WindowSample],
    cfg: TrainConfig,
) -> tuple[dict[str, Tensor], TrainHistory]:
    """Fit the model, keep the best-validation-AUC parameters, and stop after
    ``patience`` epochs without improvement (first best wins ties).

    ``model`` needs ``forward`` and a ``params`` dict of tensors; the best
    epoch's values are copied out of ``model.params`` and written back there.
    """
    cfg.validate()
    if not train_samples:
        raise DataError("empty training split")
    x_train, y_train = samples_to_arrays(train_samples)
    _, y_val = samples_to_arrays(val_samples)
    if len(np.unique(y_val)) < 2:
        raise DataError(
            f"single-class validation split (pos={int(y_val.sum())}, neg={int(len(y_val) - y_val.sum())}); "
            "validation ROC AUC is undefined"
        )

    history = TrainHistory()
    try:
        history.pos_weight = compute_pos_weight(y_train)
    except DataError as exc:
        history.pos_weight = 1.0
        history.notes.append(f"training unweighted: {exc}")

    rng = np.random.default_rng(cfg.seed)
    state = OptimizerState()
    params = model.params
    best_auc = -math.inf
    best: dict[str, np.ndarray] = {}
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_samples))
        loss_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            y_hat = model.forward(x_train[batch], training=True, rng=rng)
            loss = weighted_bce(y_hat, y_train[batch], history.pos_weight)
            zero_grad(params)
            loss.backward()
            optimizer_step(params, state, cfg.learning_rate, cfg.weight_decay)
            loss_sum += loss.item() * len(batch)
            del y_hat, loss  # free this step's graph before the next forward builds one
        history.train_loss.append(loss_sum / len(train_samples))

        val_auc = evaluate(model, val_samples).roc_auc
        history.val_roc_auc.append(val_auc)
        if val_auc > best_auc:
            best_auc = val_auc
            history.best_epoch = epoch
            best = {name: t.data.copy() for name, t in params.items()}
        if epoch - history.best_epoch >= cfg.patience:
            history.stop_reason = "early_stopping"
            break
    else:
        history.stop_reason = "max_epochs"

    for name, values in best.items():
        params[name].data = values
    return params, history
