"""Multi-day seizure risk forecasting from daily RNS biomarkers.

Layers: a float64 autodiff core (`tensor`), the data pipeline (`data`),
seeded synthetic cohorts (`synth`), the patch-attention network (`model`),
training (`train`), exact ranking metrics (`metrics`), reference baselines
(`baselines`), gradient verification (`gradcheck`), the key=value codec
(`kv`), and the CLI (`cli`).
"""

from .data import (
    DailyRecord,
    NormalizedSeries,
    PatientSeries,
    RiskLabels,
    WindowSample,
    WindowSet,
    compute_pos_weight,
    label_days,
    make_windows,
    parse_csv,
    split_chronological,
    zscore_normalize,
)
from .metrics import MetricsReport, pr_auc, roc_auc
from .model import ModelConfig, SeizureFormer, weighted_bce
from .synth import SynthConfig, generate_cohort, generate_patient
from .tensor import Tensor, grad_check
from .train import TrainConfig, TrainHistory, evaluate, train_loop

__version__ = "0.1.0"

__all__ = [
    "DailyRecord",
    "MetricsReport",
    "ModelConfig",
    "NormalizedSeries",
    "PatientSeries",
    "RiskLabels",
    "SeizureFormer",
    "SynthConfig",
    "Tensor",
    "TrainConfig",
    "TrainHistory",
    "WindowSample",
    "WindowSet",
    "compute_pos_weight",
    "evaluate",
    "generate_cohort",
    "generate_patient",
    "grad_check",
    "label_days",
    "make_windows",
    "parse_csv",
    "pr_auc",
    "roc_auc",
    "split_chronological",
    "train_loop",
    "weighted_bce",
    "zscore_normalize",
]
