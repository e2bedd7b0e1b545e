"""Seeded synthetic patient series with planted weekly and multi-week cycles.

A latent daily risk level drives both the A+B detection counts and the LE
counts, so the label signal is genuinely recoverable from the input features.
Counts come from an inverse-CDF Poisson sampler fed by one explicit RNG,
which keeps generation bit-reproducible per seed.
"""

from __future__ import annotations

import dataclasses
import datetime
import math
from dataclasses import dataclass

import numpy as np

from .data import PatientSeries

START_DATE = datetime.date(2015, 1, 1)
AR_COEFF = 0.8  # slow-moving residual state, not white noise
WEEKLY_PERIOD = 7


@dataclass
class SynthConfig:
    seed: int = 0
    days: int = 1000
    base_rate: float = 20.0
    weekly_amplitude: float = 0.6
    multiweek_period: int = 28
    multiweek_amplitude: float = 2.5
    noise_scale: float = 0.25
    le_gain: float = 8.0
    channel_correlation: float = 0.5

    def validate(self) -> None:
        if self.days < 120:
            raise ValueError(f"days must be >= 120 to cover labeling warm-up, got {self.days}")
        for name in ("base_rate", "weekly_amplitude", "multiweek_amplitude", "noise_scale", "le_gain"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.channel_correlation <= 1.0:
            raise ValueError(f"channel_correlation must be in [0, 1], got {self.channel_correlation}")
        if self.multiweek_period < 2:
            raise ValueError("multiweek_period must be >= 2")
        if self.base_rate > 250 or self.le_gain > 250:
            raise ValueError("rates above 250/day are outside the sampler's intended range")


def _poisson_icdf(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per element (lam >= 0, u in [0, 1)): the smallest k with CDF(k) >= u, via the pmf
    recurrence p_k = p_{k-1}*lam/k capped at lam + 12*sqrt(lam + 1) + 30.  Each step
    advances only the elements still below both their u and their cap."""
    shape, lam, u = lam.shape, lam.ravel(), u.ravel()
    # libm's exp keeps each count equal to the scalar recurrence's; numpy's SIMD exp differs in the last bit for ~5 %
    p = np.array([math.exp(-v) for v in lam.tolist()])
    cdf = p.copy()
    k = np.zeros(lam.size, dtype=np.int64)
    cap = (lam + 12.0 * np.sqrt(lam + 1.0) + 30.0).astype(np.int64)
    live = np.flatnonzero(u > cdf)  # every cap is at least 42, so only u can stop the first step
    while live.size:
        k[live] += 1
        p[live] *= lam[live] / k[live]
        cdf[live] += p[live]
        live = live[(u[live] > cdf[live]) & (k[live] < cap[live])]
    return k.reshape(shape)


def latent_risk(cfg: SynthConfig) -> np.ndarray:
    """Daily risk in (0, 1): squashed sum of two sinusoids and AR(1) noise."""
    rng = np.random.default_rng(cfg.seed)
    eps = rng.standard_normal(cfg.days)
    t = np.arange(cfg.days)
    drive = cfg.weekly_amplitude * np.sin(2 * np.pi * t / WEEKLY_PERIOD)
    drive = drive + cfg.multiweek_amplitude * np.sin(2 * np.pi * t / cfg.multiweek_period)
    ar = 0.0
    noise = np.zeros(cfg.days)
    for i in range(cfg.days):
        ar = AR_COEFF * ar + cfg.noise_scale * eps[i]
        noise[i] = ar
    risk = 1.0 / (1.0 + np.exp(-(drive + noise)))
    return np.clip(risk, 0.0, 1.0)


def generate_patient(cfg: SynthConfig) -> PatientSeries:
    """One synthetic patient; identical bytes for identical configs."""
    cfg.validate()
    risk = latent_risk(cfg)
    # a second generator keeps the count draws independent of the risk path length
    rng = np.random.default_rng((cfg.seed, 1))
    u = rng.random((cfg.days, 3))
    ab_rate = cfg.base_rate * (1.0 + risk)
    ab1, ab2_raw, le = _poisson_icdf(np.stack([ab_rate, ab_rate, cfg.le_gain * risk], axis=1), u).T
    # np.rint, like Python's round, takes halves to even
    ab2 = np.rint(cfg.channel_correlation * ab1 + (1.0 - cfg.channel_correlation) * ab2_raw).astype(np.int64)
    days = np.datetime64(START_DATE, "D") + np.arange(cfg.days)
    return PatientSeries.from_arrays(f"synth-{cfg.seed}", days, np.stack([ab1, ab2, le], axis=1))


def generate_cohort(seeds: list[int], template: SynthConfig | None = None) -> list[PatientSeries]:
    """One patient per seed, ids ``synth-<seed>``; duplicate seeds are an error."""
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        dupes = sorted({s for s in seeds if seeds.count(s) > 1})
        raise ValueError(f"duplicate seeds: {dupes}")
    template = template or SynthConfig()
    return [generate_patient(dataclasses.replace(template, seed=s)) for s in seeds]
