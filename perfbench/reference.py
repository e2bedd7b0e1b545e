"""Digests of the data pipeline's output and an independent reference for them.

A digest covers one (patient, horizon): the per-day risk labels, then for
each of the train/val/test splits its window count, the stacked lookback
matrices as float64 (N, lookback, channels), the labels, the anchor dates as
day ordinals and the horizon LE sums.  It depends only on those values, not on
how the program stores its windows, so an array-backed rewrite that keeps the
values keeps the digest.

`reference_digests` recomputes the same values straight from the CSV with
plain numpy, following the labeling and windowing rules in the README.  The
benchmark uses it for seeds that `digests.json` does not list.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
from pathlib import Path

import numpy as np

LABEL_WINDOW = 60
LABEL_FRACTION = 0.7
MIN_HISTORY = 7
UNLABELED = -1
TRAIN_FRAC, VAL_FRAC = 0.7, 0.1


def digest(day_labels, splits) -> str:
    """sha256 over the labels and, per split, (x, y, anchor ordinal, LE sum)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(day_labels, dtype=np.int8).tobytes())
    for x, y, anchors, le_sums in splits:
        h.update(np.int64(len(y)).tobytes())
        h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
        for column in (y, anchors, le_sums):
            h.update(np.ascontiguousarray(column, dtype=np.int64).tobytes())
    return h.hexdigest()


def program_digest(day_labels, splits) -> str:
    """Digest of the program's (train, val, test) lists of window samples."""
    columns = []
    for block in splits:
        x = np.stack([s.x for s in block]) if block else np.zeros((0,))
        columns.append(
            (
                x,
                [s.y for s in block],
                [s.anchor_date.toordinal() for s in block],
                [s.horizon_le_sum for s in block],
            )
        )
    return digest(day_labels, columns)


def reference_digests(csv_path: str | Path, lookback: int, horizons) -> dict[int, str]:
    """horizon -> digest, computed without the program."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = sorted(list(csv.reader(fh))[1:])
    days = np.array([datetime.date.fromisoformat(r[0]).toordinal() for r in rows])
    counts = np.array([[int(r[1]), int(r[2])] for r in rows], dtype=np.float64)
    le = np.array([int(r[3]) for r in rows], dtype=np.float64)

    mu = counts.mean(axis=0)
    sigma = counts.std(axis=0)
    z = np.zeros_like(counts)
    live = sigma > 0
    z[:, live] = (counts[:, live] - mu[live]) / sigma[live]

    # integer-valued float sums are exact, so cumsum means equal the slice means
    csum = np.concatenate([[0.0], np.cumsum(le)])
    labels = np.full(len(le), UNLABELED, dtype=np.int8)
    for i in range(MIN_HISTORY, len(le)):
        lo = max(0, i - LABEL_WINDOW)
        threshold = LABEL_FRACTION * ((csum[i] - csum[lo]) / (i - lo))
        labels[i] = 1 if le[i] > threshold else 0

    out = {}
    for horizon in horizons:
        anchors = []
        for i in range(lookback - 1, len(le) - horizon):
            if days[i + horizon] - days[i - lookback + 1] != lookback + horizon - 1:
                continue
            if np.any(labels[i + 1 : i + horizon + 1] == UNLABELED):
                continue
            anchors.append(i)
        n = len(anchors)
        k1 = int(n * TRAIN_FRAC + 1e-9)
        k2 = k1 + int(n * VAL_FRAC + 1e-9)
        blocks = [anchors[:k1], anchors[k1:k2], anchors[k2:]]
        for b in range(2):
            if blocks[b] and blocks[b + 1]:
                boundary = days[blocks[b + 1][0]]
                blocks[b] = [i for i in blocks[b] if days[i] + horizon < boundary]
        splits = []
        for block in blocks:
            idx = np.array(block, dtype=np.int64)
            x = np.stack([z[i - lookback + 1 : i + 1] for i in block]) if block else np.zeros((0,))
            y = [int(np.any(labels[i + 1 : i + horizon + 1] == 1)) for i in block]
            le_sums = [int(le[i + 1 : i + horizon + 1].sum()) for i in block]
            splits.append((x, y, days[idx] if block else [], le_sums))
        out[horizon] = digest(labels, splits)
    return out
