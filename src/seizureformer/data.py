"""Daily biomarker ingestion, per-patient normalization, risk labeling, and
window-sample construction with chronological splits.

The raw unit is one row per calendar day: A+B detection counts on two device
channels plus a long-episode count.  Labels are dynamic: a day is high risk
when its LE count strictly exceeds ``fraction`` times the trailing-window LE
mean.  Everything downstream (windows and splits) is deterministic for
a fixed input file.
"""

from __future__ import annotations

import csv
import datetime
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kv

DEFAULT_LABEL_WINDOW = 60
DEFAULT_LABEL_FRACTION = 0.7
DEFAULT_MIN_HISTORY = 7
DEFAULT_HORIZONS = (1, 3, 7, 14)

CSV_HEADER = ["date", "ab_ch1", "ab_ch2", "le_count"]

UNLABELED = -1  # warm-up days carry no label
EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]


class DataError(ValueError):
    """Malformed or degenerate input data (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class DailyRecord:
    date: datetime.date
    ab_ch1: int
    ab_ch2: int
    le_count: int

    def __post_init__(self):
        for name in ("ab_ch1", "ab_ch2", "le_count"):
            value = getattr(self, name)
            try:  # counts become int64; `<= 2**63 - 1`, since a numpy bool compares only with int64 values
                in_range = 0 <= value <= 2**63 - 1
            except (TypeError, OverflowError):
                in_range = False
            if not in_range:
                raise DataError(f"{name} must be non-negative and below 2**63, got {value} on {self.date}")


@dataclass
class PatientSeries:
    """One patient's days: ``records`` as a tuple, and the read-only arrays built from it once,
    ``dates`` (T,) datetime64[D] and ``counts`` (T, 3) int64 as ab_ch1, ab_ch2, le_count."""

    patient_id: str
    records: tuple[DailyRecord, ...]
    dates: np.ndarray = field(init=False, compare=False, repr=False)
    counts: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.records = tuple(self.records)
        ordinals = np.fromiter((r.date.toordinal() for r in self.records), np.int64, len(self.records))
        self.dates = (ordinals - EPOCH_ORDINAL).astype("datetime64[D]")
        rows = [(r.ab_ch1, r.ab_ch2, r.le_count) for r in self.records]
        counts = np.array(rows).reshape(-1, 3)
        if counts.size and counts.dtype.kind not in "biu":  # one dtype check; records are searched only on failure
            for r in self.records:
                for name in ("ab_ch1", "ab_ch2", "le_count"):
                    if not isinstance(value := getattr(r, name), (int, np.integer)):
                        raise DataError(f"{name} must be an integer, got {value} on {r.date}")
            counts = np.array(rows, np.int64)  # integer types numpy unites only as float, e.g. uint64 with int64
        self.counts = counts.astype(np.int64, copy=False).reshape(-1, 3)
        self.dates.flags.writeable = self.counts.flags.writeable = False
        for i in np.flatnonzero(np.diff(ordinals) <= 0)[:1]:  # the first pair out of order
            raise DataError(f"dates must be strictly increasing; saw {self.dates[i]} then {self.dates[i + 1]}")

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class ParseReport:
    reordered: bool
    gaps: list[tuple[datetime.date, datetime.date]]


@dataclass
class NormalizedSeries:
    patient_id: str
    dates: np.ndarray  # the series' own (T,) datetime64[D] array
    z: np.ndarray      # (T, channels) z-scores
    mu: np.ndarray     # (channels,)
    sigma: np.ndarray  # (channels,) population std


@dataclass
class RiskLabels:
    patient_id: str
    dates: np.ndarray  # the series' own (T,) datetime64[D] array
    labels: np.ndarray     # int8; UNLABELED for warm-up days
    le_counts: np.ndarray  # raw per-day LE counts, kept for count-target baselines


@dataclass
class WindowSample:
    x: np.ndarray  # (lookback, channels) normalized values, no missing entries
    y: int
    horizon: int
    anchor_date: datetime.date
    horizon_le_sum: int = 0


@dataclass(frozen=True, eq=False)
class WindowSet:
    """Window samples as row-aligned arrays in anchor-date order.  Slices and boolean
    masks give a ``WindowSet``; an int index or iteration gives a ``WindowSample``
    whose ``x`` is a (lookback, channels) view of this set's ``x``."""

    x: np.ndarray  # (N, channels, lookback) float64, the layout model.forward takes
    y: np.ndarray  # (N,) int64
    anchor: np.ndarray  # (N,) datetime64[D]
    horizon_le_sum: np.ndarray  # (N,) int64 summed LE counts over each horizon
    horizon: int

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return WindowSample(self.x[key].T, int(self.y[key]), self.horizon, self.anchor[key].item(),
                                int(self.horizon_le_sum[key]))
        return WindowSet(self.x[key], self.y[key], self.anchor[key], self.horizon_le_sum[key], self.horizon)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def parse_csv(path: str | Path, patient_id: str | None = None) -> tuple[PatientSeries, ParseReport]:
    """Read the canonical per-day CSV; rows come back date-sorted.

    Errors name the offending line or date.  Out-of-order rows are accepted
    and flagged in the report; duplicate dates are rejected; a UTF-8 BOM is skipped.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise DataError(f"{path}: expected header {','.join(CSV_HEADER)}, got {','.join(header)}")
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:  # DailyRecord's own DataError (a negative count) is a ValueError too
                records.append(DailyRecord(datetime.date.fromisoformat(row[0].strip()), *(int(v) for v in row[1:])))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None

    ordered = sorted(records, key=lambda r: r.date)
    try:
        series = PatientSeries(patient_id or path.stem, ordered)
    except DataError as exc:  # once sorted, only a repeated date breaks the order
        raise DataError(f"{path}: duplicate date ({exc})") from None
    gaps = np.flatnonzero(np.diff(series.dates) > np.timedelta64(1, "D"))
    pairs = [(ordered[i].date, ordered[i + 1].date) for i in gaps.tolist()]
    return series, ParseReport(reordered=ordered != records, gaps=pairs)


def write_csv(series: PatientSeries, path: str | Path) -> None:
    """Emit the canonical CSV schema atomically, byte-deterministic for a fixed series."""
    rows = (f"{day},{a},{b},{le}" for day, (a, b, le) in zip(series.dates, series.counts.tolist()))
    kv.write_atomic(path, "\n".join([",".join(CSV_HEADER), *rows]) + "\n")


def zscore_normalize(series: PatientSeries) -> NormalizedSeries:
    """Z-score each A+B channel against its own full-series population stats.

    A flat channel (sigma == 0) maps to all-zero scores with a warning rather
    than an error; flat telemetry does occur.
    """
    if not series.records:
        raise DataError("cannot normalize an empty series")
    counts = series.counts[:, :2].astype(np.float64)
    mu = counts.mean(axis=0)
    sigma = counts.std(axis=0)  # population (divide-by-N)
    z = np.zeros_like(counts)
    for c in range(counts.shape[1]):
        if sigma[c] > 0:
            z[:, c] = (counts[:, c] - mu[c]) / sigma[c]
        else:
            warnings.warn(
                f"patient {series.patient_id}: channel {c + 1} is constant; z-scores set to 0",
                stacklevel=2,
            )
    return NormalizedSeries(series.patient_id, series.dates, z, mu, sigma)


def label_days(
    series: PatientSeries,
    window: int = DEFAULT_LABEL_WINDOW,
    fraction: float = DEFAULT_LABEL_FRACTION,
    min_history: int = DEFAULT_MIN_HISTORY,
) -> RiskLabels:
    """Mark each day high risk iff its LE count strictly exceeds ``fraction``
    times the mean LE count over the ``window`` recorded days before it.

    The mean uses an expanding window until ``window`` days of history exist;
    days with fewer than ``min_history`` prior days stay unlabeled.  Ties go
    to low risk.
    """
    if not series.records:
        raise DataError("cannot label an empty series")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not (math.isfinite(fraction) and fraction > 0):
        raise ValueError(f"fraction must be finite and positive, got {fraction}")
    if min_history < 1:
        raise ValueError(f"min_history must be >= 1, got {min_history}")
    le = series.counts[:, 2].astype(np.float64)
    labels = np.full(len(le), UNLABELED, dtype=np.int8)
    # Prefix sums of integer counts are exact, so each mean equals the
    # per-day history.mean() bit for bit.
    prefix = np.concatenate(([0.0], np.cumsum(le)))
    days = np.arange(min_history, len(le))
    start = np.maximum(days - window, 0)
    history_mean = (prefix[days] - prefix[start]) / (days - start)
    labels[days] = le[days] > fraction * history_mean
    return RiskLabels(series.patient_id, series.dates, labels, series.counts[:, 2])


def make_windows(normalized: NormalizedSeries, labels: RiskLabels, lookback: int, horizon: int) -> WindowSet:
    """Pair each anchor day's lookback matrix with its horizon label.

    A sample is positive when any horizon day is labeled high risk.  Windows
    touching calendar gaps or unlabeled horizon days are dropped.
    """
    if lookback < 1:
        raise ValueError(f"lookback must be >= 1, got {lookback}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not np.array_equal(normalized.dates, labels.dates):
        raise DataError("normalized series and labels cover different days")
    total = len(normalized.dates)
    if total < lookback + horizon:
        raise DataError(f"series of {total} days is shorter than lookback+horizon={lookback + horizon}")

    ordinals = normalized.dates.astype(np.int64)
    span = lookback + horizon - 1
    # anchor i spans days i-lookback+1 .. i+horizon; contiguity over the span rules out calendar gaps
    anchors = np.arange(lookback - 1, total - horizon)

    def horizon_total(per_day: np.ndarray) -> np.ndarray:
        """Sum over each anchor's horizon days i+1 .. i+horizon, from exact integer prefix sums."""
        prefix = np.concatenate(([0], np.cumsum(per_day, dtype=np.int64)))
        return prefix[anchors + horizon + 1] - prefix[anchors + 1]

    keep = (ordinals[span:] - ordinals[: total - span] == span) & (horizon_total(labels.labels == UNLABELED) == 0)
    positive, le_sum = horizon_total(labels.labels == 1), horizon_total(labels.le_counts)
    anchors = anchors[keep]
    # a gather per channel copies contiguous windows: 3-5x faster than one from the (T, channels) view
    x = np.empty((len(anchors), normalized.z.shape[1], lookback))
    for c, day_values in enumerate(normalized.z.T.copy()):
        x[:, c] = sliding_window_view(day_values, lookback)[anchors - lookback + 1]
    return WindowSet(
        x=x,
        y=(positive[keep] > 0).astype(np.int64),
        anchor=normalized.dates[anchors],
        horizon_le_sum=le_sum[keep],
        horizon=horizon,
    )


def split_chronological(samples: WindowSet, train_frac: float = 0.7, val_frac: float = 0.1) -> tuple[WindowSet, ...]:
    """Cut date-ordered samples into contiguous train/val/test blocks.

    Samples whose horizon reaches the first anchor of the next block are
    dropped so no training target overlaps the following block's period.
    """
    if len(samples) < 10:
        raise DataError(f"need at least 10 samples to split, got {len(samples)}")
    if np.any(np.diff(samples.anchor) < np.timedelta64(0, "D")):
        raise DataError("samples must be ordered by anchor date")
    n = len(samples)
    k1 = int(n * train_frac + 1e-9)
    k2 = k1 + int(n * val_frac + 1e-9)
    train, val, test = samples[:k1], samples[k1:k2], samples[k2:]

    def trim(block: WindowSet, nxt: WindowSet) -> WindowSet:
        return block[block.anchor + np.timedelta64(block.horizon, "D") < nxt.anchor[0]] if nxt else block

    return trim(train, val), trim(val, test), test


def compute_pos_weight(labels) -> float:
    """Negative:positive ratio of a label vector; errors on a single class."""
    arr = np.asarray(labels)
    n_pos = int(np.sum(arr == 1))
    n_neg = int(np.sum(arr == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError(f"single-class labels (pos={n_pos}, neg={n_neg}); pos_weight undefined")
    return n_neg / n_pos


def samples_to_arrays(samples: WindowSet | list[WindowSample]) -> tuple[np.ndarray, np.ndarray]:
    """A model-ready (N, channels, lookback) batch plus labels: a set's own
    arrays, or a sample list stacked."""
    if not samples:
        raise DataError("no samples to stack")
    if isinstance(samples, WindowSet):
        return samples.x, samples.y
    x = np.stack([s.x.T for s in samples]).astype(np.float64)
    y = np.array([s.y for s in samples], dtype=np.int64)
    return x, y
