import dataclasses
import datetime
import re

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from seizureformer import data
from seizureformer.data import (
    DailyRecord,
    DataError,
    PatientSeries,
    WindowSample,
    compute_pos_weight,
    label_days,
    make_windows,
    parse_csv,
    split_chronological,
    zscore_normalize,
)

from oracles import list_split_chronological, loop_label_days, loop_make_windows, pairwise_gaps

DAY0 = datetime.date(2020, 1, 1)


def make_series(ab1, ab2=None, le=None, skip_days=()):
    """Daily series from count lists; indices in skip_days create calendar gaps."""
    ab2 = ab2 if ab2 is not None else ab1
    le = le if le is not None else [0] * len(ab1)
    records = [
        DailyRecord(DAY0 + datetime.timedelta(days=i), a, b, c)
        for i, (a, b, c) in enumerate(zip(ab1, ab2, le))
        if i not in skip_days
    ]
    return PatientSeries("p0", records)


class TestParseCsv:
    def test_well_formed(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,ab_ch1,ab_ch2,le_count\n2020-01-01,1,2,0\n2020-01-02,3,4,1\n2020-01-03,5,6,0\n")
        series, report = parse_csv(f)
        assert len(series) == 3
        assert not report.reordered
        assert series.records[1].le_count == 1

    def test_duplicate_date_named(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,ab_ch1,ab_ch2,le_count\n2020-01-01,1,2,0\n2020-01-01,3,4,1\n")
        with pytest.raises(DataError, match="2020-01-01"):
            parse_csv(f)

    def test_out_of_order_sorted_with_notice(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,ab_ch1,ab_ch2,le_count\n2020-01-02,3,4,1\n2020-01-01,1,2,0\n")
        series, report = parse_csv(f)
        assert report.reordered
        assert [r.date.day for r in series.records] == [1, 2]

    def test_malformed_row_reports_line(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,ab_ch1,ab_ch2,le_count\n2020-01-01,1,2,0\n2020-01-02,oops,4,1\n")
        with pytest.raises(DataError, match=":3"):
            parse_csv(f)

    def test_negative_count(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,ab_ch1,ab_ch2,le_count\n2020-01-01,-1,2,0\n")
        with pytest.raises(DataError, match=r"p\.csv:2: ab_ch1 must be non-negative"):
            parse_csv(f)

    def test_count_beyond_int64(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(f"date,ab_ch1,ab_ch2,le_count\n2020-01-01,1,2,0\n2020-01-02,3,4,{2**63}\n")
        with pytest.raises(DataError, match=r"p\.csv:3: le_count must be non-negative and below 2\*\*63"):
            parse_csv(f)

    @pytest.mark.parametrize("count", [2**63, -1, np.uint64(2**64 - 1), float("nan"), None, "3"])
    def test_record_count_must_fit_int64(self, count):
        """A count that cannot pass the range check, whatever its type, is a DataError."""
        with pytest.raises(DataError, match=rf"le_count must be non-negative and below 2\*\*63, got {count}"):
            DailyRecord(DAY0, 1, 2, count)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("day,a,b,c\n")
        with pytest.raises(DataError, match="header"):
            parse_csv(f)

    def test_gaps_reported(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,ab_ch1,ab_ch2,le_count\n2020-01-01,1,2,0\n2020-01-05,3,4,1\n")
        _, report = parse_csv(f)
        assert report.gaps == [(datetime.date(2020, 1, 1), datetime.date(2020, 1, 5))]

    def test_utf8_bom_skipped(self, tmp_path):
        body = "date,ab_ch1,ab_ch2,le_count\n2020-01-01,1,2,0\n2020-01-02,3,4,1\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(body.encode())
        bom.write_bytes(b"\xef\xbb\xbf" + body.encode())
        assert parse_csv(bom, "p") == parse_csv(plain, "p")

    def test_roundtrip_bytes(self, tmp_path):
        series = make_series([1, 2, 3], [4, 5, 6], [0, 1, 0])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        data.write_csv(series, a)
        reparsed, _ = parse_csv(a)
        data.write_csv(reparsed, b)
        assert a.read_bytes() == b.read_bytes()


class TestSeriesArrays:
    @given(
        days=st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
            min_size=1, max_size=60,
        ),
        order_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_arrays_and_gaps_match_records(self, tmp_path_factory, days, order_seed):
        """Day steps of 1-4 make calendar gaps; the CSV rows go in shuffled."""
        records, day = [], DAY0
        for step, a, b, le in days:
            day += datetime.timedelta(days=step)
            records.append(DailyRecord(day, a, b, le))
        series = PatientSeries("p", records)
        assert series.records == tuple(records)
        assert series.dates.dtype == np.dtype("datetime64[D]") and series.dates.tolist() == [r.date for r in records]
        assert series.counts.dtype == np.int64
        assert series.counts.tolist() == [[r.ab_ch1, r.ab_ch2, r.le_count] for r in records]

        order = np.random.default_rng(order_seed).permutation(len(records))
        f = tmp_path_factory.mktemp("csv") / "p.csv"
        f.write_text("\n".join(["date,ab_ch1,ab_ch2,le_count"] + [
            f"{records[i].date},{records[i].ab_ch1},{records[i].ab_ch2},{records[i].le_count}" for i in order
        ]) + "\n")
        parsed, report = parse_csv(f)
        assert parsed == series
        assert report.gaps == pairwise_gaps(records)
        assert report.reordered == (order.tolist() != sorted(order.tolist()))

    @given(n=st.integers(2, 30), at=st.integers(1, 29), repeat=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_order_errors_name_the_date(self, tmp_path_factory, n, at, repeat):
        at = min(at, n - 1)
        dates = [DAY0 + datetime.timedelta(days=2 * i) for i in range(n)]
        if repeat:
            dates[at] = dates[at - 1]
        else:
            dates[at - 1], dates[at] = dates[at], dates[at - 1]
        with pytest.raises(DataError, match=f"saw {dates[at - 1]} then {dates[at]}"):
            PatientSeries("p", [DailyRecord(d, 1, 2, 0) for d in dates])
        f = tmp_path_factory.mktemp("csv") / "p.csv"
        f.write_text("date,ab_ch1,ab_ch2,le_count\n" + "".join(f"{d},1,2,0\n" for d in dates))
        if repeat:
            with pytest.raises(DataError, match=rf"p\.csv: duplicate date .*{dates[at]}"):
                parse_csv(f)
        else:  # a CSV may list its rows in any order
            assert parse_csv(f)[1].reordered

    @pytest.mark.parametrize("value", [1.5, np.float64(2.0)])
    @pytest.mark.parametrize("field", ["ab_ch1", "ab_ch2", "le_count"])
    def test_non_integer_count_rejected_naming_the_record(self, value, field):
        """A float passes DailyRecord's range check; int64 would have truncated it."""
        records = [DailyRecord(DAY0 + datetime.timedelta(days=i), 1, 2, 0) for i in range(3)]
        records[1] = dataclasses.replace(records[1], **{field: value})
        with pytest.raises(DataError, match=re.escape(f"{field} must be an integer, got {value} on {records[1].date}")):
            PatientSeries("p", records)

    @pytest.mark.parametrize("kind, other", [(int, int), (np.int64, int), (np.int32, int), (np.uint8, int),
                                             (bool, int), pytest.param(np.bool_, int, id="np_bool-int"),
                                             (np.uint64, np.int64)])  # the last pair unites as float
    def test_integer_counts_of_any_type(self, kind, other):
        counts = [(3, 1, 0), (0, 2, 1), (1, 1, 1)]
        series = PatientSeries("p", [DailyRecord(DAY0 + datetime.timedelta(days=i), kind(a), other(b), kind(c))
                                     for i, (a, b, c) in enumerate(counts)])
        assert series.counts.dtype == np.int64
        assert series.counts.tolist() == [[int(kind(a)), b, int(kind(c))] for a, b, c in counts]

    def test_arrays_read_only(self):
        series = make_series([1, 2, 3])
        with pytest.raises(ValueError, match="read-only"):
            series.counts[0, 0] = 9
        with pytest.raises(ValueError, match="read-only"):
            series.dates[0] = series.dates[1]


class TestZscore:
    def test_hand_population_stats(self):
        norm = zscore_normalize(make_series([1, 2, 3]))
        assert_allclose(norm.mu[0], 2.0)
        assert_allclose(norm.sigma[0], np.sqrt(2.0 / 3.0))
        assert_allclose(norm.z[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_channel_warns(self):
        with pytest.warns(UserWarning, match="constant"):
            norm = zscore_normalize(make_series([5, 5, 5], [1, 2, 3]))
        assert_allclose(norm.z[:, 0], 0.0)
        assert norm.sigma[0] == 0.0

    def test_random_mean_zero_std_one(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 50, size=200).tolist()
        norm = zscore_normalize(make_series(counts))
        assert abs(norm.z[:, 0].mean()) < 1e-9
        assert abs(norm.z[:, 0].std() - 1.0) < 1e-9

    def test_roundtrip_reconstruction(self):
        """z * sigma + mu recovers the raw counts."""
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 30, size=50).tolist()
        norm = zscore_normalize(make_series(counts))
        assert_allclose(norm.z[:, 0] * norm.sigma[0] + norm.mu[0], counts, atol=1e-9)

    def test_empty_series(self):
        with pytest.raises(DataError, match="empty"):
            zscore_normalize(PatientSeries("p", []))


class TestLabeling:
    def test_above_threshold(self):
        # 60 days at LE=10, then a day at 8: 8 > 0.7*10 -> high risk
        labels = label_days(make_series([0] * 61, le=[10] * 60 + [8]))
        assert labels.labels[60] == 1

    def test_tie_goes_low(self):
        labels = label_days(make_series([0] * 61, le=[10] * 60 + [7]))
        assert labels.labels[60] == 0  # 7 > 7 is false

    def test_zero_history(self):
        labels = label_days(make_series([0] * 62, le=[0] * 60 + [1, 0]))
        assert labels.labels[60] == 1  # 1 > 0
        assert labels.labels[61] == 0  # 0 > threshold fails even at tiny threshold

    def test_warmup_unlabeled(self):
        labels = label_days(make_series([0] * 20, le=[3] * 20))
        assert np.all(labels.labels[:7] == data.UNLABELED)
        assert np.all(labels.labels[7:] != data.UNLABELED)

    def test_causality(self):
        """Future LE mutations never change past labels."""
        rng = np.random.default_rng(2)
        le = rng.integers(0, 6, size=150).tolist()
        base = label_days(make_series([0] * 150, le=le)).labels
        mutated = list(le)
        mutated[100:] = [99] * 50
        changed = label_days(make_series([0] * 150, le=mutated)).labels
        assert np.array_equal(base[:100], changed[:100])

    def test_expanding_window_before_sixty_days(self):
        # day 10's threshold uses only the 10 available prior days
        le = [2] * 10 + [3]
        labels = label_days(make_series([0] * 11, le=le))
        assert labels.labels[10] == 1  # 3 > 0.7*2

    def test_empty_errors(self):
        with pytest.raises(DataError):
            label_days(PatientSeries("p", []))

    def test_min_history_below_one_rejected(self):
        series = make_series([0] * 10, le=[1] * 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="min_history"):
                label_days(series, min_history=0)

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf"), float("-inf"), 0.0])
    def test_fraction_must_be_finite_and_positive(self, fraction):
        series = make_series([0] * 10, le=[1] * 10)
        with pytest.raises(ValueError, match="fraction must be finite and positive"):
            label_days(series, fraction=fraction)

    @given(
        le=st.lists(st.one_of(st.integers(0, 12), st.integers(0, 10**6)), min_size=1, max_size=200),
        window=st.integers(1, 80),
        fraction=st.one_of(st.sampled_from([0.25, 0.5, 0.7, 1.0, 2.0]), st.floats(0.01, 5.0)),
        min_history=st.integers(1, 90),
    )
    @settings(max_examples=150, deadline=None)
    def test_prefix_sums_match_per_day_loop(self, le, window, fraction, min_history):
        labels = label_days(make_series([0] * len(le), le=le), window, fraction, min_history).labels
        expected = loop_label_days(le, window, fraction, min_history)
        assert labels.dtype == expected.dtype
        assert labels.tobytes() == expected.tobytes()


def build_inputs(n_days=100, le=None, skip_days=()):
    rng = np.random.default_rng(3)
    ab = rng.integers(1, 40, size=n_days).tolist()
    le = le if le is not None else rng.integers(0, 5, size=n_days).tolist()
    series = make_series(ab, le=le, skip_days=skip_days)
    return zscore_normalize(series), label_days(series)


def build_samples(n_days=100, lookback=30, horizon=7, le=None, skip_days=()):
    return make_windows(*build_inputs(n_days, le, skip_days), lookback, horizon)


def rows(samples):
    return [(s.x.shape, s.x.tobytes(), s.y, s.horizon, s.anchor_date, s.horizon_le_sum) for s in samples]


class TestWindows:
    def test_sample_count_no_gaps(self):
        assert len(build_samples(100, 30, 7)) == 100 - 30 - 7 + 1

    def test_any_aggregation(self):
        # horizon labels all zero -> 0; any one -> 1
        le = [0] * 100
        le[45] = 50  # spike labels day 45 high risk
        samples = build_samples(100, 30, 3, le=le)
        by_anchor = {s.anchor_date: s.y for s in samples}
        assert by_anchor[DAY0 + datetime.timedelta(days=44)] == 1
        assert by_anchor[DAY0 + datetime.timedelta(days=40)] == 0

    def test_gap_windows_dropped(self):
        full = build_samples(100, 30, 7)
        gapped = build_samples(100, 30, 7, skip_days=(50,))
        # every surviving window must originate away from the gap
        assert len(gapped) == len(full) - (30 + 7)

    def test_too_short_errors(self):
        with pytest.raises(DataError, match="shorter"):
            build_samples(30, 30, 7)

    def test_lookback_contents(self):
        samples = build_samples(60, 10, 1)
        s = samples[0]
        assert s.x.shape == (10, 2)
        assert not np.any(np.isnan(s.x))

    def test_rows_match_loop_oracle(self):
        normalized, labels = build_inputs(120, skip_days=(70,))
        windows = make_windows(normalized, labels, 12, 3)
        samples = list(windows)
        assert all(isinstance(s, WindowSample) and s.x.shape == (12, 2) for s in samples)
        assert rows(samples) == rows(loop_make_windows(normalized, labels, 12, 3))
        assert rows(windows[5:9]) == rows(samples[5:9])
        assert rows(windows[windows.y == 1]) == [r for r in rows(samples) if r[2] == 1]

    @given(
        n_days=st.integers(20, 400),
        skip_days=st.sets(st.integers(1, 398), max_size=8),
        window=st.integers(1, 80),
        min_history=st.integers(1, 40),
        lookback=st.integers(1, 40),
        horizon=st.integers(1, 14),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_window_set_matches_loop_oracle(self, n_days, skip_days, window, min_history, lookback, horizon, seed):
        rng = np.random.default_rng(seed)
        ab1, ab2 = (rng.integers(0, 40, size=n_days).tolist() for _ in range(2))
        series = make_series(ab1, ab2, rng.integers(0, 6, size=n_days).tolist(), skip_days=skip_days)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a constant channel only warns
            normalized = zscore_normalize(series)
        labels = label_days(series, window, 0.7, min_history)
        try:
            expected = loop_make_windows(normalized, labels, lookback, horizon)
        except DataError:
            with pytest.raises(DataError, match="shorter"):
                make_windows(normalized, labels, lookback, horizon)
            return
        windows = make_windows(normalized, labels, lookback, horizon)
        assert windows.x.shape == (len(expected), 2, lookback) and windows.x.flags.c_contiguous
        assert windows.x.tobytes() == np.array([s.x.T for s in expected]).tobytes()
        assert windows.y.tolist() == [s.y for s in expected]
        assert windows.anchor.tolist() == [s.anchor_date for s in expected]
        assert windows.horizon_le_sum.tolist() == [s.horizon_le_sum for s in expected]
        if len(expected) < 10:
            with pytest.raises(DataError, match="at least 10"):
                split_chronological(windows)
            return
        for got, want in zip(split_chronological(windows), list_split_chronological(expected), strict=True):
            assert rows(got) == rows(want)


class TestSplit:
    def test_proportions_before_trimming(self):
        samples = build_samples(150, 30, 1)
        n = len(samples)
        train, val, test = split_chronological(samples)
        assert len(test) == n - int(n * 0.8)
        # train/val lose only horizon-crossing boundary samples
        assert int(n * 0.7) - 1 <= len(train) <= int(n * 0.7)
        assert len(val) <= int(n * 0.8) - int(n * 0.7)

    def test_block_ordering(self):
        train, val, test = split_chronological(build_samples(150, 30, 7))
        assert max(s.anchor_date for s in train) < min(s.anchor_date for s in val)
        assert max(s.anchor_date for s in val) < min(s.anchor_date for s in test)

    def test_horizon_leak_trimming(self):
        samples = build_samples(200, 30, 7)
        n = len(samples)
        train, val, _ = split_chronological(samples)
        # daily anchors: exactly the last 7 train candidates cross the boundary
        assert len(train) == int(n * 0.7) - 7
        boundary = val[0].anchor_date
        for s in train:
            assert s.anchor_date + datetime.timedelta(days=s.horizon) < boundary

    def test_too_few_samples(self):
        with pytest.raises(DataError, match="at least 10"):
            split_chronological(build_samples(40, 30, 1)[:5])

    def test_leak_free_lookback_vs_horizon(self):
        """No test-sample lookback day overlaps a train-sample horizon day."""
        samples = build_samples(400, 30, 7)
        train, _, test = split_chronological(samples)
        train_horizon_days = set()
        for s in train:
            for k in range(1, s.horizon + 1):
                train_horizon_days.add(s.anchor_date + datetime.timedelta(days=k))
        for s in test:
            for k in range(s.x.shape[0]):
                day = s.anchor_date - datetime.timedelta(days=k)
                assert day not in train_horizon_days


class TestPosWeight:
    def test_four_to_one(self):
        assert compute_pos_weight([0] * 80 + [1] * 20) == 4.0

    def test_balanced(self):
        assert compute_pos_weight([0, 1] * 25) == 1.0

    def test_single_class_errors(self):
        with pytest.raises(DataError, match="single-class"):
            compute_pos_weight([0, 0, 0])


class TestDeterminism:
    def test_pipeline_bit_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        ab = rng.integers(1, 40, size=120).tolist()
        le = rng.integers(0, 5, size=120).tolist()
        series = make_series(ab, le=le)
        csv_path = tmp_path / "p.csv"
        data.write_csv(series, csv_path)

        outs = []
        for _ in range(2):
            parsed, _ = parse_csv(csv_path)
            samples = make_windows(zscore_normalize(parsed), label_days(parsed), 30, 7)
            outs.append([(s.x.tobytes(), s.y, s.horizon, s.anchor_date, s.horizon_le_sum) for s in samples])
        assert outs[0] and outs[0] == outs[1]
