import datetime
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizureformer import baselines, data, metrics, synth
from seizureformer.synth import SynthConfig, generate_cohort, generate_patient

from oracles import scalar_poisson_icdf

# sha256 of write_csv(generate_patient(SynthConfig(seed, days, channel_correlation=c))), recorded
# from the scalar per-day sampler; the checked-in benchmark digests and AUCs rest on these bytes
PINNED_CSV_SHA256 = {
    (0, 120, 0.5): "06229ad2b17b3e5a9234a86739ceb129f960a7c76e0c0e094524fe42002ca74b",
    (5, 1000, 0.5): "0710ab8d91b140654048190491f89cc87bb2f352168a8f25ae18ed1827b14250",
    (42, 4000, 0.5): "6b2636e3816ca1c3f8699466b25301f267dd2927711012856a49f79ddfebb08b",
    (99, 365, 0.3): "c264ed0faa33cb582b29e6d8755f0bd0a950d0a60698a3f3ad7f3e0dadb0062f",
    (123, 365, 1.0): "810fb0a4217b96d2fcca1c70d2c92dfff3884562a1cfa70ccbe77b517c9b6776",
}


def cdf_boundary(lam: float, k: int) -> float:
    """The scalar sampler's running CDF after k steps: a u that lands exactly on a step."""
    p = cdf = math.exp(-lam)
    for j in range(1, k + 1):
        p *= lam / j
        cdf += p
    return cdf


rates = st.one_of(st.just(0.0), st.floats(0.0, 500.0), st.floats(0.0, 40.0))
uniforms = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([0.0, 0.5, 1.0 - 1e-12, 1.0 - 1e-15, float(np.nextafter(1.0, 0.0))]),  # near 1: the cap stops it
)
boundary_draws = st.tuples(st.floats(0.0, 60.0), st.integers(0, 80)).map(lambda d: (d[0], min(cdf_boundary(*d), 0.99)))


def autocorr(x, lag):
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    denom = np.dot(x, x)
    return float(np.dot(x[:-lag], x[lag:]) / denom)


class TestGeneration:
    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        data.write_csv(generate_patient(SynthConfig(seed=9)), a)
        data.write_csv(generate_patient(SynthConfig(seed=9)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_degenerate_config_constant_risk(self):
        cfg = SynthConfig(seed=0, days=200, weekly_amplitude=0, multiweek_amplitude=0, noise_scale=0, le_gain=0)
        series = generate_patient(cfg)
        labels = data.label_days(series)
        labeled = labels.labels[labels.labels != data.UNLABELED]
        assert np.all(labeled == 0)  # zero LE everywhere -> never above threshold

    def test_counts_non_negative_int(self):
        series = generate_patient(SynthConfig(seed=3, days=150))
        for r in series.records:
            assert r.ab_ch1 >= 0 and r.ab_ch2 >= 0 and r.le_count >= 0

    def test_days_too_short(self):
        with pytest.raises(ValueError, match="120"):
            generate_patient(SynthConfig(days=100))

    def test_weekly_cycle_in_le_autocorrelation(self):
        """With only a weekly cycle planted, LE autocorrelation peaks at lag 7."""
        for seed in range(5):
            cfg = SynthConfig(seed=seed, days=1000, multiweek_amplitude=0.0)
            le = [r.le_count for r in generate_patient(cfg).records]
            assert autocorr(le, 7) > autocorr(le, 3), f"seed {seed}"


class TestPoissonSampler:
    @given(draws=st.lists(st.one_of(st.tuples(rates, uniforms), boundary_draws), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_array_recurrence_matches_scalar_oracle(self, draws):
        lam, u = (np.array(col) for col in zip(*draws))
        got = synth._poisson_icdf(lam, u)
        assert got.dtype == np.int64 and got.shape == lam.shape
        assert got.tolist() == [scalar_poisson_icdf(a, b) for a, b in draws]

    @pytest.mark.parametrize(("seed", "days", "correlation"), sorted(PINNED_CSV_SHA256))
    def test_csv_bytes_pinned(self, tmp_path, seed, days, correlation):
        out = tmp_path / "p.csv"
        data.write_csv(generate_patient(SynthConfig(seed=seed, days=days, channel_correlation=correlation)), out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CSV_SHA256[seed, days, correlation]


    def test_arrays_match_the_records_path(self):
        """The series holds what zipping its days and draws into DailyRecords gave."""
        series = generate_patient(SynthConfig(seed=11, days=400))
        days = (synth.START_DATE + datetime.timedelta(days=i) for i in range(400))
        records = [data.DailyRecord(*row) for row in zip(days, *series.counts.T.tolist())]
        assert data.PatientSeries("synth-11", records) == series
        assert series.records == tuple(records)


class TestCohort:
    def test_one_patient_per_seed(self):
        cohort = generate_cohort([4, 5, 6])
        assert [p.patient_id for p in cohort] == ["synth-4", "synth-5", "synth-6"]

    def test_duplicate_seed_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            generate_cohort([1, 2, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            generate_cohort([])

    def test_regeneration_identical_bytes(self, tmp_path):
        for run in range(2):
            for i, patient in enumerate(generate_cohort([7, 8])):
                data.write_csv(patient, tmp_path / f"{run}-{i}.csv")
        assert (tmp_path / "0-0.csv").read_bytes() == (tmp_path / "1-0.csv").read_bytes()
        assert (tmp_path / "0-1.csv").read_bytes() == (tmp_path / "1-1.csv").read_bytes()


class TestLearnability:
    def test_logistic_floor_on_default_config(self):
        """The planted signal must be recoverable by a linear model."""
        series = generate_patient(SynthConfig(seed=1))
        norm = data.zscore_normalize(series)
        labels = data.label_days(series)
        samples = data.make_windows(norm, labels, 30, 1)
        train, _, test = data.split_chronological(samples)
        fit = baselines.logistic_fit(baselines.window_features(train), [s.y for s in train])
        scores = baselines.logistic_predict(fit, baselines.window_features(test))
        assert metrics.roc_auc(scores, [s.y for s in test]) > 0.6
