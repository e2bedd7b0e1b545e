import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from seizureformer.data import DataError
from seizureformer.metrics import pr_auc, report, roc_auc

from oracles import loop_pr_auc, loop_roc_auc, pairwise_roc_auc, sweep_pr_auc


def random_case(rng, n_max=300):
    """Scores with deliberate ties plus labels guaranteed to span both classes."""
    n = int(rng.integers(4, n_max + 1))
    scores = np.round(rng.standard_normal(n), 2)  # rounding plants ties
    labels = rng.integers(0, 2, size=n)
    labels[0], labels[1] = 0, 1
    return scores, labels


class TestRocAuc:
    def test_perfect_pair(self):
        auc = roc_auc([0.9, 0.1], [1, 0])
        assert auc == 1.0 and type(auc) is float  # a numpy scalar would repr as np.float64(...)

    def test_all_ties(self):
        assert roc_auc([0.5] * 6, [1, 0, 1, 0, 0, 1]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            scores, labels = random_case(rng, n_max=120)
            assert abs(roc_auc(scores, labels) - pairwise_roc_auc(scores, labels)) < 1e-12

    def test_single_class_errors(self):
        with pytest.raises(DataError, match="single class"):
            roc_auc([0.1, 0.2], [1, 1])


class TestPrAuc:
    def test_single_positive_ranked_first(self):
        assert pr_auc([0.9, 0.5, 0.4, 0.3, 0.1], [1, 0, 0, 0, 0]) == 1.0

    def test_all_positive(self):
        assert pr_auc([0.2, 0.9, 0.5], [1, 1, 1]) == 1.0

    def test_matches_threshold_sweep_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            scores, labels = random_case(rng, n_max=120)
            assert abs(pr_auc(scores, labels) - sweep_pr_auc(scores, labels)) < 1e-12

    def test_no_positives_errors(self):
        with pytest.raises(DataError, match="positive"):
            pr_auc([0.1, 0.2], [0, 0])


class TestInvariances:
    def test_rank_invariance_monotone_transform(self):
        """Any strictly increasing transform of scores leaves both AUCs unchanged."""
        rng = np.random.default_rng(2)
        scores, labels = random_case(rng)
        transformed = np.exp(3.0 * scores) + 1.0
        assert_allclose(roc_auc(scores, labels), roc_auc(transformed, labels), atol=1e-12)
        assert_allclose(pr_auc(scores, labels), pr_auc(transformed, labels), atol=1e-12)

    def test_complement_symmetry_without_ties(self):
        rng = np.random.default_rng(3)
        scores = rng.permutation(np.linspace(0, 1, 40))  # distinct scores
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        assert_allclose(roc_auc(-scores, labels), 1.0 - roc_auc(scores, labels), atol=1e-12)

    def test_duplicating_negatives_moves_pr_not_roc(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6, 0.4, 0.3])
        labels = np.array([1, 0, 1, 0, 0, 1])
        doubled_scores = np.concatenate([scores, scores[labels == 0]])
        doubled_labels = np.concatenate([labels, np.zeros(int((labels == 0).sum()), dtype=int)])
        assert_allclose(roc_auc(doubled_scores, doubled_labels), roc_auc(scores, labels), atol=1e-12)
        assert pr_auc(doubled_scores, doubled_labels) != pytest.approx(pr_auc(scores, labels), abs=1e-6)

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(4)
        scores, labels = random_case(rng)
        perm = rng.permutation(len(scores))
        assert roc_auc(scores[perm], labels[perm]) == roc_auc(scores, labels)
        assert pr_auc(scores[perm], labels[perm]) == pr_auc(scores, labels)


class TestMatchesTieLoops:
    """The vectorized tie grouping against the while-loops it replaced."""

    @given(
        n=st.integers(2, 200), distinct=st.integers(1, 400), seed=st.integers(0, 2**16),
        negative_zero=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_byte_equal(self, n, distinct, seed, negative_zero):
        rng = np.random.default_rng(seed)
        # scores drawn from `distinct` values: few values force ties, many give near-unique scores
        scores = rng.standard_normal(distinct)[rng.integers(0, distinct, size=n)]
        if negative_zero:
            scores[: n // 2] = np.where(rng.random(n // 2) < 0.5, -0.0, 0.0)
        labels = rng.integers(0, 2, size=n)
        labels[rng.choice(n, 2, replace=False)] = [0, 1]
        assert np.float64(roc_auc(scores, labels)).tobytes() == np.float64(loop_roc_auc(scores, labels)).tobytes()
        assert np.float64(pr_auc(scores, labels)).tobytes() == np.float64(loop_pr_auc(scores, labels)).tobytes()


class TestReport:
    def test_fields(self):
        scores, labels = np.array([0.9, 0.2, 0.7]), np.array([1, 0, 1])
        rep = report(scores, labels)
        scores[0], labels[0] = 0.0, 0  # the report keeps its own arrays
        assert rep.n_pos == 2 and rep.n_neg == 1
        assert 0.0 <= rep.roc_auc <= 1.0 and 0.0 <= rep.pr_auc <= 1.0
        assert rep.scores.dtype == np.float64 and rep.scores.tolist() == [0.9, 0.2, 0.7]
        assert rep.labels.dtype == np.int64 and rep.labels.tolist() == [1, 0, 1]
