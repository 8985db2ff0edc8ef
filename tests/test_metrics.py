import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcvqkd.errors import InvalidInputError
from mlcvqkd.metrics import average_precision, evaluate, prf, roc_curve
from oracles import direct_average_precision, loop_average_precision, mann_whitney_auc


class TestPrf:
    def test_hand_worked_counts(self):
        pred = np.array([[1, 0], [1, 1], [0, 1], [1, 0]], dtype=bool)
        true = np.array([[1, 0], [0, 1], [0, 1], [0, 0]], dtype=bool)
        result = prf(pred, true)
        np.testing.assert_allclose(result.precision, [1 / 3, 1.0])
        np.testing.assert_allclose(result.recall, [1.0, 1.0])
        np.testing.assert_allclose(result.fpr, [2 / 3, 0.0])
        assert result.macro_precision == pytest.approx(2 / 3)
        assert result.macro_recall == 1.0
        assert result.macro_fpr == pytest.approx(1 / 3)

    def test_perfect_predictions(self):
        flags = np.array([[1, 0, 1], [0, 1, 0]], dtype=bool)
        result = prf(flags, flags)
        np.testing.assert_array_equal(result.precision, np.ones(3))
        np.testing.assert_array_equal(result.recall, np.ones(3))
        np.testing.assert_array_equal(result.fpr, np.zeros(3))

    def test_absent_label_never_predicted_scores_perfect(self):
        # nothing to find and nothing claimed
        pred = np.array([[0], [0]], dtype=bool)
        true = np.array([[0], [0]], dtype=bool)
        result = prf(pred, true)
        assert result.precision[0] == 1.0
        assert result.recall[0] == 1.0
        assert result.fpr[0] == 0.0

    def test_absent_label_wrongly_predicted_scores_zero(self):
        pred = np.array([[1], [0]], dtype=bool)
        true = np.array([[0], [0]], dtype=bool)
        result = prf(pred, true)
        assert result.precision[0] == 0.0
        assert result.recall[0] == 0.0
        assert result.fpr[0] == 0.5

    def test_universal_label_has_zero_fpr(self):
        # no true negatives exist, so the false-positive rate denominator
        # is empty and the convention pins the rate at 0
        pred = np.array([[1], [0]], dtype=bool)
        true = np.array([[1], [1]], dtype=bool)
        assert prf(pred, true).fpr[0] == 0.0

    def test_invariant_under_sample_order(self):
        rng = np.random.default_rng(31)
        pred = rng.random((40, 3)) < 0.5
        true = rng.random((40, 3)) < 0.4
        perm = rng.permutation(40)
        base, shuffled = prf(pred, true), prf(pred[perm], true[perm])
        np.testing.assert_array_equal(shuffled.precision, base.precision)
        np.testing.assert_array_equal(shuffled.recall, base.recall)
        np.testing.assert_array_equal(shuffled.fpr, base.fpr)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            prf(np.ones((2, 3), dtype=bool), np.ones((2, 2), dtype=bool))


class TestAveragePrecision:
    def test_perfect_ranking_is_one(self):
        scores = np.array([[0.9, 0.8, 0.1, 0.2], [0.1, 0.9, 0.2, 0.05]])
        truth = np.array([[1, 1, 0, 0], [0, 1, 0, 0]], dtype=bool)
        assert average_precision(scores, truth) == 1.0

    def test_hand_worked_partial_ranking(self):
        # ranks: L1=1, L3=2, L2=3, L4=4; true labels L2, L3 sit at ranks
        # 3 and 2 -> mean(1/2, 2/3) = 7/12
        scores = np.array([[0.8, 0.4, 0.6, 0.2]])
        truth = np.array([[0, 1, 1, 0]], dtype=bool)
        assert average_precision(scores, truth) == pytest.approx(7 / 12)

    def test_tied_scores_rank_by_label_index(self):
        scores = np.array([[0.5, 0.5, 0.1, 0.1]])
        truth = np.array([[0, 1, 0, 0]], dtype=bool)
        # the tie hands rank 1 to label 1, pushing the true label to rank 2
        assert average_precision(scores, truth) == pytest.approx(1 / 2)

    def test_empty_truth_rows_are_skipped(self):
        scores = np.array([[0.9, 0.1], [0.4, 0.6]])
        truth = np.array([[1, 0], [0, 0]], dtype=bool)
        assert average_precision(scores, truth) == 1.0

    def test_all_rows_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            average_precision(np.ones((2, 3)), np.zeros((2, 3), dtype=bool))

    def test_one_true_label_per_row_reduces_to_reciprocal_rank(self):
        rng = np.random.default_rng(47)
        scores = np.round(rng.random((30, 5)), 1)  # rounding forces some ties
        true = np.zeros((30, 5), dtype=bool)
        winners = rng.integers(0, 5, size=30)
        true[np.arange(30), winners] = True

        recip = []
        for row, j in zip(scores, winners):
            rank = 1 + np.sum(row > row[j]) + np.sum(row[:j] == row[j])
            recip.append(1.0 / rank)
        assert average_precision(scores, true) == pytest.approx(np.mean(recip), rel=1e-12)

    def test_matches_reference_on_random_fixtures(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            scores = rng.random((n, 4)).round(1)  # rounding provokes ties
            truth = rng.random((n, 4)) < 0.4
            truth[0, 0] = True  # keep at least one scored sample
            assert average_precision(scores, truth) == pytest.approx(
                direct_average_precision(scores.tolist(), truth.tolist()), rel=1e-12
            )

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=3000),
        n_labels=st.integers(min_value=1, max_value=12),
        ties=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_row_loop_exactly(self, seed, n, n_labels, ties):
        rng = np.random.default_rng(seed)
        scores = rng.random((n, n_labels)) * 10.0 ** rng.integers(-4, 5, size=(n, n_labels))
        if ties:
            scores = rng.integers(0, 3, size=(n, n_labels)) / 2.0
        truth = rng.random((n, n_labels)) < rng.random()
        truth[0, 0] = True
        assert average_precision(scores, truth) == loop_average_precision(scores, truth)


class TestRocCurve:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        truth = np.array([1, 1, 0, 0], dtype=bool)
        points, auc = roc_curve(scores, truth)
        assert auc == 1.0
        np.testing.assert_array_equal(points[0], [0.0, 0.0])
        np.testing.assert_array_equal(points[-1], [1.0, 1.0])

    def test_inverted_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        truth = np.array([1, 1, 0, 0], dtype=bool)
        _, auc = roc_curve(scores, truth)
        assert auc == 0.0

    def test_all_scores_tied_gives_the_diagonal(self):
        scores = np.full(6, 0.5)
        truth = np.array([1, 0, 1, 0, 1, 0], dtype=bool)
        points, auc = roc_curve(scores, truth)
        np.testing.assert_array_equal(points, [[0.0, 0.0], [1.0, 1.0]])
        assert auc == 0.5

    def test_single_class_truth_has_no_auc(self):
        _, auc = roc_curve(np.array([0.1, 0.9]), np.array([1, 1], dtype=bool))
        assert math.isnan(auc)
        _, auc = roc_curve(np.array([0.1, 0.9]), np.array([0, 0], dtype=bool))
        assert math.isnan(auc)

    def test_fpr_and_tpr_never_decrease(self):
        rng = np.random.default_rng(9)
        scores = rng.random(200).round(1)
        truth = rng.random(200) < 0.5
        points, _ = roc_curve(scores, truth)
        assert np.all(np.diff(points[:, 0]) >= 0)
        assert np.all(np.diff(points[:, 1]) >= 0)

    def test_area_equals_pairwise_statistic(self):
        rng = np.random.default_rng(10)
        for size in (5, 17, 60, 100):
            scores = rng.random(size).round(1)
            truth = rng.random(size) < 0.5
            truth[0], truth[1] = True, False  # both classes present
            _, auc = roc_curve(scores, truth)
            assert auc == pytest.approx(mann_whitney_auc(scores.tolist(), truth.tolist()), abs=1e-12)

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=40),
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_auc_invariant_under_monotone_transforms(self, raw, seed, slope):
        scores = np.array(raw, dtype=float) / 10.0
        truth = np.random.default_rng(seed).random(len(raw)) < 0.5
        truth[0], truth[-1] = True, False
        _, base = roc_curve(scores, truth)
        _, shifted = roc_curve(slope * scores + 3.0, truth)
        _, warped = roc_curve(np.exp(scores), truth)
        assert shifted == pytest.approx(base, abs=1e-12)
        assert warped == pytest.approx(base, abs=1e-12)


class TestEvaluate:
    def _fixture(self):
        scores = np.array([
            [0.9, 0.2, 0.1, 0.1],
            [0.8, 0.7, 0.1, 0.1],
            [0.1, 0.9, 0.2, 0.1],
            [0.1, 0.1, 0.9, 0.3],
            [0.2, 0.1, 0.1, 0.9],
        ])
        pred = scores > 0.5
        true = np.array([
            [1, 0, 0, 0],
            [1, 1, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ], dtype=bool)
        return scores, pred, true

    def test_report_on_clean_fixture(self):
        scores, pred, true = self._fixture()
        report = evaluate(scores, pred, true, np.zeros(len(true), bool))
        assert report.n_samples == 5
        assert report.n_erasures == 0
        assert report.erasure_rate == 0.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_fpr == 0.0
        assert report.average_precision == 1.0
        assert report.average_auc == 1.0
        assert report.undefined_auc_labels == []
        assert len(report.roc_points) == 4

    def test_erasure_zeroes_rates_but_not_ranking(self):
        scores, pred, true = self._fixture()
        erased = np.array([0, 1, 0, 0, 0], dtype=bool)
        report = evaluate(scores, pred, true, erased=erased)
        assert report.n_erasures == 1
        assert report.erasure_rate == pytest.approx(0.2)
        # erasing the {1,2} sample deletes one true positive from each of
        # labels 1 and 2 but leaves their scores in the ranking metrics
        assert report.per_label_recall[0] == pytest.approx(0.5)
        assert report.per_label_recall[1] == pytest.approx(0.5)
        assert report.average_precision == 1.0
        assert report.average_auc == 1.0

    def test_erasure_flags_are_required_one_per_sample(self):
        # without them every sample decoding to no state was once scored as a prediction
        scores, pred, true = self._fixture()
        with pytest.raises(TypeError):
            evaluate(scores, pred, true)
        # one flag broadcast over five samples once zeroed every prediction and counted one erasure
        for erased in (np.ones(1, bool), np.zeros(4, bool), np.zeros((5, 1), bool), False):
            with pytest.raises(InvalidInputError, match="erasure flags must have shape"):
                evaluate(scores, pred, true, erased)

    def test_single_class_labels_reported_and_excluded_from_mean(self):
        scores = np.array([[0.9, 0.4], [0.1, 0.6], [0.8, 0.5]])
        pred = scores > 0.5
        true = np.array([[1, 0], [0, 0], [0, 0]], dtype=bool)  # label 2 never true
        report = evaluate(scores, pred, true, np.zeros(len(true), bool))
        assert report.undefined_auc_labels == [2]
        assert math.isnan(report.per_label_auc[1])
        assert report.average_auc == report.per_label_auc[0] == 1.0

    def test_all_labels_single_class_rejected(self):
        scores = np.ones((2, 2))
        true = np.ones((2, 2), dtype=bool)
        with pytest.raises(InvalidInputError):
            evaluate(scores, scores > 0.5, true, np.zeros(len(true), bool))

    def test_json_export_is_serializable(self):
        import json

        scores, pred, true = self._fixture()
        doc = evaluate(scores, pred, true, np.zeros(len(true), bool)).to_json_dict()
        parsed = json.loads(json.dumps(doc))
        assert parsed["macro_precision"] == 1.0
        assert len(parsed["roc_points"]) == 4
