import numpy as np
import pytest

from hierkit.labelspace import LabelSpace, hyponym_space, project_log
from hierkit.metrics import (ConfusionMatrix, MetricSeries, PredictionLog,
                             accuracy_series, baseline, confusion_matrix,
                             convergence_epoch, relative_accuracy,
                             relative_gain, residual_error,
                             theoretical_superclass_accuracy)


def _log(epochs, true, pred, n_labels):
    n = len(epochs)
    return PredictionLog(epochs=np.array(epochs),
                         example_ids=np.array([f"e{i}" for i in range(n)]),
                         true_labels=np.array(true), pred_labels=np.array(pred),
                         label_count=n_labels)


def _series(values, epochs=None):
    if epochs is None:
        epochs = range(1, len(values) + 1)
    return MetricSeries(epochs=np.array(list(epochs)),
                        values=np.array(values, dtype=float))


def _sized_space(sizes):
    return LabelSpace(name="sized", table=np.repeat(np.arange(len(sizes)), sizes))


class TestPredictionLog:
    def test_unsorted_epochs_grouped_stably(self):
        log = _log([2, 1, 2, 1], [0, 1, 2, 3], [0, 1, 2, 3], 4)
        assert list(log.epochs) == [1, 1, 2, 2]
        assert list(log.true_labels) == [1, 3, 0, 2]

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            _log([1], [5], [0], 3)

    def test_epoch_zero_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            _log([0], [0], [0], 1)

    def test_at_epoch_missing(self):
        log = _log([1, 2], [0, 0], [0, 0], 1)
        with pytest.raises(ValueError, match="no records for epoch 3"):
            log.at_epoch(3)


class TestAccuracySeries:
    def test_three_of_four(self):
        log = _log([1, 1, 1, 1], [0, 1, 2, 3], [0, 1, 2, 0], 4)
        a = accuracy_series(log)
        assert a.values[0] == 75.0

    def test_all_correct(self):
        log = _log([1, 1], [0, 1], [0, 1], 2)
        assert accuracy_series(log).values[0] == 100.0

    def test_projection_turns_error_into_hit(self):
        # 2-record log: one within-superclass error, one hit
        s = LabelSpace(name="s", table=[0, 0, 1])
        log = _log([1, 1], [0, 2], [1, 2], 3)
        assert accuracy_series(log).values[0] == 50.0
        assert accuracy_series(project_log(log, s)).values[0] == 100.0

    def test_multi_epoch(self):
        log = _log([1, 1, 2, 2], [0, 1, 0, 1], [0, 0, 0, 1], 2)
        a = accuracy_series(log)
        assert list(a.epochs) == [1, 2]
        assert list(a.values) == [50.0, 100.0]

    def test_ungrouped_epochs_with_gaps(self):
        rng = np.random.default_rng(16)
        epochs = rng.choice([2, 5, 9, 40], size=500)
        true, pred = rng.integers(0, 3, 500), rng.integers(0, 3, 500)
        a = accuracy_series(_log(epochs, true, pred, 3))
        assert a.epochs.tolist() == [2, 5, 9, 40]
        hits = true == pred
        assert a.values.tolist() == [100.0 * float(hits[epochs == e].sum()) / (epochs == e).sum()
                                     for e in (2, 5, 9, 40)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy_series(_log([], [], [], 1))


class TestBaseline:
    def test_paper_sizes(self):
        space = _sized_space([522, 398, 80])
        assert baseline(space) == pytest.approx(0.437288, abs=1e-6)

    def test_two_equal(self):
        assert baseline(_sized_space([5, 5])) == pytest.approx(0.5)

    def test_single_superclass(self):
        assert baseline(_sized_space([7])) == pytest.approx(1.0)



class TestRelativeAccuracy:
    def test_direct_ratio(self):
        r = relative_accuracy(_series([50, 100]))
        assert list(r.values) == [0.5, 1.0]

    def test_constant_series(self):
        r = relative_accuracy(_series([80, 80, 80]))
        assert list(r.values) == [1.0, 1.0, 1.0]

    def test_peak_not_final(self):
        r = relative_accuracy(_series([40, 80, 60]))
        assert list(r.values) == [0.5, 1.0, 0.75]


class TestRelativeGain:
    def test_hand_values(self):
        g = relative_gain(_series([60, 90]), 0.5)
        assert g.values[0] == pytest.approx(0.25)
        assert g.values[1] == pytest.approx(1.0)

    def test_chance_level_is_zero(self):
        g = relative_gain(_series([50, 90]), 0.5)
        assert g.values[0] == pytest.approx(0.0)

    def test_peak_is_one(self):
        g = relative_gain(_series([60, 90, 70]), 0.25)
        assert g.values[1] == pytest.approx(1.0)

    def test_degenerate_denominator_rejected(self):
        with pytest.raises(ValueError, match="does not exceed the baseline"):
            relative_gain(_series([40, 50]), 0.5)

    def test_baseline_range_checked(self):
        with pytest.raises(ValueError, match="baseline"):
            relative_gain(_series([60]), 1.5)


class TestResidualError:
    def test_final_epoch_is_zero(self):
        e = residual_error(_series([80, 90]))
        assert e.values[-1] == pytest.approx(0.0)

    def test_hand_value(self):
        e = residual_error(_series([80, 90]))
        assert e.values[0] == pytest.approx(1.0)

    def test_perfect_epoch_gives_minus_one(self):
        e = residual_error(_series([100, 90]))
        assert e.values[0] == pytest.approx(-1.0)

    def test_final_accuracy_100_rejected(self):
        with pytest.raises(ValueError, match="final accuracy is 100"):
            residual_error(_series([90, 100]))


class TestTheoreticalAccuracy:
    def test_perfect_classifier(self):
        assert theoretical_superclass_accuracy(1.0, _sized_space([2, 2])) == 1.0

    def test_paper_sizes(self):
        space = _sized_space([522, 398, 80])
        val = theoretical_superclass_accuracy(0.79, space)
        assert val == pytest.approx(0.88183048, abs=1e-8)

    def test_zero_accuracy_reduces_to_baseline(self):
        assert theoretical_superclass_accuracy(0.0, _sized_space([3, 3])) == \
            pytest.approx(0.5)

    def test_range_checked(self):
        with pytest.raises(ValueError, match="p_h"):
            theoretical_superclass_accuracy(1.2, _sized_space([2, 2]))


class TestConvergenceEpoch:
    def test_hand_scan(self):
        a = _series([50, 93, 94, 95.1, 96])
        assert convergence_epoch(a) == 2  # threshold 0.95 * 96 = 91.2

    def test_constant_series(self):
        assert convergence_epoch(_series([70, 70, 70])) == 1

    def test_fraction_one_on_increasing(self):
        assert convergence_epoch(_series([10, 20, 30]), fraction=1.0) == 3

    def test_fraction_validated(self):
        with pytest.raises(ValueError, match="fraction"):
            convergence_epoch(_series([50]), fraction=0.0)


class TestConfusionMatrix:
    def test_perfect_is_diagonal(self):
        log = _log([1] * 3, [0, 1, 2], [0, 1, 2], 3)
        cm = confusion_matrix(log)
        assert np.array_equal(cm.counts, np.eye(3, dtype=np.int64))

    def test_two_record_hand_tally(self):
        log = _log([1, 1], [0, 2], [1, 2], 3)
        cm = confusion_matrix(log)
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[0, 1] = 1
        expected[2, 2] = 1
        assert np.array_equal(cm.counts, expected)

    def test_multi_epoch_slice_rejected(self):
        log = _log([1, 2], [0, 0], [0, 0], 1)
        with pytest.raises(ValueError, match="single-epoch"):
            confusion_matrix(log)


class TestMetricSeries:
    def test_epochs_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _series([1, 2], epochs=[1, 1])

