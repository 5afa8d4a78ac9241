import dataclasses
import warnings

import numpy as np
import pytest

import hierkit.synth as synth
from hierkit.collapse import class_statistics, lift_to_superclass, nc1, nearest_mean_labels
from hierkit.hierarchy import graph_distance_matrix, parse_hierarchy
from hierkit.labelspace import build_labelspace, parse_grouping, project_log
from hierkit.manifold import (CoverConfig, FeatureSet, ccc, cover_similarity,
                              split_query_support, to_distance_matrix)
from hierkit.metrics import PredictionLog, accuracy_series, confusion_matrix
from hierkit.synth import (TrajectoryParams, default_trajectory_params,
                           gen_etf, gen_hierarchical_trajectory,
                           gen_prediction_trajectory, mc_superclass_accuracy,
                           ncc_prediction_log, parse_trajectory_config)
from hierkit.rng import substream

from _helpers import balanced_hierarchy


class TestGenEtf:
    def test_two_classes_antipodal(self):
        frame = gen_etf(2, dim=4)
        cos = frame[0] @ frame[1]
        assert cos == pytest.approx(-1.0, abs=1e-12)

    def test_equiangular_cosines(self):
        for c in (3, 4, 10):
            frame = gen_etf(c, dim=c + 5)
            norms = np.linalg.norm(frame, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)
            cos = frame @ frame.T
            iu = np.triu_indices(c, k=1)
            np.testing.assert_allclose(cos[iu], -1.0 / (c - 1), atol=1e-12)

    def test_zero_mean(self):
        frame = gen_etf(6, dim=8)
        np.testing.assert_allclose(frame.mean(axis=0), 0.0, atol=1e-12)

    def test_scale(self):
        frame = gen_etf(4, dim=4, scale=2.5)
        np.testing.assert_allclose(np.linalg.norm(frame, axis=1), 2.5, atol=1e-12)

    def test_minimal_dimension_allowed(self):
        frame = gen_etf(5, dim=4)
        assert frame.shape == (5, 4)

    def test_dimension_too_small_rejected(self):
        with pytest.raises(ValueError, match="dim must be >= C-1"):
            gen_etf(5, dim=3)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError, match="c_count"):
            gen_etf(1, dim=4)
        with pytest.raises(ValueError, match="scale"):
            gen_etf(3, dim=4, scale=0.0)


class TestTrajectory:
    def test_seed_determinism(self):
        h, s, _ = balanced_hierarchy(2, 2)
        params = default_trajectory_params(epochs=4, dimension=8,
                                           examples_per_class=3, seed=5)
        a = gen_hierarchical_trajectory(h, s, params)
        b = gen_hierarchical_trajectory(h, s, params)
        assert len(a) == 4
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.vectors, fb.vectors)
            np.testing.assert_array_equal(fa.labels, fb.labels)

    def test_epoch_tags_and_shape(self):
        h, s, _ = balanced_hierarchy(2, 2)
        params = default_trajectory_params(epochs=3, dimension=8,
                                           examples_per_class=5, seed=0)
        out = gen_hierarchical_trajectory(h, s, params)
        assert [f.epoch for f in out] == [1, 2, 3]
        assert all(f.vectors.shape == (20, 8) for f in out)
        np.testing.assert_array_equal(out[0].labels, np.repeat(np.arange(4), 5))

    def test_epoch_substreams_are_independent(self):
        h, s, _ = balanced_hierarchy(2, 2)
        base = dict(epochs=3, dimension=8, examples_per_class=4, seed=1,
                    hypernym_gap_schedule=[1.0, 1.0, 1.0],
                    hyponym_gap_schedule=[0.5, 0.5, 0.5])
        a = gen_hierarchical_trajectory(h, s, TrajectoryParams(
            noise_schedule=[0.3, 0.3, 0.3], **base))
        b = gen_hierarchical_trajectory(h, s, TrajectoryParams(
            noise_schedule=[0.3, 0.9, 0.3], **base))
        np.testing.assert_array_equal(a[0].vectors, b[0].vectors)
        np.testing.assert_array_equal(a[2].vectors, b[2].vectors)
        assert not np.array_equal(a[1].vectors, b[1].vectors)

    def test_zero_noise_epoch_is_exact_means(self):
        h, s, _ = balanced_hierarchy(2, 3)
        params = default_trajectory_params(epochs=5, dimension=10,
                                           examples_per_class=4, seed=2)
        final = gen_hierarchical_trajectory(h, s, params)[-1]
        # last noise value is exactly 0: every example sits on its class mean
        st = class_statistics(final)
        np.testing.assert_array_equal(st.sigma_w, np.zeros((10, 10)))
        assert nc1(st) == 0.0

    def test_superclass_separation_precedes_class_separation(self):
        h, s, _ = balanced_hierarchy(3, 3)
        params = default_trajectory_params(epochs=20, dimension=16,
                                           examples_per_class=30, seed=3)
        mid = gen_hierarchical_trajectory(h, s, params)[7]
        st = class_statistics(mid)
        lifted, _ = lift_to_superclass(st, None, s)
        assert nc1(lifted) < nc1(st)

    def test_dimension_floor_enforced(self):
        h, s, _ = balanced_hierarchy(2, 2)
        with pytest.raises(ValueError, match="dimension must be >="):
            gen_hierarchical_trajectory(h, s, default_trajectory_params(
                epochs=2, dimension=5, examples_per_class=2, seed=0))

    def test_label_space_size_checked(self):
        h, _, _ = balanced_hierarchy(2, 2)
        _, other, _ = balanced_hierarchy(2, 3)
        with pytest.raises(ValueError, match="label space covers"):
            gen_hierarchical_trajectory(h, other, default_trajectory_params(
                epochs=2, dimension=16, examples_per_class=2, seed=0))


class TestPredictionTrajectory:
    def test_within_one_keeps_hypernym_accuracy_perfect(self):
        h, s, _ = balanced_hierarchy(3, 3)
        log = gen_prediction_trajectory(h, s, epochs=3,
                                        accuracy_schedule=[0.2, 0.5, 0.9],
                                        within_hypernym_error_fraction_schedule=[1, 1, 1],
                                        examples=600, seed=0)
        projected = accuracy_series(project_log(log, s))
        np.testing.assert_array_equal(projected.values, [100.0, 100.0, 100.0])

    def test_uniform_errors_match_closed_form(self):
        h, s, _ = balanced_hierarchy(3, 3)
        log = gen_prediction_trajectory(h, s, epochs=2,
                                        accuracy_schedule=[0.4, 0.8],
                                        within_hypernym_error_fraction_schedule=[0, 0],
                                        examples=20_000, seed=1)
        projected = accuracy_series(project_log(log, s))
        # uniform wrong label lands in the true superclass w.p. (m-1)/(C-1)
        for a, got in zip((0.4, 0.8), projected.values):
            expect = 100 * (a + (1 - a) * 2.0 / 8.0)
            assert got == pytest.approx(expect, abs=1.5)

    def test_perfect_accuracy_gives_diagonal_confusion(self):
        h, s, _ = balanced_hierarchy(2, 2)
        log = gen_prediction_trajectory(h, s, epochs=1, accuracy_schedule=[1.0],
                                        within_hypernym_error_fraction_schedule=[0.0],
                                        examples=40, seed=2)
        m = confusion_matrix(log)
        assert np.trace(m.counts) == 40
        assert m.counts.sum() == 40

    def test_round_robin_true_labels(self):
        h, s, _ = balanced_hierarchy(3, 1)
        log = gen_prediction_trajectory(h, s, epochs=1, accuracy_schedule=[1.0],
                                        within_hypernym_error_fraction_schedule=[0.0],
                                        examples=7, seed=0)
        np.testing.assert_array_equal(np.sort(log.true_labels),
                                      np.sort(np.arange(7) % 3))

    def test_singleton_superclass_warns_and_falls_back(self):
        h, s, _ = balanced_hierarchy(3, 1)
        with pytest.warns(UserWarning, match="singleton"):
            log = gen_prediction_trajectory(
                h, s, epochs=1, accuracy_schedule=[0.0],
                within_hypernym_error_fraction_schedule=[1.0],
                examples=300, seed=3)
        assert (log.pred_labels != log.true_labels).all()

    def test_seed_determinism(self):
        h, s, _ = balanced_hierarchy(2, 3)
        kw = dict(epochs=2, accuracy_schedule=[0.5, 0.5],
                  within_hypernym_error_fraction_schedule=[0.5, 0.5],
                  examples=50, seed=7)
        a = gen_prediction_trajectory(h, s, **kw)
        b = gen_prediction_trajectory(h, s, **kw)
        np.testing.assert_array_equal(a.pred_labels, b.pred_labels)

    def test_schedule_validation(self):
        h, s, _ = balanced_hierarchy(2, 2)
        with pytest.raises(ValueError, match="length"):
            gen_prediction_trajectory(h, s, epochs=2, accuracy_schedule=[0.5],
                                      within_hypernym_error_fraction_schedule=[0, 0],
                                      examples=4, seed=0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            gen_prediction_trajectory(h, s, epochs=1, accuracy_schedule=[1.5],
                                      within_hypernym_error_fraction_schedule=[0],
                                      examples=4, seed=0)

    @pytest.mark.parametrize("acc, within, name", [
        ([float("nan")], [0.5], "accuracy_schedule"),
        ([0.5], [float("nan")], "within_hypernym_error_fraction_schedule"),
    ])
    def test_nan_schedule_rejected(self, acc, within, name):
        h, s, _ = balanced_hierarchy(2, 2)
        with pytest.raises(ValueError, match=rf"{name} values must be in \[0, 1\]"):
            gen_prediction_trajectory(h, s, epochs=1, accuracy_schedule=acc,
                                      within_hypernym_error_fraction_schedule=within,
                                      examples=4, seed=0)



def _sized_hierarchy(sizes):
    """root -> g0..g{S-1} -> leaves, sizes[i] leaves under g{i}."""
    edges, classes, grouping, ci = [], [], [], 0
    for gi, size in enumerate(sizes):
        edges.append(f"root\tg{gi}")
        grouping.append(f"g{gi}\tg{gi}")
        for _ in range(size):
            edges.append(f"g{gi}\tn{ci}")
            classes.append(f"{ci}\tn{ci}")
            ci += 1
    h = parse_hierarchy(edges, classes)
    return h, build_labelspace(h, parse_grouping(grouping))[0]


def _list_and_concatenate(s, epochs, acc, within, examples, seed):
    """The four columns and the fallback flag, built as one part per epoch and
    concatenated at the end: the construction gen_prediction_trajectory must match."""
    c, table, group_sizes = s.class_count, s.table, s.sizes
    flat_members = np.argsort(table, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(group_sizes)[:-1]])
    pos_in_group = np.empty(c, dtype=np.int64)
    pos_in_group[flat_members] = np.arange(c) - np.repeat(offsets, group_sizes)
    true = np.arange(examples, dtype=np.int64) % c
    size_of, off_of, pos_of = group_sizes[table[true]], offsets[table[true]], pos_in_group[true]
    ids = np.array([f"e{i}" for i in range(examples)])
    ep_parts, id_parts, true_parts, pred_parts = [], [], [], []
    fallback = False
    for t in range(1, epochs + 1):
        rng = substream(seed, t)
        u_correct, u_within, u_pick = (rng.random(examples) for _ in range(3))
        j_any = np.minimum((u_pick * (c - 1)).astype(np.int64), c - 2) if c > 1 else \
            np.zeros(examples, dtype=np.int64)
        j_any = j_any + (j_any >= true)
        j_in = np.minimum((u_pick * (size_of - 1)).astype(np.int64), np.maximum(size_of - 2, 0))
        j_in = j_in + (j_in >= pos_of)
        pred_within = flat_members[off_of + np.minimum(j_in, size_of - 1)]
        correct = u_correct < acc[t - 1]
        wants_within = u_within < within[t - 1]
        can_within = size_of > 1
        pred = np.where(wants_within & can_within, pred_within, j_any) if c > 1 else true.copy()
        fallback |= bool((~correct & wants_within & ~can_within).any())
        ep_parts.append(np.full(examples, t, dtype=np.int64))
        id_parts.append(ids)
        true_parts.append(true)
        pred_parts.append(np.where(correct, true, pred))
    return ([np.concatenate(parts) for parts in (ep_parts, id_parts, true_parts, pred_parts)],
            fallback)


@pytest.mark.parametrize("sizes", [(1,), (2,), (1, 1), (1, 2, 3), (3, 3)])
@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("examples", [1, 7])
def test_prediction_trajectory_matches_per_epoch_parts(sizes, epochs, examples):
    # Class 0 is a singleton where sizes[0] == 1, and epoch 1 has accuracy 0 and
    # within 1, so such a hierarchy always falls back, and warns once.
    h, s = _sized_hierarchy(sizes)
    acc, within = np.linspace(0.0, 0.6, epochs), np.linspace(1.0, 0.4, epochs)
    (epoch_col, ids, true, pred), fallback = _list_and_concatenate(
        s, epochs, acc, within, examples, seed=11)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        log = gen_prediction_trajectory(h, s, epochs, acc, within, examples, seed=11)
    assert fallback == (sizes[0] == 1)
    assert [str(w.message) for w in caught] == (
        ["within-superclass error requested for a singleton superclass; "
         "fell back to a uniform wrong label"] if fallback else [])
    for got, want in ((log.epochs, epoch_col), (log.example_ids, ids),
                      (log.true_labels, true), (log.pred_labels, pred)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestMcOracle:
    def test_perfect_hypernym_accuracy(self):
        est, err = mc_superclass_accuracy(1.0, [3, 5], trials=1000, seed=0)
        assert est == 1.0
        assert err == 0.0

    def test_matches_closed_form_on_reference_sizes(self):
        est, err = mc_superclass_accuracy(0.79, [522, 398, 80],
                                          trials=1_000_000, seed=1)
        assert abs(est - 0.88183048) < 3 * err + 1e-12
        assert err < 5e-4

    def test_zero_accuracy_reduces_to_collision_rate(self):
        est, err = mc_superclass_accuracy(0.0, [500, 500], trials=100_000, seed=2)
        assert abs(est - 0.5) < 3 * err

    def test_validation(self):
        with pytest.raises(ValueError, match="p_h"):
            mc_superclass_accuracy(1.2, [2, 2], trials=10, seed=0)
        with pytest.raises(ValueError, match="trials"):
            mc_superclass_accuracy(0.5, [2, 2], trials=0, seed=0)
        with pytest.raises(ValueError, match="sizes"):
            mc_superclass_accuracy(0.5, [], trials=10, seed=0)
        with pytest.raises(ValueError, match="sizes"):
            mc_superclass_accuracy(0.5, [3, 0], trials=10, seed=0)


class TestNccPredictionLog:
    def test_separated_means_classify_perfectly(self):
        h, s, _ = balanced_hierarchy(2, 2)
        params = default_trajectory_params(epochs=3, dimension=8,
                                           examples_per_class=6, seed=4)
        log = ncc_prediction_log(gen_hierarchical_trajectory(h, s, params))
        final = accuracy_series(log).values[-1]
        assert final == 100.0

    def test_epoch_numbers_preserved(self):
        h, s, _ = balanced_hierarchy(2, 2)
        params = default_trajectory_params(epochs=3, dimension=8,
                                           examples_per_class=4, seed=0)
        log = ncc_prediction_log(gen_hierarchical_trajectory(h, s, params))
        np.testing.assert_array_equal(np.unique(log.epochs), [1, 2, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ncc_prediction_log([])

    def test_projection_bridge(self):
        h, s, _ = balanced_hierarchy(3, 3)
        params = default_trajectory_params(epochs=10, dimension=16,
                                           examples_per_class=10, seed=6)
        log = ncc_prediction_log(gen_hierarchical_trajectory(h, s, params))
        hyper = accuracy_series(project_log(log, s))
        hypo = accuracy_series(log)
        assert (hyper.values >= hypo.values).all()


def _per_set_parts(feature_sets):
    """The log of four columns built as one part per set, with one id array per
    set length, and concatenated: the construction ncc_prediction_log must match."""
    parts = []
    for i, f in enumerate(feature_sets):
        epoch = f.epoch if f.epoch is not None else i + 1
        parts.append((np.full(len(f), int(epoch), dtype=np.int64),
                      np.array([f"e{j}" for j in range(len(f))]),
                      f.labels, nearest_mean_labels(f)))
    epochs, ids, true, pred = (np.concatenate(column) for column in zip(*parts))
    return PredictionLog(epochs, ids, true, pred, label_count=feature_sets[0].class_count)


class TestNccUnequalSets:
    @staticmethod
    def _sets(sizes, epochs):
        rng = np.random.default_rng(3)
        return [FeatureSet(rng.standard_normal((n, 4)), np.arange(n) % 3, 3, epoch=e)
                for n, e in zip(sizes, epochs)]

    @pytest.mark.parametrize("sizes", [(5, 12, 3), (12, 5, 5), (4,)])
    def test_matches_per_set_parts(self, sizes):
        feature_sets = self._sets(sizes, [None, 7, None][:len(sizes)])
        log, ref = ncc_prediction_log(feature_sets), _per_set_parts(feature_sets)
        for column in ("epochs", "example_ids", "true_labels", "pred_labels"):
            got, want = getattr(log, column), getattr(ref, column)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert log.label_count == ref.label_count

    def test_class_count_checked_before_any_readout(self, monkeypatch):
        feature_sets = self._sets((6, 6), (None, None))
        feature_sets[1].class_count = 4

        def refuse(f):
            raise AssertionError("a readout ran")

        monkeypatch.setattr(synth, "nearest_mean_labels", refuse)
        with pytest.raises(ValueError, match="^feature sets disagree on class_count$"):
            ncc_prediction_log(feature_sets)


class TestParseConfig:
    def test_empty_file_gives_the_defaults(self):
        params, ref = parse_trajectory_config([]), default_trajectory_params()
        for field in dataclasses.fields(ref):
            got, want = getattr(params, field.name), getattr(ref, field.name)
            assert type(got) is type(want)
            assert np.array_equal(got, want) and np.asarray(got).dtype == np.asarray(want).dtype

    def test_malformed_file_seed_ignored_under_override(self):
        assert parse_trajectory_config(["seed=abc"], seed=5).seed == 5
        with pytest.raises(ValueError, match="config key 'seed' must be an integer"):
            parse_trajectory_config(["seed=abc"])

    def test_defaults_fill_missing_keys(self):
        params = parse_trajectory_config(["epochs=10"])
        ref = default_trajectory_params(epochs=10)
        assert params.dimension == 64 and params.examples_per_class == 20
        np.testing.assert_allclose(params.noise_schedule, ref.noise_schedule)
        np.testing.assert_allclose(params.hypernym_gap_schedule,
                                   ref.hypernym_gap_schedule)

    def test_linear_schedule(self):
        params = parse_trajectory_config(["epochs=5", "noise_schedule=linear:0.5:0"])
        np.testing.assert_allclose(params.noise_schedule,
                                   np.linspace(0.5, 0.0, 5))

    def test_explicit_list_schedule(self):
        params = parse_trajectory_config(
            ["epochs=3", "hyponym_gap_schedule=0.1,0.2,0.3"])
        np.testing.assert_allclose(params.hyponym_gap_schedule, [0.1, 0.2, 0.3])

    def test_wrong_list_length_rejected(self):
        with pytest.raises(ValueError, match="lists 2 values, expected 3"):
            parse_trajectory_config(["epochs=3", "noise_schedule=0.1,0.2"])

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_trajectory_config(["epochs=3", "momentum=0.9"])

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate key"):
            parse_trajectory_config(["epochs=3", "epochs=4"])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            parse_trajectory_config(["epochs=ten"])

    def test_bad_linear_spec_rejected(self):
        with pytest.raises(ValueError, match="linear:a:b"):
            parse_trajectory_config(["epochs=3", "noise_schedule=linear:1"])

    def test_non_numeric_schedule_names_key(self):
        with pytest.raises(ValueError, match="config key 'noise_schedule' expects 'linear:a:b'"):
            parse_trajectory_config(["epochs=2", "noise_schedule=1,x"])

    def test_seed_override(self):
        params = parse_trajectory_config(["epochs=2", "seed=3"], seed=7)
        assert params.seed == 7
        assert parse_trajectory_config(["epochs=2", "seed=3"]).seed == 3


class TestCoverTrajectory:
    def test_hierarchy_signal_rises_then_dissolves(self):
        """Cover-distance geometry tracks the taxonomy while hypernym gaps
        dominate, and the signal is gone once the gap has decayed away."""
        h, s, _ = balanced_hierarchy(3, 3)
        epochs = 9
        hyper = np.array([0.1, 1.0, 2.0, 2.0, 2.0, 1.5, 1.0, 0.5, 0.0])
        hypo = np.linspace(0.0, 1.0, epochs)
        noise = np.array([1.5, 0.8, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.0])
        params = TrajectoryParams(epochs=epochs, dimension=24,
                                  examples_per_class=12, seed=0,
                                  hypernym_gap_schedule=hyper,
                                  hyponym_gap_schedule=hypo,
                                  noise_schedule=noise)
        traj = gen_hierarchical_trajectory(h, s, params)
        d_w = graph_distance_matrix(h)

        def cover_ccc(f):
            q, sup = split_query_support(f, CoverConfig(k=5, seed=0))
            sim = cover_similarity(q, sup, CoverConfig(k=5, method="exact"))
            return ccc(to_distance_matrix(sim), d_w)

        first = cover_ccc(traj[0])
        mid = cover_ccc(traj[3])
        assert first < mid
        assert mid > 0.8
        # terminal epoch: gap 0, noise 0 -> class means orthonormal, so the
        # off-diagonal cover distances flatten out and carry no ranking signal
        q, sup = split_query_support(traj[-1], CoverConfig(k=5, seed=0))
        sim = cover_similarity(q, sup, CoverConfig(k=5, method="exact"))
        d_f = to_distance_matrix(sim).values
        off = d_f[np.triu_indices(d_f.shape[0], k=1)]
        assert off.max() - off.min() < 1e-8
