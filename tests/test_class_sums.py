"""The exact class-sum kernel and the means-only nearest-class-mean readout.

``collapse._class_sums`` must equal ``np.add.at`` bit for bit: every class
mean, every lifted superclass mean and head row, and so every NC statistic and
NCC readout, is built on it.  Bits are compared through ``.view(np.int64)``,
so a -0.0 where ``np.add.at`` gives +0.0 fails too.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _helpers import balanced_hierarchy
from hierkit.collapse import (ClassifierHead, _class_sums, class_statistics,
                              lift_to_superclass, nearest_mean_labels)
from hierkit.labelspace import random_isomorphic
from hierkit.manifold import FeatureSet
from hierkit.synth import (default_trajectory_params, gen_hierarchical_trajectory,
                           ncc_prediction_log)


def _add_at(labels, x, c):
    sums = np.zeros((c, x.shape[1]))
    np.add.at(sums, labels, x)
    return sums


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def sum_inputs(draw):
    """Labels in several layouts and rows spanning 12 decades, some all -0.0."""
    p = draw(st.sampled_from([1, 2, 64]))
    c = draw(st.integers(1, 6))
    layout = draw(st.sampled_from(["sorted", "shuffled", "equal", "singletons"]))
    counts = np.array(draw(st.lists(st.integers(0, 40), min_size=c, max_size=c)))
    if layout == "equal":
        counts[:] = max(1, counts[0])
    elif layout == "singletons":
        counts[:] = 1
    labels = np.repeat(np.arange(c), counts)
    if layout == "shuffled":
        labels = labels[draw(st.permutations(range(len(labels))))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((len(labels), p)) * 10.0 ** rng.uniform(-6, 6, (len(labels), 1))
    x[rng.random(len(labels)) < 0.15] = -0.0
    negative_zero_class = draw(st.integers(-1, c - 1))  # -1: none
    x[labels == negative_zero_class] = -0.0
    if draw(st.booleans()):
        x = x.astype(np.float32)
    return labels, x, c


@settings(max_examples=300, deadline=None, database=None)
@given(sum_inputs())
def test_class_sums_match_add_at_bit_for_bit(inputs):
    labels, x, c = inputs
    _assert_same_bits(_class_sums(labels, x, c), _add_at(labels, x, c))


@pytest.mark.parametrize("p", [1, 2, 64])
def test_long_classes_sum_in_index_order(p):
    # Classes of 100-300 rows spanning 16 decades: a sum along the class axis
    # (np.add.reduce, reduceat) adds these pairwise, not in index order.
    rng = np.random.default_rng(p)
    labels = np.repeat(np.arange(3), [100, 300, 200])
    x = rng.standard_normal((600, p)) * 10.0 ** rng.uniform(-8, 8, (600, 1))
    _assert_same_bits(_class_sums(labels, x, 3), _add_at(labels, x, 3))
    shuffled = rng.permutation(600)
    _assert_same_bits(_class_sums(labels[shuffled], x[shuffled], 3),
                      _add_at(labels[shuffled], x[shuffled], 3))


def test_all_negative_zero_class_sums_to_positive_zero():
    sums = _class_sums(np.array([0, 0, 1]), np.array([[-0.0], [-0.0], [1.0]]), 3)
    _assert_same_bits(sums, np.array([[0.0], [1.0], [0.0]]))


def test_only_unsorted_labels_are_sorted(monkeypatch):
    # Non-decreasing labels are summed straight from the caller's rows: no
    # sorted copy of a large feature matrix.
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
    labels = np.repeat(np.arange(4), [3, 1, 0, 2])
    x = np.arange(12.0).reshape(6, 2)
    _assert_same_bits(_class_sums(labels, x, 4), _add_at(labels, x, 4))
    assert calls == []
    _assert_same_bits(_class_sums(labels[::-1], x, 4), _add_at(labels[::-1], x, 4))
    assert calls == [1]


def test_lift_on_interleaved_table_matches_add_at():
    _, space, _ = balanced_hierarchy(3, 20)
    rand, table = random_isomorphic(space, 7)
    assert (np.diff(table) < 0).any()  # interleaved: the kernel sorts first
    rng = np.random.default_rng(3)
    labels = np.repeat(np.arange(60), 20)
    f = FeatureSet(rng.standard_normal((1200, 64)) * 10.0 ** rng.uniform(-4, 4, (1200, 1)),
                   labels, 60)
    stats = class_statistics(f)
    head = ClassifierHead(rng.standard_normal((60, 64)), rng.standard_normal(60))
    lifted, lifted_head = lift_to_superclass(stats, head, rand)
    members = rand.sizes.astype(np.float64)[:, None]
    _assert_same_bits(lifted.class_means, _add_at(table, stats.class_means, 3) / members)
    _assert_same_bits(lifted_head.weights, _add_at(table, head.weights, 3) / members)


def test_ncc_log_equals_full_statistics_readout():
    h, space, _ = balanced_hierarchy(3, 20)
    traj = gen_hierarchical_trajectory(h, space, default_trajectory_params(seed=4))
    log = ncc_prediction_log(traj)
    n = len(traj[0])
    for i, f in enumerate(traj):
        stats = class_statistics(f)
        _assert_same_bits(stats.class_means,
                          _add_at(f.labels, f.vectors, 60) / stats.counts[:, None])
        np.testing.assert_array_equal(log.pred_labels[i * n:(i + 1) * n],
                                      nearest_mean_labels(f, stats))
        np.testing.assert_array_equal(nearest_mean_labels(f), nearest_mean_labels(f, stats))


def test_means_only_readout_rejects_an_empty_class():
    f = FeatureSet(np.zeros((4, 2)), np.array([0, 0, 2, 2]), 3)
    with pytest.raises(ValueError, match="class 1 has no examples"):
        nearest_mean_labels(f)
    with pytest.raises(ValueError, match="class 1 has no examples"):
        ncc_prediction_log([f])
