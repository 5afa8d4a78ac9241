"""Byte-exact write -> read -> write round trips for every on-disk format."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hierkit.collapse import ClassifierHead
from hierkit.hierarchy import DistanceMatrix
from hierkit.io import (read_distance_matrix, read_features, read_head, read_predictions,
                        write_distance_matrix, write_features, write_head, write_predictions)
from hierkit.manifold import FeatureSet
from hierkit.metrics import PredictionLog

SETTINGS = settings(max_examples=60, deadline=None, database=None)

_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_f64 = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_int64 = st.integers(-2**63, 2**63 - 1)


def _twice(tmp_path_factory, name, write, read, obj):
    """Write obj, read it back, write that; return both files' bytes."""
    base = tmp_path_factory.getbasetemp()
    first, second = base / f"first{name}", base / f"second{name}"
    write(obj, first)
    write(read(first), second)
    return first.read_bytes(), second.read_bytes()


@st.composite
def feature_sets(draw):
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    c = draw(st.one_of(st.integers(1, 5), st.integers(1, 2**32 - 1)))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, min(c, 2**32) - 1)))
    return FeatureSet(draw(arrays(np.float32, (n, p), elements=_f32)), labels, c)


@st.composite
def distance_matrices(draw, labels):
    labels = draw(labels)
    n = len(labels)
    upper = np.triu(draw(arrays(np.float64, (n, n), elements=_f64)), k=1)
    return DistanceMatrix(labels=labels, values=upper + upper.T)


@st.composite
def heads(draw):
    c, p = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return ClassifierHead(weights=draw(arrays(np.float32, (c, p), elements=_f32)),
                          bias=draw(arrays(np.float32, c, elements=_f32)))


_ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n\r\x00"),
               max_size=6)


@st.composite
def prediction_logs(draw):
    keys = draw(st.lists(st.tuples(st.one_of(st.integers(1, 4), st.integers(1, 2**63 - 1)),
                                   _ids), min_size=1, max_size=12,
                         unique=True))
    n = len(keys)
    label = st.one_of(st.integers(0, 3), st.integers(0, 2**63 - 2))
    true = draw(st.lists(label, min_size=n, max_size=n))
    pred = draw(st.lists(label, min_size=n, max_size=n))
    return PredictionLog(epochs=[e for e, _ in keys], example_ids=[x for _, x in keys],
                         true_labels=true, pred_labels=pred,
                         label_count=max(true + pred) + 1)


@SETTINGS
@given(f=feature_sets(), ext=st.sampled_from([".bin", ".csv"]))
def test_features_round_trip(tmp_path_factory, f, ext):
    a, b = _twice(tmp_path_factory, ext, write_features, read_features, f)
    assert a == b


@SETTINGS
@given(d=distance_matrices(st.integers(1, 5).map(lambda n: list(range(n)))))
def test_distance_matrix_binary_round_trip(tmp_path_factory, d):
    a, b = _twice(tmp_path_factory, ".bin", write_distance_matrix, read_distance_matrix, d)
    assert a == b


@SETTINGS
@given(d=distance_matrices(st.lists(_int64, min_size=1, max_size=5, unique=True)))
def test_distance_matrix_csv_round_trip(tmp_path_factory, d):
    a, b = _twice(tmp_path_factory, ".csv", write_distance_matrix, read_distance_matrix, d)
    assert a == b


@SETTINGS
@given(head=heads())
def test_head_round_trip(tmp_path_factory, head):
    a, b = _twice(tmp_path_factory, ".bin", write_head, read_head, head)
    assert a == b


@SETTINGS
@given(log=prediction_logs())
def test_prediction_log_round_trip(tmp_path_factory, log):
    a, b = _twice(tmp_path_factory, ".csv", write_predictions, read_predictions, log)
    assert a == b
