import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from hierkit import manifold
from hierkit.collapse import ClassifierHead, NCReport
from hierkit.hierarchy import DistanceMatrix
from hierkit.io import (DMAT_MAGIC, FEATURES_MAGIC, HEAD_MAGIC, read_distance_matrix,
                        read_features, read_head, read_predictions, write_distance_matrix,
                        write_features, write_head, write_predictions, write_table)
from hierkit.manifold import FeatureSet, SimilarityMatrix
from hierkit.metrics import ConfusionMatrix, MetricSeries, PredictionLog


def _feature_set(seed=0, n=7, p=3, c=2):
    rng = np.random.default_rng(seed)
    return FeatureSet(rng.standard_normal((n, p)).astype(np.float32),
                      rng.integers(0, c, size=n), c)


def _log():
    return PredictionLog(epochs=np.array([1, 1, 2, 2]),
                         example_ids=np.array(["a", "b", "a", "b"]),
                         true_labels=np.array([0, 1, 0, 1]),
                         pred_labels=np.array([0, 0, 1, 1]),
                         label_count=2)


class TestFeaturesBinary:
    def test_round_trip_bit_exact(self, tmp_path):
        f = _feature_set()
        path = tmp_path / "f.bin"
        write_features(f, path)
        g = read_features(path)
        assert g.vectors.dtype == np.float32
        np.testing.assert_array_equal(g.vectors, f.vectors)
        np.testing.assert_array_equal(g.labels, f.labels)
        assert g.class_count == f.class_count

    def test_write_is_deterministic(self, tmp_path):
        f = _feature_set()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_features(f, a)
        write_features(f, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncation_reports_sizes(self, tmp_path):
        f = _feature_set()
        path = tmp_path / "f.bin"
        write_features(f, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ValueError, match="truncated payload.*expected 84 bytes, got 79"):
            read_features(path)

    def test_trailing_data_rejected(self, tmp_path):
        f = _feature_set()
        path = tmp_path / "f.bin"
        write_features(f, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing data"):
            read_features(path)

    def test_unknown_magic_named(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"XXFEAT01" + b"\x00" * 24)
        with pytest.raises(ValueError, match=r"unknown format \(magic b'XXFEAT01'"):
            read_features(path)

    def test_wrong_known_magic_cross_named(self, tmp_path):
        d = DistanceMatrix(labels=[0, 1], values=np.array([[0.0, 1.0], [1.0, 0.0]]))
        path = tmp_path / "d.bin"
        write_distance_matrix(d, path)
        with pytest.raises(ValueError, match="HBDMAT01.*HBFEAT01"):
            read_features(path)

    def test_out_of_range_label_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        payload = (FEATURES_MAGIC
                   + np.array([1, 1, 1], dtype="<u8").tobytes()
                   + np.array([5], dtype="<u4").tobytes()
                   + np.array([0.0], dtype="<f4").tobytes())
        path.write_bytes(payload)
        with pytest.raises(ValueError, match="label 5 >= class count 1"):
            read_features(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        payload = (FEATURES_MAGIC
                   + np.array([1, 1, 1], dtype="<u8").tobytes()
                   + np.array([0], dtype="<u4").tobytes()
                   + np.array([np.nan], dtype="<f4").tobytes())
        path.write_bytes(payload)
        with pytest.raises(ValueError, match="non-finite"):
            read_features(path)


    def test_non_finite_before_label_range(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(FEATURES_MAGIC + np.array([1, 1, 1], dtype="<u8").tobytes()
                         + np.array([5], dtype="<u4").tobytes()
                         + np.array([np.inf], dtype="<f4").tobytes())
        with pytest.raises(ValueError, match=r"^.*bad\.bin: feature vectors contain "
                                             r"non-finite values$"):
            read_features(path)

    def test_read_has_no_bool_copy_of_the_vectors(self, tmp_path, monkeypatch):
        """One finiteness pass, in row blocks: the read holds the vectors and
        labels it returns, the uint32 labels it read, and one small block."""
        monkeypatch.setattr(manifold, "_block_rows", lambda width: 64)
        f = _feature_set(n=20_000, p=128, c=10)
        path = tmp_path / "f.bin"
        write_features(f, path)
        tracemalloc.start()
        try:
            read_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = f.vectors.nbytes + 12 * len(f)  # float32 vectors, uint32 and int64 labels
        assert peak < held + 64 * 128 + 2**16


class TestFeaturesCsv:
    def test_non_finite_before_negative_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n-1,nan\n")
        with pytest.raises(ValueError, match=r"^.*bad\.csv: feature vectors contain "
                                             r"non-finite values$"):
            read_features(path)

    def test_round_trip_exact_float32(self, tmp_path):
        f = _feature_set(seed=3)
        path = tmp_path / "f.csv"
        write_features(f, path)
        g = read_features(path)
        # 9 significant digits recover every float32 exactly
        np.testing.assert_array_equal(g.vectors, f.vectors)
        np.testing.assert_array_equal(g.labels, f.labels)

    def test_header_shape(self, tmp_path):
        f = _feature_set(p=2)
        path = tmp_path / "f.csv"
        write_features(f, path)
        assert path.read_text().splitlines()[0] == "label,f0,f1"

    def test_bad_header_names_both_formats(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,f0\n0,1.0\n")
        with pytest.raises(ValueError, match="HBFEAT01.*label,f0"):
            read_features(path)

    def test_malformed_field_has_line_number(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("label,f0\n0,1.0\n1,oops\n")
        with pytest.raises(ValueError, match=r"f\.csv:3: malformed numeric field"):
            read_features(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("label,f0,f1\n0,1.0\n")
        with pytest.raises(ValueError, match="expected 3 fields, got 2"):
            read_features(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("label,f0\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_features(path)


class TestDistanceMatrixIO:
    def _mat(self):
        v = np.array([[0.0, 1.25, 2.5], [1.25, 0.0, 0.75], [2.5, 0.75, 0.0]])
        return DistanceMatrix(labels=[0, 1, 2], values=v)

    def test_binary_round_trip_exact(self, tmp_path):
        d = self._mat()
        path = tmp_path / "d.bin"
        write_distance_matrix(d, path)
        e = read_distance_matrix(path)
        np.testing.assert_array_equal(e.values, d.values)
        assert e.labels == [0, 1, 2]

    def test_binary_requires_contiguous_labels(self, tmp_path):
        d = DistanceMatrix(labels=[3, 7], values=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="labels 0..n-1"):
            write_distance_matrix(d, tmp_path / "d.bin")

    def test_csv_keeps_labels(self, tmp_path):
        d = DistanceMatrix(labels=[3, 7], values=np.array([[0.0, 1.5], [1.5, 0.0]]))
        path = tmp_path / "d.csv"
        write_distance_matrix(d, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",3,7"
        assert lines[1].startswith("3,")
        e = read_distance_matrix(path)
        assert e.labels == [3, 7]
        np.testing.assert_array_equal(e.values, d.values)

    def test_csv_row_label_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(",0,1\n0,0,1\n9,1,0\n")
        with pytest.raises(ValueError, match="row label 9 does not match"):
            read_distance_matrix(path)

    def test_csv_missing_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(",0,1\n0,0,1\n")
        with pytest.raises(ValueError, match="expected 2 rows, got 1"):
            read_distance_matrix(path)

    def test_csv_extra_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(",0,1\n0,0,1\n1,1,0\n1,1,0\n")
        with pytest.raises(ValueError, match=r"d\.csv:4: extra row"):
            read_distance_matrix(path)

    def test_csv_non_integer_row_label_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(",0,1\n0,0,1\nx,1,0\n")
        with pytest.raises(ValueError, match=r"d\.csv:3: malformed numeric field"):
            read_distance_matrix(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "d.bin"
        write_distance_matrix(self._mat(), path)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(ValueError, match="truncated payload reading matrix"):
            read_distance_matrix(path)

    def test_cross_magic(self, tmp_path):
        f = _feature_set()
        path = tmp_path / "f.bin"
        write_features(f, path)
        with pytest.raises(ValueError, match="HBFEAT01.*HBDMAT01"):
            read_distance_matrix(path)


class TestHeadIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        head = ClassifierHead(weights=rng.standard_normal((3, 5)).astype(np.float32),
                              bias=rng.standard_normal(3).astype(np.float32))
        path = tmp_path / "h.bin"
        write_head(head, path)
        g = read_head(path)
        np.testing.assert_array_equal(np.asarray(g.weights, dtype=np.float32),
                                      np.asarray(head.weights, dtype=np.float32))
        np.testing.assert_array_equal(np.asarray(g.bias, dtype=np.float32),
                                      np.asarray(head.bias, dtype=np.float32))

    def test_truncated_bias(self, tmp_path):
        head = ClassifierHead(weights=np.ones((2, 2)), bias=np.zeros(2))
        path = tmp_path / "h.bin"
        write_head(head, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="truncated payload reading bias"):
            read_head(path)

    def test_cross_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        write_features(_feature_set(), path)
        with pytest.raises(ValueError, match="HBFEAT01.*HBHEAD01"):
            read_head(path)


    @pytest.mark.parametrize("weights, bias", [([[np.nan, 1.0]], [0.0]),
                                               ([[1.0, 2.0]], [np.inf])])
    def test_non_finite_values_name_the_file(self, tmp_path, weights, bias):
        path = tmp_path / "h.bin"
        path.write_bytes(HEAD_MAGIC + np.array([1, 2], dtype="<u8").tobytes()
                         + np.array(weights, dtype="<f4").tobytes()
                         + np.array(bias, dtype="<f4").tobytes())
        with pytest.raises(ValueError) as e:
            read_head(path)
        assert str(e.value) == f"{path}: head contains non-finite values"


_MATRIX_REFUSALS = [
    ("distance matrix is not symmetric", [[0.0, 1.0], [2.0, 0.0]]),
    ("distance matrix has a non-zero diagonal", [[0.5, 1.0], [1.0, 0.0]]),
    ("distance matrix has negative entries", [[0.0, -1.0], [-1.0, 0.0]]),
    ("distance matrix has non-finite entries", [[0.0, np.nan], [np.nan, 0.0]]),
]


@pytest.mark.parametrize("message, values", _MATRIX_REFUSALS)
@pytest.mark.parametrize("binary", [False, True])
def test_matrix_refusals_name_the_file(tmp_path, message, values, binary):
    if binary:
        path = tmp_path / "d.bin"
        path.write_bytes(DMAT_MAGIC + np.array([2], dtype="<u8").tobytes()
                         + np.array(values, dtype="<f8").tobytes())
    else:
        path = tmp_path / "d.csv"
        path.write_text(",0,1\n" + "".join(f"{i},{a!r},{b!r}\n"
                                          for i, (a, b) in enumerate(values)))
    with pytest.raises(ValueError) as e:
        read_distance_matrix(path)
    assert str(e.value) == f"{path}: {message}"


def test_duplicate_matrix_labels_name_the_file(tmp_path):
    # the binary format stores no labels, so only a CSV can repeat one
    path = tmp_path / "d.csv"
    path.write_text(",0,0\n0,0,1\n0,1,0\n")
    with pytest.raises(ValueError) as e:
        read_distance_matrix(path)
    assert str(e.value) == f"{path}: distance matrix labels contain duplicates"


class TestPredictionsIO:
    def test_round_trip(self, tmp_path):
        log = _log()
        path = tmp_path / "p.csv"
        write_predictions(log, path)
        g = read_predictions(path)
        np.testing.assert_array_equal(g.epochs, log.epochs)
        np.testing.assert_array_equal(g.example_ids, log.example_ids)
        np.testing.assert_array_equal(g.true_labels, log.true_labels)
        np.testing.assert_array_equal(g.pred_labels, log.pred_labels)
        assert g.label_count == 2

    def test_rewrite_is_byte_identical(self, tmp_path):
        path1, path2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_predictions(_log(), path1)
        write_predictions(read_predictions(path1), path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_header_written_exactly(self, tmp_path):
        path = tmp_path / "p.csv"
        write_predictions(_log(), path)
        assert path.read_text().splitlines()[0] == "epoch,example_id,true_label,pred_label"

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("epoch,example_id,true_label\n1,a,0\n")
        with pytest.raises(ValueError, match="missing column 'pred_label'"):
            read_predictions(path)

    def test_reordered_header_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("example_id,epoch,true_label,pred_label\na,1,0,0\n")
        with pytest.raises(ValueError, match="header must be exactly"):
            read_predictions(path)

    def test_duplicate_pair_reports_both_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("epoch,example_id,true_label,pred_label\n"
                        "1,a,0,0\n1,b,0,0\n1,a,1,1\n")
        with pytest.raises(ValueError, match=r"p\.csv:4: duplicate.*first seen at row 2"):
            read_predictions(path)

    def test_epoch_floor(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("epoch,example_id,true_label,pred_label\n0,a,0,0\n")
        with pytest.raises(ValueError, match="epoch must be >= 1"):
            read_predictions(path)

    def test_non_integer_epoch_quoted(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("epoch,example_id,true_label,pred_label\none,a,0,0\n")
        with pytest.raises(ValueError, match="non-integer epoch 'one'"):
            read_predictions(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("epoch,example_id,true_label,pred_label\n")
        with pytest.raises(ValueError, match="no records"):
            read_predictions(path)


class TestWriteTable:
    def test_metric_series_csv_bytes(self, tmp_path):
        series = MetricSeries(epochs=np.array([1, 2]), values=np.array([50.0, 91.25]))
        path = tmp_path / "m.csv"
        write_table(series, path)
        assert path.read_text() == "epoch,value\n1,50.000000\n2,91.250000\n"

    def test_confusion_csv_bytes(self, tmp_path):
        m = ConfusionMatrix(counts=np.array([[2, 0], [1, 3]]))
        path = tmp_path / "c.csv"
        write_table(m, path)
        assert path.read_text() == ",0,1\n0,2,0\n1,1,3\n"

    def test_nc_report_key_order(self, tmp_path):
        rep = NCReport(nc1=0.1, beta_mu=0.2, beta_w=0.3, alpha_mu=0.4,
                       alpha_w=0.5, nc3=0.6, nc4_mismatch=0.7,
                       label_space_name="pairs", degenerate_flags=("sigma_b_zero",))
        path = tmp_path / "nc.json"
        write_table(rep, path)
        payload = json.loads(path.read_text())
        assert list(payload) == ["nc1", "beta_mu", "beta_w", "alpha_mu",
                                 "alpha_w", "nc3", "nc4", "label_space",
                                 "degenerate_flags"]
        assert payload["label_space"] == "pairs"
        assert payload["degenerate_flags"] == ["sigma_b_zero"]

    def test_similarity_matrix_csv(self, tmp_path):
        a = SimilarityMatrix(labels=[0, 1], values=np.array([[1.0, 0.25],
                                                             [0.5, 1.0]]))
        path = tmp_path / "s.csv"
        write_table(a, path)
        assert path.read_text() == ",0,1\n0,1,0.25\n1,0.5,1\n"

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot write object of type int"):
            write_table(42, tmp_path / "x.csv")


class TestHeaderClaimsCheckedAgainstFileSize:
    # Each count is 2**61: the payload it claims is far beyond the file, and
    # beyond what a single read can even be asked for.
    @pytest.mark.parametrize("magic, fields, reader, what, expected", [
        (FEATURES_MAGIC, 3, read_features, "labels", 4 * 2**61),
        (HEAD_MAGIC, 2, read_head, "weights", 4 * 2**122),
        (DMAT_MAGIC, 1, read_distance_matrix, "matrix", 8 * 2**122),
    ], ids=["features", "head", "distance-matrix"])
    def test_huge_count_is_truncation(self, tmp_path, magic, fields, reader, what, expected):
        path = tmp_path / "x.bin"
        path.write_bytes(magic + np.full(fields, 2**61, dtype="<u8").tobytes() + b"\x00" * 5)
        with pytest.raises(ValueError, match=f"truncated payload reading {what}: "
                                             f"expected {expected} bytes, got 5"):
            reader(path)


class TestPredictionIdsRefused:
    @pytest.mark.parametrize("bad", ["a,b", "a\nb", "a\rb", "a\x00b"])
    def test_writer_refuses_what_reader_rejects(self, tmp_path, bad):
        log = PredictionLog(epochs=[1, 1], example_ids=["ok", bad],
                            true_labels=[0, 1], pred_labels=[0, 1], label_count=2)
        path = tmp_path / "p.csv"
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_predictions(log, path)
        assert not path.exists()


class TestWritersRefuseWhatReadersReject:
    """Each refusal comes before the file is opened, and without a numpy warning."""

    def _refused(self, write, obj, path, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                write(obj, path)
        assert not path.exists()

    @pytest.mark.parametrize("suffix", ["bin", "csv"])
    def test_feature_value_beyond_float32(self, tmp_path, suffix):
        f = FeatureSet(np.array([[1.0, -1e39]]), np.array([0]), 1)
        self._refused(write_features, f, tmp_path / f"f.{suffix}",
                      "feature value -1e+39 does not fit in float32")

    def test_largest_float32_is_written(self, tmp_path):
        big = float(np.finfo(np.float32).max)
        for suffix in ("bin", "csv"):
            write_features(FeatureSet(np.array([[big, -big]]), np.array([0]), 1),
                           tmp_path / f"f.{suffix}")
            assert read_features(tmp_path / f"f.{suffix}").vectors.tolist() == [[big, -big]]

    def test_label_beyond_uint32(self, tmp_path):
        # the u4 cast used to wrap it: 5,000,000,000 read back as 705,032,704
        f = FeatureSet(np.ones((2, 1)), np.array([0, 5_000_000_000]), 5_000_000_001)
        self._refused(write_features, f, tmp_path / "f.bin",
                      "label 5000000000 does not fit in uint32")
        write_features(f, tmp_path / "f.csv")  # CSV labels are decimal: no limit
        assert read_features(tmp_path / "f.csv").labels.tolist() == [0, 5_000_000_000]

    def test_class_count_beyond_uint64(self, tmp_path):
        f = FeatureSet(np.ones((1, 1)), np.array([0]), 2**64)
        self._refused(write_features, f, tmp_path / "f.bin",
                      f"class count {2**64} does not fit in uint64")
        f.class_count = 2**64 - 1
        write_features(f, tmp_path / "f.bin")
        assert read_features(tmp_path / "f.bin").class_count == 2**64 - 1

    @pytest.mark.parametrize("where", ["weights", "bias"])
    def test_head_value_beyond_float32(self, tmp_path, where):
        values = {"weights": np.eye(2), "bias": np.zeros(2)}
        values[where].flat[1] = 1e39
        self._refused(write_head, ClassifierHead(**values), tmp_path / "h.bin",
                      "head value 1e+39 does not fit in float32")


class TestBlankLinesSkipped:
    """Empty lines are skipped by every CSV reader but keep their line numbers."""

    def test_prediction_log(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("epoch,example_id,true_label,pred_label\n1,a,0,0\n\n1,b,1,1\n\n")
        log = read_predictions(path)
        assert list(log.example_ids) == ["a", "b"]
        path.write_text("epoch,example_id,true_label,pred_label\n\n1,a,0,0\n\n1,a,1,1\n")
        with pytest.raises(ValueError, match=r"p\.csv:5: duplicate.*first seen at row 3"):
            read_predictions(path)

    def test_features_csv(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("label,f0\n0,1.5\n\n1,2.5\n\n")
        f = read_features(path)
        np.testing.assert_array_equal(f.vectors, [[1.5], [2.5]])
        path.write_text("label,f0\n\n0,1.0\n\n1,oops\n")
        with pytest.raises(ValueError, match=r"f\.csv:5: malformed numeric field"):
            read_features(path)

    def test_distance_matrix_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(",0,1\n0,0,1\n\n1,1,0\n\n")
        np.testing.assert_array_equal(read_distance_matrix(path).values, [[0, 1], [1, 0]])
        path.write_text(",0,1\n\n0,0,1\n1,1,0\n\n1,1,0\n")
        with pytest.raises(ValueError, match=r"d\.csv:6: extra row"):
            read_distance_matrix(path)

    def test_whitespace_line_is_not_blank(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("epoch,example_id,true_label,pred_label\n1,a,0,0\n \n")
        with pytest.raises(ValueError, match=r"p\.csv:3: expected 4 fields, got 1"):
            read_predictions(path)


def test_distance_matrix_csv_field_count_names_both(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(",0,1\n0,0\n")
    with pytest.raises(ValueError, match=r"d\.csv:2: expected 3 fields, got 2"):
        read_distance_matrix(path)


class TestIntegersBeyondInt64:
    BIG = 10**23

    @pytest.mark.parametrize("row", ["{0},a,0,0", "1,a,{0},0", "1,a,0,{0}"],
                             ids=["epoch", "true", "pred"])
    def test_prediction_log_names_line(self, tmp_path, row):
        path = tmp_path / "p.csv"
        path.write_text("epoch,example_id,true_label,pred_label\n1,b,0,0\n\n"
                        + row.format(self.BIG) + "\n")
        with pytest.raises(ValueError, match=r"p\.csv:4: integer field does not fit in int64"):
            read_predictions(path)

    def test_features_label_names_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(f"label,f0\n0,1.0\n{self.BIG},2.0\n")
        with pytest.raises(ValueError, match=rf"f\.csv:3: label {self.BIG} does not fit in int64"):
            read_features(path)


class TestZeroCountBinaryHeaders:
    def test_features_with_no_rows_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(FEATURES_MAGIC + np.array([0, 2**62, 1], dtype="<u8").tobytes())
        with pytest.raises(ValueError, match=r"f\.bin: feature file contains no data rows"):
            read_features(path)

    def test_head_with_no_classes_rejected(self, tmp_path):
        path = tmp_path / "h.bin"
        path.write_bytes(HEAD_MAGIC + np.array([0, 2**40], dtype="<u8").tobytes())
        with pytest.raises(ValueError, match=r"h\.bin: head has no classes"):
            read_head(path)

    @pytest.mark.parametrize("name", ["f.bin", "f.csv"])
    def test_writer_refuses_empty_feature_set(self, tmp_path, name):
        f = FeatureSet(np.zeros((0, 3), dtype=np.float32), np.zeros(0, dtype=np.int64), 2)
        with pytest.raises(ValueError, match="no vectors"):
            write_features(f, tmp_path / name)
        assert not (tmp_path / name).exists()

    def test_writer_refuses_head_with_no_classes(self, tmp_path):
        head = ClassifierHead(weights=np.zeros((0, 4)), bias=np.zeros(0))
        with pytest.raises(ValueError, match="no classes"):
            write_head(head, tmp_path / "h.bin")
        assert not (tmp_path / "h.bin").exists()


class TestZeroLabelMatrix:
    EMPTY = DistanceMatrix(labels=[], values=np.zeros((0, 0)))

    @pytest.mark.parametrize("name", ["d.bin", "d.csv"])
    def test_writer_refuses(self, tmp_path, name):
        with pytest.raises(ValueError, match="cannot write a matrix with no labels"):
            write_distance_matrix(self.EMPTY, tmp_path / name)
        assert not (tmp_path / name).exists()

    @pytest.mark.parametrize("content", [DMAT_MAGIC + np.zeros(1, dtype="<u8").tobytes(),
                                         b",\n", b",", b"\n", b"\n\n"],
                             ids=["binary", "csv_comma", "csv_comma_no_newline",
                                  "csv_empty_header", "csv_empty_header_blank_row"])
    def test_reader_rejects(self, tmp_path, content):
        path = tmp_path / "d.csv"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=r"d\.csv: matrix has no labels"):
            read_distance_matrix(path)
