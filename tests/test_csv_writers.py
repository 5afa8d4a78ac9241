"""The columnar CSV writers against the Python formatting they replace.

``write_predictions`` and the confusion branch of ``write_table`` format their
rows with ``io._csv_lines``, a block at a time.  Every file they write must be
the bytes of the f-string reference built here; the columnar log reader must
refuse a file whose line count no line length could explain before it
allocates a column.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings

from hierkit import io
from hierkit.io import read_predictions, write_predictions, write_table
from hierkit.metrics import ConfusionMatrix, PredictionLog
from test_predictions_reader import HEADER, canonical_logs, mutated_logs

SETTINGS = settings(max_examples=100, deadline=None, database=None)
BIG = 2**63 - 1


def _log_reference(log) -> bytes:
    columns = (log.epochs.tolist(), log.example_ids.tolist(), log.true_labels.tolist(),
               log.pred_labels.tolist())
    return HEADER + "".join(f"{e},{x},{t},{p}\n" for e, x, t, p in zip(*columns)).encode()


def _assert_written_as_reference(log, path) -> None:
    write_predictions(log, path)
    assert path.read_bytes() == _log_reference(log)


def _log(ids, true=None, pred=None, epochs=None) -> PredictionLog:
    n = len(ids)
    true = np.arange(n) if true is None else np.asarray(true)
    pred = true[::-1] if pred is None else np.asarray(pred)
    return PredictionLog(epochs=np.ones(n, int) if epochs is None else epochs,
                         example_ids=np.array(ids), true_labels=true, pred_labels=pred,
                         label_count=int(max(true.max(), pred.max())) + 1)


# ------------------------------------------------------------ the log writer

def _read_or_reject(path, data: bytes) -> PredictionLog:
    """The log ``data`` holds; hypothesis rejects the example if the reader refuses it."""
    path.write_bytes(data)
    try:
        return read_predictions(path)
    except ValueError:  # a field beyond int64, or a mutation the reader refuses
        assume(False)


@SETTINGS
@given(data=canonical_logs())
def test_canonical_logs_written_as_reference(tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    _assert_written_as_reference(_read_or_reject(base / "in.csv", data), base / "out.csv")


@SETTINGS
@given(data=mutated_logs())
def test_mutated_logs_written_as_reference(tmp_path_factory, data):
    """Whatever the reader accepts, the non-ASCII ids of the inserts included."""
    base = tmp_path_factory.getbasetemp()
    log = _read_or_reject(base / "in.csv", data)
    if any("\r" in x for x in log.example_ids.tolist()):  # the reader keeps a lone \r
        with pytest.raises(ValueError, match="contains a comma, a line break or a NUL"):
            write_predictions(log, base / "out.csv")
        return
    _assert_written_as_reference(log, base / "out.csv")


@pytest.mark.parametrize("ids", [
    ["é", "日本", "😀"],
    ["", "", ""],
    ["a", "é", ""],                   # ASCII, non-ASCII and empty in one block
    ["😀x", "plain", "日本語のid"],
], ids=["non_ascii", "empty", "mixed", "wide"])
def test_ids_written_as_reference(tmp_path, ids):
    _assert_written_as_reference(_log(ids), tmp_path / "p.csv")


@pytest.mark.parametrize("labels", [
    [10**17, 10**18 - 1, 0],          # 18 digits, and a 1-digit label beside them
    [BIG, 0, 9],
    [BIG, BIG, BIG],
], ids=["eighteen_digits", "int64_max", "all_int64_max"])
def test_wide_labels_written_as_reference(tmp_path, labels):
    log = _log(["a", "b", "c"], true=labels, pred=labels[::-1],
               epochs=np.array([1, 10**17, BIG]))
    _assert_written_as_reference(log, tmp_path / "p.csv")


def test_one_row_log_written_as_reference(tmp_path):
    _assert_written_as_reference(_log(["only"]), tmp_path / "p.csv")


def test_empty_log_is_its_header(tmp_path):
    log = PredictionLog(np.zeros(0, int), np.array([], dtype=str), np.zeros(0, int),
                        np.zeros(0, int), label_count=1)
    _assert_written_as_reference(log, tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes() == HEADER


@pytest.mark.parametrize("rows", [3, 4, 5])
def test_rows_around_the_block_size(tmp_path, monkeypatch, rows):
    """Blocks of 4 rows; the last row's id is non-ASCII, so a block of its own
    takes the UTF-8 path while the others take the code points."""
    monkeypatch.setattr(io, "_LOG_BLOCK_ROWS", 4)
    ids = [f"id{i}" for i in range(rows - 1)] + ["é"]
    log = _log(ids, true=np.arange(rows) * 997, epochs=np.arange(1, rows + 1))
    _assert_written_as_reference(log, tmp_path / "p.csv")


def test_non_string_ids_written_as_their_str(tmp_path):
    _assert_written_as_reference(_log([7, 10**12, 0]), tmp_path / "p.csv")


# --------------------------------------------------------- confusion tables

def _table_reference(counts) -> bytes:
    c = len(counts)
    lines = ["," + ",".join(str(j) for j in range(c))]
    lines += [f"{i}," + ",".join(str(v) for v in row) for i, row in enumerate(counts.tolist())]
    return "".join(line + "\n" for line in lines).encode()


@pytest.mark.parametrize("counts", [
    [[5]],
    [[0]],
    np.zeros((4, 4), int),
    [[BIG, 0], [1, 10**18]],
], ids=["one_by_one", "one_zero", "all_zero", "int64_max"])
def test_confusion_written_as_reference(tmp_path, counts):
    m = ConfusionMatrix(counts)
    write_table(m, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() == _table_reference(m.counts)


@pytest.mark.parametrize("c", [1, 2, 3, 7, 8])
def test_confusion_blocks_of_rows(tmp_path, monkeypatch, c):
    """Blocks of 20 // c rows: 3 and 7 are not multiples of theirs (6 and 2)."""
    monkeypatch.setattr(io, "_LOG_BLOCK_ROWS", 20)
    m = ConfusionMatrix(np.random.default_rng(c).integers(0, 10**c, (c, c)))
    write_table(m, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() == _table_reference(m.counts)


def test_empty_confusion_is_its_header(tmp_path):
    write_table(ConfusionMatrix(np.zeros((0, 0), int)), tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() == b",\n"


def _traced_peak(fn):
    """``fn()`` and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_confusion_write_in_bounded_memory(tmp_path):
    """A 1000 x 1000 table is formatted a block of rows at a time: an
    unblocked formatter holds several times the counts."""
    m = ConfusionMatrix(np.random.default_rng(0).integers(0, 10**5, (1000, 1000)))
    path = tmp_path / "c.csv"
    _, peak = _traced_peak(lambda: write_table(m, path))
    assert peak < m.counts.nbytes
    assert path.read_bytes() == _table_reference(m.counts)


# ------------------------------------------------ the reader's line count

def test_line_ends_beyond_any_line_length_allocate_nothing(tmp_path):
    """Bare line ends: n lines in n bytes, fewer than the 7 of the shortest
    canonical line, so the row loop gets the file before any column exists."""
    n = 1 << 20
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + b"\n" * n)
    columns, peak = _traced_peak(lambda: io._columnar_predictions(path))
    assert columns is None
    assert peak < 8 * n  # below one int64 column


@pytest.mark.parametrize("body, canonical", [
    (b"1,,0,0\n2,,0,0\n3,,0,0\n", True),          # 7 bytes a line: the shortest
    (b"1,,0,0\n2,,0,0\n3,,0,0\n\n", False),  # one line end more than that allows
])
def test_shortest_lines_pass_the_line_count(tmp_path, body, canonical):
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + body)
    assert (io._columnar_predictions(path) is not None) == canonical
