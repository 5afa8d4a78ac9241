"""Readers and writers for all on-disk artifacts.

Binary formats are little-endian with an 8-byte magic: `HBFEAT01` (features),
`HBDMAT01` (square f64 matrix), `HBHEAD01` (classifier head).  Bulk payloads
are 32-bit floats; distance matrices are 64-bit since correlation analysis
is sensitive to rounding.  A path ending in `.csv` picks CSV, any other path
binary.  Every CSV file is one dialect, written through one opener,
`_write_blocks`, and read by `_csv_rows`: UTF-8, `\\n` line ends, a header row,
then rows with as many fields as the header; empty lines are skipped but keep
their line numbers.  Numbers are formatted locale-independently, so identical
inputs give byte-identical files on any machine.  Readers validate strictly:
wrong magic, truncated or trailing payload, invalid UTF-8, non-finite values
and out-of-range labels are all errors, named by path and, in CSV, by line.

Prediction logs and confusion tables are written by one formatter,
`_csv_lines`, which puts a block of rows' digits, commas and id bytes into one
uint8 matrix: the log in blocks of 65,536 rows, the table in blocks of as many
rows as hold about as many cells.  Prediction logs have two readers.  A log in
the canonical subset of the dialect -- the exact header, printable-ASCII lines
each ended by `\\n` with three commas, epoch and labels of 1-18 ASCII digits,
epochs >= 1, no duplicate (epoch, example_id) -- is parsed column-wise in
numpy: a first pass counts its lines, then line-aligned chunks of about 1 MiB
are parsed straight into the final columns.  For the duplicate check each
(epoch, example_id) is hashed into one uint64 key and the keys are sorted
once; a repeated key, a duplicate or a hash collision, sends the file to the
row loop.  Any other file is read again from the start by the row loop, which
alone reports errors and keeps `int()`'s leniency (`+5`, ` 5`, `1_0`,
non-ASCII digits, `\\r\\n`, blank lines, no final newline).  Neither the
writers nor the columnar reader hold the whole file, or a Python object per
record of the whole log, at once.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from typing import Optional

import numpy as np

from .collapse import ClassifierHead, NCReport
from .hierarchy import DistanceMatrix, _built_from, open_text
from .manifold import _NON_FINITE, FeatureSet, SimilarityMatrix
from .metrics import ConfusionMatrix, MetricSeries, PredictionLog

__all__ = [
    "read_distance_matrix",
    "read_features",
    "read_head",
    "read_predictions",
    "write_csv",
    "write_distance_matrix",
    "write_features",
    "write_head",
    "write_json",
    "write_predictions",
    "write_table",
]

FEATURES_MAGIC = b"HBFEAT01"
DMAT_MAGIC = b"HBDMAT01"
HEAD_MAGIC = b"HBHEAD01"
_KNOWN = {FEATURES_MAGIC: "feature", DMAT_MAGIC: "distance-matrix", HEAD_MAGIC: "head"}
_INT64 = range(-2**63, 2**63)


def _fmt9(v: float) -> str:
    """9 significant digits: enough to round-trip any 32-bit float exactly."""
    return format(float(v), ".9g")


# ------------------------------------------------------------ binary layout

def _write_binary(path, magic: bytes, header, *arrays: np.ndarray) -> None:
    """The magic, the header as u64 fields, then each array's raw bytes."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(np.array(header, dtype="<u8").tobytes())
        for a in arrays:
            fh.write(a.tobytes())


def _float32(a: np.ndarray, what: str) -> np.ndarray:
    """``a`` as little-endian float32, refusing a value that would become inf."""
    with np.errstate(over="ignore"):
        out = a.astype("<f4")
    if not np.isfinite(out).all():
        raise ValueError(f"{what} {float(a[~np.isfinite(out)][0])} does not fit in float32")
    return out


def _read_array(fh, shape: tuple[int, ...], dtype: str, what: str, path) -> np.ndarray:
    """The next ``shape`` array of ``dtype`` in ``fh``, read into a new writable array."""
    count = math.prod(shape) * np.dtype(dtype).itemsize
    # a header may claim more than memory holds: allocate only what the file has
    left = max(os.fstat(fh.fileno()).st_size - fh.tell(), 0)
    fits = count <= left
    out = np.empty(shape if fits else 0, dtype)
    got = fh.readinto(out) if fits else left
    if got != count:
        raise ValueError(f"{path}: truncated payload reading {what}: "
                         f"expected {count} bytes, got {got}")
    return out


def _no_trailing(fh, path) -> None:
    extra = fh.read(1)
    if extra:
        raise ValueError(f"{path}: trailing data after payload")


def _check_magic(got: bytes, expected: bytes, path) -> None:
    if got == expected:
        return
    if got in _KNOWN:
        raise ValueError(f"{path}: this is a {_KNOWN[got]} file (magic {got!r}), "
                         f"expected magic {expected!r}")
    raise ValueError(f"{path}: unknown format (magic {got!r}, expected {expected!r})")


def _read_u64(fh, n: int, what: str, path) -> tuple[int, ...]:
    return tuple(int(x) for x in _read_array(fh, (n,), "<u8", what, path))


# --------------------------------------------------------------- CSV dialect

def write_csv(path, header, lines) -> None:
    """Write ``header``, then each of ``lines``: comma-joined fields, no line end."""
    _write_blocks(path, header, ((line + "\n").encode() for line in lines))


def _write_blocks(path, header: str, blocks) -> None:
    """Write ``header`` and a line end, then each of the byte strings ``blocks``."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.writelines(blocks)


def _csv_lines(*fields: np.ndarray) -> bytes:
    """The CSV lines of a block of n rows as bytes: per row its entry of each
    of ``fields``, comma-joined, then ``\\n``.

    A field is an int64 column of values >= 0, an (n, k) int64 grid of k such
    columns, or (n, w) uint8 bytes padded with NULs.  Every column gets a fixed
    slot of one (n, W) uint8 matrix; a number's digits are placed right-aligned
    by digit arithmetic and the places before its first digit stay 0.  No
    digit, comma, line end or id byte is 0, so one compress drops the padding.
    """
    n = len(fields[0])
    slots = [(f[:, None, :], f.shape[1]) if f.dtype == np.uint8 else
             (f.reshape(n, -1), len(str(int(f.max())))) for f in fields]
    m = np.zeros((n, sum(f.shape[1] * (w + 1) for f, w in slots)), dtype=np.uint8)
    at = 0
    for f, w in slots:
        k = f.shape[1]
        cell = m[:, at:at + k * (w + 1)].reshape(n, k, w + 1)  # a view: one slot per column
        at += k * (w + 1)
        cell[:, :, w] = ord(",")
        if f.dtype == np.uint8:
            cell[:, :, :w] = f
            continue
        digits = cell[:, :, w - 1::-1]  # the j-th digit from the right goes to digits[..., j]
        q, d = np.divmod(f, 10)
        digits[:, :, 0] = d + ord("0")
        for j in range(1, w):
            shown = q > 0  # the number has a j-th digit
            q, d = np.divmod(q, 10)
            d += ord("0")
            d *= shown
            digits[:, :, j] = d
    m[:, -1] = ord("\n")
    return m[m != 0].tobytes()


def _csv_header(fh) -> list[str]:
    return fh.readline().rstrip("\n").split(",")


def _csv_rows(fh, path, width: int):
    """Yield (line number, fields) per data row: empty lines skipped, others ``width`` wide."""
    for lineno, line in enumerate(fh, start=2):
        fields = line.rstrip("\n").split(",")
        if len(fields) != width:
            if fields == [""]:
                continue
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
        yield lineno, fields


def _write_labelled_rows(path, header, labels, rows, cell) -> None:
    """One `label,cell,…` line per row; a grid's header is its column labels."""
    write_csv(path, header, (f"{lbl}," + ",".join(map(cell, row))
                             for lbl, row in zip(labels, rows)))


def _labelled_cells(fields: list[str], path, lineno: int) -> tuple[int, np.ndarray]:
    """An integer label and float64 cells from a `label,cell,…` row."""
    try:
        return int(fields[0]), np.array(fields[1:], dtype=np.float64)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed numeric field") from None


# ---------------------------------------------------------------- features

def write_features(f: FeatureSet, path) -> None:
    """Write a FeatureSet as CSV (`label,f0,...`) or binary (HBFEAT01), or refuse it
    before the file is opened if :func:`read_features` would not read it back."""
    if len(f) == 0:
        raise ValueError("cannot write a feature set with no vectors")
    vectors = _float32(f.vectors, "feature value")
    if str(path).endswith(".csv"):
        header = "label," + ",".join(f"f{i}" for i in range(f.dimension))
        _write_labelled_rows(path, header, f.labels, vectors, _fmt9)
        return
    if f.labels.max() >= 2**32:
        raise ValueError(f"label {f.labels.max()} does not fit in uint32")
    if f.class_count >= 2**64:
        raise ValueError(f"class count {f.class_count} does not fit in uint64")
    _write_binary(path, FEATURES_MAGIC, [*f.vectors.shape, f.class_count],
                  f.labels.astype("<u4"), vectors)


def read_features(path) -> FeatureSet:
    """Read a FeatureSet from binary (HBFEAT01) or CSV (`label,f0,...`)."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head == FEATURES_MAGIC:
            n, p, c = _read_u64(fh, 3, "header", path)
            if n == 0:
                raise ValueError(f"{path}: feature file contains no data rows")
            labels = _read_array(fh, (n,), "<u4", "labels", path)
            vectors = _read_array(fh, (n, p), "<f4", "vectors", path)
            _no_trailing(fh, path)
            return _feature_set(path, vectors, labels.astype(np.int64), c,
                                f"label {int(labels.max())} >= class count {c}")
        if head in _KNOWN:
            _check_magic(head, FEATURES_MAGIC, path)
    return _read_features_csv(path, head)


def _read_features_csv(path, head: bytes) -> FeatureSet:
    with open_text(path) as fh:
        cols = _csv_header(fh)
        if cols[0] != "label" or len(cols) < 2 or \
                any(c != f"f{i}" for i, c in enumerate(cols[1:])):
            raise ValueError(f"{path}: unknown format (magic {head!r}, expected "
                             f"{FEATURES_MAGIC!r} or CSV header 'label,f0,...')")
        labels, rows = [], []
        for lineno, fields in _csv_rows(fh, path, len(cols)):
            label, cells = _labelled_cells(fields, path, lineno)
            if label not in _INT64:
                raise ValueError(f"{path}:{lineno}: label {label} does not fit in int64")
            labels.append(label)
            rows.append(cells)
    if not rows:
        raise ValueError(f"{path}: CSV contains no data rows")
    with np.errstate(over="ignore"):  # beyond float32 is inf, refused next
        vectors = np.vstack(rows).astype(np.float32)
    lab = np.array(labels, dtype=np.int64)
    return _feature_set(path, vectors, lab, int(lab.max()) + 1, "negative class label")


def _feature_set(path, vectors, labels, class_count: int, label_error: str) -> FeatureSet:
    """The FeatureSet, its refusal named by ``path``.  FeatureSet checks the
    vectors' finiteness, the one pass over them, before the labels; any other
    refusal is of labels outside [0, class_count), reported as ``label_error``."""
    try:
        return FeatureSet(vectors=vectors, labels=labels, class_count=class_count)
    except ValueError as e:
        raise ValueError(f"{path}: {e if str(e) == _NON_FINITE else label_error}") from None


# ---------------------------------------------------- square f64 matrices

def write_distance_matrix(d, path) -> None:
    """Write a DistanceMatrix (or SimilarityMatrix) as CSV or HBDMAT01.

    The binary layout stores only the size and the row-major f64 grid, so
    labels must be 0..n-1; the CSV form keeps explicit labels in the first
    row and column.
    """
    if not d.labels:
        raise ValueError("cannot write a matrix with no labels")
    if str(path).endswith(".csv"):
        _write_labelled_rows(path, "," + ",".join(map(str, d.labels)), d.labels, d.values,
                             _fmt9)
    elif d.labels != list(range(len(d.labels))):
        raise ValueError("binary matrix format requires labels 0..n-1")
    else:
        _write_binary(path, DMAT_MAGIC, [len(d.labels)], d.values.astype("<f8"))


def read_distance_matrix(path) -> DistanceMatrix:
    """Read a DistanceMatrix written by :func:`write_distance_matrix`."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head == DMAT_MAGIC:
            (n,) = _read_u64(fh, 1, "header", path)
            if n == 0:
                raise ValueError(f"{path}: matrix has no labels")
            values = _read_array(fh, (n, n), "<f8", "matrix", path)
            _no_trailing(fh, path)
            return _built_from(path, DistanceMatrix, labels=list(range(n)), values=values)
        if head in _KNOWN:
            _check_magic(head, DMAT_MAGIC, path)
    with open_text(path) as fh:
        header = _csv_header(fh)
        if header[0] != "":
            raise ValueError(f"{path}: unknown format (magic {head!r}, expected "
                             f"{DMAT_MAGIC!r} or CSV with an empty first header cell)")
        if header[1:] in ([], [""]):
            raise ValueError(f"{path}: matrix has no labels")
        try:
            labels = [int(x) for x in header[1:]]
        except ValueError:
            raise ValueError(f"{path}: non-integer label in CSV header") from None
        rows: list[np.ndarray] = []
        for lineno, fields in _csv_rows(fh, path, len(labels) + 1):
            if len(rows) == len(labels):
                raise ValueError(f"{path}:{lineno}: extra row, the header has "
                                 f"{len(labels)} labels")
            row_label, cells = _labelled_cells(fields, path, lineno)
            if row_label != labels[len(rows)]:
                raise ValueError(f"{path}:{lineno}: row label {fields[0]} does not match "
                                 f"header label {labels[len(rows)]}")
            rows.append(cells)
    if len(rows) != len(labels):
        raise ValueError(f"{path}: expected {len(labels)} rows, got {len(rows)}")
    return _built_from(path, DistanceMatrix, labels=labels, values=np.vstack(rows))


# ------------------------------------------------------------------- head

def write_head(head: ClassifierHead, path) -> None:
    if head.class_count == 0:
        raise ValueError("cannot write a head with no classes")
    _write_binary(path, HEAD_MAGIC, head.weights.shape, _float32(head.weights, "head value"),
                  _float32(head.bias, "head value"))


def read_head(path) -> ClassifierHead:
    with open(path, "rb") as fh:
        _check_magic(fh.read(8), HEAD_MAGIC, path)
        c, p = _read_u64(fh, 2, "header", path)
        if c == 0:
            raise ValueError(f"{path}: head has no classes")
        weights = _read_array(fh, (c, p), "<f4", "weights", path)
        bias = _read_array(fh, (c,), "<f4", "bias", path)
        _no_trailing(fh, path)
    return _built_from(path, ClassifierHead, weights=weights, bias=bias)


# ------------------------------------------------------------- predictions

_PRED_HEADER = ["epoch", "example_id", "true_label", "pred_label"]
_PRED_HEADER_LINE = (",".join(_PRED_HEADER) + "\n").encode()
_LOG_BLOCK_ROWS = 65_536  # rows per formatted block of a log; cells of a confusion table
_LOG_CHUNK_BYTES = 1 << 20  # bytes per read of the columnar log reader


def write_predictions(log: PredictionLog, path) -> None:
    """Write a prediction log CSV; refuses ids that read_predictions would reject.

    The ids are checked before the file is opened.  The rows are then
    formatted by :func:`_csv_lines` in blocks of ``_LOG_BLOCK_ROWS``, so the
    writer holds one block's bytes at a time.  A block of ASCII ids reaches
    it as its code points cast to bytes, any other block as its UTF-8 bytes.
    """
    ids = np.ascontiguousarray(log.example_ids.astype(str, copy=False))
    units = ids.view(np.uint32).reshape(len(ids), ids.itemsize // 4)
    for lo in range(0, len(ids), _LOG_BLOCK_ROWS):
        u = units[lo:lo + _LOG_BLOCK_ROWS]
        bad = (u == ord(",")) | (u == ord("\n")) | (u == ord("\r"))
        # a zero code point before a non-zero one is a NUL in the id; trailing
        # zeros are the dtype's padding
        bad[:, :-1] |= (u[:, :-1] == 0) & (u[:, 1:] != 0)
        rows = np.flatnonzero(bad.any(axis=1))
        if rows.size:
            raise ValueError(f"example_id {str(ids[lo + rows[0]])!r} contains a comma, "
                             f"a line break or a NUL")

    def blocks():
        for lo in range(0, len(log), _LOG_BLOCK_ROWS):
            rows = slice(lo, lo + _LOG_BLOCK_ROWS)
            if units[rows].max(initial=0) < 128:
                text = units[rows].astype(np.uint8)  # ASCII code points are their bytes
            else:
                code = np.strings.encode(ids[rows], "utf-8")
                text = code.view(np.uint8).reshape(len(code), code.itemsize)
            yield _csv_lines(log.epochs[rows], text, log.true_labels[rows],
                             log.pred_labels[rows])

    _write_blocks(path, ",".join(_PRED_HEADER), blocks())


def read_predictions(path) -> PredictionLog:
    """Read a prediction log CSV; its label count is one more than its largest label.

    Rejects a missing/renamed header column, non-integer epochs, negative
    labels, ids containing a NUL, and duplicate (epoch, example_id) pairs,
    reporting row numbers.

    A log in the canonical subset named in the module docstring, which is
    what :func:`write_predictions` gives for ASCII ids, is parsed column-wise
    in numpy, one line-aligned chunk of about ``_LOG_CHUNK_BYTES`` (1 MiB) at
    a time, after a first pass has counted its lines: the read holds the
    arrays it returns, one chunk of the file, and the id bytes parsed from the
    chunks so far.  Its duplicate check hashes each (epoch, example_id) into
    one key and sorts the keys once; a repeated key goes to the row loop.  Any
    other file, every malformed one included, is read again from the start by
    the row loop, the only code that reports errors; the two give identical
    arrays wherever both accept a file.
    """
    columns = _columnar_predictions(path)
    if columns is None:
        columns = _looped_predictions(path)
    epochs, ids, true, pred = columns
    return PredictionLog(epochs=epochs, example_ids=ids, true_labels=true, pred_labels=pred,
                         label_count=int(max(true.max(), pred.max())) + 1)


def _columnar_predictions(path):
    """(epochs, ids, true, pred) of a log in the canonical subset, else None.

    The subset is the one the module docstring names; 18 digits cannot
    overflow int64.  The ids get the dtype ``np.array`` gives the same strings.
    A first pass counts the file's line ends; only if each line can hold the
    7 bytes of the shortest canonical one, `1,,0,0` and its end, are the three
    int64 columns allocated, once.  The second pass reads line-aligned chunks
    of about ``_LOG_CHUNK_BYTES``, checks each alone and parses its numbers
    straight into the columns, so no per-chunk column is freed on the way.
    Only the (epoch, example_id) duplicate check runs over the whole log, once
    every chunk is in: each pair is hashed into one uint64 key by :func:`_mix`,
    and the keys are sorted once.  Equal pairs get equal keys, so a repeated
    key sends the file to the row loop, which refuses a duplicate and reads a
    log whose distinct pairs only collided.
    """
    chunks = deque()  # the NUL-padded id bytes of each chunk
    with open(path, "rb") as fh:
        if fh.read(len(_PRED_HEADER_LINE)) != _PRED_HEADER_LINE:
            return None
        n = 0
        while data := fh.read(_LOG_CHUNK_BYTES):
            n += data.count(b"\n")
        if not 0 < 7 * n <= fh.tell() - len(_PRED_HEADER_LINE):
            return None
        fh.seek(len(_PRED_HEADER_LINE))
        epochs, true, pred = (np.empty(n, dtype=np.int64) for _ in range(3))
        lo = 0
        tail = b""  # the partial last line of the previous read
        while data := fh.read(_LOG_CHUNK_BYTES):
            data = tail + data
            cut = data.rfind(b"\n") + 1
            tail = data[cut:]
            if cut:
                ids = _canonical_lines(np.frombuffer(data, dtype=np.uint8, count=cut),
                                       lo, epochs, true, pred)
                if ids is None:
                    return None
                chunks.append(ids)
                lo += len(ids)
    if tail or lo != n:  # no final newline, or the file changed between the passes
        return None
    w = max(1, max(ids.shape[1] for ids in chunks))
    padded = np.zeros((n, -(-w // 8) * 8), dtype=np.uint8)
    lo = 0
    while chunks:
        ids = chunks.popleft()
        padded[lo:lo + len(ids), :ids.shape[1]] = ids
        lo += len(ids)
    # NUL-padded id bytes in 8-byte words: no id holds a NUL, so equal words
    # are equal ids
    key = epochs.astype(np.uint64)
    _mix(key)
    for word in padded.view(np.uint64).T:
        key ^= word
        _mix(key)
    key.sort()
    if (key[1:] == key[:-1]).any():  # a repeat, or a collision: the row loop decides
        return None
    ids = np.empty(n, dtype=f"U{w}")
    # ASCII bytes are their own code points
    ids.view(np.uint32).reshape(n, w)[:] = padded[:, :w]
    return epochs, ids, true, pred


def _canonical_lines(b: np.ndarray, at: int, epochs, true, pred) -> Optional[np.ndarray]:
    """The ids of the whole lines ``b`` as NUL-padded bytes, one row per line and
    as wide as the longest id, with their numbers parsed into rows ``at``
    onward of the columns ``epochs``, ``true`` and ``pred``; else None."""
    ends = np.flatnonzero(b == ord("\n"))
    # bytes outside 0x20-0x7E wrap past 0x5E; the line ends must be the only ones
    if np.count_nonzero(b - np.uint8(0x20) > 0x5E) != ends.size:
        return None
    n = ends.size
    commas = np.flatnonzero(b == ord(","))
    if commas.size != 3 * n or at + n > len(epochs):
        return None
    commas = commas.reshape(n, 3)
    starts = np.concatenate(([0], ends[:-1] + 1))
    rows = slice(at, at + n)
    # 3n commas in all: epoch and pred fields at least 1 wide put the i-th
    # three inside line i, so every line has exactly 3
    if not (_digit_field(b, starts, commas[:, 0], epochs[rows])
            and _digit_field(b, commas[:, 1] + 1, commas[:, 2], true[rows])
            and _digit_field(b, commas[:, 2] + 1, ends, pred[rows])) \
            or epochs[rows].min() < 1:
        return None
    lo, width = commas[:, 0] + 1, commas[:, 1] - commas[:, 0] - 1
    padded = np.empty((n, int(width.max())), dtype=np.uint8)
    for j in range(padded.shape[1]):  # the j-th byte of each id, 0 past its end
        padded[:, j] = b[np.minimum(lo + j, b.size - 1)] * (width > j)
    return padded


def _mix(key: np.ndarray) -> None:
    """Scramble the uint64 ``key`` in place with the splitmix64 finaliser."""
    key ^= key >> 30
    key *= np.uint64(0xBF58476D1CE4E5B9)
    key ^= key >> 27
    key *= np.uint64(0x94D049BB133111EB)
    key ^= key >> 31


def _digit_field(b: np.ndarray, lo: np.ndarray, hi: np.ndarray, out: np.ndarray) -> bool:
    """Whether each field ``b[lo:hi]`` is 1-18 ASCII digits; if so their values
    are in ``out``."""
    width = hi - lo
    if width.min() < 1 or width.max() > 18:
        return False
    zero = np.uint8(ord("0"))  # a byte below "0" wraps past 9
    digit = b[hi - 1] - zero
    if (digit > 9).any():
        return False
    out[:] = digit
    for k in range(1, int(width.max())):  # the k-th digit from the right
        digit = np.where(width > k, b[np.maximum(hi - 1 - k, 0)] - zero, 0)
        if (digit > 9).any():
            return False
        out += digit * np.int64(10**k)
    return True


def _looped_predictions(path):
    """(epochs, ids, true, pred) read row by row; raises on any malformed input."""
    with open_text(path) as fh:
        header = _csv_header(fh)
        for col in _PRED_HEADER:
            if col not in header:
                raise ValueError(f"{path}: header is missing column {col!r}")
        if header != _PRED_HEADER:
            raise ValueError(f"{path}: header must be exactly {','.join(_PRED_HEADER)!r}")
        epochs, ids, true, pred = [], [], [], []
        seen: dict[tuple[int, str], int] = {}
        for lineno, parts in _csv_rows(fh, path, 4):
            try:
                e = int(parts[0])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer epoch {parts[0]!r}") from None
            if e < 1:
                raise ValueError(f"{path}:{lineno}: epoch must be >= 1, got {e}")
            try:
                t, pr = int(parts[2]), int(parts[3])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer label") from None
            if t < 0 or pr < 0:
                raise ValueError(f"{path}:{lineno}: negative label")
            if "\x00" in parts[1]:
                raise ValueError(f"{path}:{lineno}: example_id contains a NUL")
            key = (e, parts[1])
            if key in seen:
                raise ValueError(f"{path}:{lineno}: duplicate (epoch, example_id) "
                                 f"{key!r}, first seen at row {seen[key]}")
            seen[key] = lineno
            epochs.append(e)
            ids.append(parts[1])
            true.append(t)
            pred.append(pr)
    if not epochs:
        raise ValueError(f"{path}: prediction log contains no records")
    try:
        columns = [np.array(col, dtype=np.int64) for col in (epochs, true, pred)]
    except OverflowError:  # a field beyond int64: name its line, found through `seen`
        i = next(i for i, row in enumerate(zip(epochs, true, pred)) if max(row) not in _INT64)
        raise ValueError(f"{path}:{seen[epochs[i], ids[i]]}: integer field does not fit "
                         f"in int64") from None
    return columns[0], np.array(ids), columns[1], columns[2]


# ----------------------------------------------------------------- tables

def write_table(obj, path) -> None:
    """Write a MetricSeries, matrix, ConfusionMatrix or NCReport table.

    Each table type has one encoding: metric series (6 decimals) and
    confusion matrices are CSV, NC reports are JSON with a fixed key order,
    and matrices go through :func:`write_distance_matrix`.
    """
    if isinstance(obj, MetricSeries):
        write_csv(path, "epoch,value",
                  (f"{int(e)},{v:.6f}" for e, v in zip(obj.epochs, obj.values)))
    elif isinstance(obj, (DistanceMatrix, SimilarityMatrix)):
        write_distance_matrix(obj, path)
    elif isinstance(obj, ConfusionMatrix):
        c = len(obj.counts)
        step = max(1, _LOG_BLOCK_ROWS // max(c, 1))
        _write_blocks(path, "," + ",".join(map(str, range(c))),
                      (_csv_lines(np.arange(lo, min(lo + step, c)), obj.counts[lo:lo + step])
                       for lo in range(0, c, step)))
    elif isinstance(obj, NCReport):
        payload = {"nc1": obj.nc1, "beta_mu": obj.beta_mu, "beta_w": obj.beta_w,
                   "alpha_mu": obj.alpha_mu, "alpha_w": obj.alpha_w, "nc3": obj.nc3,
                   "nc4": obj.nc4_mismatch, "label_space": obj.label_space_name,
                   "degenerate_flags": list(obj.degenerate_flags)}
        write_json(payload, path)
    else:
        raise ValueError(f"cannot write object of type {type(obj).__name__}")


def write_json(payload, path) -> None:
    """Write ``payload`` as 2-space-indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, indent=2))
        fh.write("\n")
