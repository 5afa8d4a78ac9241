"""Readers and writers for all on-disk artifacts.

Binary formats are little-endian with an 8-byte magic: `HBFEAT01` (features),
`HBDMAT01` (square f64 matrix), `HBHEAD01` (classifier head).  Bulk payloads
are 32-bit floats; distance matrices are 64-bit since correlation analysis
is sensitive to rounding.  Text output is UTF-8 with `\\n` endings and
locale-independent number formatting, so identical inputs give byte-identical
files on any machine.  Readers validate strictly: wrong magic, truncated or
trailing payload, non-finite values and out-of-range labels are all errors.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from .collapse import ClassifierHead, NCReport
from .hierarchy import DistanceMatrix
from .manifold import FeatureSet, SimilarityMatrix
from .metrics import ConfusionMatrix, MetricSeries, PredictionLog

__all__ = [
    "read_distance_matrix",
    "read_features",
    "read_head",
    "read_predictions",
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


def _fmt9(v: float) -> str:
    """9 significant digits: enough to round-trip any 32-bit float exactly."""
    return format(float(v), ".9g")


def _read_exact(fh, count: int, what: str, path) -> bytes:
    # a header may claim more than memory holds: ask only for what the file has
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    buf = fh.read(min(count, max(left, 0)))
    if len(buf) != count:
        raise ValueError(f"{path}: truncated payload reading {what}: "
                         f"expected {count} bytes, got {len(buf)}")
    return buf


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
    buf = _read_exact(fh, 8 * n, what, path)
    return tuple(int(x) for x in np.frombuffer(buf, dtype="<u8"))


# ---------------------------------------------------------------- features

def write_features(f: FeatureSet, path, fmt: Optional[str] = None) -> None:
    """Write a FeatureSet; fmt is 'binary' (default) or 'csv' (by extension)."""
    if fmt is None:
        fmt = "csv" if str(path).endswith(".csv") else "binary"
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(FEATURES_MAGIC)
            n, p = f.vectors.shape
            fh.write(np.array([n, p, f.class_count], dtype="<u8").tobytes())
            fh.write(f.labels.astype("<u4").tobytes())
            fh.write(f.vectors.astype("<f4").tobytes())
    elif fmt == "csv":
        p = f.vectors.shape[1]
        header = "label," + ",".join(f"f{i}" for i in range(p))
        vec32 = f.vectors.astype(np.float32)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            for lbl, row in zip(f.labels, vec32):
                fh.write(f"{int(lbl)}," + ",".join(_fmt9(v) for v in row) + "\n")
    else:
        raise ValueError(f"unknown features format {fmt!r}")


def read_features(path) -> FeatureSet:
    """Read a FeatureSet from binary (HBFEAT01) or CSV (`label,f0,...`)."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head == FEATURES_MAGIC:
            n, p, c = _read_u64(fh, 3, "header", path)
            labels = np.frombuffer(_read_exact(fh, 4 * n, "labels", path), dtype="<u4")
            data = np.frombuffer(_read_exact(fh, 4 * n * p, "vectors", path), dtype="<f4")
            _no_trailing(fh, path)
            vectors = data.reshape(n, p).astype(np.float32)
            if not np.isfinite(vectors).all():
                raise ValueError(f"{path}: feature vectors contain non-finite values")
            if labels.size and int(labels.max()) >= c:
                raise ValueError(f"{path}: label {int(labels.max())} >= class count {c}")
            return FeatureSet(vectors=vectors, labels=labels.astype(np.int64), class_count=c)
        if head in _KNOWN:
            _check_magic(head, FEATURES_MAGIC, path)
    return _read_features_csv(path, head)


def _read_features_csv(path, head: bytes) -> FeatureSet:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if not cols or cols[0] != "label" or len(cols) < 2 or \
                any(c != f"f{i}" for i, c in enumerate(cols[1:])):
            raise ValueError(f"{path}: unknown format (magic {head!r}, expected "
                             f"{FEATURES_MAGIC!r} or CSV header 'label,f0,...')")
        p = len(cols) - 1
        labels: list[int] = []
        rows: list[np.ndarray] = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != p + 1:
                raise ValueError(f"{path}:{lineno}: expected {p + 1} fields, got {len(parts)}")
            try:
                labels.append(int(parts[0]))
                rows.append(np.array(parts[1:], dtype=np.float64))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed numeric field") from None
        if not rows:
            raise ValueError(f"{path}: CSV contains no data rows")
        vectors = np.vstack(rows).astype(np.float32)
        if not np.isfinite(vectors).all():
            raise ValueError(f"{path}: feature vectors contain non-finite values")
        lab = np.array(labels, dtype=np.int64)
        if lab.min() < 0:
            raise ValueError(f"{path}: negative class label")
        return FeatureSet(vectors=vectors, labels=lab, class_count=int(lab.max()) + 1)


# ---------------------------------------------------- square f64 matrices

def write_distance_matrix(d, path, fmt: Optional[str] = None) -> None:
    """Write a DistanceMatrix (or SimilarityMatrix) as HBDMAT01 or CSV.

    The binary layout stores only the size and the row-major f64 grid, so
    labels must be 0..n-1; the CSV form keeps explicit labels in the first
    row and column.
    """
    if fmt is None:
        fmt = "csv" if str(path).endswith(".csv") else "binary"
    values = d.values
    labels = d.labels
    if fmt == "binary":
        if labels != list(range(len(labels))):
            raise ValueError("binary matrix format requires labels 0..n-1")
        with open(path, "wb") as fh:
            fh.write(DMAT_MAGIC)
            fh.write(np.array([len(labels)], dtype="<u8").tobytes())
            fh.write(values.astype("<f8").tobytes())
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("," + ",".join(str(x) for x in labels) + "\n")
            for lbl, row in zip(labels, values):
                fh.write(f"{lbl}," + ",".join(_fmt9(v) for v in row) + "\n")
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def read_distance_matrix(path) -> DistanceMatrix:
    """Read a DistanceMatrix written by :func:`write_distance_matrix`."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head == DMAT_MAGIC:
            (n,) = _read_u64(fh, 1, "header", path)
            data = np.frombuffer(_read_exact(fh, 8 * n * n, "matrix", path), dtype="<f8")
            _no_trailing(fh, path)
            return DistanceMatrix(labels=list(range(n)), values=data.reshape(n, n).copy())
        if head in _KNOWN:
            _check_magic(head, DMAT_MAGIC, path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[0] != "":
            raise ValueError(f"{path}: unknown format (magic {head!r}, expected "
                             f"{DMAT_MAGIC!r} or CSV with an empty first header cell)")
        try:
            labels = [int(x) for x in header[1:]]
        except ValueError:
            raise ValueError(f"{path}: non-integer label in CSV header") from None
        rows = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(labels) + 1:
                raise ValueError(f"{path}:{lineno}: expected {len(labels) + 1} fields")
            if lineno - 2 >= len(labels):
                raise ValueError(f"{path}:{lineno}: extra row, the header has "
                                 f"{len(labels)} labels")
            try:
                row_label = int(parts[0])
                rows.append(np.array(parts[1:], dtype=np.float64))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed numeric field") from None
            if row_label != labels[lineno - 2]:
                raise ValueError(f"{path}:{lineno}: row label {parts[0]} does not match "
                                 f"header label {labels[lineno - 2]}")
        if len(rows) != len(labels):
            raise ValueError(f"{path}: expected {len(labels)} rows, got {len(rows)}")
        return DistanceMatrix(labels=labels, values=np.vstack(rows))


# ------------------------------------------------------------------- head

def write_head(head: ClassifierHead, path) -> None:
    with open(path, "wb") as fh:
        fh.write(HEAD_MAGIC)
        c, p = head.weights.shape
        fh.write(np.array([c, p], dtype="<u8").tobytes())
        fh.write(head.weights.astype("<f4").tobytes())
        fh.write(head.bias.astype("<f4").tobytes())


def read_head(path) -> ClassifierHead:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        _check_magic(magic, HEAD_MAGIC, path)
        c, p = _read_u64(fh, 2, "header", path)
        w = np.frombuffer(_read_exact(fh, 4 * c * p, "weights", path), dtype="<f4")
        b = np.frombuffer(_read_exact(fh, 4 * c, "bias", path), dtype="<f4")
        _no_trailing(fh, path)
        weights = w.reshape(c, p).astype(np.float32)
        bias = b.astype(np.float32)
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise ValueError(f"{path}: head contains non-finite values")
        return ClassifierHead(weights=weights, bias=bias)


# ------------------------------------------------------------- predictions

_PRED_HEADER = ["epoch", "example_id", "true_label", "pred_label"]


def write_predictions(log: PredictionLog, path) -> None:
    """Write a prediction log CSV; refuses ids that read_predictions would split."""
    ids = log.example_ids.astype(str, copy=False)
    bad = np.flatnonzero(np.any([np.strings.find(ids, ch) >= 0 for ch in ",\n\r"], axis=0))
    if bad.size:
        raise ValueError(f"example_id {str(ids[bad[0]])!r} contains a comma or a line break")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_PRED_HEADER) + "\n")
        for e, x, t, p in zip(log.epochs, log.example_ids, log.true_labels, log.pred_labels):
            fh.write(f"{int(e)},{x},{int(t)},{int(p)}\n")


def read_predictions(path, label_count: Optional[int] = None) -> PredictionLog:
    """Read a prediction log CSV.

    Rejects a missing/renamed header column, non-integer epochs, negative or
    (when label_count is given) out-of-range labels, and duplicate
    (epoch, example_id) pairs, reporting row numbers.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        for col in _PRED_HEADER:
            if col not in header:
                raise ValueError(f"{path}: header is missing column {col!r}")
        if header != _PRED_HEADER:
            raise ValueError(f"{path}: header must be exactly {','.join(_PRED_HEADER)!r}")
        epochs, ids, true, pred = [], [], [], []
        seen: dict[tuple[int, str], int] = {}
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
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
    inferred = max(max(true), max(pred)) + 1
    if label_count is None:
        label_count = inferred
    elif inferred > label_count:
        raise ValueError(f"{path}: label {inferred - 1} >= label count {label_count}")
    return PredictionLog(epochs=np.array(epochs), example_ids=np.array(ids),
                         true_labels=np.array(true), pred_labels=np.array(pred),
                         label_count=label_count)


# ----------------------------------------------------------------- tables

def write_table(obj, path, fmt: str = "csv") -> None:
    """Write a MetricSeries, matrix, ConfusionMatrix or NCReport table.

    Output is deterministic: fixed key order for JSON, fixed decimal
    formatting for CSV (6 decimals for metric series, 9 significant digits
    for matrix entries).
    """
    if isinstance(obj, MetricSeries):
        if fmt == "csv":
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write("epoch,value\n")
                for e, v in zip(obj.epochs, obj.values):
                    fh.write(f"{int(e)},{v:.6f}\n")
        elif fmt == "json":
            payload = {"series": [{"epoch": int(e), "value": float(v)}
                                  for e, v in zip(obj.epochs, obj.values)],
                       "scale": obj.scale}
            write_json(payload, path)
        else:
            raise ValueError(f"unknown table format {fmt!r}")
    elif isinstance(obj, (DistanceMatrix, SimilarityMatrix)):
        if fmt == "csv":
            write_distance_matrix(obj, path, fmt="csv")
        elif fmt == "binary":
            write_distance_matrix(obj, path, fmt="binary")
        elif fmt == "json":
            write_json({"labels": list(obj.labels),
                        "values": [[float(v) for v in row] for row in obj.values]}, path)
        else:
            raise ValueError(f"unknown table format {fmt!r}")
    elif isinstance(obj, ConfusionMatrix):
        if fmt != "csv":
            raise ValueError("confusion matrices are written as CSV")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("," + ",".join(str(x) for x in obj.order) + "\n")
            for lbl, row in zip(obj.order, obj.counts):
                fh.write(f"{lbl}," + ",".join(str(int(v)) for v in row) + "\n")
    elif isinstance(obj, NCReport):
        if fmt != "json":
            raise ValueError("NC reports are written as JSON")
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
