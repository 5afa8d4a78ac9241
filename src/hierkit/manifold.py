"""Feature-manifold analysis: mutual covers, distance matrices, and CCC.

The mutual cover rho(c_i, c_j) is the radius-averaged probability that a
query feature of class i lies within distance r of some support feature of
class j, integrated over r in [0, r_max] and normalized by r_max.  The
resulting similarity matrix is compared against taxonomy distances through
the cophenetic correlation coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hierarchy import DistanceMatrix
from .kernels import GroupScreen, _block_rows, _pooled, min_sq_distances
from .rng import substream

__all__ = [
    "CoverConfig",
    "FeatureSet",
    "SimilarityMatrix",
    "ccc",
    "cover_similarity",
    "cover_stats",
    "split_query_support",
    "to_distance_matrix",
]


_NON_FINITE = "feature vectors contain non-finite values"


@dataclass
class FeatureSet:
    """N x p feature vectors with class labels and an optional epoch tag."""

    vectors: np.ndarray
    labels: np.ndarray
    class_count: int
    epoch: Optional[int] = None

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors)
        if self.vectors.dtype not in (np.float32, np.float64):
            self.vectors = self.vectors.astype(np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.class_count = int(self.class_count)
        if self.vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {self.vectors.shape}")
        if self.labels.shape != (self.vectors.shape[0],):
            raise ValueError("labels length does not match vector count")
        if not _all_finite(self.vectors):
            raise ValueError(_NON_FINITE)
        if self.class_count < 1:
            raise ValueError("class_count must be >= 1")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError(f"labels out of range [0, {self.class_count})")

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    def present_classes(self) -> np.ndarray:
        return np.unique(self.labels)


def _all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()`` of a 2-D array in row blocks: no boolean copy of ``a``."""
    rows = _block_rows(a.shape[1])
    return all(np.isfinite(a[lo:lo + rows]).all() for lo in range(0, a.shape[0], rows))


@dataclass
class CoverConfig:
    """Knobs for the query/support split and the cover integral.

    r_max=None means the default rule: the maximum over all (query point,
    support class) minimum distances.  method is "grid" (trapezoid rule on
    grid_points radii) or "exact" (closed-form step-function integral).
    """

    k: int
    r_max: Optional[float] = None
    grid_points: int = 200
    seed: int = 0
    method: str = "grid"

    def __post_init__(self) -> None:
        self.k = int(self.k)
        self.grid_points = int(self.grid_points)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if self.grid_points > np.iinfo(np.int64).max:
            raise ValueError(f"grid_points {self.grid_points} does not fit in int64")
        if self.r_max is not None:
            self.r_max = float(self.r_max)
            if not self.r_max > 0:
                raise ValueError(f"r_max must be > 0, got {self.r_max}")
            if not np.isfinite(self.r_max):
                raise ValueError(f"r_max must be finite, got {self.r_max}")
        if self.method not in ("grid", "exact"):
            raise ValueError(f"method must be 'grid' or 'exact', got {self.method!r}")


@dataclass
class SimilarityMatrix:
    """Cover similarities in [0, 1]; diagonal = self-cover; possibly asymmetric."""

    labels: list[int]
    values: np.ndarray
    r_max: Optional[float] = None

    def __post_init__(self) -> None:
        self.labels = [int(x) for x in self.labels]
        v = np.asarray(self.values, dtype=np.float64)
        n = len(self.labels)
        if v.shape != (n, n):
            raise ValueError(f"matrix shape {v.shape} does not match {n} labels")
        if not np.isfinite(v).all():
            raise ValueError("similarity matrix has non-finite entries")
        if (v < 0).any() or (v > 1).any():
            raise ValueError("similarity entries must be in [0, 1]")
        self.values = v


def split_query_support(f: FeatureSet, cfg: CoverConfig) -> tuple[FeatureSet, FeatureSet]:
    """Sample 2k examples per class without replacement; k to each side.

    Query and support index sets are disjoint per class.  Deterministic for
    a given cfg.seed.
    """
    k = cfg.k
    # one stable sort: each class's rows, ascending, are one slice of ``order``
    order = np.argsort(f.labels, kind="stable")
    starts = np.flatnonzero(np.diff(f.labels[order], prepend=-1))  # labels are >= 0
    picked = np.empty((len(starts), 2 * k), dtype=np.intp)
    rng = substream(cfg.seed, 0)
    for row, idx in zip(picked, np.split(order, starts[1:])):
        if idx.size < 2 * k:
            raise ValueError(f"class {int(f.labels[idx[0]])} has {idx.size} examples, "
                             f"needs >= {2 * k} for k={k}")
        row[:] = idx[rng.permutation(idx.size)[:2 * k]]
    q, s = picked[:, :k].ravel(), picked[:, k:].ravel()
    query = FeatureSet(f.vectors[q], f.labels[q], f.class_count, epoch=f.epoch)
    support = FeatureSet(f.vectors[s], f.labels[s], f.class_count, epoch=f.epoch)
    return query, support


def cover_similarity(query: FeatureSet, support: FeatureSet,
                     cfg: CoverConfig) -> SimilarityMatrix:
    """rho(c_i, c_j) for every ordered class pair.

    For each query point of class i the minimum Euclidean distance to the
    class-j support set is computed; P_r is the fraction of query points with
    distance strictly less than r, and rho is the integral of P_r over
    [0, r_max] divided by r_max (trapezoid rule on cfg.grid_points radii, or
    the exact step-function integral when cfg.method == "exact").

    The exact method takes the minima from ``min_sq_distances``.  The grid method
    needs only each minimum's grid step index and, when cfg.r_max is None, the
    largest minimum.  A :class:`~hierkit.kernels.GroupScreen` gives both, bit for
    bit, from one GEMM per pooled row slab; the r_max candidate rows and the rows its
    bounds leave unsettled take their exact row.  It writes the indices straight
    into the padded index array of :func:`_grid_integrals`, which groups the
    (class, support class) pairs by their sorted step indices with one lexsort,
    runs the trapezoid once per group and gives the bits of the per-class loop
    over boolean means, for any class sizes, k and grid.  The reduction order
    (query order, then grid order) is fixed, so results are bit-reproducible.
    """
    for name, f in (("query", query), ("support", support)):
        if len(f) == 0:
            raise ValueError(f"{name} set is empty")
    classes = query.present_classes()
    if not np.array_equal(classes, support.present_classes()):
        raise ValueError("query and support label sets differ")
    order = np.argsort(support.labels, kind="stable")
    starts = np.searchsorted(support.labels[order], classes)
    # passed, not named: the class-sorted support dies in the kernel's float64 copy
    if cfg.method == "exact":
        mins = min_sq_distances(query.vectors, support.vectors[order], starts)
        np.sqrt(mins, out=mins)
    else:
        screen = GroupScreen(query.vectors, support.vectors[order], starts)
    r_max = cfg.r_max
    if r_max is None:
        r_max = float(mins.max() if cfg.method == "exact"
                      else np.sqrt(screen.largest_minimum()))
    if not r_max > 0:
        raise ValueError(f"r_max must be > 0, got {r_max}")

    if cfg.method == "exact":
        # integral of 1{d < r} over [0, r_max] is max(0, r_max - d); below a
        # subnormal r_max, d / r_max overflows to inf and clips to 0 as it should
        with np.errstate(over="ignore"):
            contrib = np.clip(1.0 - mins / r_max, 0.0, 1.0)
        values = np.empty((classes.size, classes.size))
        for i, c in enumerate(classes):
            rows = query.labels == c
            values[i] = contrib[rows].mean(axis=0)
    else:
        grid = np.linspace(0.0, r_max, cfg.grid_points)
        # one pad row, which the class table of _grid_integrals picks with -1
        pad = grid.size + 1
        steps = np.full((len(query) + 1, classes.size), pad, dtype=np.min_scalar_type(pad))
        screen.step_indices(grid, out=steps[:-1])
        del screen  # the screened minima, n x C float64, before the integral
        values = _grid_integrals(steps, query.labels, grid) / r_max
    return SimilarityMatrix(labels=list(classes), values=values, r_max=r_max)


def _grid_integrals(steps: np.ndarray, labels: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The (C, n) trapezoid integrals of P_r over ``grid``, one row per class of
    ``labels`` in sorted order and one column per support class.

    ``steps[i, j]`` is searchsorted(grid, d, side="right") of the distance d from
    query point i to support class j, and its last row holds the pad len(grid) + 1,
    in an unsigned dtype that holds the pad.  P_r at grid[g] is the share of a
    class's distances d with d < grid[g], that is with step index <= g.  So a
    (class, column) pair's curve is fixed by its sorted step indices, padded to the
    size of the largest class: no g reaches a pad, and the entries that are not
    pads count the class.  :func:`_sort_columns` sorts them, one lexsort brings
    equal patterns together, and a pattern starts wherever any of its indices
    differs from the pair before.  The integral runs once per distinct pattern,
    in chunks of 2**16 values on the threads of ``kernels._pooled``: the same
    per-row trapezoid of count / size as the per-class loop's boolean mean, so
    every bit matches.
    """
    _, sizes = np.unique(labels, return_counts=True)
    n_classes, n = sizes.size, steps.shape[1]
    # table[c, r]: the row of the r-th query point of class c; -1 picks the pad row
    table = np.full((n_classes, int(sizes.max())), -1)
    rows = np.argsort(labels, kind="stable")
    cls = np.repeat(np.arange(n_classes), sizes)
    table[cls, np.arange(rows.size) - (np.cumsum(sizes) - sizes)[cls]] = rows
    pad = grid.size + 1
    # steps[:, c * n + j]: the step indices of class c in column j, sorted
    steps = steps[table].transpose(1, 0, 2).reshape(table.shape[1], -1)
    _sort_columns(steps)
    order = np.lexsort(steps)
    steps = steps.take(order, axis=1)
    new = np.zeros(order.size, dtype=bool)
    new[0] = True
    for row in steps:
        new[1:] |= row[1:] != row[:-1]
    starts = np.flatnonzero(new)
    patterns = steps[:, starts]
    size = np.count_nonzero(patterns < pad, axis=0)
    g = np.arange(grid.size, dtype=patterns.dtype)
    integrals = np.empty(patterns.shape[1])
    chunk = _block_rows(64 * grid.size)

    def integrate(lo: int) -> None:
        count = np.count_nonzero(patterns[:, lo:lo + chunk, None] <= g, axis=0)
        integrals[lo:lo + chunk] = np.trapezoid(count / size[lo:lo + chunk, None], grid, axis=-1)

    _pooled(integrate, range(0, integrals.size, chunk))
    values = np.empty(order.size)
    values[order] = np.repeat(integrals, np.diff(starts, append=order.size))
    return values.reshape(n_classes, n)


def _sort_columns(a: np.ndarray) -> None:
    """``a.sort(axis=0)`` of a (k, m) integer array: an odd-even transposition
    network of k passes of ``np.minimum``/``np.maximum`` over neighbouring rows,
    alternately from row 0 and row 1, which sorts any k values (Habermann,
    Parallel neighbor-sort, 1972).  A tenth of the time of ``sort`` at k = 5."""
    low = np.empty_like(a[0])
    for p in range(len(a)):
        for i in range(p % 2, len(a) - 1, 2):
            np.minimum(a[i], a[i + 1], out=low)
            np.maximum(a[i], a[i + 1], out=a[i + 1])
            a[i] = low


def to_distance_matrix(a: SimilarityMatrix) -> DistanceMatrix:
    """D_F = 1 - (A + A^T)/2 off-diagonal, 0 on the diagonal.

    The raw cover matrix can be asymmetric; the arithmetic-mean
    symmetrization is recorded by construction here.
    """
    sym = (a.values + a.values.T) / 2.0
    d = 1.0 - sym
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(labels=list(a.labels), values=np.maximum(d, 0.0))


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xm = x - x.mean()
    ym = y - y.mean()
    sx = float(np.dot(xm, xm))
    sy = float(np.dot(ym, ym))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance: correlation undefined")
    # single sqrt keeps affine copies at exactly +-1 when sums are exact
    r = float(np.dot(xm, ym)) / float(np.sqrt(sx * sy))
    return min(1.0, max(-1.0, r))


def ccc(d1: DistanceMatrix, d2: DistanceMatrix) -> float:
    """Cophenetic correlation: Pearson over the i<j entries of both matrices.

    Requires identical label order and non-zero variance in each matrix;
    the diagonal and lower triangle are excluded.
    """
    if d1.labels != d2.labels:
        raise ValueError("distance matrices have different label orders")
    n = d1.size
    if n < 2:
        raise ValueError("ccc needs at least 2 classes")
    iu = np.triu_indices(n, k=1)
    return _pearson(d1.values[iu], d2.values[iu])


def cover_stats(a: SimilarityMatrix) -> tuple[float, float]:
    """(mean self-cover, mean mutual cover) = (diagonal mean, off-diagonal mean)."""
    n = len(a.labels)
    diag = float(np.diagonal(a.values).mean())
    if n < 2:
        return diag, float("nan")
    off = float((a.values.sum() - np.diagonal(a.values).sum()) / (n * n - n))
    return diag, off
