"""Neural-collapse statistics NC1-NC4 for a feature snapshot and classifier head.

All statistics can be computed in the native (hyponym) label space or lifted
to any superclass label space: superclass means, weights and bias are
unweighted averages over member classes, the between-class scatter is
recomputed over superclass means, and the within-class scatter absorbs the
class-to-superclass mean offsets.

NC4 compares two readouts whose labels hierkit defines by its own exact
float64 sums (``kernels._sq_distances`` and ``kernels._pair_dots``), each
screened by one float32 or float64 GEMM per row block under a proven bound, so
neither depends on the BLAS build, its thread count or the row blocking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, TYPE_CHECKING

import numpy as np

from .kernels import _block_rows, _pair_dots, _score_slack, _settle, nearest_refs
from .manifold import FeatureSet

if TYPE_CHECKING:
    from .labelspace import LabelSpace

__all__ = [
    "ClassStats",
    "ClassifierHead",
    "NCReport",
    "Nc2Stats",
    "class_statistics",
    "lift_to_superclass",
    "nc1",
    "nc2_metrics",
    "nc3_self_duality",
    "nc4_mismatch",
    "nc_report",
    "nearest_mean_labels",
]


@dataclass
class ClassStats:
    """Global mean, per-class means/counts, and within/between scatters."""

    global_mean: np.ndarray
    class_means: np.ndarray
    counts: np.ndarray
    sigma_w: np.ndarray
    sigma_b: np.ndarray

    def __post_init__(self) -> None:
        self.global_mean = np.asarray(self.global_mean, dtype=np.float64)
        self.class_means = np.asarray(self.class_means, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.sigma_w = np.asarray(self.sigma_w, dtype=np.float64)
        self.sigma_b = np.asarray(self.sigma_b, dtype=np.float64)
        c, p = self.class_means.shape
        if self.global_mean.shape != (p,):
            raise ValueError("global_mean dimension does not match class_means")
        if self.counts.shape != (c,) or (self.counts < 1).any():
            raise ValueError("counts must list one positive count per class")
        for name, m in (("sigma_w", self.sigma_w), ("sigma_b", self.sigma_b)):
            if m.shape != (p, p):
                raise ValueError(f"{name} must be {p}x{p}")
            if not (np.array_equal(m, m.T)
                    or np.allclose(m, m.T, atol=1e-10 * max(1.0, float(np.abs(m).max())))):
                raise ValueError(f"{name} is not symmetric")

    @property
    def class_count(self) -> int:
        return int(self.class_means.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.class_means.shape[1])


@dataclass
class ClassifierHead:
    """Last-layer weights (one row per class) and bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a C x p matrix")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError("bias length must match the weight row count")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("head contains non-finite values")

    @property
    def class_count(self) -> int:
        return int(self.weights.shape[0])


class Nc2Stats(NamedTuple):
    beta_mu: float
    beta_w: float
    alpha_mu: float
    alpha_w: float


@dataclass
class NCReport:
    """One NC1-NC4 snapshot; degenerate statistics are zeroed and flagged."""

    nc1: float
    beta_mu: float
    beta_w: float
    alpha_mu: float
    alpha_w: float
    nc3: float
    nc4_mismatch: float
    label_space_name: str
    degenerate_flags: tuple[str, ...] = ()


def _class_sums(labels: np.ndarray, x: np.ndarray, c: int) -> np.ndarray:
    """Per-class row sums, bit for bit ``np.add.at(np.zeros((c, p)), labels, x)``.

    A loop over the within-class rank r: pass r adds the r-th row, in index
    order, of every class that has one.  Each class thus sums its rows in
    index order from +0.0, as ``np.add.at`` does, and no class appears twice
    in a pass, so the fancy ``+=`` is safe.  ``np.add.reduce`` or ``reduceat``
    along the class axis would not be exact: numpy sums pairwise there.  Rows
    are sorted stably by label unless already non-decreasing; with equal class
    counts each pass is one strided slice.  The cost is one pass per row of
    the largest class.
    """
    counts = np.bincount(labels, minlength=c)
    p = x.shape[1]
    sums = np.zeros((c, p))
    xs = x if (labels[1:] >= labels[:-1]).all() else x[np.argsort(labels, kind="stable")]
    m = int(counts.max())
    if (counts == m).all():
        blocks = xs.reshape(c, m, p)
        for r in range(m):
            sums += blocks[:, r]
        return sums
    starts = np.cumsum(counts) - counts
    for r in range(m):
        cls = np.flatnonzero(counts > r)
        sums[cls] += xs[starts[cls] + r]
    return sums


def _class_means(f: FeatureSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-class example counts and mean rows; every class needs an example."""
    counts = np.bincount(f.labels, minlength=f.class_count)
    if (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"class {empty} has no examples")
    return counts, _class_sums(f.labels, f.vectors, f.class_count) / counts[:, None]


def class_statistics(f: FeatureSet) -> ClassStats:
    """Per-class means plus within/between scatter matrices.

    Sigma_B averages (mu_c - mu_G) outer products unweighted over classes;
    Sigma_W averages (h - mu_c) outer products over all examples.  Every
    class 0..C-1 must have at least one example.
    """
    counts, class_means = _class_means(f)
    n = len(f)
    c = f.class_count
    global_mean = f.vectors.mean(axis=0, dtype=np.float64)
    dev_w = class_means[f.labels]
    np.subtract(f.vectors, dev_w, out=dev_w)
    sigma_w = dev_w.T @ dev_w / n
    dev_b = class_means - global_mean
    sigma_b = dev_b.T @ dev_b / c
    return ClassStats(global_mean=global_mean, class_means=class_means,
                      counts=counts, sigma_w=sigma_w, sigma_b=sigma_b)


def nc1(stats: ClassStats) -> float:
    """Variability collapse: trace(Sigma_W pinv(Sigma_B)) / C.

    The pseudoinverse zeroes singular values below
    1e-10 * max(p, C) * (largest singular value), so a rank-deficient or
    zero Sigma_B is handled without error.
    """
    c = stats.class_count
    p = stats.dimension
    rcond = 1e-10 * max(p, c)
    pinv = np.linalg.pinv(stats.sigma_b, rcond=rcond, hermitian=True)
    return float(np.einsum("ij,ji->", stats.sigma_w, pinv) / c)


def nc2_metrics(stats: ClassStats, head: ClassifierHead) -> Nc2Stats:
    """Simplex-ETF statistics: norm spread (beta) and cosine spread (alpha).

    beta_mu is the population standard deviation of the centered class-mean
    norms divided by their average; alpha_mu is the population standard
    deviation of all pairwise cosines between centered class means.  beta_w
    and alpha_w are the same statistics on the raw rows of W.
    """
    if stats.class_count < 2 or head.class_count < 2:
        raise ValueError("nc2 metrics need at least 2 classes")
    if head.class_count != stats.class_count:
        raise ValueError("head row count does not match the number of classes")

    def spread(rows: np.ndarray, what: str) -> tuple[float, float]:
        norms = np.linalg.norm(rows, axis=1)
        if (norms == 0).any():
            raise ValueError(f"zero-length {what}: cosine undefined")
        beta = float(norms.std() / norms.mean())
        unit = rows / norms[:, None]
        cos = unit @ unit.T
        iu = np.triu_indices(rows.shape[0], k=1)
        alpha = float(cos[iu].std())
        return beta, alpha

    beta_mu, alpha_mu = spread(stats.class_means - stats.global_mean, "centered class mean")
    beta_w, alpha_w = spread(head.weights, "weight row")
    return Nc2Stats(beta_mu=beta_mu, beta_w=beta_w, alpha_mu=alpha_mu, alpha_w=alpha_w)


def nc3_self_duality(stats: ClassStats, head: ClassifierHead) -> float:
    """Frobenius gap between unit-normalized W^T and the centered-means matrix.

    The centered class means are stacked as columns (p x C) to align with
    W^T; the result lies in [0, 2].
    """
    if head.class_count != stats.class_count:
        raise ValueError("head row count does not match the number of classes")
    m_dot = (stats.class_means - stats.global_mean).T
    wt = head.weights.T
    nw = float(np.linalg.norm(wt))
    nm = float(np.linalg.norm(m_dot))
    if nw == 0 or nm == 0:
        raise ValueError("nc3 undefined: zero weight or zero centered-means matrix")
    return float(np.linalg.norm(wt / nw - m_dot / nm))


def nearest_mean_labels(f: FeatureSet, stats: Optional[ClassStats] = None) -> np.ndarray:
    """Nearest-class-centroid labels; ties go to the lower class index.

    Without ``stats`` only the class means of ``f`` are computed (the same
    bits as ``class_statistics(f).class_means``), and a class without
    examples raises as in :func:`class_statistics`.
    """
    means = _class_means(f)[1] if stats is None else stats.class_means
    return nearest_refs(f.vectors, means)


def _linear_labels(x: np.ndarray, head: ClassifierHead) -> np.ndarray:
    """argmax_c t_c per row of ``x``; ties go to the lower class index.

    t_c is the exact score: the float64 sum, from +0.0, over the dimensions in
    index order, of the rounded products x_i w_ci, plus b_c
    (:func:`kernels._pair_dots`).  Row blocks of :func:`_block_rows` of the
    wider of C (a block's scores) and p (its rows, a float64 copy unless they
    are float32 or float64) rows keep only their labels, which therefore depend
    neither on the blocking nor on the BLAS build or its thread count.  One
    GEMM screens each block: in float32 for float32 rows, against W and b
    rounded to float32 once and with no float64 copy of the rows, else in
    float64.  Its bound E (:func:`kernels._score_slack`) settles each row with
    one candidate class (:func:`kernels._settle`, on the negated scores); any
    other row takes the argmax of the exact scores of its candidates only,
    among which the exact winner always is.
    """
    w, b = head.weights, head.bias
    dtype = np.float32 if x.dtype == np.float32 else np.float64
    labels = np.empty(len(x), dtype=np.intp)
    rows = _block_rows(max(w.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        # the argmin of the screened -(x.w~ + b~) is its argmax, with the same ties
        neg_w, neg_b = np.negative(w, dtype=dtype), np.negative(b, dtype=dtype)
        ww_max, b_max = np.einsum("ij,ij->i", w, w).max(), np.abs(b).max()
        for lo in range(0, len(x), rows):
            xb = x[lo:lo + rows].astype(dtype, copy=False)
            s = xb @ neg_w.T
            s += neg_b
            slack = _score_slack(np.einsum("ij,ij->i", xb, xb), ww_max, b_max, x.shape[1])
            unsettled, near = _settle(s, slack, labels[lo:lo + rows])
            del s  # so that no two blocks are held at once
            if unsettled.size:
                r, c = np.nonzero(near)
                scores = np.full(near.shape, -np.inf)
                scores[r, c] = _pair_dots(x, w, lo + unsettled[r], c) + b[c]
                labels[lo + unsettled] = np.argmax(scores, axis=1)
    return labels


def nc4_mismatch(f: FeatureSet, stats: ClassStats, head: ClassifierHead) -> float:
    """Fraction of examples where the linear rule and NCC disagree.

    Linear rule: argmax_c <w_c, h> + b_c (:func:`_linear_labels`).  NCC:
    argmin_c ||h - mu_c|| (:func:`nearest_mean_labels`).  Both are the labels of
    hierkit's exact float64 sums, found through a float32 screen for float32
    features, so they do not depend on the BLAS build, its thread count or the
    row blocking.  Ties break toward the lower class index in both rules.
    Neither holds an N x C array or a float64 copy of the features.
    """
    if head.class_count != stats.class_count:
        raise ValueError("head row count does not match the number of classes")
    linear = _linear_labels(f.vectors, head)
    ncc = nearest_mean_labels(f, stats)
    return float(np.mean(linear != ncc))


def lift_to_superclass(stats: ClassStats, head: Optional[ClassifierHead],
                       s: "LabelSpace") -> tuple[ClassStats, Optional[ClassifierHead]]:
    """Re-express statistics in a superclass label space.

    Superclass means, weight rows and bias are unweighted averages over
    member classes.  Sigma_B is recomputed over superclass means.  Sigma_W
    picks up the spread of class means around their superclass mean:
    Sigma_W^(S) = Sigma_W + sum_c (n_c/N) (mu_c - mu_s(c))(mu_c - mu_s(c))^T,
    which equals averaging (h - mu_s(c)) outer products over all examples.
    The global mean is unchanged.  ``head`` may be None.
    """
    table, s_count = s.table, s.superclass_count
    c = stats.class_count
    if s.class_count != c:
        raise ValueError(f"label space covers {s.class_count} classes, "
                         f"stats have {c}: partition mismatch")
    member_counts = s.sizes.astype(np.float64)

    means_s = _class_sums(table, stats.class_means, s_count) / member_counts[:, None]

    counts_s = np.bincount(table, weights=stats.counts, minlength=s_count).astype(np.int64)
    dev_b = means_s - stats.global_mean
    sigma_b = dev_b.T @ dev_b / s_count

    n_total = float(stats.counts.sum())
    dev = stats.class_means - means_s[table]
    sigma_w = stats.sigma_w + (dev * (stats.counts / n_total)[:, None]).T @ dev

    lifted = ClassStats(global_mean=stats.global_mean, class_means=means_s,
                        counts=counts_s, sigma_w=sigma_w, sigma_b=sigma_b)
    if head is None:
        return lifted, None
    if head.class_count != c:
        raise ValueError("head row count does not match the number of classes")
    w_s = _class_sums(table, head.weights, s_count) / member_counts[:, None]
    b_s = np.bincount(table, weights=head.bias, minlength=s_count) / member_counts
    return lifted, ClassifierHead(weights=w_s, bias=b_s)


def nc_report(f: FeatureSet, head: ClassifierHead, label_space_name: str = "hyponyms",
              stats: Optional[ClassStats] = None) -> NCReport:
    """Compute the full battery, zeroing and flagging degenerate statistics.

    Pass lifted ``stats`` and ``head`` to evaluate a superclass space;
    ``f`` always holds the raw examples.
    """
    if stats is None:
        stats = class_statistics(f)
    flags: list[str] = []

    if not stats.sigma_b.any():
        flags.append("sigma_b_zero")
        v_nc1 = 0.0
    else:
        v_nc1 = nc1(stats)

    try:
        n2 = nc2_metrics(stats, head)
    except ValueError as e:
        flags.append(f"nc2_degenerate: {e}")
        n2 = Nc2Stats(0.0, 0.0, 0.0, 0.0)

    try:
        v_nc3 = nc3_self_duality(stats, head)
    except ValueError as e:
        flags.append(f"nc3_degenerate: {e}")
        v_nc3 = 0.0

    v_nc4 = nc4_mismatch(f, stats, head)
    return NCReport(nc1=v_nc1, beta_mu=n2.beta_mu, beta_w=n2.beta_w,
                    alpha_mu=n2.alpha_mu, alpha_w=n2.alpha_w, nc3=v_nc3,
                    nc4_mismatch=v_nc4, label_space_name=label_space_name,
                    degenerate_flags=tuple(flags))
