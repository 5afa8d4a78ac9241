"""Synthetic generators and Monte-Carlo oracles.

Everything here exists to make the metric formulas testable at desk scale:
exact simplex-ETF frames, hierarchy-driven feature trajectories whose
superclass/class separations follow per-epoch schedules, prediction logs
with a controllable within-superclass error fraction, and a Monte-Carlo
oracle for the random-superclass accuracy formula.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .collapse import nearest_mean_labels
from .hierarchy import Hierarchy, iter_lines
from .kernels import _one_blas_thread, _pooled
from .labelspace import LabelSpace
from .manifold import FeatureSet
from .metrics import PredictionLog
from .rng import substream

__all__ = [
    "TrajectoryParams",
    "default_trajectory_params",
    "gen_etf",
    "gen_hierarchical_trajectory",
    "gen_prediction_trajectory",
    "mc_superclass_accuracy",
    "ncc_prediction_log",
    "parse_schedule",
    "parse_trajectory_config",
]


@dataclass
class TrajectoryParams:
    """Per-epoch schedules for the hierarchical feature generator.

    hypernym_gap_schedule scales the superclass anchor directions,
    hyponym_gap_schedule the class-specific directions, noise_schedule the
    isotropic within-class standard deviation.  The final noise value may be
    0 (collapse endpoint).
    """

    epochs: int
    dimension: int
    examples_per_class: int
    hypernym_gap_schedule: np.ndarray
    hyponym_gap_schedule: np.ndarray
    noise_schedule: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        self.seed = int(self.seed)
        for name in ("epochs", "dimension", "examples_per_class"):
            setattr(self, name, int(getattr(self, name)))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
            if getattr(self, name) >= 2**63:
                raise ValueError(f"{name} {getattr(self, name)} does not fit in int64")
        for name in ("hypernym_gap_schedule", "hyponym_gap_schedule", "noise_schedule"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (self.epochs,):
                raise ValueError(f"{name} must have length {self.epochs}, got {arr.shape}")
            if not np.isfinite(arr).all() or (arr < 0).any():
                raise ValueError(f"{name} must be non-negative and finite")
            setattr(self, name, arr)


def default_trajectory_params(epochs: int = 40, dimension: int = 64,
                              examples_per_class: int = 20, seed: int = 0) -> TrajectoryParams:
    """Schedules that separate superclasses early and classes late.

    The hypernym gap saturates in the first quarter of training, the hyponym
    gap ramps from 15% to 75% of the epochs, and the noise decays linearly to
    exactly 0 at the final epoch (the collapse endpoint).
    """
    if epochs >= 2**63:  # np.arange would refuse it first, with numpy's own message
        raise ValueError(f"epochs {epochs} does not fit in int64")
    t = np.arange(1, epochs + 1, dtype=np.float64)
    hyper = 2.0 * np.minimum(1.0, t / max(1.0, 0.25 * epochs))
    hypo = np.clip((t - 0.15 * epochs) / max(1.0, 0.6 * epochs), 0.0, 1.0)
    noise = 0.45 * (epochs - t) / max(1.0, epochs - 1.0)
    return TrajectoryParams(epochs=epochs, dimension=dimension,
                            examples_per_class=examples_per_class,
                            hypernym_gap_schedule=hyper, hyponym_gap_schedule=hypo,
                            noise_schedule=noise, seed=seed)


def gen_etf(c_count: int, dim: int, scale: float = 1.0) -> np.ndarray:
    """A C x dim simplex equiangular tight frame.

    Rows have equal norm ``scale``, zero mean, and all pairwise cosines
    exactly -1/(C-1).  Construction: center the standard basis of dimension
    C, rotate into its (C-1)-dimensional span, pad to ``dim``, renormalize.
    """
    c_count = int(c_count)
    dim = int(dim)
    scale = float(scale)
    if c_count < 2:
        raise ValueError("c_count must be >= 2")
    if dim < c_count - 1:
        raise ValueError(f"dim must be >= C-1 = {c_count - 1}, got {dim}")
    if not scale > 0:
        raise ValueError("scale must be > 0")
    if not np.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    y = np.eye(c_count) - 1.0 / c_count
    with _one_blas_thread():
        u, sv, _ = np.linalg.svd(y)
    coords = u[:, :c_count - 1] * sv[:c_count - 1]
    frame = np.zeros((c_count, dim))
    frame[:, :c_count - 1] = coords
    norms = np.linalg.norm(frame, axis=1, keepdims=True)
    return frame / norms * scale


def gen_hierarchical_trajectory(h: Hierarchy, s: LabelSpace,
                                params: TrajectoryParams) -> list[FeatureSet]:
    """One FeatureSet per epoch following the two-level separation model.

    Class mean at epoch t = hypernym_gap(t) * (superclass anchor) +
    hyponym_gap(t) * (class direction); examples add isotropic noise of std
    noise(t).  Anchor and class directions are drawn once from the seed and
    orthonormalized jointly, so the two separation knobs stay uncorrelated.
    Epoch substreams make generation order-independent, so the epochs are
    drawn on the threads of ``kernels._pooled`` with the serial loop's bits.
    """
    c = h.class_count
    if s.class_count != c:
        raise ValueError(f"label space covers {s.class_count} classes, hierarchy has {c}")
    table, s_count = s.table, s.superclass_count
    p = params.dimension
    if p < s_count + c:
        raise ValueError(f"dimension must be >= superclasses + classes = {s_count + c}, got {p}")

    rng = substream(params.seed, 0)
    with _one_blas_thread():
        basis = np.linalg.qr(rng.standard_normal((p, s_count + c)))[0]
    anchors = basis[:, :s_count].T
    class_dirs = basis[:, s_count:].T

    n = params.examples_per_class
    labels = np.repeat(np.arange(c), n)
    out: list[FeatureSet] = [None] * params.epochs

    def epoch(t: int) -> None:
        g_s = params.hypernym_gap_schedule[t - 1]
        g_h = params.hyponym_gap_schedule[t - 1]
        sigma = params.noise_schedule[t - 1]
        means = g_s * anchors[table] + g_h * class_dirs
        vectors = np.repeat(means, n, axis=0)
        if sigma > 0:  # in place: the bits of vectors + sigma * noise, with fewer temporaries
            noise = substream(params.seed, t).standard_normal((c * n, p))
            noise *= sigma
            vectors += noise
        out[t - 1] = FeatureSet(vectors=vectors, labels=labels, class_count=c, epoch=t)

    _pooled(epoch, range(1, params.epochs + 1))
    return out


def _other_slot(u: np.ndarray, m, skip) -> np.ndarray:
    """A uniform slot among the ``m`` slots 0..m-1 other than ``skip``, from u in [0, 1).

    Draws 0..m-2 and steps over ``skip``; gives ``skip`` itself when m == 1.
    """
    j = np.minimum((u * (m - 1)).astype(np.int64), np.maximum(m - 2, 0))
    return np.minimum(j + (j >= skip), m - 1)


def gen_prediction_trajectory(h: Hierarchy, s: LabelSpace, epochs: int,
                              accuracy_schedule, within_hypernym_error_fraction_schedule,
                              examples: int, seed: int) -> PredictionLog:
    """A per-epoch prediction log with a controllable hypernym error bias.

    Per example per epoch: the prediction is correct with probability
    accuracy(t); otherwise the wrong label falls inside the true superclass
    with probability within(t) and uniformly over all wrong labels otherwise.
    True labels are assigned round-robin (example i gets class i mod C).
    Superclasses of size 1 cannot host a within error; those draws fall back
    to uniform and a warning is emitted once.
    """
    epochs = int(epochs)
    examples = int(examples)
    if epochs < 1 or examples < 1:
        raise ValueError("epochs and examples must be >= 1")
    if examples >= 2**63:  # np.arange would give no rows, and the id list would never end
        raise ValueError(f"examples {examples} does not fit in int64")
    acc = np.asarray(accuracy_schedule, dtype=np.float64)
    within = np.asarray(within_hypernym_error_fraction_schedule, dtype=np.float64)
    for name, arr in (("accuracy_schedule", acc),
                      ("within_hypernym_error_fraction_schedule", within)):
        if arr.shape != (epochs,):
            raise ValueError(f"{name} must have length {epochs}")
        if not ((arr >= 0) & (arr <= 1)).all():  # NaN fails both tests
            raise ValueError(f"{name} values must be in [0, 1]")
    c = h.class_count
    if s.class_count != c:
        raise ValueError(f"label space covers {s.class_count} classes, hierarchy has {c}")

    table, group_sizes = s.table, s.sizes
    # flat member list grouped by superclass + per-class position inside its group
    flat_members = np.argsort(table, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(group_sizes)[:-1]])
    pos_in_group = np.empty(c, dtype=np.int64)
    pos_in_group[flat_members] = np.arange(c) - np.repeat(offsets, group_sizes)

    true = np.arange(examples, dtype=np.int64) % c
    size_of = group_sizes[table[true]]
    off_of = offsets[table[true]]
    pos_of = pos_in_group[true]
    ids = np.array([f"e{i}" for i in range(examples)])

    preds = np.empty((epochs, examples), dtype=np.int64)  # one row per epoch
    singleton_fallback = False
    for t in range(1, epochs + 1):
        rng = substream(seed, t)
        u_correct = rng.random(examples)
        u_within = rng.random(examples)
        u_pick = rng.random(examples)

        # a uniform wrong label over all classes, or inside the member block
        pred_any = _other_slot(u_pick, c, true)
        pred_within = flat_members[off_of + _other_slot(u_pick, size_of, pos_of)]

        correct = u_correct < acc[t - 1]
        wants_within = u_within < within[t - 1]
        can_within = size_of > 1
        pred = np.where(wants_within & can_within, pred_within, pred_any)
        if (~correct & wants_within & ~can_within).any():
            singleton_fallback = True
        preds[t - 1] = np.where(correct, true, pred)

    if singleton_fallback:
        warnings.warn("within-superclass error requested for a singleton superclass; "
                      "fell back to a uniform wrong label", stacklevel=2)
    return PredictionLog(epochs=np.repeat(np.arange(1, epochs + 1, dtype=np.int64), examples),
                         example_ids=np.tile(ids, epochs), true_labels=np.tile(true, epochs),
                         pred_labels=preds.ravel(), label_count=c)


def mc_superclass_accuracy(p_h: float, sizes, trials: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of the random-superclass accuracy formula.

    Each trial draws the true superclass by size prior; the prediction hits
    it with probability p_h, otherwise an independently size-prior-drawn
    superclass is used.  Returns (hit rate, binomial standard error).
    """
    p_h = float(p_h)
    if not 0.0 <= p_h <= 1.0:
        raise ValueError(f"p_h must be in [0, 1], got {p_h}")
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.ndim != 1 or sizes.size == 0 or (sizes <= 0).any():
        raise ValueError("sizes must be a non-empty list of positive counts")
    cum = np.cumsum(sizes / sizes.sum())
    cum[-1] = 1.0
    rng = substream(seed, 0)
    true_r = np.searchsorted(cum, rng.random(trials), side="right")
    hit = rng.random(trials) < p_h
    indep = np.searchsorted(cum, rng.random(trials), side="right")
    hits = hit | (indep == true_r)
    estimate = float(hits.mean())
    stderr = float(np.sqrt(estimate * (1.0 - estimate) / trials))
    return estimate, stderr


def ncc_prediction_log(feature_sets) -> PredictionLog:
    """Reclassify each epoch's features by its own nearest class mean.

    The bridge from feature trajectories to accuracy curves: a cheap readout
    whose per-epoch predictions can be projected into any label space.  The
    epochs run on the threads of ``kernels._pooled``, or serially where the
    BLAS cannot be pinned to one thread; the labels are the same either way.
    """
    feature_sets = list(feature_sets)
    if not feature_sets:
        raise ValueError("need at least one feature set")
    c = feature_sets[0].class_count
    if any(f.class_count != c for f in feature_sets):
        raise ValueError("feature sets disagree on class_count")
    sizes = [len(f) for f in feature_sets]
    ids = np.array([f"e{j}" for j in range(max(sizes))])
    bounds = np.cumsum([0] + sizes)
    pred = np.empty(bounds[-1], dtype=np.intp)

    def readout(i: int) -> None:
        pred[bounds[i]:bounds[i + 1]] = nearest_mean_labels(feature_sets[i])

    _pooled(readout, range(len(feature_sets)), blas=True)
    epochs = [f.epoch if f.epoch is not None else i + 1 for i, f in enumerate(feature_sets)]
    return PredictionLog(epochs=np.repeat(np.array(epochs, dtype=np.int64), sizes),
                         example_ids=np.concatenate([ids[:n] for n in sizes]),
                         true_labels=np.concatenate([f.labels for f in feature_sets]),
                         pred_labels=pred,
                         label_count=c)


def parse_schedule(text: str, epochs: int, what: str) -> np.ndarray:
    """Parse a per-epoch schedule: `linear:a:b` or a comma-separated list.

    `linear:a:b` is a linear ramp from a to b over ``epochs`` values; a list
    must have exactly ``epochs`` entries.  ``what`` names the flag or config
    key in error messages.
    """
    linear = text.startswith("linear:")
    fields = text[len("linear:"):].split(":") if linear else text.split(",")
    try:
        values = [float(v) for v in fields]
        if linear:
            start, stop = values
    except ValueError:
        raise ValueError(f"{what} expects 'linear:a:b' or a comma list, got {text!r}") from None
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if linear:
        if epochs >= 2**63:
            raise ValueError(f"epochs {epochs} does not fit in int64")
        with np.errstate(over="ignore", invalid="ignore"):  # range checks refuse inf and nan
            return np.linspace(start, stop, epochs)
    if len(values) != epochs:
        raise ValueError(f"{what} lists {len(values)} values, expected {epochs}")
    return np.array(values)


def parse_trajectory_config(source, seed: int | None = None) -> TrajectoryParams:
    """Read TrajectoryParams from a key=value text file.

    Keys: epochs, dimension, examples_per_class, seed (integers) and
    hypernym_gap_schedule, hyponym_gap_schedule, noise_schedule.  A schedule
    is either a comma-separated list (length == epochs) or `linear:a:b` for a
    linear ramp from a to b.  Missing keys fall back to the defaults of
    :func:`default_trajectory_params`.  ``seed`` overrides the file's value.
    """
    raw: dict[str, str] = {}
    for name, lineno, line in iter_lines(source, "<config>"):
        if "=" not in line:
            raise ValueError(f"{name}:{lineno}: expected 'key=value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in raw:
            raise ValueError(f"{name}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    known = {"epochs", "dimension", "examples_per_class", "seed",
             "hypernym_gap_schedule", "hyponym_gap_schedule", "noise_schedule"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    ints: dict[str, int] = {}  # only the keys given: the defaults live in one place
    for key in ("epochs", "dimension", "examples_per_class", "seed"):
        if key == "seed" and seed is not None:
            ints[key] = int(seed)  # the file's seed is then not parsed
        elif key in raw:
            try:
                ints[key] = int(raw[key])
            except ValueError:
                raise ValueError(f"config key {key!r} must be an integer, "
                                 f"got {raw[key]!r}") from None
    base = default_trajectory_params(**ints)

    schedules = {key: parse_schedule(raw[key], base.epochs, f"config key {key!r}")
                 for key in ("hypernym_gap_schedule", "hyponym_gap_schedule",
                             "noise_schedule")
                 if key in raw}
    return replace(base, **schedules)
