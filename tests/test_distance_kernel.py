"""The blocked nearest-distance kernels against a direct, unblocked cdist.

Both feature-space callers (mutual-cover minima and the nearest-class-centre
readout) must match the reference bit for bit, including exact ties, which
go to the lower index.  So must the cover's grid integral, computed once per
step pattern, against the per-class loop that it replaced.
"""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import hierkit.kernels as kernels
import hierkit.manifold as manifold
from hierkit.collapse import ClassStats, nearest_mean_labels
from hierkit.kernels import _block_rows, _screen_slack, min_sq_distances, nearest_refs
from hierkit.manifold import CoverConfig, FeatureSet, _grid_integrals, cover_similarity


def _etf_case():
    # Entries are multiples of 1/8, so every distance below is exact and the
    # midpoint of two vertices is exactly equidistant from both.
    c = 8
    means = np.eye(c) - 1.0 / c
    mids = (means[:, None] + means[None]) / 2
    x = np.vstack([np.zeros((1, c)), mids.reshape(-1, c)])
    return x, means


def _duplicates_case():
    rng = np.random.default_rng(1)
    refs = rng.integers(-3, 4, size=(40, 3)).astype(float)
    refs = np.vstack([refs, refs[:10], refs[5:8]])
    x = np.vstack([refs[::3], rng.integers(-3, 4, size=(30, 3)) + 0.5])
    return x, refs


def _offset_gaussian_case():
    # Far from the origin, so the dot-product expansion of a squared distance
    # loses digits that the direct formula keeps.
    rng = np.random.default_rng(3)
    return rng.standard_normal((60, 16)) + 100.0, rng.standard_normal((90, 16)) + 100.0


def _multi_block_case():
    # 65,536 refs with p=2 give 2**22 // 65536 = 64-row blocks: 150 rows make 3.
    # The refs sit on a 41 x 41 grid, so most of them are duplicated.
    rng = np.random.default_rng(2)
    refs = rng.integers(-20, 21, size=(65536, 2)) * 0.3
    x = rng.standard_normal((150, 2)) * 6.0
    return x, refs


CASES = {"etf_ties": _etf_case, "duplicates": _duplicates_case,
         "offset_gaussian": _offset_gaussian_case, "multi_block": _multi_block_case}


def _cdist_rows(monkeypatch, workers, x, refs, starts):
    """Row count of every cdist call that min_sq_distances makes with ``workers``."""
    calls = []

    def recording(xa, *args, **kwargs):
        calls.append(len(xa))
        return cdist(xa, *args, **kwargs)

    monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(kernels, "cdist", recording)
    min_sq_distances(x, refs, starts)
    return calls


def test_multi_block_case_spans_three_blocks(monkeypatch):
    x, refs = _multi_block_case()
    calls = _cdist_rows(monkeypatch, 1, x, refs, np.arange(len(refs)))
    offsets = list(np.cumsum([0] + calls[:-1]))
    assert offsets == [0, 64, 128]
    # w workers split the 2**22-distance budget, so about 2**22 are in flight
    for workers, rows in ((2, 32), (3, 21)):
        calls = _cdist_rows(monkeypatch, workers, x, refs, np.arange(len(refs)))
        assert rows == _block_rows(len(refs)) // workers
        assert sorted(calls, reverse=True) == [rows] * (len(x) // rows) + [len(x) % rows]


@pytest.mark.parametrize("case", sorted(CASES))
def test_nearest_mean_labels_match_cdist(case):
    x, means = CASES[case]()
    c, p = means.shape
    stats = ClassStats(global_mean=means.mean(axis=0), class_means=means,
                       counts=np.ones(c, dtype=int), sigma_w=np.zeros((p, p)),
                       sigma_b=np.zeros((p, p)))
    f = FeatureSet(x, np.zeros(len(x), dtype=int), c)
    expected = np.argmin(cdist(x, means, "sqeuclidean"), axis=1)
    got = nearest_mean_labels(f, stats)
    assert np.array_equal(got, expected)
    if case == "etf_ties":
        pairs = [(i, j) for i in range(c) for j in range(c)]
        assert got[0] == 0
        assert list(got[1:]) == [min(i, j) for i, j in pairs]


@pytest.mark.parametrize("case", sorted(CASES))
def test_cover_minima_and_values_match_cdist(case):
    x, refs = CASES[case]()
    n_classes = 4
    # every class present, support rows not grouped by class
    ref_labels = np.random.default_rng(3).permutation(np.arange(len(refs)) % n_classes)
    query = FeatureSet(x, np.arange(len(x)) % n_classes, n_classes)
    support = FeatureSet(refs, ref_labels, n_classes)
    classes = np.arange(n_classes)
    expected = np.stack([cdist(x, refs[ref_labels == cc]).min(axis=1) for cc in classes],
                        axis=1)

    order = np.argsort(ref_labels, kind="stable")
    starts = np.searchsorted(ref_labels[order], classes)
    got = np.sqrt(min_sq_distances(x, refs[order], starts))
    assert np.array_equal(got, expected)

    sim = cover_similarity(query, support, CoverConfig(k=1, method="exact"))
    r_max = float(expected.max())
    contrib = np.clip(1.0 - expected / r_max, 0.0, 1.0)
    values = np.stack([contrib[query.labels == cc].mean(axis=0) for cc in classes])
    assert sim.r_max == r_max
    assert np.array_equal(sim.values, values)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_pooled_minima_match_serial_cdist(monkeypatch, case, workers):
    # The small cases make one block, so 2 and 3 workers exceed the blocks.
    x, refs = CASES[case]()
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
    d = cdist(x, refs, "sqeuclidean")
    assert np.array_equal(min_sq_distances(x, refs, np.arange(len(refs))), d)
    starts = np.unique(np.r_[0, np.random.default_rng(9).integers(1, len(refs), 5)])
    assert np.array_equal(min_sq_distances(x, refs, starts),
                          np.minimum.reduceat(d, starts, axis=1))


# --------------------------------------------- cover grid integral per pattern

def _loop_grid_values(mins, labels, grid, r_max):
    """The per-class loop of the grid cover: the reference for the pattern kernel."""
    classes = np.unique(labels)
    values = np.empty((classes.size, mins.shape[1]))
    for i, c in enumerate(classes):
        rows = mins[labels == c]
        p_r = (rows[:, :, None] < grid).mean(axis=0)
        values[i] = np.trapezoid(p_r, grid, axis=-1) / r_max
    return values


def _grid_case(counts, n_support, grid_points, seed):
    # Shuffled class rows, counts[c] of class c; a third of the distances sit
    # exactly on grid points, and r_max lies below the largest tenth of them.
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    mins = rng.gamma(4.0, size=(len(labels), n_support))
    r_max = float(np.quantile(mins, 0.9))
    grid = np.linspace(0.0, r_max, grid_points)
    on_grid = rng.random(mins.shape) < 1 / 3
    mins[on_grid] = grid[rng.integers(0, grid_points, on_grid.sum())]
    return mins, labels, grid, r_max


@pytest.mark.parametrize("counts, n_support, grid_points", [
    pytest.param([3] * 320, 320, 200, id="320-3-320-200"),
    pytest.param([5] * 40, 60, 7, id="40-5-60-7"),
    pytest.param([1] * 25, 30, 200, id="25-1-30-200"),
    pytest.param([2] * 12, 9, 2, id="12-2-9-2"),
    pytest.param([3, 4, 3, 5, 3, 1, 7, 1] * 6, 40, 50, id="unequal_counts"),
    # 202**10 and 5002**12 exceed 2**63: these patterns fit in no int64 key
    pytest.param([10] * 30, 40, 200, id="k10_202_pow_10_overflows"),
    pytest.param([12] * 20, 30, 5000, id="k12_5002_pow_12_reranks_twice"),
    # the pad len(grid) + 1 is 255, the largest uint8, then 256, a uint16
    pytest.param([4, 6, 5] * 10, 25, 254, id="uint8_pad_254"),
    pytest.param([4, 6, 5] * 10, 25, 255, id="uint16_pad_255"),
])
def test_pattern_integral_matches_the_loop(counts, n_support, grid_points):
    # ([3] * 320, 320) computes its step indices in two row chunks and
    # integrates its patterns in several chunks.
    mins, labels, grid, r_max = _grid_case(counts, n_support, grid_points, seed=len(counts))
    assert (mins > r_max).any() and np.isin(mins, grid).any()
    got = _grid_integrals(mins, labels, grid) / r_max
    assert np.array_equal(got, _loop_grid_values(mins, labels, grid, r_max))


def _step_sequences(mins, labels, grid, sort):
    """The distinct step-index sequences, one per (class, column) pair."""
    steps = np.searchsorted(grid, mins, side="right")
    return {tuple(np.sort(s) if sort else s) for c in np.unique(labels)
            for s in steps[labels == c].T}


def _reordered_pairs_case():
    # Class 0 in column 0 and class 1 in column 1 hold the same step indices in
    # different row orders, as do class 0 in column 1 and class 1 in column 0.
    labels = np.array([0, 1, 0, 1, 0, 1])
    mins = np.array([[0.1, 0.3], [0.6, 0.3], [0.6, 0.3], [0.3, 0.1], [0.3, 0.6], [0.3, 0.6]])
    return mins, labels, np.linspace(0.0, 1.0, 5)


@pytest.mark.parametrize("case", [
    pytest.param(_reordered_pairs_case, id="reordered_pairs"),
    pytest.param(lambda: _grid_case([3] * 40, 60, 7, seed=40)[:3], id="40-3-60-7"),
])
def test_each_sorted_pattern_is_integrated_once(monkeypatch, case):
    # Unsorted sequences would only split a pattern into groups with the same
    # integral, so the count of integrated patterns is what shows the sort.
    mins, labels, grid = case()
    patterns = _step_sequences(mins, labels, grid, sort=True)
    assert len(_step_sequences(mins, labels, grid, sort=False)) > len(patterns)
    rows = []
    trapezoid = np.trapezoid

    def spy(y, *args, **kwargs):
        rows.append(len(y))
        return trapezoid(y, *args, **kwargs)

    monkeypatch.setattr(np, "trapezoid", spy)
    _grid_integrals(mins, labels, grid)
    assert sum(rows) == len(patterns)


def _cover_inputs(counts, p=6, seed=10):
    """Query with counts[c] rows of class c, support with 2 rows per class."""
    rng = np.random.default_rng(seed)
    c = len(counts)
    q_labels = rng.permutation(np.repeat(np.arange(c), counts))
    s_labels = rng.permutation(np.repeat(np.arange(c), 2))
    query = FeatureSet(rng.standard_normal((len(q_labels), p)), q_labels, c)
    support = FeatureSet(rng.standard_normal((len(s_labels), p)), s_labels, c)
    mins = np.stack([cdist(query.vectors, support.vectors[s_labels == cc]).min(axis=1)
                     for cc in range(c)], axis=1)
    return query, support, mins


@pytest.mark.parametrize("counts, grid_points", [
    ([4] * 9, 50),
    ([3, 4, 3, 5, 3, 1], 50),   # unequal class counts
    ([10] * 5, 800),            # 802**10 overflows int64
])
def test_cover_similarity_grid_runs_the_one_kernel(monkeypatch, counts, grid_points):
    query, support, mins = _cover_inputs(counts)
    for r_max in (None, float(np.median(mins))):
        taken = []

        def spy(*args):
            taken.append(True)
            return _grid_integrals(*args)

        monkeypatch.setattr(manifold, "_grid_integrals", spy)
        sim = cover_similarity(query, support,
                               CoverConfig(k=1, r_max=r_max, grid_points=grid_points))
        used = r_max if r_max is not None else float(mins.max())
        grid = np.linspace(0.0, used, grid_points)
        assert taken == [True]
        assert sim.r_max == used
        assert np.array_equal(sim.values, _loop_grid_values(mins, query.labels, grid, used))


# ------------------------------------------------- nearest_refs: screen + refine

def _overflow_rows_case():
    # Rows near 1e155 square to inf, so their screen has no finite bound and
    # cdist (all inf) picks ref 0; the moderate rows share their blocks.
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 4))
    x[::3] *= 1e155
    return x, rng.standard_normal((20, 4))


def _overflow_ties_case():
    # Norms near 1e308 overflow every screen bound; cdist rows mix finite, inf
    # and exactly tied values (row 0: refs 1 and 3 are both 0.25 away).
    refs = np.array([[0.0, 0.0, 0.0], [1e154, 0.0, 0.0], [-1e154, 0.0, 0.0],
                     [1e154, 1.0, 0.0], [1.0, 2.0, 3.0]])
    x = np.array([[1e154, 0.5, 0.0], [1e155, 0.0, 0.0], [0.1, 0.2, 0.3],
                  [-1e154, 0.0, 1.0], [1e155, 1e155, 0.0]])
    return x, refs


def _class_means(x, y, c):
    means = np.zeros((c, x.shape[1]))
    np.add.at(means, y, x.astype(np.float64))
    return means / np.bincount(y, minlength=c)[:, None]


def _desk_case():
    # The criterion-6 shape: 60 classes of 20 examples, p=64.
    rng = np.random.default_rng(5)
    y = np.arange(1200) % 60
    x = rng.standard_normal((60, 64))[y] + 2.0 * rng.standard_normal((1200, 64))
    return x, _class_means(x, y, 60)


def _float32_classes_case():
    # float32 features and 1000 class means: 2**22 // 1000 = 4194-row blocks.
    rng = np.random.default_rng(6)
    y = np.arange(9000) % 1000
    x = (rng.standard_normal((1000, 32))[y]
         + rng.standard_normal((9000, 32))).astype(np.float32)
    return x, _class_means(x, y, 1000)


def _offset_ties_case():
    # Each row is the midpoint of two refs 1e5 from the origin.  The offsets are
    # multiples of 1/16 and fit the refs' ulp, so cdist sees exact ties; the
    # screen's norms round, so its own argmin breaks about a quarter of them
    # toward the higher index.
    rng = np.random.default_rng(8)
    base = 1e5 + 300.0 * rng.random((40, 8))
    step = rng.integers(-8, 9, size=(40, 8)) / 8.0
    refs = np.vstack([base, base + step])[rng.permutation(80)]
    return base + step / 2, refs


NEAREST_CASES = {**CASES, "offset_ties": _offset_ties_case, "overflow_rows": _overflow_rows_case,
                 "overflow_ties": _overflow_ties_case, "desk": _desk_case,
                 "float32_1000_classes": _float32_classes_case}
FINITE_CASES = sorted(set(NEAREST_CASES) - {"overflow_rows", "overflow_ties"})


def _screen(x, refs):
    x = x.astype(np.float64)
    xx, rr = np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->i", refs, refs)
    return (xx[:, None] - 2.0 * (x @ refs.T)) + rr, xx, rr


@pytest.mark.parametrize("case", sorted(NEAREST_CASES))
def test_nearest_refs_match_cdist(case):
    x, refs = NEAREST_CASES[case]()
    expected = np.argmin(cdist(x, refs, "sqeuclidean"), axis=1)
    assert np.array_equal(nearest_refs(x, refs), expected)


def test_float32_case_spans_several_blocks():
    x, refs = _float32_classes_case()
    assert x.dtype == np.float32 and len(refs) == 1000
    assert len(x) > 2 * _block_rows(len(refs))


def test_offset_ties_case_needs_the_refine():
    x, refs = _offset_ties_case()
    d = np.sort(cdist(x, refs, "sqeuclidean"), axis=1)
    assert (d[:, 0] == d[:, 1]).all()
    s, _, _ = _screen(x, refs)
    assert not np.array_equal(np.argmin(s, axis=1),
                              np.argmin(cdist(x, refs, "sqeuclidean"), axis=1))


def test_overflow_rows_have_no_finite_screen():
    for case in (_overflow_rows_case, _overflow_ties_case):
        x, refs = case()
        with np.errstate(over="ignore"):
            assert np.isinf(np.einsum("ij,ij->i", x, x)).any()


@pytest.mark.parametrize("case", sorted(NEAREST_CASES))
def test_cdist_value_does_not_depend_on_the_rest_of_the_call(case):
    # nearest_refs re-runs cdist on a subset of rows and columns and relies on
    # each pair getting the bits it gets in the full call.
    x, refs = NEAREST_CASES[case]()
    full = cdist(x, refs, "sqeuclidean")
    rng = np.random.default_rng(7)
    rows = np.sort(rng.choice(len(x), size=min(len(x), 9), replace=False))
    cols = np.sort(rng.choice(len(refs), size=min(len(refs), 5), replace=False))
    np.testing.assert_array_equal(cdist(x[rows], refs[cols], "sqeuclidean"),
                                  full[np.ix_(rows, cols)])
    np.testing.assert_array_equal(cdist(x[rows[-1:]], refs[cols[:1]], "sqeuclidean"),
                                  full[rows[-1:], cols[:1]][:, None])


@pytest.mark.parametrize("p", [1, 2, 64, 512, 10**6])
def test_screen_slack_is_at_least_the_derived_bound(p):
    # |screen - cdist| <= 4 gamma_{p+2} (|x|^2 + max |r|^2), gamma_n = n u / (1 - n u)
    u = 2.0**-53
    xx, rr_max = np.array([0.0, 1.0, 3.5e7, 1e300]), 2.0
    bound = 4 * (p + 2) * u / (1 - (p + 2) * u) * (xx + rr_max)
    assert (_screen_slack(xx, rr_max, p) >= bound).all()


@pytest.mark.parametrize("case", FINITE_CASES)
def test_screen_slack_covers_the_observed_error(case):
    x, refs = NEAREST_CASES[case]()
    s, xx, rr = _screen(x, refs)
    slack = _screen_slack(xx, rr.max(), x.shape[1])
    assert (np.abs(s - cdist(x, refs, "sqeuclidean")) <= slack[:, None]).all()


def test_nearest_refs_edge_shapes():
    refs = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert nearest_refs(np.zeros((0, 2)), refs).shape == (0,)
    assert nearest_refs(np.ones((3, 2)), refs[:1]).tolist() == [0, 0, 0]
    with pytest.raises(ValueError, match="at least one reference point"):
        nearest_refs(np.ones((3, 2)), np.zeros((0, 2)))
