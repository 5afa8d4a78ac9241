"""The blocked nearest-distance kernels against a direct, unblocked cdist.

hierkit's exact sum (``kernels._sq_distances``) must give cdist's bits, and
both feature-space callers (mutual-cover minima and the nearest-class-centre
readout) must match the reference bit for bit, including exact ties, which
go to the lower index.  So must the cover's grid integral, computed once per
step pattern, against the per-class loop that it replaced, and the screened
step indices and r_max of the grid cover against those of the exact minima.
"""

import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

import hierkit.kernels as kernels
import hierkit.manifold as manifold
from hierkit.collapse import ClassStats, nearest_mean_labels
from hierkit.kernels import (GroupScreen, _block_rows, _screen_block, _screen_slack,
                             min_sq_distances, nearest_refs)
from hierkit.manifold import (CoverConfig, FeatureSet, _grid_integrals, _sort_columns,
                              cover_similarity, split_query_support)


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


def _recording_exact_sum(record):
    """kernels._sq_distances, calling ``record(x, refs_t)`` first."""
    exact = kernels._sq_distances

    def recording(x, refs_t):
        record(x, refs_t)
        return exact(x, refs_t)
    return recording


def _exact_rows(monkeypatch, workers, x, refs, starts):
    """Row count of every exact-sum call that min_sq_distances makes with ``workers``."""
    calls = []
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(kernels, "_sq_distances",
                        _recording_exact_sum(lambda xa, refs_t: calls.append(len(xa))))
    min_sq_distances(x, refs, starts)
    return calls


def test_multi_block_case_spans_three_blocks(monkeypatch):
    x, refs = _multi_block_case()
    calls = _exact_rows(monkeypatch, 1, x, refs, np.arange(len(refs)))
    offsets = list(np.cumsum([0] + calls[:-1]))
    assert offsets == [0, 64, 128]
    # w workers split the 2**22-distance budget, so about 2**22 are in flight
    for workers, rows in ((2, 32), (3, 21)):
        calls = _exact_rows(monkeypatch, workers, x, refs, np.arange(len(refs)))
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

def _padded_steps(mins, grid):
    """The padded step-index array that _grid_integrals takes, from distances."""
    pad = grid.size + 1
    steps = np.full((len(mins) + 1, mins.shape[1]), pad, dtype=np.min_scalar_type(pad))
    steps[:-1] = np.searchsorted(grid, mins, side="right")
    return steps


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
    # ([3] * 320, 320) integrates its patterns in several chunks.
    mins, labels, grid, r_max = _grid_case(counts, n_support, grid_points, seed=len(counts))
    assert (mins > r_max).any() and np.isin(mins, grid).any()
    got = _grid_integrals(_padded_steps(mins, grid), labels, grid) / r_max
    assert np.array_equal(got, _loop_grid_values(mins, labels, grid, r_max))


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), dtype=st.sampled_from([np.uint8, np.uint16]), k=st.integers(1, 12))
def test_network_sort_is_numpy_sort(data, dtype, k):
    # The step indices of a class padded to the largest class: runs of the pad
    # value len(grid) + 1 in any row, up to the largest value of the dtype.
    pad = data.draw(st.integers(1, int(np.iinfo(dtype).max)), label="pad")
    m = data.draw(st.integers(1, 30), label="columns")
    values = st.one_of(st.just(pad), st.integers(0, pad), st.integers(0, 3))
    a = np.array(data.draw(st.lists(values, min_size=k * m, max_size=k * m)),
                 dtype=dtype).reshape(k, m)
    want = np.sort(a, axis=0)
    _sort_columns(a)
    assert a.dtype == dtype and np.array_equal(a, want)


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
    _grid_integrals(_padded_steps(mins, grid), labels, grid)
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


@pytest.mark.parametrize("grid_points", [200, 5000])
def test_cover_similarity_at_median_r_max_matches_the_loop(monkeypatch, grid_points):
    # Clustered features, k=5, in row blocks of 16: a median r_max cuts through
    # the minima, so the step indices vary, unlike at a ceiling above them all.
    rng = np.random.default_rng(12)
    c, k, p = 40, 5, 24
    labels = np.repeat(np.arange(c), 2 * k)
    vectors = rng.standard_normal((c, p))[labels] * 3.0 + rng.standard_normal((len(labels), p))
    query, support = split_query_support(FeatureSet(vectors, labels, c), CoverConfig(k=k))
    mins = np.stack([cdist(query.vectors, support.vectors[support.labels == cc]).min(axis=1)
                     for cc in range(c)], axis=1)
    monkeypatch.setattr(kernels, "_block_rows", lambda n_refs: 16)
    r_max = float(np.median(mins))
    sim = cover_similarity(query, support, CoverConfig(k=k, r_max=r_max, grid_points=grid_points))
    values = _loop_grid_values(mins, query.labels, np.linspace(0.0, r_max, grid_points), r_max)
    assert np.unique(values).size > 100
    assert np.array_equal(sim.values, values)


def test_grid_cover_runs_cdist_on_few_rows(monkeypatch):
    # Only the r_max candidate rows go through min_sq_distances, and only without
    # an r_max; the exact method still runs the exact sum on every query row.
    query, support, mins = _cover_inputs([4] * 9)
    calls = {"_sq_distances": [], "min_sq_distances": []}

    def spy(name, func):
        def recording(xa, *args, **kwargs):
            calls[name].append(len(xa))
            return func(xa, *args, **kwargs)
        monkeypatch.setattr(kernels, name, recording)

    spy("_sq_distances", kernels._sq_distances)
    spy("min_sq_distances", min_sq_distances)
    for r_max, method in ((None, "grid"), (float(np.median(mins)), "grid"), (None, "exact")):
        for rows in calls.values():
            rows.clear()
        cover_similarity(query, support, CoverConfig(k=1, r_max=r_max, method=method))
        if method == "exact":
            assert sum(calls["_sq_distances"]) == len(query)
            continue
        assert sum(calls["_sq_distances"]) < len(query)
        if r_max is None:
            assert len(calls["min_sq_distances"]) == 1
            assert 1 <= calls["min_sq_distances"][0] < len(query)
        else:
            assert calls["min_sq_distances"] == []


# ---------------------------------------- cover screen: step indices and r_max

def _groups(n_refs, n_groups, seed):
    """Starts of n_groups non-empty groups of unequal sizes over n_refs refs."""
    rng = np.random.default_rng(seed)
    return np.r_[0, np.sort(rng.choice(np.arange(1, n_refs), n_groups - 1, replace=False))]


def _squared_distance_like(rows, cols):
    """Non-negative values with +0.0, inf and nan, as squared distances can hold."""
    rng = np.random.default_rng(rows + cols)
    d = rng.gamma(2.0, size=(rows, cols))
    for value, share in ((0.0, 0.1), (np.inf, 0.05), (np.nan, 0.05)):
        d[rng.random(d.shape) < share] = value
    if rows:
        d[0], d[-1] = np.inf, np.nan
    return d


@pytest.mark.parametrize("rows", [0, 1, 37])
@pytest.mark.parametrize("starts", [
    pytest.param(np.arange(0, 60, k), id=f"equal_{k}") for k in (1, 2, 5, 12, 60)] + [
    pytest.param(np.arange(0, 60, 7), id="last_group_shorter"),
    pytest.param(_groups(60, 9, 25), id="unequal"),
])
def test_group_minima_match_reduceat(starts, rows):
    d = _squared_distance_like(rows, 60)
    want = np.minimum.reduceat(d, starts, axis=1)
    assert np.array_equal(kernels._group_minima(d, starts).view(np.uint64), want.view(np.uint64))
    out = np.full((rows + 2, len(starts)), -1.0)
    inner = out[1:-1]
    assert kernels._group_minima(d, starts, out=inner) is inner
    assert np.array_equal(inner.view(np.uint64), want.view(np.uint64))
    assert (out[[0, -1]] == -1.0).all()


def _lattice_screen_case():
    # Integer features: every squared distance is an integer, so the grids of
    # integers and of square roots of integers hold distances exactly.
    rng = np.random.default_rng(20)
    return (rng.integers(-3, 4, size=(70, 3)).astype(float),
            rng.integers(-3, 4, size=(90, 3)).astype(float), _groups(90, 12, 20))


def _max_row_case():
    rng = np.random.default_rng(21)
    x, refs = rng.standard_normal((40, 8)), rng.standard_normal((50, 8))
    starts = _groups(50, 7, 21)
    return x, x[np.argmax(min_sq_distances(x, refs, starts).max(axis=1))], refs, starts


def _tied_max_case():
    # The row holding the largest minimum appears four times.
    x, top, refs, starts = _max_row_case()
    return np.vstack([top, x, top, top]), refs, starts


def _near_max_case():
    # That row with one coordinate moved by multiples of 8 floats, in place of
    # the row: one row holds the largest minimum, the others lie 1 to 6 floats
    # below it, far closer than E.
    x, top, refs, starts = _max_row_case()
    near = np.repeat(top[None], 7, axis=0)
    for i, row in enumerate(near):
        for _ in range(8 * i):
            row[6] = np.nextafter(row[6], np.inf)
    keep = ~(x == top).all(axis=1)
    return np.vstack([near[:3], x[keep], near[3:]]), refs, starts


def _zero_distance_case():
    # Half the query rows are support rows, so their minimum over one group is 0.
    rng = np.random.default_rng(22)
    refs = rng.standard_normal((60, 5))
    return np.vstack([refs[::2], rng.standard_normal((30, 5))]), refs, _groups(60, 9, 22)


def _near_overflow_case():
    # |x| of 1e150 to 1e155: from 1e154 on, 4 (|x|^2 + max |r|^2) is not finite
    # and the rows have no bound; at 1e155 the exact minima are inf.
    rng = np.random.default_rng(23)
    x = rng.standard_normal((40, 4))
    x[::5] *= 1e150
    x[1::5] *= 1e153
    x[2::5] *= 1e154
    x[3::5] *= 1e155
    return x, rng.standard_normal((30, 4)), _groups(30, 6, 23)


def _float32_screen_case():
    # float32 features 100 from the origin, as the cover reads them from file.
    rng = np.random.default_rng(24)
    return ((rng.standard_normal((60, 16)) + 100).astype(np.float32),
            (rng.standard_normal((80, 16)) + 100).astype(np.float32), _groups(80, 16, 24))


SCREEN_CASES = {"lattice": _lattice_screen_case, "tied_max": _tied_max_case,
                "near_max": _near_max_case,
                "zero_distances": _zero_distance_case, "near_overflow": _near_overflow_case,
                "float32": _float32_screen_case}


def _exact_steps(x, refs, starts, grid):
    mins = min_sq_distances(x, refs, starts)
    return np.searchsorted(grid, np.sqrt(mins), side="right"), float(mins.max())


def _screened_steps(x, refs, starts, grid):
    screen = GroupScreen(x, refs, starts)
    out = np.zeros((len(x), len(starts)), dtype=np.uint16)
    screen.step_indices(grid, out)
    return out, screen.largest_minimum()


def _hard_grids(x, refs, starts):
    """Grids through the minima, on them, near the screen, and subnormal."""
    mins = min_sq_distances(x, refs, starts)
    d = np.sqrt(mins[np.isfinite(mins)])
    top, mid = float(d.max()), float(np.median(d))
    screen = GroupScreen(x, refs, starts)
    s, e = screen.minima, screen.slack[:, None]
    with np.errstate(invalid="ignore"):
        near = np.concatenate([s + t * e for t in (-1.0, -0.5, 0.0, 0.5, 1.0)], axis=None)
    near = np.sqrt(near[np.isfinite(near) & (near >= 0)])
    # grid[66] of the first near-linspace grid lies within E of a screened minimum
    pick = np.sqrt(s[np.isfinite(s) & (s > 0)][::7])
    grids = {
        "default": np.linspace(0.0, top, 200),
        "5000": np.linspace(0.0, top, 5000),
        "median": np.linspace(0.0, mid, 200),
        "on_distances": np.unique(np.r_[0.0, d]),
        "near_screen": np.unique(np.r_[0.0, near]),
        "subnormal_200": np.linspace(0.0, 1e-320, 200),
        "subnormal_5000": np.linspace(0.0, 1e-320, 5000),
    }
    for i, r in enumerate(pick[:5]):
        grids[f"near_linspace_{i}"] = np.linspace(0.0, r * 199 / 66, 200)
    if np.array_equal(x, np.round(x)):
        grids["integers"] = np.linspace(0.0, np.ceil(top), int(np.ceil(top)) + 1)
        grids["sqrt_integers"] = np.sqrt(np.arange(int(mins.max()) + 1.0))
    return grids


@pytest.mark.parametrize("block_rows", [None, 3])
@pytest.mark.parametrize("case", sorted(SCREEN_CASES))
def test_screened_steps_and_r_max_match_the_exact_minima(monkeypatch, case, block_rows):
    x, refs, starts = SCREEN_CASES[case]()
    if block_rows is not None:
        monkeypatch.setattr(kernels, "_block_rows", lambda n_refs: block_rows)
    for name, grid in _hard_grids(x, refs, starts).items():
        got, largest = _screened_steps(x, refs, starts, grid)
        want, exact_largest = _exact_steps(x, refs, starts, grid)
        assert np.array_equal(got, want), name
        assert largest == exact_largest or np.isnan(largest) and np.isnan(exact_largest)


def test_hard_grids_reach_the_exact_fallback(monkeypatch):
    # The grids above put grid points inside screen intervals: the fallback runs.
    rows = []
    x, refs, starts = _zero_distance_case()
    grids = _hard_grids(x, refs, starts)
    monkeypatch.setattr(kernels, "_sq_distances",
                        _recording_exact_sum(lambda xa, refs_t: rows.append(len(xa))))
    for name in ("near_screen", "near_linspace_0", "on_distances"):
        rows.clear()
        _screened_steps(x, refs, starts, grids[name])
        assert rows, name


def _check_thresholds(grid):
    # t[g] is the least float whose square root reaches grid[g], and every c a
    # squared distance can be (>= 0 or nan) takes the index of sqrt(c) from t.
    t = kernels._thresholds(grid)
    positive = grid > 0
    assert (t[~positive] == -np.inf).all() and (t[1:] >= t[:-1]).all()
    with np.errstate(invalid="ignore"):
        assert (np.sqrt(t[positive]) >= grid[positive]).all()
        assert (np.sqrt(np.nextafter(t[positive], -np.inf)) < grid[positive]).all()
        c = np.r_[t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), 0.0, -0.0, np.inf, np.nan]
        c = c[~(c < 0)]
        want = np.searchsorted(grid, np.sqrt(c), side="right")
    assert np.array_equal(np.searchsorted(t, c, side="right"), want)


# subnormal and normal ends, and ends whose square underflows or overflows
_THRESHOLD_ENDS = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-160, 1.4916681462400413e-154,
                   1e-150, 0.3, 1.0, 89.5, 1.3407807929942596e154, 1.3407807929942597e154,
                   1e155, 1e200, 1e300]


@pytest.mark.parametrize("n", [2, 3, 200, 1001])
@pytest.mark.parametrize("r", _THRESHOLD_ENDS)
def test_squared_thresholds_give_the_steps_of_the_roots(r, n):
    _check_thresholds(np.linspace(0.0, r, n))


@settings(max_examples=200, deadline=None, database=None)
@given(r=st.floats(min_value=5e-324, max_value=1e300), n=st.sampled_from([2, 3, 200, 1001]))
def test_squared_thresholds_hold_for_any_linspace_end(r, n):
    _check_thresholds(np.linspace(0.0, r, n))


def _worker_cover_case():
    """(query, support, order, starts) of a 30-class cover split, k = 5: 150
    query rows.  On a 50-point grid that ends at the largest minimum, the row
    holding it has a threshold inside its interval, so it is refined."""
    rng = np.random.default_rng(14)
    c, k, p = 30, 5, 16
    labels = np.repeat(np.arange(c), 2 * k)
    vectors = rng.standard_normal((c, p))[labels] * 3.0 + rng.standard_normal((len(labels), p))
    query, support = split_query_support(FeatureSet(vectors, labels, c), CoverConfig(k=k))
    order = np.argsort(support.labels, kind="stable")
    return query, support, order, np.searchsorted(support.labels[order], np.arange(c))


def test_grid_cover_does_not_depend_on_the_worker_count(monkeypatch):
    # Blocks and step slices of 5 rows, integral chunks of 5 patterns: each
    # block splits into one screen slab per worker, and every worker takes
    # several slabs, slices and chunks.
    query, support, order, starts = _worker_cover_case()
    c, k = len(starts), 5
    monkeypatch.setattr(kernels, "_block_rows", lambda width: 5)
    monkeypatch.setattr(manifold, "_block_rows", lambda width: 5)
    exact, got = kernels._sq_minima, []

    def recording(x, *args, **kwargs):
        refined.append(len(x))
        return exact(x, *args, **kwargs)

    for workers in (1, 2, 3):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
        sim = cover_similarity(query, support, CoverConfig(k=k, grid_points=50))
        grid = np.linspace(0.0, sim.r_max, 50)
        screen = GroupScreen(query.vectors, support.vectors[order], starts)
        steps = np.zeros((len(query), c), dtype=np.uint8)
        refined = []
        with monkeypatch.context() as m:
            m.setattr(kernels, "_sq_minima", recording)
            screen.step_indices(grid, steps)
        assert 1 <= sum(refined) < len(query)
        got.append((sim.values, sim.r_max, steps))
    values, r_max, steps = got[0]
    assert np.array_equal(steps, _exact_steps(query.vectors, support.vectors[order], starts, grid)[0])
    assert len(np.unique(values)) > 100
    for other_values, other_r_max, other_steps in got[1:]:
        assert np.array_equal(other_values.view(np.uint64), values.view(np.uint64))
        assert other_r_max == r_max
        assert np.array_equal(other_steps, steps)


@pytest.mark.parametrize("workers, absent", [(1, False), (2, False), (3, False), (2, True)],
                         ids=["1", "2", "3", "2_no_pin"])
def test_screen_slabs_give_the_exact_steps_and_r_max(monkeypatch, workers, absent):
    # Each pooled task screens one slab of 7 rows, or the 3-row tail.  With two
    # workers or more the tasks run on pool threads at one BLAS thread, and the
    # count is restored after the screen; where the pin's symbols are absent
    # (forced here) the slabs run one after another on the calling thread.  The
    # steps, some of them refined, and r_max are those of the exact minima.
    query, support, order, starts = _worker_cover_case()
    x, refs = query.vectors, support.vectors[order]
    mins = min_sq_distances(x, refs, starts)
    grid = np.linspace(0.0, np.sqrt(mins.max()), 50)
    if absent:
        monkeypatch.setattr(kernels, "_blas_threads", ())
    api = kernels._blas_thread_api()
    count = api[0] if api else lambda: None
    before = count()
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(kernels, "_block_rows", lambda width: 7 * workers)
    calls, exact, refined = [], kernels._sq_minima, []

    def spy(xb, refs, rr):
        calls.append((len(xb), threading.get_ident(), count()))
        return _screen_block(xb, refs, rr)

    def recording(xa, *args, **kwargs):
        refined.append(len(xa))
        return exact(xa, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(kernels, "_screen_block", spy)
        screen = GroupScreen(x, refs, starts)
    assert count() == before
    assert sorted(rows for rows, _, _ in calls) == [3] + [7] * 21
    threads = {thread for _, thread, _ in calls}
    if api and workers > 1:
        assert threading.get_ident() not in threads
        assert {c for _, _, c in calls} == {1}
    else:
        assert threads == {threading.get_ident()}
    steps = np.zeros((len(x), len(starts)), dtype=np.uint8)
    with monkeypatch.context() as m:
        m.setattr(kernels, "_sq_minima", recording)
        screen.step_indices(grid, steps)
    assert 1 <= sum(refined) < len(x)
    assert np.array_equal(steps, np.searchsorted(grid, np.sqrt(mins), side="right"))
    assert screen.largest_minimum() == mins.max()


def _one_float_off(c, slack, sign):
    # exactly cdist moved one float, with E = 0: only the widening covers it
    return np.nextafter(c, sign * np.inf), np.zeros_like(slack)


def _nine_tenths_of_e_off(c, slack, sign):
    # 0.9 E plus at most half a float away, so still within E: the bound itself
    with np.errstate(invalid="ignore"):
        return c + sign * (0.9 * slack[:, None]), slack


@pytest.mark.parametrize("case", sorted(SCREEN_CASES))
@pytest.mark.parametrize("offset", [_one_float_off, _nine_tenths_of_e_off],
                         ids=["one_float", "nine_tenths_of_E"])
def test_a_screen_at_its_bound_still_gives_the_exact_steps(monkeypatch, case, offset):
    # The GEMM screen errs by less than a third of E, so a screen that is
    # cdist moved up or down by up to its bound stands in for the worst case.
    # The grid holds every exact distance and its neighbours.
    # Even rows read high and odd rows low; in the near_max case the row of the
    # largest minimum reads low and the row one float below it reads high.
    x, refs, starts = SCREEN_CASES[case]()

    def moved(xb, refs, rr):
        c = cdist(xb, refs, "sqeuclidean")
        _, slack = _screen_block(xb, refs, rr)
        return offset(c, slack, np.where(np.arange(len(xb)) % 2, -1.0, 1.0)[:, None])

    mins = min_sq_distances(x, refs, starts)
    d = mins[np.isfinite(mins)]
    grid = np.unique(np.sqrt(np.r_[0.0, d, np.nextafter(d, np.inf), np.nextafter(d, 0.0)]))
    want, exact_largest = _exact_steps(x, refs, starts, grid)
    monkeypatch.setattr(kernels, "_screen_block", moved)
    got, largest = _screened_steps(x, refs, starts, grid)
    assert np.array_equal(got, want)
    assert largest == exact_largest


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


def _float32_midpoint_ties_case():
    # The ETF midpoints as float32 rows: multiples of 1/16, so still exact ties.
    x, means = _etf_case()
    return x.astype(np.float32), means


def _float32_offset_ties_case():
    # offset_ties at a scale float32 holds: integer bases near 1e3, steps of 1/8
    # and midpoints of 1/16 are exact in float32, so cdist ties every row.
    rng = np.random.default_rng(16)
    base = np.round(1e3 + 300.0 * rng.random((40, 8)))
    step = rng.integers(-8, 9, size=(40, 8)) / 8.0
    refs = np.vstack([base, base + step])[rng.permutation(80)]
    return (base + step / 2).astype(np.float32), refs


def _float32_scale_case(scale):
    # Rows and class means at one scale: from about 1e19 |x|^2 overflows float32
    # (no bound), near 1e-20 it is subnormal and near 1e-30 it underflows to 0.
    def case():
        rng = np.random.default_rng(17)
        y = np.arange(60) % 6
        x = ((rng.standard_normal((6, 4))[y] + rng.standard_normal((60, 4))) * scale)
        x = x.astype(np.float32)
        return x, _class_means(x, y, 6)
    return case


def _float32_overflow_rows_case():
    # Every third row near 1e19, so its float32 |x|^2 overflows, beside moderate
    # rows in the same blocks.
    rng = np.random.default_rng(18)
    x = rng.standard_normal((30, 4))
    x[::3] *= 1e19
    return x.astype(np.float32), rng.standard_normal((20, 4))


def _float32_p1_case():
    # p = 1: refs on a grid of 1/4 and off it, rows on a grid of 1/8 between them.
    rng = np.random.default_rng(19)
    refs = np.vstack([rng.integers(-40, 41, size=(30, 1)) / 4.0,
                      rng.standard_normal((10, 1)) * 5.0])
    return (rng.integers(-170, 171, size=(200, 1)) / 8.0).astype(np.float32), refs


def _float32_merged_means_case():
    # Means i and i + 20 differ in float64 but round to the same float32 row, so
    # the screen ties them; cdist puts the float32 row itself nearer to i + 20,
    # and the row one float below nearer to i.
    rng = np.random.default_rng(20)
    base = rng.standard_normal((20, 6)).astype(np.float32)
    ulp = np.spacing(base).astype(np.float64)
    refs = np.vstack([base - 0.2 * ulp, base + 0.1 * ulp])
    return np.vstack([base, np.nextafter(base, -np.inf)]), refs


def _float32_ref_overflow_case():
    # One float64 ref beyond float32's range: its float32 |r~|^2 is inf, so no
    # row has a bound.
    rng = np.random.default_rng(21)
    refs = rng.standard_normal((12, 5))
    refs[7, 2] = 1e39
    return rng.standard_normal((40, 5)).astype(np.float32), refs


FLOAT32_CASES = {"float32_midpoint_ties": _float32_midpoint_ties_case,
                 "float32_offset_ties": _float32_offset_ties_case,
                 **{f"float32_scale_1e{e}": _float32_scale_case(10.0 ** e)
                    for e in (-30, -20, 0, 19, 30)},
                 "float32_overflow_rows": _float32_overflow_rows_case,
                 "float32_ref_overflow": _float32_ref_overflow_case,
                 "float32_p1": _float32_p1_case, "float32_merged_means": _float32_merged_means_case}
NEAREST_CASES = {**CASES, "offset_ties": _offset_ties_case, "overflow_rows": _overflow_rows_case,
                 "overflow_ties": _overflow_ties_case, "desk": _desk_case,
                 "float32_1000_classes": _float32_classes_case, **FLOAT32_CASES}
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
    assert len(x) > 2 * _block_rows(max(refs.shape))


def test_nearest_refs_blocks_count_the_float64_row_copy(monkeypatch):
    # 10 refs at p=512: blocks of 2**22 // 10 rows would cast 419,430 rows to
    # float64 at once, 1.6 GB; the wider of refs and dimension sizes the block.
    asked = []
    monkeypatch.setattr(kernels, "_block_rows", lambda width: asked.append(width) or 7)
    rng = np.random.default_rng(15)
    x = rng.standard_normal((20, 512)).astype(np.float32)
    refs = rng.standard_normal((10, 512))
    assert np.array_equal(nearest_refs(x, refs),
                          np.argmin(cdist(x, refs, "sqeuclidean"), axis=1))
    assert asked == [512]


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


def _float32_derived_bound(xx, rr_max, p):
    """The float32 bound on |screen - cdist| derived in _screen_slack's docstring."""
    u = 2.0**-24
    gamma = lambda n: n * u / (1 - n * u)  # noqa: E731
    a = xx.astype(np.float64) + float(rr_max)
    return (2 * gamma(p + 2) + 5 * u) * (1 + 4 * u) * a / (1 - gamma(p)) + 6 * p * 2.0**-149


@pytest.mark.parametrize("p", [1, 2, 64, 512, 10**6])
def test_float32_screen_slack_is_at_least_the_derived_bound(p):
    xx, rr_max = np.array([0.0, 1.0, 3.5e7, 1e37], dtype=np.float32), np.float32(2.0)
    slack = _screen_slack(xx, rr_max, p)
    assert slack.dtype == np.float64
    assert (slack >= _float32_derived_bound(xx, rr_max, p)).all()
    # 4 (|x|^2 + max |r|^2) beyond float32, and p beyond the proof: no bound
    assert np.isinf(_screen_slack(np.array([1e38], dtype=np.float32), rr_max, p)).all()
    assert np.isinf(_screen_slack(xx, rr_max, 4 * 10**6)).all()


def _float32_screen(x, refs):
    """The float32 screen of _screen_block and its bound, for rows cast to float32."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, r = x.astype(np.float32), refs.astype(np.float32)
        s, slack = _screen_block(x, r, np.einsum("ij,ij->i", r, r))
    return x, s, slack


FLOAT32_UNBOUNDED = {"float32_scale_1e19", "float32_scale_1e30", "float32_overflow_rows",
                     "float32_ref_overflow"}


@pytest.mark.parametrize("case", FINITE_CASES)
def test_float32_screen_slack_covers_the_observed_error(case):
    # Every case with its rows cast to float32, against cdist of those rows and
    # the float64 refs; only where |x|^2 or |r~|^2 overflows float32 is there
    # no bound.
    x, refs = NEAREST_CASES[case]()
    x, s, slack = _float32_screen(x, refs)
    bounded = np.isfinite(slack)
    assert bounded.all() or case in FLOAT32_UNBOUNDED
    assert s.dtype == np.float32
    err = np.abs(s[bounded].astype(np.float64) - cdist(x[bounded], refs, "sqeuclidean"))
    assert (err <= slack[bounded, None]).all()


@pytest.mark.parametrize("block_rows", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(FLOAT32_CASES))
def test_float32_nearest_refs_match_cdist_in_small_blocks(monkeypatch, case, block_rows):
    x, refs = FLOAT32_CASES[case]()
    monkeypatch.setattr(kernels, "_block_rows", lambda width: block_rows)
    assert np.array_equal(nearest_refs(x, refs), np.argmin(cdist(x, refs, "sqeuclidean"), axis=1))


@pytest.mark.parametrize("case", ["float32_merged_means", "float32_offset_ties",
                                  "float32_scale_1e-30", "float32_scale_1e30"])
def test_float32_hard_cases_need_the_refine(case):
    # The float32 screen's own argmin is wrong on these rows; only the refine
    # gives the cdist labels that test_nearest_refs_match_cdist checks.
    x, refs = FLOAT32_CASES[case]()
    _, s, _ = _float32_screen(x, refs)
    assert not np.array_equal(np.argmin(s, axis=1),
                              np.argmin(cdist(x, refs, "sqeuclidean"), axis=1))
    if case == "float32_merged_means":
        r32 = refs.astype(np.float32)
        assert np.array_equal(r32[:20], r32[20:]) and not np.array_equal(refs[:20], refs[20:])


def _screen_dtypes(monkeypatch, run):
    """(row dtype, ref dtype) of every _screen_block call that ``run`` makes."""
    seen = []

    def recording(xb, refs, rr):
        seen.append((xb.dtype, refs.dtype))
        return _screen_block(xb, refs, rr)

    with monkeypatch.context() as m:
        m.setattr(kernels, "_screen_block", recording)
        run()
    return set(seen)


def test_only_float32_rows_screen_in_float32(monkeypatch):
    # nearest_refs screens float32 rows in float32 and every other row in
    # float64; GroupScreen, the cover, screens in float64 whatever the rows.
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    x, refs = _float32_classes_case()
    assert _screen_dtypes(monkeypatch, lambda: nearest_refs(x, refs)) == {(f32, f32)}
    for case in ("desk", "offset_ties"):
        x, refs = NEAREST_CASES[case]()
        assert _screen_dtypes(monkeypatch, lambda: nearest_refs(x, refs)) == {(f64, f64)}
    x, refs, starts = _float32_screen_case()
    assert _screen_dtypes(monkeypatch, lambda: GroupScreen(x, refs, starts)) == {(f64, f64)}


def test_float32_screen_refines_few_rows(monkeypatch):
    # None of the 9000 rows reach cdist under the derived bound; one 40 times
    # looser sends more than 9 there.
    x, refs = _float32_classes_case()
    rows, exact = [], kernels._sq_minima

    def recording(xa, *args, **kwargs):
        rows.append(len(xa))
        return exact(xa, *args, **kwargs)

    monkeypatch.setattr(kernels, "_sq_minima", recording)
    nearest_refs(x, refs)
    assert sum(rows) <= len(x) // 1000


def test_nearest_refs_edge_shapes():
    refs = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert nearest_refs(np.zeros((0, 2)), refs).shape == (0,)
    assert nearest_refs(np.ones((3, 2)), refs[:1]).tolist() == [0, 0, 0]
    with pytest.raises(ValueError, match="at least one reference point"):
        nearest_refs(np.ones((3, 2)), np.zeros((0, 2)))


# ------------------------------------ one exact call: unsettled rows, whole

def test_unsettled_rows_take_their_whole_exact_row(monkeypatch):
    # GroupScreen and nearest_refs settle what the screen cannot by the row, so
    # every exact-sum call they make gets all the refs: no column subset is gathered.
    calls = []
    recording = _recording_exact_sum(lambda xa, refs_t: calls.append((case, refs_t.shape[1])))

    for case in sorted(SCREEN_CASES):
        x, refs, starts = SCREEN_CASES[case]()
        grids = _hard_grids(x, refs, starts)  # runs the exact minima: not spied
        with monkeypatch.context() as m:
            m.setattr(kernels, "_sq_distances", recording)
            for grid in grids.values():
                screen = GroupScreen(x, refs, starts)
                screen.step_indices(grid, np.zeros((len(x), len(starts)), dtype=np.uint16))
        assert all(width == len(refs) for c, width in calls if c == case), case
    for case in sorted(NEAREST_CASES):
        x, refs = NEAREST_CASES[case]()
        with monkeypatch.context() as m:
            m.setattr(kernels, "_sq_distances", recording)
            nearest_refs(x, refs)
        assert all(width == len(refs) for c, width in calls if c == case), case
    assert {"zero_distances", "near_overflow", "offset_ties", "overflow_rows",
            "overflow_ties"} <= {c for c, _ in calls}


def test_exact_cover_of_one_class_keeps_numpy_mean():
    # With one class the contributions are one column, which numpy's mean sums
    # pairwise: for these 40 rows that differs from a sum in query order.
    rng = np.random.default_rng(13)
    query = FeatureSet(rng.standard_normal((40, 3)), np.zeros(40, dtype=int), 1)
    support = FeatureSet(rng.standard_normal((40, 3)), np.zeros(40, dtype=int), 1)
    mins = cdist(query.vectors, support.vectors).min(axis=1, keepdims=True)
    contrib = np.clip(1.0 - mins / mins.max(), 0.0, 1.0)
    assert np.cumsum(contrib)[-1] / 40 != contrib.mean()
    sim = cover_similarity(query, support, CoverConfig(k=1, method="exact"))
    assert sim.r_max == float(mins.max())
    assert np.array_equal(sim.values, contrib.mean(axis=0, keepdims=True))


# ------------------------------------------------- the exact sum against cdist

def _scaled_case(p, scale):
    # Near ties at one scale: rows at midpoints of two refs, moved by a few
    # parts in 10**9, and rows drawn as the refs are.
    def case():
        rng = np.random.default_rng(p)
        refs = rng.standard_normal((23, p)) * scale
        mids = (refs[:6] + refs[6:12]) / 2
        x = np.vstack([mids * (1 + 1e-9 * rng.standard_normal((6, p))), mids,
                       rng.standard_normal((9, p)) * scale])
        return x, refs
    return case


def _exact_sum_cases():
    scaled = {f"p{p}_scale_1e{e}": _scaled_case(p, 10.0 ** e)
              for p in (1, 2, 3, 64, 512) for e in (-150, -30, 0, 30, 150)}
    screen = {f"screen_{name}": (lambda case=case: case()[:2])
              for name, case in SCREEN_CASES.items()}
    return {**NEAREST_CASES, **screen, **scaled}


@pytest.mark.parametrize("rows", [1, 2, 3, None])
@pytest.mark.parametrize("case", sorted(_exact_sum_cases()))
def test_exact_sum_is_cdist_bit_for_bit(monkeypatch, case, rows):
    # float32 rows are cast to float64, as they were for cdist; the first 61
    # rows make a short last pass at the default pass size.
    x, refs = _exact_sum_cases()[case]()
    x = x[:61]
    if rows is not None:
        monkeypatch.setattr(kernels, "_EXACT_ROWS", rows)
    want = cdist(x.astype(np.float64), refs, "sqeuclidean")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels._sq_minima(x, refs)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_exact_sum_overflows_to_inf_without_a_warning():
    # Squares and sums beyond float64, float32 rows near their largest value,
    # and inf - inf, which gives nan as in cdist.
    x = np.array([[1e200, 0.0], [1e155, 1e155], [1.0, 2.0], [np.inf, 0.0]])
    refs = np.array([[-1e200, 0.0], [0.0, 0.0], [np.inf, 1.0]])
    x32 = np.array([[3e38, -3e38], [1.0, 0.0]], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels._sq_minima(x, refs)
        got32 = kernels._sq_minima(x32, refs[:2])
    want = cdist(x, refs, "sqeuclidean")
    assert np.isinf(got[:2]).all() and np.isinf(got[:3, 2]).all() and np.isnan(got[3, 2])
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(got32, cdist(x32.astype(np.float64), refs[:2], "sqeuclidean"))
    # float32 rows are squared in float64: 3e38 squares to 9e76, not inf
    assert np.isinf(got32[0, 0]) and np.isfinite(got32[0, 1])


def test_exact_sum_reuses_transposed_refs():
    # The transpose of a transpose is taken as it is; any other refs are copied.
    refs = np.random.default_rng(30).standard_normal((300, 7))
    refs_t = kernels._transposed(refs)
    assert refs_t.flags.c_contiguous and np.array_equal(refs_t, refs.T)
    assert not np.shares_memory(refs_t, refs)
    assert np.shares_memory(kernels._transposed(refs_t.T), refs_t)



def test_refines_reuse_the_screens_refs(monkeypatch):
    # The screen transposes the refs once; every exact row after that, the r_max
    # rows and the step-index refines, sums against that same array.
    query, support, _ = _cover_inputs([4] * 9)
    screens, transposes, refined = [], [], []
    transposed = kernels._transposed

    def spy(refs):
        transposes.append(transposed(refs))
        return transposes[-1]

    class Spy(GroupScreen):
        def __init__(self, *args):
            super().__init__(*args)
            screens.append(self)

        def step_indices(self, grid, out):
            before = len(transposes)
            super().step_indices(grid, out)
            refined.append(len(transposes) - before)

    monkeypatch.setattr(kernels, "_transposed", spy)
    monkeypatch.setattr(manifold, "GroupScreen", Spy)
    cover_similarity(query, support, CoverConfig(k=1))
    assert len(screens) == 1 and refined[0] >= 1 and len(transposes) > 2
    assert all(np.shares_memory(t, screens[0].refs) for t in transposes[1:])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sorted_support_is_freed_once_screened(monkeypatch, dtype):
    # cover_similarity keeps no name for the class-sorted support: the screen's
    # float64 copy is all that is left of it when the step indices run.
    rng = np.random.default_rng(31)
    f = FeatureSet(rng.standard_normal((60, 8)).astype(dtype), np.arange(60) % 6, 6)
    alive = []

    class Spy(GroupScreen):
        def __init__(self, x, refs, starts):
            self.given = weakref.ref(refs)
            super().__init__(x, refs, starts)

        def step_indices(self, grid, out):
            alive.append(self.given() is not None)
            super().step_indices(grid, out)

    monkeypatch.setattr(manifold, "GroupScreen", Spy)
    cfg = CoverConfig(k=3, seed=0)
    cover_similarity(*split_query_support(f, cfg), cfg)
    assert alive == [False]
