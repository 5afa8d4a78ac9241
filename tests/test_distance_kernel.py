"""The blocked nearest-distance kernel against a direct, unblocked cdist.

Both feature-space callers (mutual-cover minima and the nearest-class-centre
readout) must match the reference bit for bit, including exact ties, which
go to the lower index.
"""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from hierkit.collapse import ClassStats, nearest_mean_labels
from hierkit.manifold import (CoverConfig, FeatureSet, cover_similarity,
                              min_sq_distance_blocks)


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


def test_multi_block_case_spans_three_blocks():
    x, refs = _multi_block_case()
    offsets = [lo for lo, _ in min_sq_distance_blocks(x, refs, np.arange(len(refs)))]
    assert offsets == [0, 64, 128]


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
    got = np.vstack([np.sqrt(b) for _, b in min_sq_distance_blocks(x, refs[order], starts)])
    assert np.array_equal(got, expected)

    sim = cover_similarity(query, support, CoverConfig(k=1, method="exact"))
    r_max = float(expected.max())
    contrib = np.clip(1.0 - expected / r_max, 0.0, 1.0)
    values = np.stack([contrib[query.labels == cc].mean(axis=0) for cc in classes])
    assert sim.r_max == r_max
    assert np.array_equal(sim.values, values)
