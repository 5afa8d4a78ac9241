import warnings

import numpy as np
import pytest

from hierkit import manifold
from hierkit.hierarchy import DistanceMatrix
from hierkit.manifold import (CoverConfig, FeatureSet, SimilarityMatrix, ccc,
                              cover_similarity, cover_stats,
                              split_query_support, to_distance_matrix)
from hierkit.rng import substream


def _pair(points_q, points_s, labels_q, labels_s, c):
    q = FeatureSet(np.asarray(points_q, dtype=float), np.asarray(labels_q), c)
    s = FeatureSet(np.asarray(points_s, dtype=float), np.asarray(labels_s), c)
    return q, s


class TestCoverConfig:
    @pytest.mark.parametrize("r_max, shown", [(0, "0.0"), (-1, "-1.0"), (float("nan"), "nan")])
    def test_r_max_not_positive(self, r_max, shown):
        with pytest.raises(ValueError) as e:
            CoverConfig(k=1, r_max=r_max)
        assert str(e.value) == f"r_max must be > 0, got {shown}"

    def test_r_max_infinite(self):
        with pytest.raises(ValueError) as e:
            CoverConfig(k=1, r_max=float("inf"))
        assert str(e.value) == "r_max must be finite, got inf"

    @pytest.mark.parametrize("points", [2**63, 10**20])
    def test_grid_points_beyond_int64(self, points):
        # np.linspace raised IndexError at 2**63 points
        with pytest.raises(ValueError) as e:
            CoverConfig(k=1, grid_points=points)
        assert str(e.value) == f"grid_points {points} does not fit in int64"

    def test_subnormal_r_max_without_warning(self):
        # distances 0 and 1: only the first lies within r_max = 1e-320
        q, s = _pair([[0.0], [1.0]], [[0.0], [2.0]], [0, 0], [0, 0], 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = cover_similarity(q, s, CoverConfig(k=1, r_max=1e-320, method="exact"))
            grid = cover_similarity(q, s, CoverConfig(k=1, r_max=1e-320))
        assert exact.values[0, 0] == 0.5
        assert 0.0 < grid.values[0, 0] <= 0.5


class TestSplit:
    def test_exactly_2k_all_used(self):
        f = FeatureSet(np.arange(8, dtype=float).reshape(4, 2),
                       np.array([0, 0, 0, 0]), 1)
        q, s = split_query_support(f, CoverConfig(k=2, seed=0))
        used = np.sort(np.concatenate([q.vectors[:, 0], s.vectors[:, 0]]))
        assert np.array_equal(used, np.array([0.0, 2.0, 4.0, 6.0]))
        assert len(q) == len(s) == 2

    def test_seed_determinism(self):
        rng = np.random.default_rng(0)
        f = FeatureSet(rng.standard_normal((40, 3)), np.repeat([0, 1], 20), 2)
        q1, s1 = split_query_support(f, CoverConfig(k=5, seed=9))
        q2, s2 = split_query_support(f, CoverConfig(k=5, seed=9))
        assert np.array_equal(q1.vectors, q2.vectors)
        assert np.array_equal(s1.vectors, s2.vectors)

    def test_disjoint_per_class(self):
        rng = np.random.default_rng(1)
        # unique coordinates make row identity checkable through values
        vals = rng.permutation(100).astype(float).reshape(50, 2)
        f = FeatureSet(vals, np.repeat(np.arange(5), 10), 5)
        q, s = split_query_support(f, CoverConfig(k=4, seed=3))
        qset = {tuple(v) for v in q.vectors}
        sset = {tuple(v) for v in s.vectors}
        assert not qset & sset
        for c in range(5):
            assert (q.labels == c).sum() == 4
            assert (s.labels == c).sum() == 4

    def test_too_few_examples_rejected(self):
        f = FeatureSet(np.zeros((3, 1)), np.array([0, 0, 0]), 1)
        with pytest.raises(ValueError, match="needs >= 4"):
            split_query_support(f, CoverConfig(k=2, seed=0))

    @staticmethod
    def _per_class_scans(f, cfg):
        """Query and support rows found by one full scan of the labels per class:
        the construction split_query_support must match."""
        query_idx, support_idx = [], []
        rng = substream(cfg.seed, 0)
        for c in f.present_classes():
            idx = np.flatnonzero(f.labels == c)
            chosen = idx[rng.permutation(idx.size)[:2 * cfg.k]]
            query_idx.append(chosen[:cfg.k])
            support_idx.append(chosen[cfg.k:])
        return np.concatenate(query_idx), np.concatenate(support_idx)

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_per_class_scans(self, seed, k):
        # shuffled labels, unequal class sizes, one class of exactly 2k, absent classes
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat([0, 2, 3, 7], [6, 2 * k, 11, 9]))
        f = FeatureSet(rng.standard_normal((len(labels), 3)).astype(np.float32), labels, 9,
                       epoch=4)
        cfg = CoverConfig(k=k, seed=seed)
        q, s = split_query_support(f, cfg)
        for got, idx in zip((q, s), self._per_class_scans(f, cfg)):
            assert got.vectors.dtype == np.float32
            assert np.array_equal(got.vectors, f.vectors[idx])
            assert np.array_equal(got.labels, f.labels[idx])
            assert (got.class_count, got.epoch) == (9, 4)

    def test_first_short_class_is_named(self):
        # classes 1 (3 rows) and 3 (2 rows) are both short of 2k = 4
        f = FeatureSet(np.zeros((9, 1)), np.array([5, 3, 5, 1, 3, 5, 1, 1, 5]), 6)
        with pytest.raises(ValueError, match=r"^class 1 has 3 examples, needs >= 4 for k=2$"):
            split_query_support(f, CoverConfig(k=2, seed=0))


class TestCoverSimilarity:
    def test_hand_oracle_grid(self):
        q, s = _pair([[0.0], [1.0]], [[0.0], [2.0]], [0, 0], [0, 0], 1)
        rho = cover_similarity(q, s, CoverConfig(k=1, r_max=2.0)).values[0, 0]
        assert rho == pytest.approx(0.75, abs=0.01)

    def test_hand_oracle_exact(self):
        q, s = _pair([[0.0], [1.0]], [[0.0], [2.0]], [0, 0], [0, 0], 1)
        cfg = CoverConfig(k=1, r_max=2.0, method="exact")
        assert cover_similarity(q, s, cfg).values[0, 0] == pytest.approx(0.75, abs=1e-12)

    def test_grid_error_shrinks_linearly(self):
        q, s = _pair([[0.0], [1.0]], [[0.0], [2.0]], [0, 0], [0, 0], 1)
        errs = []
        for g in (50, 100, 200, 400):
            rho = cover_similarity(q, s, CoverConfig(k=1, r_max=2.0, grid_points=g))
            errs.append(abs(rho.values[0, 0] - 0.75))
        assert errs[0] > errs[1] > errs[2] > errs[3]
        assert 2.0 < errs[0] / errs[3] < 16.0

    def test_identical_points_give_one(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        q = FeatureSet(pts, np.zeros(3, dtype=int), 1)
        s = FeatureSet(pts.copy(), np.zeros(3, dtype=int), 1)
        cfg = CoverConfig(k=1, r_max=1.0, grid_points=200)
        rho = cover_similarity(q, s, cfg).values[0, 0]
        assert rho == pytest.approx(1.0, abs=1.0 / 199)
        exact = cover_similarity(q, s, CoverConfig(k=1, r_max=1.0, method="exact"))
        assert exact.values[0, 0] == 1.0

    def test_far_classes_give_zero(self):
        q, s = _pair([[0.0]], [[5.0]], [0], [0], 1)
        for method in ("grid", "exact"):
            cfg = CoverConfig(k=1, r_max=5.0, method=method)
            assert cover_similarity(q, s, cfg).values[0, 0] == 0.0

    def test_default_r_max_rule(self):
        q, s = _pair([[0.0], [1.0]], [[0.0], [2.0]], [0, 0], [0, 0], 1)
        sim = cover_similarity(q, s, CoverConfig(k=1, method="exact"))
        # min distances are 0 and 1; the default ceiling is their max
        assert sim.r_max == 1.0

    def test_label_set_mismatch_rejected(self):
        q, s = _pair([[0.0]], [[0.0]], [0], [1], 2)
        with pytest.raises(ValueError, match="label sets differ"):
            cover_similarity(q, s, CoverConfig(k=1, r_max=1.0))

    @pytest.mark.parametrize("method", ["grid", "exact"])
    @pytest.mark.parametrize("empty", ["query", "support"])
    def test_empty_set_named_before_any_kernel(self, monkeypatch, method, empty):
        """An empty set is refused by name, as the split of a set with no rows gives it."""
        def kernel(*args, **kwargs):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(manifold, "min_sq_distances", kernel)
        monkeypatch.setattr(manifold, "GroupScreen", kernel)
        q, s = split_query_support(FeatureSet(np.zeros((0, 3)), np.zeros(0, int), 3),
                                   CoverConfig(k=2))
        other = FeatureSet(np.zeros((1, 3)), np.zeros(1, int), 3)
        q, s = (q, other) if empty == "query" else (other, s)
        for r_max in (None, 1.0):
            with pytest.raises(ValueError, match=f"^{empty} set is empty$"):
                cover_similarity(q, s, CoverConfig(k=2, r_max=r_max, method=method))

    def test_grid_matches_exact_within_resolution(self):
        rng = np.random.default_rng(5)
        vec = rng.standard_normal((60, 4))
        labels = np.repeat(np.arange(3), 20)
        means = np.array([[0, 0, 0, 0], [3, 0, 0, 0], [0, 3, 0, 0]], dtype=float)
        f = FeatureSet(vec + means[labels], labels, 3)
        q, s = split_query_support(f, CoverConfig(k=10, seed=2))
        a = cover_similarity(q, s, CoverConfig(k=10, grid_points=800)).values
        b = cover_similarity(q, s, CoverConfig(k=10, method="exact")).values
        np.testing.assert_allclose(a, b, atol=2e-3)
        assert (a >= 0).all() and (a <= 1).all()


class TestToDistanceMatrix:
    def test_symmetric_entry(self):
        a = SimilarityMatrix(labels=[0, 1], values=np.array([[1.0, 0.25],
                                                             [0.25, 1.0]]))
        d = to_distance_matrix(a)
        assert d.values[0, 1] == 0.75

    def test_asymmetric_pair_averaged(self):
        a = SimilarityMatrix(labels=[0, 1], values=np.array([[1.0, 0.2],
                                                             [0.4, 1.0]]))
        assert to_distance_matrix(a).values[0, 1] == pytest.approx(0.7)

    def test_identity_similarity(self):
        a = SimilarityMatrix(labels=[0, 1, 2], values=np.eye(3))
        d = to_distance_matrix(a)
        off = d.values[~np.eye(3, dtype=bool)]
        assert (off == 1.0).all()
        assert (np.diagonal(d.values) == 0.0).all()


class TestCcc:
    def _d(self, values):
        return DistanceMatrix(labels=list(range(values.shape[0])), values=values)

    def test_identity_exactly_one(self):
        a = np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], dtype=float)
        assert ccc(self._d(a), self._d(a.copy())) == 1.0

    def test_affine_exactly_one(self):
        a = np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], dtype=float)
        b = np.where(np.eye(3) > 0, 0.0, 2 * a + 5)
        assert ccc(self._d(a), self._d(b)) == 1.0

    def test_negative_affine_exactly_minus_one(self):
        a = np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], dtype=float)
        b = np.where(np.eye(3) > 0, 0.0, 10 - 2 * a)
        assert ccc(self._d(a), self._d(b)) == -1.0

    def test_hand_oracle(self):
        x = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        y = np.array([[0, 0.2, 0.9], [0.2, 0, 0.3], [0.9, 0.3, 0]])
        assert ccc(self._d(x), self._d(y)) == pytest.approx(0.9912, abs=0.001)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(3)
        m = rng.random((4, 4))
        a = np.where(np.eye(4) > 0, 0.0, (m + m.T) / 2)
        m2 = rng.random((4, 4))
        b = np.where(np.eye(4) > 0, 0.0, (m2 + m2.T) / 2)
        assert ccc(self._d(a), self._d(b)) == ccc(self._d(b), self._d(a))

    def test_zero_variance_rejected(self):
        a = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        const = np.where(np.eye(3) > 0, 0.0, 1.0)
        with pytest.raises(ValueError, match="zero variance"):
            ccc(self._d(a), self._d(const))

    def test_label_order_mismatch_rejected(self):
        a = np.zeros((2, 2))
        d1 = DistanceMatrix(labels=[0, 1], values=a)
        d2 = DistanceMatrix(labels=[1, 0], values=a)
        with pytest.raises(ValueError, match="label"):
            ccc(d1, d2)


class TestCoverStats:
    def test_identity(self):
        a = SimilarityMatrix(labels=[0, 1, 2], values=np.eye(3))
        assert cover_stats(a) == (1.0, 0.0)

    def test_uniform_half(self):
        a = SimilarityMatrix(labels=[0, 1], values=np.full((2, 2), 0.5))
        assert cover_stats(a) == (0.5, 0.5)

    def test_hand_means(self):
        a = SimilarityMatrix(labels=[0, 1], values=np.array([[1.0, 0.2],
                                                             [0.4, 0.9]]))
        self_cover, mutual = cover_stats(a)
        assert self_cover == pytest.approx(0.95)
        assert mutual == pytest.approx(0.3)


class TestFeatureSetValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            FeatureSet(np.array([[np.nan]]), np.array([0]), 1)

    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            FeatureSet(np.zeros((1, 2)), np.array([5]), 2)

    def test_float32_preserved(self):
        f = FeatureSet(np.zeros((2, 2), dtype=np.float32), np.array([0, 1]), 2)
        assert f.vectors.dtype == np.float32

    def test_integer_input_upcast(self):
        f = FeatureSet(np.zeros((2, 2), dtype=int), np.array([0, 1]), 2)
        assert f.vectors.dtype == np.float64
