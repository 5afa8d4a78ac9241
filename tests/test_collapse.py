import tracemalloc
import warnings

import numpy as np
import pytest

import hierkit.collapse as collapse
import hierkit.kernels as kernels
from hierkit.collapse import (ClassStats, ClassifierHead, _linear_labels, class_statistics,
                              lift_to_superclass, nc1, nc2_metrics,
                              nc3_self_duality, nc4_mismatch, nc_report,
                              nearest_mean_labels)
from hierkit.labelspace import LabelSpace
from hierkit.manifold import FeatureSet
from hierkit.synth import gen_etf
from test_distance_kernel import NEAREST_CASES


def _stats(class_means, global_mean=None, counts=None, sigma_w=None, sigma_b=None):
    m = np.asarray(class_means, dtype=float)
    c, p = m.shape
    if global_mean is None:
        global_mean = m.mean(axis=0)
    if counts is None:
        counts = np.ones(c, dtype=int)
    if sigma_w is None:
        sigma_w = np.zeros((p, p))
    if sigma_b is None:
        dev = m - global_mean
        sigma_b = dev.T @ dev / c
    return ClassStats(global_mean=global_mean, class_means=m, counts=counts,
                      sigma_w=sigma_w, sigma_b=sigma_b)


def _random_setup(seed, n_per=20, c=6, p=10):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(c), n_per)
    means = rng.standard_normal((c, p)) * 3
    x = means[labels] + rng.standard_normal((labels.size, p))
    f = FeatureSet(x, labels, c)
    head = ClassifierHead(weights=rng.standard_normal((c, p)),
                          bias=rng.standard_normal(c))
    return f, head


class TestClassStatistics:
    def test_identical_examples_zero_scatter(self):
        f = FeatureSet(np.ones((6, 3)), np.repeat([0, 1], 3), 2)
        st = class_statistics(f)
        assert not st.sigma_w.any()
        assert not st.sigma_b.any()
        np.testing.assert_array_equal(st.counts, [3, 3])

    def test_plus_minus_one_between_scatter(self):
        f = FeatureSet(np.array([[-1.0], [-1.0], [1.0], [1.0]]),
                       np.array([0, 0, 1, 1]), 2)
        st = class_statistics(f)
        np.testing.assert_allclose(st.sigma_b, [[1.0]])
        np.testing.assert_allclose(st.sigma_w, [[0.0]])
        np.testing.assert_allclose(st.class_means, [[-1.0], [1.0]])
        np.testing.assert_allclose(st.global_mean, [0.0])

    def test_within_scatter_hand_value(self):
        # class 0 at -1 and 1 around mean 0: per-example deviation 1
        f = FeatureSet(np.array([[-1.0], [1.0], [5.0]]), np.array([0, 0, 1]), 2)
        st = class_statistics(f)
        np.testing.assert_allclose(st.sigma_w, [[2.0 / 3.0]])

    def test_duplication_invariance(self):
        f, _ = _random_setup(0)
        doubled = FeatureSet(np.vstack([f.vectors, f.vectors]),
                             np.concatenate([f.labels, f.labels]), f.class_count)
        a, b = class_statistics(f), class_statistics(doubled)
        np.testing.assert_allclose(a.class_means, b.class_means, atol=1e-12)
        np.testing.assert_allclose(a.sigma_w, b.sigma_w, atol=1e-12)
        np.testing.assert_allclose(a.sigma_b, b.sigma_b, atol=1e-12)

    def test_empty_class_rejected(self):
        f = FeatureSet(np.zeros((2, 1)), np.array([0, 1]), 3)
        with pytest.raises(ValueError, match="class 2 has no examples"):
            class_statistics(f)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [1, 2, 64])
    def test_matches_the_float64_copy(self, dtype, p):
        # The statistics once worked on x = vectors.astype(float64); they now
        # read the vectors directly.  N > 8192 spans several of numpy's cast
        # buffers, and unsorted labels take the sorted class-sum path.
        rng = np.random.default_rng(p)
        n, c = 20_000, 30
        labels = rng.integers(0, c, n)
        f = FeatureSet((rng.standard_normal((c, p))[labels] * 5
                        + rng.standard_normal((n, p)) + 3).astype(dtype), labels, c)
        st = class_statistics(f)
        x = f.vectors.astype(np.float64, copy=False)
        global_mean = x.mean(axis=0)
        dev_w = st.class_means[f.labels]
        np.subtract(x, dev_w, out=dev_w)
        dev_b = st.class_means - global_mean
        assert np.array_equal(st.global_mean, global_mean)
        assert np.array_equal(st.sigma_w, dev_w.T @ dev_w / n)
        assert np.array_equal(st.sigma_b, dev_b.T @ dev_b / c)

    def test_scatter_symmetry_enforced(self):
        with pytest.raises(ValueError, match="not symmetric"):
            ClassStats(global_mean=np.zeros(2), class_means=np.zeros((2, 2)),
                       counts=[1, 1], sigma_w=np.array([[0.0, 1.0], [0.0, 0.0]]),
                       sigma_b=np.zeros((2, 2)))


class TestNc1:
    def test_zero_within_scatter(self):
        st = _stats([[-1.0], [1.0]], sigma_w=np.zeros((1, 1)))
        assert nc1(st) == 0.0

    def test_hand_value(self):
        st = _stats([[-1.0], [1.0]], sigma_w=np.array([[1.0]]),
                    sigma_b=np.array([[2.0]]))
        assert nc1(st) == pytest.approx(0.25)

    def test_scale_invariance(self):
        f, _ = _random_setup(1)
        a = nc1(class_statistics(f))
        g = FeatureSet(f.vectors * 7.5, f.labels, f.class_count)
        b = nc1(class_statistics(g))
        assert a == pytest.approx(b, rel=1e-9)

    def test_zero_between_scatter_pinv(self):
        st = _stats([[1.0], [1.0]], global_mean=np.array([1.0]),
                    sigma_w=np.array([[3.0]]), sigma_b=np.zeros((1, 1)))
        assert nc1(st) == 0.0


class TestNc2:
    def test_etf_is_perfectly_regular(self):
        for c in (2, 5, 16):
            means = gen_etf(c, dim=c + 3)
            st = _stats(means, global_mean=np.zeros(c + 3))
            head = ClassifierHead(weights=means, bias=np.zeros(c))
            n2 = nc2_metrics(st, head)
            assert abs(n2.beta_mu) < 1e-12
            assert abs(n2.alpha_mu) < 1e-12
            assert abs(n2.beta_w) < 1e-12
            assert abs(n2.alpha_w) < 1e-12

    def test_hand_values(self):
        st = _stats([[1.0, 0.0], [0.0, 2.0]], global_mean=np.zeros(2))
        head = ClassifierHead(weights=np.array([[1.0, 0.0], [0.0, 2.0]]),
                              bias=np.zeros(2))
        n2 = nc2_metrics(st, head)
        # norms 1 and 2: popstd 0.5, mean 1.5
        assert n2.beta_mu == pytest.approx(1.0 / 3.0)
        assert n2.alpha_mu == 0.0
        assert n2.beta_w == pytest.approx(1.0 / 3.0)

    def test_scaled_weights_match_mean_stats(self):
        f, _ = _random_setup(2)
        st = class_statistics(f)
        head = ClassifierHead(weights=3.7 * (st.class_means - st.global_mean),
                              bias=np.zeros(st.class_count))
        n2 = nc2_metrics(st, head)
        assert n2.beta_w == pytest.approx(n2.beta_mu, rel=1e-12)
        assert n2.alpha_w == pytest.approx(n2.alpha_mu, rel=1e-12)

    def test_zero_centered_mean_rejected(self):
        st = _stats([[1.0, 1.0], [1.0, 1.0]])
        head = ClassifierHead(weights=np.eye(2), bias=np.zeros(2))
        with pytest.raises(ValueError, match="zero-length centered class mean"):
            nc2_metrics(st, head)

    def test_head_size_mismatch_rejected(self):
        st = _stats([[1.0], [-1.0]])
        head = ClassifierHead(weights=np.ones((3, 1)), bias=np.zeros(3))
        with pytest.raises(ValueError, match="does not match"):
            nc2_metrics(st, head)


class TestNc3:
    def test_proportional_weights_give_zero(self):
        f, _ = _random_setup(3)
        st = class_statistics(f)
        head = ClassifierHead(weights=2.5 * (st.class_means - st.global_mean),
                              bias=np.zeros(st.class_count))
        assert nc3_self_duality(st, head) == pytest.approx(0.0, abs=1e-12)

    def test_anti_aligned_weights_give_two(self):
        f, _ = _random_setup(4)
        st = class_statistics(f)
        head = ClassifierHead(weights=-(st.class_means - st.global_mean),
                              bias=np.zeros(st.class_count))
        assert nc3_self_duality(st, head) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_hand_value(self):
        st = _stats([[0.0, 1.0]], global_mean=np.zeros(2))
        head = ClassifierHead(weights=np.array([[1.0, 0.0]]), bias=np.zeros(1))
        assert nc3_self_duality(st, head) == pytest.approx(np.sqrt(2.0))

    def test_zero_weights_rejected(self):
        st = _stats([[0.0, 1.0]], global_mean=np.zeros(2))
        head = ClassifierHead(weights=np.zeros((1, 2)), bias=np.zeros(1))
        with pytest.raises(ValueError, match="nc3 undefined"):
            nc3_self_duality(st, head)


class TestNc4:
    def test_dual_head_agrees_with_ncc(self):
        f, _ = _random_setup(5)
        st = class_statistics(f)
        head = ClassifierHead(weights=st.class_means,
                              bias=-0.5 * (st.class_means ** 2).sum(axis=1))
        assert nc4_mismatch(f, st, head) == 0.0

    def test_hand_disagreement(self):
        st = _stats([[0.0], [1.0]], counts=[1, 1])
        head = ClassifierHead(weights=np.array([[0.0], [10.0]]),
                              bias=np.array([0.0, -9.0]))
        # at h=0.85 the linear rule says class 0, NCC says class 1
        f = FeatureSet(np.array([[0.85]]), np.array([0]), 2)
        assert nc4_mismatch(f, st, head) == 1.0

    def test_ties_break_low_in_both_rules(self):
        st = _stats([[0.0], [1.0]])
        head = ClassifierHead(weights=np.array([[1.0], [1.0]]),
                              bias=np.zeros(2))
        f = FeatureSet(np.array([[0.5]]), np.array([1]), 2)
        assert nearest_mean_labels(f, st)[0] == 0
        assert nc4_mismatch(f, st, head) == 0.0

    def test_labels_ignored(self):
        f, head = _random_setup(6)
        st = class_statistics(f)
        relabeled = FeatureSet(f.vectors, np.zeros_like(f.labels), f.class_count)
        assert nc4_mismatch(f, st, head) == nc4_mismatch(relabeled, st, head)


def _exact_scores(x, head):
    """t_c per row: the float64 sum, from +0.0, over the dimensions in index
    order, of the rounded products x_i w_ci, plus b_c; a plain loop."""
    x = x.astype(np.float64)
    t = np.zeros((len(x), head.class_count))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(x.shape[1]):
            t += x[:, j, None] * head.weights[:, j]
        return t + head.bias


def _exact_labels(x, head):
    return np.argmax(_exact_scores(x, head), axis=1)


def _dual_head(refs):
    # argmax_c x.r_c - |r_c|^2 / 2 is the nearest ref: every case of the
    # nearest-ref kernel is a linear readout case, its ties and near ties included
    refs = np.asarray(refs, dtype=np.float64)
    return ClassifierHead(weights=refs, bias=-0.5 * np.einsum("ij,ij->i", refs, refs))


def _dual_case(case):
    def make():
        x, refs = case()
        return x, _dual_head(refs)
    return make


def _near_tie_case(dtype):
    # Weight rows i and i + 20 differ by one float64 in one coordinate and share
    # a bias, so where one of them wins a row, it beats the other by about
    # 1e-16: rounded to float32 they are one row, and a float64 GEMM errs by as
    # much as the gap.
    rng = np.random.default_rng(30)
    base = rng.standard_normal((20, 6))
    moved = base.copy()
    moved[:, 2] = np.nextafter(moved[:, 2], np.inf)
    bias = np.tile(rng.standard_normal(20) * 0.1, 2)
    x = np.vstack([base, rng.standard_normal((40, 6))]).astype(dtype)
    return x, ClassifierHead(weights=np.vstack([base, moved]), bias=bias)


def _exact_tie_case(dtype):
    # Integer rows and weights, duplicated weight rows and biases: every score is
    # an exact integer, and class c ties with class c + 3 wherever it wins.
    rng = np.random.default_rng(31)
    w = rng.integers(-4, 5, size=(3, 5)).astype(float)
    head = ClassifierHead(weights=np.vstack([w, w]), bias=np.array([1.0, 0, 2, 1, 0, 2]))
    return rng.integers(-4, 5, size=(50, 5)).astype(dtype), head


def _scaled_case(x_scale, w_scale, dtype):
    # rows x_scale, weights w_scale and biases their product: from 1e19 the
    # float32 |x|^2 overflows, and at 1e-30 every float32 product underflows
    def case():
        rng = np.random.default_rng(32)
        x = (rng.standard_normal((40, 8)) * x_scale).astype(dtype)
        return x, ClassifierHead(weights=rng.standard_normal((12, 8)) * w_scale,
                                 bias=rng.standard_normal(12) * (x_scale * w_scale))
    return case


def _beyond_float32_case(where):
    # one weight, one bias or (float64 rows) one coordinate beyond float32's range
    def case():
        rng = np.random.default_rng(33)
        x, w, b = rng.standard_normal((30, 5)), rng.standard_normal((9, 5)), rng.standard_normal(9)
        {"weights": w, "bias": b[None], "rows": x}[where][0, 1] = 1e39
        return (x if where == "rows" else x.astype(np.float32)), ClassifierHead(weights=w, bias=b)
    return case


def _zero_rows_case(dtype):
    # zero rows score b exactly: distinct biases pick their argmax, equal ones 0
    def case():
        rng = np.random.default_rng(34)
        x = np.vstack([np.zeros((5, 7)), rng.standard_normal((10, 7)), np.zeros((5, 7))])
        b = rng.standard_normal(6) if dtype == np.float32 else np.zeros(6)
        return x.astype(dtype), ClassifierHead(weights=rng.standard_normal((6, 7)), bias=b)
    return case


def _p1_case():
    rng = np.random.default_rng(35)
    x = (rng.integers(-40, 41, size=(100, 1)) / 8.0).astype(np.float32)
    return x, ClassifierHead(weights=rng.integers(-8, 9, size=(9, 1)) / 4.0,
                             bias=rng.integers(-8, 9, size=9) / 2.0)


LINEAR_CASES = {
    # float32_1000_classes is test_screen_settles_most_rows' alone: its exact
    # scores take a second
    **{f"dual_{name}": _dual_case(case)
       for name, case in NEAREST_CASES.items() if name != "float32_1000_classes"},
    "near_ties_float32": lambda: _near_tie_case(np.float32),
    "near_ties_float64": lambda: _near_tie_case(np.float64),
    "exact_ties_float32": lambda: _exact_tie_case(np.float32),
    "exact_ties_float64": lambda: _exact_tie_case(np.float64),
    **{f"scale_x1e{ex}_w1e{ew}_{d.__name__}": _scaled_case(10.0 ** ex, 10.0 ** ew, d)
       for ex, ew in ((30, 0), (-30, 0), (0, 30), (0, -30), (-30, 30), (19, 0))
       for d in (np.float32, np.float64)},
    **{f"beyond_float32_{where}": _beyond_float32_case(where)
       for where in ("weights", "bias", "rows")},
    "zero_rows_float32": _zero_rows_case(np.float32),
    "zero_rows_float64": _zero_rows_case(np.float64),
    "p1": _p1_case,
}


class TestLinearReadout:
    """The screened linear readout against the argmax of the exact scores.

    The labels must be bit for bit those of :func:`_exact_scores`, whatever the
    row blocking and whichever screen ran, ties going to the lower index.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [63, 64, 65, 67, 129])
    def test_labels_are_the_argmax_of_the_exact_scores(self, monkeypatch, dtype, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 512)).astype(dtype)
        head = ClassifierHead(weights=rng.standard_normal((64, 512)), bias=rng.standard_normal(64))
        t = _exact_scores(x, head)
        want = np.argmax(t, axis=1)
        # no near ties, so the whole float64 GEMM has the same argmax
        top2 = np.sort(t, axis=1)[:, -2:]
        assert (top2[:, 1] - top2[:, 0] > 1e-9).all()
        whole = x.astype(np.float64) @ head.weights.T + head.bias
        assert np.array_equal(np.argmax(whole, axis=1), want)
        assert np.array_equal(_linear_labels(x, head), want)
        for rows in (1, 2, 3, 64):
            monkeypatch.setattr(collapse, "_block_rows", lambda width: rows)
            assert np.array_equal(_linear_labels(x, head), want)

    @pytest.mark.parametrize("c, p", [(64, 512), (512, 64)])
    def test_blocks_count_the_float64_row_copy(self, monkeypatch, c, p):
        asked = []
        monkeypatch.setattr(collapse, "_block_rows", lambda width: asked.append(width) or 7)
        rng = np.random.default_rng(c)
        head = ClassifierHead(weights=rng.standard_normal((c, p)), bias=np.zeros(c))
        _linear_labels(rng.standard_normal((20, p)), head)
        assert asked == [512]

    @pytest.mark.parametrize("block_rows", [None, 1, 2, 3])
    @pytest.mark.parametrize("case", sorted(LINEAR_CASES))
    def test_hard_cases_match_the_exact_scores(self, monkeypatch, case, block_rows):
        # no RuntimeWarning either, overflow in the screen or the exact sum included
        x, head = LINEAR_CASES[case]()
        want = _exact_labels(x, head)
        if block_rows is not None:
            monkeypatch.setattr(collapse, "_block_rows", lambda width: block_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_linear_labels(x, head), want)

    def test_ties_go_to_the_lower_index(self):
        for dtype in (np.float32, np.float64):
            x, head = _exact_tie_case(dtype)
            t = _exact_scores(x, head)
            labels = _linear_labels(x, head)
            assert (labels < 3).all() and set(labels) == {0, 1, 2}
            assert (t[:, :3] == t[:, 3:]).all()
        x, head = _zero_rows_case(np.float64)()
        assert (_linear_labels(x, head)[[0, 4, 15, 19]] == 0).all()

    @pytest.mark.parametrize("case", ["near_ties_float32", "near_ties_float64",
                                      "exact_ties_float32", "scale_x1e-30_w1e0_float32",
                                      "scale_x1e30_w1e0_float32", "beyond_float32_weights",
                                      "dual_float32_merged_means", "dual_etf_ties"])
    def test_hard_cases_go_through_the_refine(self, monkeypatch, case):
        # the screen alone cannot give these labels; the exact scores of some
        # rows' candidates must be computed
        x, head = LINEAR_CASES[case]()
        pairs = []
        exact = kernels._pair_dots

        def spy(xa, w, rows, cols):
            pairs.append(len(rows))
            return exact(xa, w, rows, cols)

        monkeypatch.setattr(collapse, "_pair_dots", spy)
        assert np.array_equal(_linear_labels(x, head), _exact_labels(x, head))
        assert sum(pairs) > 0
        if case.startswith("near_ties"):
            t = np.sort(_exact_scores(x, head), axis=1)
            assert ((t[:, -1] - t[:, -2]) < 1e-14).any()

    def test_screen_settles_most_rows(self, monkeypatch):
        # 9000 float32 rows, 1000 classes: few rows reach the exact sum
        x, refs = NEAREST_CASES["float32_1000_classes"]()
        head = _dual_head(refs)
        rows, settle = [], kernels._settle

        def spy(s, slack, out):
            unsettled, near = settle(s, slack, out)
            rows.append(len(unsettled))
            return unsettled, near

        monkeypatch.setattr(collapse, "_settle", spy)
        assert np.array_equal(_linear_labels(x, head), _exact_labels(x, head))
        assert sum(rows) <= len(x) // 100

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [1, 2, 64, 512, 10**5])
    def test_score_slack_is_at_least_the_derived_bound(self, dtype, p):
        # |s - t| <= (g_{p+2} + g'_{p+1}) |x| |w| + (g_2 + u') B + 2 eta sqrt(p) |x|
        # + (8p + 2) eta, with the true norms at most the corrected computed ones
        f = np.finfo(dtype)
        u, eta = float(f.eps) / 2, float(f.smallest_subnormal) / 2
        u64 = 2.0**-53
        gamma = lambda n, u: n * u / (1 - n * u)  # noqa: E731
        xx = np.array([0.0, 1e-40, 1.0, 3.5e7, 1e30], dtype=dtype)
        ww_max, b_max = 2.0, 0.5
        x_norm = np.sqrt((xx.astype(np.float64) + 2 * p * eta) / (1 - gamma(p, u)))
        w_norm = np.sqrt((ww_max + p * 2.0**-1074) / (1 - gamma(p, u64)))
        bound = ((gamma(p + 2, u) + gamma(p + 1, u64)) * x_norm * w_norm
                 + (gamma(2, u) + u64) * b_max + 2 * eta * np.sqrt(p) * x_norm + (8 * p + 2) * eta)
        slack = kernels._score_slack(xx, ww_max, b_max, p)
        assert slack.dtype == np.float64
        assert (slack >= bound).all()
        # weights, bias or |x|^2 beyond the dtype's range, and p beyond the proof:
        # no bound
        big = float(f.max) ** 2 if dtype == np.float32 else np.inf
        assert np.isinf(kernels._score_slack(xx, big, b_max, p)).all()
        assert np.isinf(kernels._score_slack(xx, ww_max, float(f.max), p)).all()
        assert np.isinf(kernels._score_slack(np.array([np.inf], dtype=dtype), ww_max, b_max, p))
        assert np.isinf(kernels._score_slack(xx, ww_max, b_max, int(1 / (60 * u)))).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(LINEAR_CASES))
    def test_score_slack_covers_the_observed_error(self, case, dtype):
        # the screen of each case in each dtype, against the exact scores
        x, head = LINEAR_CASES[case]()
        with np.errstate(over="ignore", invalid="ignore"):
            xs = x.astype(dtype)
            s = xs @ head.weights.astype(dtype).T + head.bias.astype(dtype)
            slack = kernels._score_slack(np.einsum("ij,ij->i", xs, xs),
                                         np.einsum("ij,ij->i", head.weights, head.weights).max(),
                                         np.abs(head.bias).max(), x.shape[1])
        bounded = np.isfinite(slack)
        err = np.abs(s[bounded].astype(np.float64) - _exact_scores(xs[bounded], head))
        assert (err <= slack[bounded, None]).all()
        assert bounded.any() or dtype == np.float32 and ("beyond" in case or "1e30" in case
                                                         or "1e19" in case or "overflow" in case)


class TestBoundedMemory:
    """nc compute holds no N x C array and no float64 copy of the features.

    With row blocks of 256 rows, ``class_statistics`` holds one N x p float64
    array (the deviations, whose product fixes Sigma_W's bits) and the NC
    report, in either label space, holds only blocks and length-N labels.
    """

    def _peak(self, fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_traced_peaks(self, monkeypatch):
        monkeypatch.setattr(kernels, "_block_rows", lambda width: 256)
        monkeypatch.setattr(collapse, "_block_rows", lambda width: 256)
        rng = np.random.default_rng(15)
        n, c, p = 20_000, 200, 128
        labels = rng.permutation(np.arange(n) % c)
        vectors = rng.standard_normal((c, p))[labels] * 2 + rng.standard_normal((n, p))
        f = FeatureSet(vectors.astype(np.float32), labels, c)
        head = ClassifierHead(weights=rng.standard_normal((c, p)), bias=rng.standard_normal(c))
        space = LabelSpace(name="hypernyms", table=np.arange(c) % 10)
        one_copy = n * p * 8  # an N x p float64 array

        stats, peak = self._peak(lambda: class_statistics(f))
        assert peak < 1.1 * one_copy
        _, peak = self._peak(lambda: nc_report(f, head, stats=stats))
        assert peak < 0.25 * one_copy
        lifted, lifted_head = lift_to_superclass(stats, head, space)
        _, peak = self._peak(lambda: nc_report(f, lifted_head, "hypernyms", stats=lifted))
        assert peak < 0.25 * one_copy

    def test_linear_readout_of_float32_rows(self, monkeypatch):
        # no float64 copy of the rows (n * p * 8 bytes, 20 MB) and no N x C
        # array: neither the scores (16 MB in float32) nor a mask (4 MB)
        monkeypatch.setattr(collapse, "_block_rows", lambda width: 256)
        rng = np.random.default_rng(16)
        n, c, p = 20_000, 200, 128
        x = rng.standard_normal((n, p)).astype(np.float32)
        head = ClassifierHead(weights=rng.standard_normal((c, p)), bias=rng.standard_normal(c))
        labels, peak = self._peak(lambda: _linear_labels(x, head))
        assert peak < n * c / 4
        assert np.array_equal(labels, np.argmax(x.astype(np.float64) @ head.weights.T + head.bias,
                                                axis=1))


class TestLift:
    def _space(self, table):
        return LabelSpace(name="s", table=table)

    def test_singleton_lift_is_identity(self):
        f, head = _random_setup(7, c=4)
        st = class_statistics(f)
        s = self._space([0, 1, 2, 3])
        lifted, lhead = lift_to_superclass(st, head, s)
        np.testing.assert_allclose(lifted.class_means, st.class_means, atol=1e-12)
        np.testing.assert_allclose(lifted.sigma_w, st.sigma_w, atol=1e-12)
        np.testing.assert_allclose(lifted.sigma_b, st.sigma_b, atol=1e-12)
        np.testing.assert_array_equal(lifted.counts, st.counts)
        np.testing.assert_allclose(lhead.weights, head.weights, atol=1e-12)
        np.testing.assert_allclose(lhead.bias, head.bias, atol=1e-12)

    def test_merged_mean_is_unweighted(self):
        # counts 1 and 3 but the superclass mean ignores the imbalance
        x = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
        f = FeatureSet(x, np.array([0, 1, 1, 1]), 2)
        st = class_statistics(f)
        lifted, _ = lift_to_superclass(st, None, self._space([0, 0]))
        np.testing.assert_allclose(lifted.class_means, [[1.0, 1.0]])
        np.testing.assert_array_equal(lifted.counts, [4])

    def test_full_merge_absorbs_between_scatter(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40, 3))
        # symmetric labels with equal counts keep the merged mean global
        labels = np.repeat([0, 1], 20)
        x[20:] += 2.0
        f = FeatureSet(np.vstack([x, -x]), np.concatenate([labels, labels[::-1]]), 2)
        st = class_statistics(f)
        lifted, _ = lift_to_superclass(st, None, self._space([0, 0]))
        np.testing.assert_allclose(lifted.sigma_b, 0.0, atol=1e-12)
        dev = f.vectors - f.vectors.mean(axis=0)
        total = dev.T @ dev / len(f)
        np.testing.assert_allclose(lifted.sigma_w, total, atol=1e-10)

    def test_head_rows_averaged(self):
        st = _stats([[0.0], [1.0], [4.0]])
        head = ClassifierHead(weights=np.array([[1.0], [3.0], [10.0]]),
                              bias=np.array([0.0, 2.0, 7.0]))
        _, lhead = lift_to_superclass(st, head, self._space([0, 0, 1]))
        np.testing.assert_allclose(lhead.weights, [[2.0], [10.0]])
        np.testing.assert_allclose(lhead.bias, [1.0, 7.0])

    def test_sigma_w_gains_offset_term(self):
        f, _ = _random_setup(9, c=4)
        st = class_statistics(f)
        s = self._space([0, 0, 1, 1])
        lifted, _ = lift_to_superclass(st, None, s)
        table = s.table
        means_s = np.stack([st.class_means[:2].mean(axis=0),
                            st.class_means[2:].mean(axis=0)])
        dev = st.class_means - means_s[table]
        w = st.counts / st.counts.sum()
        expected = st.sigma_w + (dev * w[:, None]).T @ dev
        np.testing.assert_allclose(lifted.sigma_w, expected, atol=1e-12)

    def test_partition_mismatch_rejected(self):
        st = _stats([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="partition mismatch"):
            lift_to_superclass(st, None, self._space([0, 0]))

    def test_lifted_nc1_differs_between_spaces(self):
        # hypernym-aligned geometry: superclass spread dwarfs class spread
        rng = np.random.default_rng(10)
        anchors = np.array([[10.0, 0.0], [-10.0, 0.0]])
        offsets = np.array([[0.0, 0.4], [0.0, -0.4]])
        labels = np.repeat(np.arange(4), 50)
        x = anchors[labels // 2] + offsets[labels % 2] + 0.2 * rng.standard_normal((200, 2))
        f = FeatureSet(x, labels, 4)
        st = class_statistics(f)
        s = self._space([0, 0, 1, 1])
        lifted, _ = lift_to_superclass(st, None, s)
        assert nc1(lifted) < nc1(st)


class TestNcReport:
    def test_matches_direct_calls(self):
        f, head = _random_setup(11)
        rep = nc_report(f, head)
        st = class_statistics(f)
        assert rep.nc1 == nc1(st)
        n2 = nc2_metrics(st, head)
        assert (rep.beta_mu, rep.beta_w, rep.alpha_mu, rep.alpha_w) == tuple(
            [n2.beta_mu, n2.beta_w, n2.alpha_mu, n2.alpha_w])
        assert rep.nc3 == nc3_self_duality(st, head)
        assert rep.nc4_mismatch == nc4_mismatch(f, st, head)
        assert rep.label_space_name == "hyponyms"
        assert rep.degenerate_flags == ()

    def test_degenerate_snapshot_flagged(self):
        f = FeatureSet(np.ones((4, 2)), np.array([0, 0, 1, 1]), 2)
        head = ClassifierHead(weights=np.eye(2), bias=np.zeros(2))
        rep = nc_report(f, head, label_space_name="x")
        assert rep.nc1 == 0.0 and rep.nc3 == 0.0
        assert (rep.beta_mu, rep.beta_w, rep.alpha_mu, rep.alpha_w) == (0, 0, 0, 0)
        assert "sigma_b_zero" in rep.degenerate_flags
        assert any(fl.startswith("nc2_degenerate:") for fl in rep.degenerate_flags)
        assert any(fl.startswith("nc3_degenerate:") for fl in rep.degenerate_flags)
        assert rep.label_space_name == "x"

    def test_lifted_report_uses_raw_features(self):
        f, head = _random_setup(12, c=4)
        st = class_statistics(f)
        s = LabelSpace(name="pairs", table=[0, 0, 1, 1])
        lifted, lhead = lift_to_superclass(st, head, s)
        rep = nc_report(f, lhead, label_space_name="pairs", stats=lifted)
        assert rep.nc1 == nc1(lifted)
        assert rep.nc4_mismatch == nc4_mismatch(f, lifted, lhead)


class TestRotationInvariance:
    def test_all_statistics_invariant(self):
        f, head = _random_setup(13)
        q, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((10, 10)))
        rot_f = FeatureSet(f.vectors @ q.T, f.labels, f.class_count)
        rot_head = ClassifierHead(weights=head.weights @ q.T, bias=head.bias)
        a = nc_report(f, head)
        b = nc_report(rot_f, rot_head)
        for field in ("nc1", "beta_mu", "beta_w", "alpha_mu", "alpha_w",
                      "nc3", "nc4_mismatch"):
            assert abs(getattr(a, field) - getattr(b, field)) < 1e-9, field
