"""End-to-end acceptance battery.

Each test prints one `[criterion n] ...: PASS/FAIL` line and enforces the
stated tolerance and runtime budget.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hierkit.cli import run
from hierkit.collapse import (ClassifierHead, class_statistics,
                              lift_to_superclass, nc1, nc_report)
from hierkit.hierarchy import DistanceMatrix, graph_distance_matrix, parse_hierarchy
from hierkit.io import (read_distance_matrix, read_features, read_head,
                        write_distance_matrix, write_features, write_head)
from hierkit.labelspace import (LabelSpace, build_labelspace, parse_grouping,
                                project_log, random_isomorphic)
from hierkit.manifold import (CoverConfig, FeatureSet, ccc, cover_similarity,
                              split_query_support, to_distance_matrix)
from hierkit.metrics import (accuracy_series, baseline, convergence_epoch,
                             relative_accuracy, relative_gain,
                             theoretical_superclass_accuracy)
from hierkit.synth import (default_trajectory_params, gen_etf,
                           gen_hierarchical_trajectory, gen_prediction_trajectory,
                           mc_superclass_accuracy, ncc_prediction_log)

from _helpers import balanced_hierarchy, mds_embed


@contextmanager
def _criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] {desc}: FAIL")
        raise
    print(f"[criterion {n}] {desc}: PASS")


def _sized_space(sizes, name="sup"):
    return LabelSpace(name=name, table=np.repeat(np.arange(len(sizes)), sizes))


def _grouped_taxonomy(sizes):
    edges, classes, grouping = [], [], []
    ci = 0
    for gi, size in enumerate(sizes):
        edges.append(f"root\tg{gi}")
        grouping.append(f"g{gi}\tg{gi}")
        for _ in range(size):
            edges.append(f"g{gi}\tn{ci}")
            classes.append(f"{ci}\tn{ci}")
            ci += 1
    h = parse_hierarchy(edges, classes)
    space, _ = build_labelspace(h, parse_grouping(grouping), name="sup")
    return h, space


def test_criterion_1_superclass_accuracy_formula():
    with _criterion(1, "closed-form superclass accuracy vs Monte-Carlo"):
        t0 = time.perf_counter()
        sizes = [522, 398, 80]
        analytic = theoretical_superclass_accuracy(0.79, _sized_space(sizes))
        assert analytic == pytest.approx(0.8818, abs=1e-4)
        estimate, stderr = mc_superclass_accuracy(0.79, sizes,
                                                  trials=1_000_000, seed=0)
        assert abs(estimate - analytic) <= 3 * stderr
        # late-training observed value sits within 1.5 points of the formula
        assert abs(0.876 - analytic) <= 0.015
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_gain_identity_under_uniform_errors():
    with _criterion(2, "relative gain identical for named and random spaces"):
        t0 = time.perf_counter()
        h, s = _grouped_taxonomy([522, 398, 80])
        rand, _ = random_isomorphic(s, 7)
        epochs = 20
        log = gen_prediction_trajectory(
            h, s, epochs, np.linspace(0.3, 0.95, epochs), np.zeros(epochs),
            examples=100_000, seed=3)
        b = baseline(s)
        assert baseline(rand) == b
        g_named = relative_gain(accuracy_series(project_log(log, s)), b)
        g_rand = relative_gain(accuracy_series(project_log(log, rand)), b)
        gap = float(np.abs(g_named.values - g_rand.values).max())
        assert gap <= 0.02, f"max gain gap {gap}"
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_mutual_cover_hand_oracle():
    with _criterion(3, "mutual-cover 1-D hand value and grid convergence"):
        t0 = time.perf_counter()
        q = FeatureSet(np.array([[0.0], [1.0]]), np.array([0, 0]), 1)
        s = FeatureSet(np.array([[0.0], [2.0]]), np.array([0, 0]), 1)
        rho = cover_similarity(q, s, CoverConfig(k=1, r_max=2.0,
                                                 grid_points=200)).values[0, 0]
        assert rho == pytest.approx(0.75, abs=0.01)
        errs = [abs(cover_similarity(q, s, CoverConfig(k=1, r_max=2.0,
                                                       grid_points=g)).values[0, 0] - 0.75)
                for g in (100, 200, 400, 800)]
        assert errs[0] > errs[1] > errs[2] > errs[3]
        # halving the grid spacing should roughly halve the error
        assert 1.2 < errs[0] / errs[1] < 4.0
        assert 1.2 < errs[1] / errs[2] < 4.0
        assert time.perf_counter() - t0 < 1.0


def test_criterion_4_ccc_correctness():
    with _criterion(4, "CCC exact cases, hand value, and embedded pipeline"):
        t0 = time.perf_counter()
        a = np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], dtype=float)
        d_a = DistanceMatrix(labels=[0, 1, 2], values=a)
        assert ccc(d_a, DistanceMatrix(labels=[0, 1, 2], values=a.copy())) == 1.0
        affine = np.where(np.eye(3) > 0, 0.0, 2 * a + 5)
        assert ccc(d_a, DistanceMatrix(labels=[0, 1, 2], values=affine)) == 1.0
        neg = np.where(np.eye(3) > 0, 0.0, 10 - 2 * a)
        assert ccc(d_a, DistanceMatrix(labels=[0, 1, 2], values=neg)) == -1.0

        x = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        y = np.array([[0, 0.2, 0.9], [0.2, 0, 0.3], [0.9, 0.3, 0]])
        hand = ccc(DistanceMatrix(labels=[0, 1, 2], values=x),
                   DistanceMatrix(labels=[0, 1, 2], values=y))
        assert hand == pytest.approx(0.9912, abs=0.001)

        # noiseless class means planted at taxonomy-distance geometry
        h, _, _ = balanced_hierarchy(10, 10)
        d_w = graph_distance_matrix(h)
        coords = mds_embed(d_w.values, dim=99)
        k = 10
        labels = np.repeat(np.arange(100), 2 * k)
        f = FeatureSet(coords[labels], labels, 100)
        query, support = split_query_support(f, CoverConfig(k=k, seed=0))
        sim = cover_similarity(query, support, CoverConfig(k=k, grid_points=200))
        pipeline = ccc(to_distance_matrix(sim), d_w)
        assert pipeline >= 0.9
        assert time.perf_counter() - t0 < 30.0


def test_criterion_5_collapse_battery_on_exact_etf():
    with _criterion(5, "NC battery identically zero on exact simplex frames"):
        t0 = time.perf_counter()
        for c in range(2, 65):
            frame = gen_etf(c, dim=c)
            f = FeatureSet(frame, np.arange(c), c)
            head = ClassifierHead(weights=frame, bias=np.zeros(c))
            rep = nc_report(f, head)
            for field in ("nc1", "beta_mu", "beta_w", "alpha_mu", "alpha_w",
                          "nc3", "nc4_mismatch"):
                assert abs(getattr(rep, field)) <= 1e-9, (c, field)
            assert rep.degenerate_flags == ()
        assert time.perf_counter() - t0 < 10.0


def test_criterion_6_hypernym_bias_ordering():
    with _criterion(6, "hypernym space converges first and collapses first"):
        t0 = time.perf_counter()
        h, s = _grouped_taxonomy([20, 20, 20])
        mid = range(9, 30)  # epochs 10..30 of 40
        converge_wins = 0
        nc1_wins = 0
        seeds = 100
        for seed in range(seeds):
            traj = gen_hierarchical_trajectory(
                h, s, default_trajectory_params(seed=seed))
            log = ncc_prediction_log(traj)
            rand, _ = random_isomorphic(s, seed + 1000)
            conv_h = convergence_epoch(
                relative_accuracy(accuracy_series(project_log(log, s))))
            conv_r = convergence_epoch(
                relative_accuracy(accuracy_series(project_log(log, rand))))
            if conv_h < conv_r:
                converge_wins += 1
            ordered = True
            for i in mid:
                st = class_statistics(traj[i])
                lifted, _ = lift_to_superclass(st, None, s)
                if not nc1(lifted) < nc1(st):
                    ordered = False
                    break
            if ordered:
                nc1_wins += 1
        assert converge_wins >= 95, f"convergence ordering held for {converge_wins}/100"
        assert nc1_wins >= 95, f"nc1 ordering held for {nc1_wins}/100"
        assert time.perf_counter() - t0 < 300.0


def test_criterion_7_rotation_invariance():
    with _criterion(7, "NC metrics invariant under orthogonal transforms"):
        rng = np.random.default_rng(17)
        c, p, n_per = 10, 24, 30
        labels = np.repeat(np.arange(c), n_per)
        x = rng.standard_normal((c, p))[labels] * 3 + rng.standard_normal((c * n_per, p))
        f = FeatureSet(x, labels, c)
        head = ClassifierHead(weights=rng.standard_normal((c, p)),
                              bias=rng.standard_normal(c))
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        rot_f = FeatureSet(x @ q.T, labels, c)
        rot_head = ClassifierHead(weights=head.weights @ q.T, bias=head.bias)
        before = nc_report(f, head)
        after = nc_report(rot_f, rot_head)
        for field in ("nc1", "beta_mu", "beta_w", "alpha_mu", "alpha_w",
                      "nc3", "nc4_mismatch"):
            delta = abs(getattr(before, field) - getattr(after, field))
            assert delta < 1e-9, (field, delta)


def test_criterion_8_round_trips_and_rerun_identity(tmp_path):
    with _criterion(8, "byte-exact round trips and byte-identical CLI reruns"):
        rng = np.random.default_rng(8)

        f = FeatureSet(rng.standard_normal((50, 6)).astype(np.float32),
                       rng.integers(0, 4, size=50), 4)
        p1, p2 = tmp_path / "f1.bin", tmp_path / "f2.bin"
        write_features(f, p1)
        write_features(read_features(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        vals = np.abs(rng.standard_normal((5, 5)))
        vals = np.where(np.eye(5) > 0, 0.0, (vals + vals.T) / 2)
        d = DistanceMatrix(labels=list(range(5)), values=vals)
        p1, p2 = tmp_path / "d1.bin", tmp_path / "d2.bin"
        write_distance_matrix(d, p1)
        write_distance_matrix(read_distance_matrix(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        head = ClassifierHead(weights=rng.standard_normal((4, 6)).astype(np.float32),
                              bias=rng.standard_normal(4).astype(np.float32))
        p1, p2 = tmp_path / "h1.bin", tmp_path / "h2.bin"
        write_head(head, p1)
        write_head(read_head(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        edges = tmp_path / "edges.tsv"
        classes = tmp_path / "classes.tsv"
        groups = tmp_path / "groups.tsv"
        edges.write_text("root\ta\nroot\tb\na\tx\na\ty\nb\tu\nb\tv\n")
        classes.write_text("0\tx\n1\ty\n2\tu\n3\tv\n")
        groups.write_text("A\ta\nB\tb\n")
        ls_out = tmp_path / "ls"
        assert run(["labelspace", "build", "--hierarchy", str(edges),
                    "--classes", str(classes), "--groups", str(groups),
                    "--out", str(ls_out)]) == 0
        space = ls_out / "hypernyms.tsv"

        commands = {
            "synth": ["synth", "predictions", "--hierarchy", str(edges),
                      "--classes", str(classes), "--labelspace", str(space),
                      "--epochs", "4", "--examples", "200",
                      "--accuracy", "linear:0.4:0.9", "--within", "linear:0.2:0.8",
                      "--seed", "11"],
        }
        pred_outs = []
        for rep in (1, 2):
            out = tmp_path / f"synth{rep}"
            assert run(commands["synth"] + ["--out", str(out)]) == 0
            pred_outs.append(out)
        for name in ("predictions.csv", "run.json"):
            assert (pred_outs[0] / name).read_bytes() == \
                (pred_outs[1] / name).read_bytes(), name

        curve_args = ["metrics", "curves", "--log",
                      str(pred_outs[0] / "predictions.csv"),
                      "--labelspace", str(space), "--random-iso", "--seed", "5"]
        curve_outs = []
        for rep in (1, 2):
            out = tmp_path / f"curves{rep}"
            assert run(curve_args + ["--out", str(out)]) == 0
            curve_outs.append(out)
        names = sorted(p.name for p in curve_outs[0].iterdir())
        assert names == sorted(p.name for p in curve_outs[1].iterdir())
        for name in names:
            assert (curve_outs[0] / name).read_bytes() == \
                (curve_outs[1] / name).read_bytes(), name
        manifest = json.loads((curve_outs[0] / "run.json").read_text())
        assert set(manifest) == {"command", "version", "seed", "inputs", "options"}
