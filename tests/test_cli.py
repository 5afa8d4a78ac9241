import json
import os
import subprocess
import sys
import warnings
import weakref
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hierkit
import hierkit.cli as cli
from hierkit.cli import run
from hierkit.collapse import ClassifierHead
from hierkit.io import read_features, read_predictions, write_features, write_head, write_table
from hierkit.labelspace import read_labelspace
from hierkit.manifold import FeatureSet, SimilarityMatrix
from hierkit.metrics import accuracy_series


EDGES = ("root\tanimal\nroot\tplant\n"
         "animal\tdog\nanimal\tcat\nanimal\twolf\n"
         "plant\ttree\nplant\tfern\nplant\tmoss\n")
CLASSES = "0\tdog\n1\tcat\n2\twolf\n3\ttree\n4\tfern\n5\tmoss\n"


@pytest.fixture
def tax(tmp_path):
    edges = tmp_path / "edges.tsv"
    classes = tmp_path / "classes.tsv"
    groups = tmp_path / "groups.tsv"
    edges.write_text(EDGES)
    classes.write_text(CLASSES)
    groups.write_text("fauna\tanimal\nflora\tplant\n")
    return edges, classes, groups


@pytest.fixture
def spacefile(tax, tmp_path):
    edges, classes, groups = tax
    out = tmp_path / "ls"
    assert run(["labelspace", "build", "--hierarchy", str(edges),
                "--classes", str(classes), "--groups", str(groups),
                "--out", str(out)]) == 0
    return out / "hypernyms.tsv"


@pytest.fixture
def predfile(tax, spacefile, tmp_path):
    edges, classes, _ = tax
    out = tmp_path / "preds"
    assert run(["synth", "predictions", "--hierarchy", str(edges),
                "--classes", str(classes), "--labelspace", str(spacefile),
                "--epochs", "3", "--examples", "120",
                "--accuracy", "linear:0.3:0.9", "--within", "0.5,0.5,0.5",
                "--seed", "1", "--out", str(out)]) == 0
    return out / "predictions.csv"


@pytest.fixture
def featdir(tax, spacefile, tmp_path):
    edges, classes, _ = tax
    cfg = tmp_path / "traj.cfg"
    cfg.write_text("epochs=3\ndimension=10\nexamples_per_class=6\n")
    out = tmp_path / "feats"
    assert run(["synth", "features", "--hierarchy", str(edges),
                "--classes", str(classes), "--labelspace", str(spacefile),
                "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 0
    return out


class TestLabelspace:
    def test_build_on_a_dag_names_the_node(self, tmp_path, capsys):
        (tmp_path / "edges.tsv").write_text("r\ta\nr\tb\na\tx\nb\tx\nr\ty\n")
        (tmp_path / "classes.tsv").write_text("0\tx\n1\ty\n")
        (tmp_path / "groups.tsv").write_text("A\ta\nR\tr\n")
        assert run(["labelspace", "build", "--hierarchy", str(tmp_path / "edges.tsv"),
                    "--classes", str(tmp_path / "classes.tsv"),
                    "--groups", str(tmp_path / "groups.tsv"),
                    "--out", str(tmp_path / "ls")]) == 1
        assert capsys.readouterr().err == (
            "error: grouping requires a tree: node 'x' has parents ['a', 'b']\n")

    def test_build_writes_space_and_manifest(self, spacefile):
        space = read_labelspace(spacefile)
        assert sorted(space.sizes) == [3, 3]
        manifest = json.loads((spacefile.parent / "run.json").read_text())
        assert manifest["command"] == "labelspace build"
        assert set(manifest) == {"command", "version", "seed", "inputs", "options"}
        assert manifest["seed"] is None

    def test_random_preserves_sizes(self, spacefile, tmp_path):
        out = tmp_path / "rand"
        assert run(["labelspace", "random", "--labelspace", str(spacefile),
                    "--seed", "4", "--out", str(out)]) == 0
        space = read_labelspace(out / "hypernyms-random-4.tsv")
        assert sorted(space.sizes) == [3, 3]
        assert json.loads((out / "run.json").read_text())["seed"] == 4


class TestMetrics:
    def test_curves_all_three_spaces(self, spacefile, predfile, tmp_path):
        out = tmp_path / "curves"
        assert run(["metrics", "curves", "--log", str(predfile),
                    "--labelspace", str(spacefile), "--random-iso",
                    "--seed", "5", "--out", str(out)]) == 0
        for tag in ("hyponym", "hypernyms", "random"):
            for kind in ("accuracy", "relative", "gain", "residual"):
                assert (out / f"{tag}_{kind}.csv").exists(), (tag, kind)

    def test_curves_match_library(self, predfile, tmp_path):
        out = tmp_path / "curves"
        assert run(["metrics", "curves", "--log", str(predfile),
                    "--out", str(out)]) == 0
        ref = tmp_path / "ref.csv"
        write_table(accuracy_series(read_predictions(predfile)), ref)
        assert ref.read_bytes() == (out / "hyponym_accuracy.csv").read_bytes()

    def test_rerun_byte_identical(self, spacefile, predfile, tmp_path):
        args = ["metrics", "curves", "--log", str(predfile),
                "--labelspace", str(spacefile), "--random-iso", "--seed", "5"]
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        files = sorted(p.name for p in out1.iterdir())
        assert files == sorted(p.name for p in out2.iterdir())
        for name in files:
            if name == "run.json":
                continue
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_converge_table(self, spacefile, predfile, tmp_path):
        out = tmp_path / "cv"
        assert run(["metrics", "converge", "--log", str(predfile),
                    "--labelspace", str(spacefile), "--fraction", "0.9",
                    "--out", str(out)]) == 0
        lines = (out / "converge.csv").read_text().splitlines()
        assert lines[0] == "space,epoch"
        assert len(lines) == 3
        assert lines[1].startswith("hyponym,")

    def test_confusion_counts(self, spacefile, predfile, tmp_path):
        out = tmp_path / "cm"
        assert run(["metrics", "confusion", "--log", str(predfile),
                    "--labelspace", str(spacefile), "--epoch", "2",
                    "--out", str(out)]) == 0
        rows = (out / "confusion.csv").read_text().splitlines()
        assert rows[0] == ",0,1"
        total = sum(int(v) for row in rows[1:] for v in row.split(",")[1:])
        assert total == 120

    def test_random_iso_requires_labelspace(self, predfile, tmp_path):
        assert run(["metrics", "curves", "--log", str(predfile),
                    "--random-iso", "--seed", "3",
                    "--out", str(tmp_path / "x")]) == 2

    def test_random_iso_requires_seed(self, spacefile, predfile, tmp_path):
        assert run(["metrics", "curves", "--log", str(predfile),
                    "--labelspace", str(spacefile), "--random-iso",
                    "--out", str(tmp_path / "x")]) == 2

    def test_missing_log_is_data_error(self, tmp_path):
        assert run(["metrics", "curves", "--log", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("action", ["curves", "converge"])
    def test_one_projected_log_at_a_time(self, spacefile, predfile, tmp_path, monkeypatch,
                                         action):
        # The named space's log is released before the random space's is projected.
        live, held = [], []
        project = cli.project_log

        def spy(log, space):
            held.append(sum(ref() is not None for ref in live))
            projected = project(log, space)
            live.append(weakref.ref(projected))
            return projected

        monkeypatch.setattr(cli, "project_log", spy)
        assert run(["metrics", action, "--log", str(predfile), "--labelspace", str(spacefile),
                    "--random-iso", "--seed", "5", "--out", str(tmp_path / "x")]) == 0
        assert held == [0, 0]

    @pytest.mark.parametrize("flags", [["--random-iso"], ["--random-iso", "--seed", "5"]])
    def test_partition_mismatch_comes_first_and_writes_nothing(self, predfile, tmp_path, flags):
        # A space over 4 classes for a 6-class log: a data error even where the
        # --random-iso flags are a usage error, and before any output.
        space = tmp_path / "four.tsv"
        space.write_text("0\t0\n1\t0\n2\t1\n3\t1\n")
        out = tmp_path / "x"
        assert run(["metrics", "curves", "--log", str(predfile), "--labelspace", str(space),
                    *flags, "--out", str(out)]) == 1
        assert not out.exists() or not any(out.iterdir())


class TestManifold:
    def test_cover_matrix(self, featdir, tmp_path):
        out = tmp_path / "cover"
        assert run(["manifold", "cover", "--features",
                    str(featdir / "features_e002.bin"), "--k", "2",
                    "--method", "exact", "--seed", "0",
                    "--out", str(out)]) == 0
        rows = (out / "cover.csv").read_text().splitlines()
        assert rows[0] == ",0,1,2,3,4,5"
        assert len(rows) == 7
        vals = np.array([[float(v) for v in r.split(",")[1:]] for r in rows[1:]])
        assert (vals >= 0).all() and (vals <= 1).all()

    def test_cover_rerun_byte_identical(self, featdir, tmp_path):
        args = ["manifold", "cover", "--features",
                str(featdir / "features_e002.bin"), "--k", "2", "--seed", "7"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert (out1 / "cover.csv").read_bytes() == (out2 / "cover.csv").read_bytes()

    def test_ccc_report(self, tax, featdir, tmp_path, capsys):
        edges, classes, _ = tax
        out = tmp_path / "ccc"
        assert run(["manifold", "ccc", "--features",
                    str(featdir / "features_e002.bin"), "--hierarchy", str(edges),
                    "--classes", str(classes), "--k", "2", "--seed", "0",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "ccc.json").read_text())
        assert set(payload) == {"ccc", "classes", "r_max"}
        assert payload["classes"] == 6
        assert -1.0 <= payload["ccc"] <= 1.0
        assert capsys.readouterr().out.startswith("ccc ")


    @pytest.mark.parametrize("action", ["cover", "ccc"])
    def test_features_freed_before_the_cover(self, tax, featdir, tmp_path, monkeypatch,
                                             action):
        # The feature set is split and dropped before the cover similarity runs.
        live, held = [], []
        read, cover = cli.read_features, cli.cover_similarity

        def read_spy(path):
            f = read(path)
            live.extend((weakref.ref(f), weakref.ref(f.vectors)))
            return f

        def cover_spy(*args):
            held.append(sum(ref() is not None for ref in live))
            return cover(*args)

        monkeypatch.setattr(cli, "read_features", read_spy)
        monkeypatch.setattr(cli, "cover_similarity", cover_spy)
        edges, classes, _ = tax
        taxonomy = ["--hierarchy", str(edges), "--classes", str(classes)]
        assert run(["manifold", action, "--features", str(featdir / "features_e002.bin"),
                    *(taxonomy if action == "ccc" else []), "--k", "2", "--seed", "0",
                    "--out", str(tmp_path / "x")]) == 0
        assert len(live) == 2 and held == [0]

    def test_taxonomy_fails_before_the_feature_file(self, tax, tmp_path, capsys):
        # A malformed edge file is named even though the feature file is missing.
        _, classes, _ = tax
        edges = tmp_path / "bad_edges.tsv"
        edges.write_text("root\tanimal\nroot animal\n")
        assert run(["manifold", "ccc", "--features", str(tmp_path / "nope.bin"),
                    "--hierarchy", str(edges), "--classes", str(classes), "--k", "2",
                    "--seed", "0", "--out", str(tmp_path / "x")]) == 1
        assert f"{edges}:2: expected 'parent<TAB>child'" in capsys.readouterr().err

    def test_flags_fail_before_the_feature_file(self, tmp_path, capsys):
        assert run(["manifold", "cover", "--features", str(tmp_path / "nope.bin"),
                    "--k", "0", "--seed", "0", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "error: k must be >= 1\n"


class TestNc:
    def test_compute_both_spaces(self, featdir, spacefile, tmp_path):
        rng = np.random.default_rng(0)
        headfile = tmp_path / "head.bin"
        write_head(ClassifierHead(weights=rng.standard_normal((6, 10)),
                                  bias=np.zeros(6)), headfile)
        out = tmp_path / "nc"
        assert run(["nc", "compute", "--features",
                    str(featdir / "features_e002.bin"), "--head", str(headfile),
                    "--labelspace", str(spacefile), "--out", str(out)]) == 0
        hypo = json.loads((out / "nc_hyponyms.json").read_text())
        lifted = json.loads((out / "nc_hypernyms.json").read_text())
        keys = ["nc1", "beta_mu", "beta_w", "alpha_mu", "alpha_w", "nc3",
                "nc4", "label_space", "degenerate_flags"]
        assert list(hypo) == keys and list(lifted) == keys
        assert hypo["label_space"] == "hyponyms"
        assert lifted["label_space"] == "hypernyms"


class TestSynthPredictions:
    def test_non_numeric_schedule_is_usage_error(self, tax, spacefile, tmp_path, capsys):
        edges, classes, _ = tax
        assert run(["synth", "predictions", "--hierarchy", str(edges),
                    "--classes", str(classes), "--labelspace", str(spacefile),
                    "--epochs", "3", "--examples", "12",
                    "--accuracy", "linear:a:0.5", "--within", "0.5,0.5,0.5",
                    "--seed", "1", "--out", str(tmp_path / "x")]) == 2
        assert "--accuracy expects 'linear:a:b' or a comma list, got 'linear:a:0.5'" \
            in capsys.readouterr().err

    def test_nan_schedule_exits_1(self, tax, spacefile, tmp_path, capsys):
        edges, classes, _ = tax
        out = tmp_path / "x"
        assert run(["synth", "predictions", "--hierarchy", str(edges),
                    "--classes", str(classes), "--labelspace", str(spacefile),
                    "--epochs", "2", "--examples", "12",
                    "--accuracy", "nan,nan", "--within", "linear:nan:nan",
                    "--seed", "1", "--out", str(out)]) == 1
        assert "values must be in [0, 1]" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()


class TestSynthFeatures:
    def test_no_config_equals_an_empty_config(self, tax, spacefile, tmp_path):
        edges, classes, _ = tax
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        outs = {}
        for tag, config in (("none", []), ("empty", ["--config", str(empty)])):
            outs[tag] = tmp_path / tag
            assert run(["synth", "features", "--hierarchy", str(edges),
                        "--classes", str(classes), "--labelspace", str(spacefile),
                        *config, "--seed", "4", "--out", str(outs[tag])]) == 0
        names = sorted(p.name for p in outs["none"].glob("features_e*.bin"))
        assert len(names) == 40
        assert names == sorted(p.name for p in outs["empty"].glob("features_e*.bin"))
        for name in names:
            assert (outs["none"] / name).read_bytes() == (outs["empty"] / name).read_bytes()


class TestSynthEtf:
    def test_frame_written(self, tmp_path):
        out = tmp_path / "etf"
        assert run(["synth", "etf", "--class-count", "4", "--dim", "6",
                    "--out", str(out)]) == 0
        f = read_features(out / "etf.bin")
        assert f.vectors.shape == (4, 6)
        cos = np.asarray(f.vectors, dtype=np.float64)
        cos = cos @ cos.T
        iu = np.triu_indices(4, k=1)
        np.testing.assert_allclose(cos[iu], -1.0 / 3.0, atol=1e-6)


class TestOracle:
    def test_analytic_value_printed(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["oracle", "superclass-acc", "--p", "0.79",
                    "--sizes", "522,398,80", "--trials", "20000",
                    "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "analytic 0.881830"
        assert lines[1].startswith("monte-carlo ")
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["analytic"] == pytest.approx(0.88183048, abs=1e-8)
        assert abs(payload["monte_carlo"] - payload["analytic"]) < \
            4 * payload["stderr"] + 1e-12

    def test_size_beyond_int64_is_usage_error(self, tmp_path, capsys):
        assert run(["oracle", "superclass-acc", "--p", "0.5",
                    "--sizes", "100000000000000000000000,4",
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == ("usage error: --sizes entry 100000000000000000000000 "
                       "does not fit in int64\n")

    def test_sizes_total_beyond_int64_is_usage_error(self, tmp_path, capsys):
        # each entry fits in int64, their sum does not
        assert run(["oracle", "superclass-acc", "--p", "0.5",
                    "--sizes", "4611686018427387904,4611686018427387904",
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == ("usage error: --sizes total 9223372036854775808 "
                       "does not fit in int64\n")

    def test_default_seed_reproducible(self, tmp_path):
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert run(["oracle", "superclass-acc", "--p", "0.5",
                        "--sizes", "3,3", "--trials", "5000",
                        "--out", str(out)]) == 0
            outs.append((out / "oracle.json").read_bytes())
        assert outs[0] == outs[1]


class TestPlumbing:
    def test_no_arguments_is_usage_error(self):
        assert run([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        assert run(["synth", "etf", "--dim", "6",
                    "--out", str(tmp_path)]) == 2

    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.startswith("hierkit ")

    def test_manifest_shape(self, spacefile):
        import hierkit

        manifest = json.loads((spacefile.parent / "run.json").read_text())
        # fixed key set, no timestamps: reruns must be byte-identical
        assert set(manifest) == {"command", "version", "seed", "inputs", "options"}
        assert manifest["version"] == hierkit.__version__


# Every subcommand's run.json, byte for byte.  Inputs are given as paths
# relative to the working directory so the manifests carry no temp paths.
GOLDEN_MANIFESTS = [
    ("labelspace build --hierarchy edges.tsv --classes classes.tsv --groups groups.tsv",
     """\
{
  "command": "labelspace build",
  "version": "@VERSION@",
  "seed": null,
  "inputs": {
    "hierarchy": "edges.tsv",
    "classes": "classes.tsv",
    "groups": "groups.tsv"
  },
  "options": {
    "name": "hypernyms"
  }
}
"""),
    ("labelspace random --labelspace ls/hypernyms.tsv --seed 4",
     """\
{
  "command": "labelspace random",
  "version": "@VERSION@",
  "seed": 4,
  "inputs": {
    "labelspace": "ls/hypernyms.tsv"
  },
  "options": {}
}
"""),
    ("metrics curves --log preds/predictions.csv",
     """\
{
  "command": "metrics curves",
  "version": "@VERSION@",
  "seed": null,
  "inputs": {
    "log": "preds/predictions.csv",
    "labelspace": ""
  },
  "options": {
    "random_iso": false
  }
}
"""),
    ("metrics curves --log preds/predictions.csv --labelspace ls/hypernyms.tsv --random-iso --seed 5",
     """\
{
  "command": "metrics curves",
  "version": "@VERSION@",
  "seed": 5,
  "inputs": {
    "log": "preds/predictions.csv",
    "labelspace": "ls/hypernyms.tsv"
  },
  "options": {
    "random_iso": true
  }
}
"""),
    ("metrics converge --log preds/predictions.csv --labelspace ls/hypernyms.tsv --fraction 0.9",
     """\
{
  "command": "metrics converge",
  "version": "@VERSION@",
  "seed": null,
  "inputs": {
    "log": "preds/predictions.csv",
    "labelspace": "ls/hypernyms.tsv"
  },
  "options": {
    "random_iso": false,
    "fraction": 0.9
  }
}
"""),
    ("metrics confusion --log preds/predictions.csv --epoch 2",
     """\
{
  "command": "metrics confusion",
  "version": "@VERSION@",
  "seed": null,
  "inputs": {
    "log": "preds/predictions.csv",
    "labelspace": ""
  },
  "options": {
    "epoch": 2
  }
}
"""),
    ("manifold cover --features feats/features_e002.bin --k 2 --seed 0",
     """\
{
  "command": "manifold cover",
  "version": "@VERSION@",
  "seed": 0,
  "inputs": {
    "features": "feats/features_e002.bin"
  },
  "options": {
    "k": 2,
    "r_max": null,
    "grid_points": 200,
    "method": "grid"
  }
}
"""),
    ("manifold cover --features feats/features_e002.bin --k 2 --r-max 1.5 --grid-points 50 --method exact --seed 7",
     """\
{
  "command": "manifold cover",
  "version": "@VERSION@",
  "seed": 7,
  "inputs": {
    "features": "feats/features_e002.bin"
  },
  "options": {
    "k": 2,
    "r_max": 1.5,
    "grid_points": 50,
    "method": "exact"
  }
}
"""),
    ("manifold ccc --features feats/features_e002.bin --hierarchy edges.tsv --classes classes.tsv --k 2 --seed 0",
     """\
{
  "command": "manifold ccc",
  "version": "@VERSION@",
  "seed": 0,
  "inputs": {
    "features": "feats/features_e002.bin",
    "hierarchy": "edges.tsv",
    "classes": "classes.tsv"
  },
  "options": {
    "k": 2,
    "r_max": null,
    "grid_points": 200,
    "method": "grid"
  }
}
"""),
    ("nc compute --features feats/features_e002.bin --head head.bin",
     """\
{
  "command": "nc compute",
  "version": "@VERSION@",
  "seed": null,
  "inputs": {
    "features": "feats/features_e002.bin",
    "head": "head.bin",
    "labelspace": ""
  },
  "options": {}
}
"""),
    ("synth features --hierarchy edges.tsv --classes classes.tsv --labelspace ls/hypernyms.tsv --seed 3",
     """\
{
  "command": "synth features",
  "version": "@VERSION@",
  "seed": 3,
  "inputs": {
    "hierarchy": "edges.tsv",
    "classes": "classes.tsv",
    "labelspace": "ls/hypernyms.tsv",
    "config": ""
  },
  "options": {}
}
"""),
    ("synth features --hierarchy edges.tsv --classes classes.tsv --labelspace ls/hypernyms.tsv --config traj.cfg --seed 2",
     """\
{
  "command": "synth features",
  "version": "@VERSION@",
  "seed": 2,
  "inputs": {
    "hierarchy": "edges.tsv",
    "classes": "classes.tsv",
    "labelspace": "ls/hypernyms.tsv",
    "config": "traj.cfg"
  },
  "options": {}
}
"""),
    ("synth predictions --hierarchy edges.tsv --classes classes.tsv --labelspace ls/hypernyms.tsv --epochs 3 --examples 12 --accuracy linear:0.3:0.9 --within 0.5,0.5,0.5 --seed 1",
     """\
{
  "command": "synth predictions",
  "version": "@VERSION@",
  "seed": 1,
  "inputs": {
    "hierarchy": "edges.tsv",
    "classes": "classes.tsv",
    "labelspace": "ls/hypernyms.tsv"
  },
  "options": {
    "epochs": 3,
    "examples": 12,
    "accuracy": "linear:0.3:0.9",
    "within": "0.5,0.5,0.5"
  }
}
"""),
    ("synth etf --class-count 4 --dim 6",
     """\
{
  "command": "synth etf",
  "version": "@VERSION@",
  "seed": null,
  "inputs": {},
  "options": {
    "class_count": 4,
    "dim": 6,
    "scale": 1.0
  }
}
"""),
    ("oracle superclass-acc --p 0.5 --sizes 3,3 --trials 100",
     """\
{
  "command": "oracle superclass-acc",
  "version": "@VERSION@",
  "seed": 0,
  "inputs": {},
  "options": {
    "p": 0.5,
    "sizes": "3,3",
    "trials": 100
  }
}
"""),
]


@pytest.fixture
def golden_inputs(tax, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tax_flags = ["--hierarchy", "edges.tsv", "--classes", "classes.tsv"]
    assert run(["labelspace", "build", *tax_flags, "--groups", "groups.tsv",
                "--out", "ls"]) == 0
    assert run(["synth", "predictions", *tax_flags, "--labelspace", "ls/hypernyms.tsv",
                "--epochs", "3", "--examples", "12", "--accuracy", "linear:0.3:0.9",
                "--within", "0.5,0.5,0.5", "--seed", "1", "--out", "preds"]) == 0
    (tmp_path / "traj.cfg").write_text("epochs=3\ndimension=10\nexamples_per_class=6\n")
    assert run(["synth", "features", *tax_flags, "--labelspace", "ls/hypernyms.tsv",
                "--config", "traj.cfg", "--seed", "2", "--out", "feats"]) == 0
    write_head(ClassifierHead(weights=np.ones((6, 10)), bias=np.zeros(6)), "head.bin")
    return tmp_path


@pytest.mark.parametrize("argv, expected", GOLDEN_MANIFESTS,
                         ids=[" ".join(a.split()[:2]) for a, _ in GOLDEN_MANIFESTS])
def test_golden_manifest(golden_inputs, argv, expected):
    import hierkit

    assert run(argv.split() + ["--out", "case"]) == 0
    expected = expected.replace("@VERSION@", hierkit.__version__)
    assert (golden_inputs / "case" / "run.json").read_bytes() == expected.encode("utf-8")


class TestAbsurdBinaryHeader:
    def test_cover_and_nc_report_error_without_traceback(self, featdir, spacefile,
                                                         tmp_path, capsys):
        bad_features = tmp_path / "bad_features.bin"
        bad_features.write_bytes(b"HBFEAT01" + np.full(3, 2**61, dtype="<u8").tobytes())
        bad_head = tmp_path / "bad_head.bin"
        bad_head.write_bytes(b"HBHEAD01" + np.full(2, 2**61, dtype="<u8").tobytes())
        runs = [["manifold", "cover", "--features", str(bad_features), "--k", "2",
                 "--seed", "0"],
                ["nc", "compute", "--features", str(featdir / "features_e002.bin"),
                 "--head", str(bad_head), "--labelspace", str(spacefile)]]
        for argv in runs:
            capsys.readouterr()
            assert run(argv + ["--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "truncated payload" in err
            assert "Traceback" not in err


class TestMalformedInputsExitOne:
    BIG = 10**23

    def _fails(self, argv, tmp_path, capsys, message):
        capsys.readouterr()
        assert run(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("row", ["{0},a,0,0", "1,a,{0},0"], ids=["epoch", "label"])
    def test_prediction_log_integer_beyond_int64(self, tmp_path, capsys, row):
        log = tmp_path / "p.csv"
        log.write_text("epoch,example_id,true_label,pred_label\n1,b,0,0\n"
                       + row.format(self.BIG) + "\n")
        self._fails(["metrics", "curves", "--log", str(log)], tmp_path, capsys,
                    f"{log}:3: integer field does not fit in int64")

    def test_features_label_beyond_int64(self, tmp_path, capsys):
        feats = tmp_path / "f.csv"
        feats.write_text(f"label,f0\n0,1.0\n{self.BIG},2.0\n")
        self._fails(["manifold", "cover", "--features", str(feats), "--k", "1",
                     "--seed", "0"], tmp_path, capsys, f"{feats}:3: label {self.BIG}")

    def test_features_value_beyond_float32(self, tmp_path, capsys):
        # 1e40 becomes inf in float32; the cast used to warn on stderr first
        feats = tmp_path / "f.csv"
        feats.write_text("label,f0\n0,1.0\n0,1e40\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._fails(["manifold", "cover", "--features", str(feats), "--k", "1",
                         "--seed", "0"], tmp_path, capsys,
                        f"{feats}: feature vectors contain non-finite values")

    def test_zero_row_features_header(self, tmp_path, capsys):
        feats = tmp_path / "f.bin"
        feats.write_bytes(b"HBFEAT01" + np.array([0, 2**62, 1], dtype="<u8").tobytes())
        self._fails(["manifold", "cover", "--features", str(feats), "--k", "1",
                     "--seed", "0"], tmp_path, capsys, f"{feats}: feature file contains no")

    def test_zero_class_head_header(self, featdir, spacefile, tmp_path, capsys):
        head = tmp_path / "h.bin"
        head.write_bytes(b"HBHEAD01" + np.array([0, 2**40], dtype="<u8").tobytes())
        self._fails(["nc", "compute", "--features", str(featdir / "features_e002.bin"),
                     "--head", str(head), "--labelspace", str(spacefile)], tmp_path, capsys,
                    f"{head}: head has no classes")

    @pytest.mark.parametrize("index, message", [
        (2**63, "{space}:2: superclass index 9223372036854775808 does not fit in int64"),
        # a bincount as long as 2**40 + 1 would need 8 TiB
        (2**40, "{space}: superclass index 1 has no members (gapped indices)"),
    ], ids=["beyond_int64", "beyond_class_count"])
    def test_oversized_superclass_index(self, predfile, tmp_path, capsys, index, message):
        space = tmp_path / "bad.tsv"
        space.write_text(f"0\t0\n1\t{index}\n")
        message = message.format(space=space)
        self._fails(["labelspace", "random", "--labelspace", str(space), "--seed", "0"],
                    tmp_path, capsys, message)
        self._fails(["metrics", "curves", "--log", str(predfile), "--labelspace", str(space)],
                    tmp_path, capsys, message)

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_head_and_features_class_counts_differ(self, tmp_path, capsys, fmt):
        # class_statistics would allocate per class: 2**62 rows are too many
        feats, head = tmp_path / f"f.{fmt}", tmp_path / "h.bin"
        write_head(ClassifierHead(weights=np.eye(2), bias=np.zeros(2)), head)
        if fmt == "bin":
            feats.write_bytes(b"HBFEAT01" + np.array([2, 2, 2**62], dtype="<u8").tobytes()
                              + np.array([0, 1], dtype="<u4").tobytes()
                              + np.eye(2, dtype="<f4").tobytes())
            count = 2**62
        else:
            feats.write_text(f"label,f0,f1\n0,1.0,0.0\n{2**62},0.0,1.0\n")
            count = 2**62 + 1
        self._fails(["nc", "compute", "--features", str(feats), "--head", str(head)],
                    tmp_path, capsys, f"{head}: head has 2 rows, but {feats} has {count} classes")

    def test_synth_etf_beyond_float32(self, tmp_path, capsys):
        # the float32 cast used to warn and write a file that the readers reject
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._fails(["synth", "etf", "--class-count", "3", "--dim", "4", "--scale", "1e39"],
                        tmp_path, capsys, "does not fit in float32")
        assert not (tmp_path / "out" / "etf.bin").exists()

    def test_synth_features_beyond_float32(self, tax, spacefile, tmp_path, capsys):
        edges, classes, _ = tax
        cfg = tmp_path / "traj.cfg"
        cfg.write_text("epochs=2\ndimension=10\nexamples_per_class=2\n"
                       "hypernym_gap_schedule=1e39,1e39\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._fails(["synth", "features", "--hierarchy", str(edges), "--classes",
                         str(classes), "--labelspace", str(spacefile), "--config", str(cfg),
                         "--seed", "0"], tmp_path, capsys, "does not fit in float32")
        assert not list((tmp_path / "out").glob("features_*"))

    def test_synth_etf_infinite_scale(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._fails(["synth", "etf", "--class-count", "3", "--dim", "4", "--scale", "inf"],
                        tmp_path, capsys, "scale must be finite, got inf")

    def test_examples_per_class_beyond_int64(self, tax, spacefile, tmp_path, capsys):
        edges, classes, _ = tax
        cfg = tmp_path / "traj.cfg"
        cfg.write_text(f"epochs=2\ndimension=10\nexamples_per_class={2**63}\n")
        self._fails(["synth", "features", "--hierarchy", str(edges), "--classes", str(classes),
                     "--labelspace", str(spacefile), "--config", str(cfg), "--seed", "0"],
                    tmp_path, capsys, f"examples_per_class {2**63} does not fit in int64")

    def test_config_epochs_beyond_int64(self, tax, spacefile, tmp_path, capsys):
        # the default schedules' np.arange refused it first, with numpy's own message
        edges, classes, _ = tax
        cfg = tmp_path / "traj.cfg"
        cfg.write_text(f"epochs={10**20}\ndimension=10\nexamples_per_class=2\n")
        self._fails(["synth", "features", "--hierarchy", str(edges), "--classes", str(classes),
                     "--labelspace", str(spacefile), "--config", str(cfg), "--seed", "0"],
                    tmp_path, capsys, f"epochs {10**20} does not fit in int64")

    def test_infinite_ramp_refused_without_warning(self, tax, spacefile, tmp_path, capsys):
        edges, classes, _ = tax
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._fails(["synth", "predictions", "--hierarchy", str(edges), "--classes",
                         str(classes), "--labelspace", str(spacefile), "--epochs", "2",
                         "--examples", "12", "--accuracy", "linear:0:inf", "--within", "0.5,0.5",
                         "--seed", "1"], tmp_path, capsys, "values must be in [0, 1]")

    def test_ramp_over_epochs_beyond_int64(self, tax, spacefile, tmp_path, capsys):
        edges, classes, _ = tax
        assert run(["synth", "predictions", "--hierarchy", str(edges), "--classes", str(classes),
                    "--labelspace", str(spacefile), "--epochs", str(2**63), "--examples", "12",
                    "--accuracy", "linear:0.3:0.9", "--within", "0.5,0.5", "--seed", "1",
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"usage error: epochs {2**63} does not fit in int64\n"

    @pytest.mark.parametrize("epochs", ["-1", "0"])
    @pytest.mark.parametrize("accuracy", ["linear:0:1", "0.5,0.5"])
    def test_schedule_over_no_epochs(self, tax, spacefile, tmp_path, capsys, epochs, accuracy):
        # np.linspace refused a negative count first, with numpy's own message
        edges, classes, _ = tax
        assert run(["synth", "predictions", "--hierarchy", str(edges), "--classes", str(classes),
                    "--labelspace", str(spacefile), "--epochs", epochs, "--examples", "12",
                    "--accuracy", accuracy, "--within", "0.5,0.5", "--seed", "1",
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"usage error: epochs must be >= 1, got {epochs}\n"

    def test_empty_cover_matrix_refused(self, featdir, tmp_path, capsys, monkeypatch):
        # Features always hold a class, so stub an empty cover to reach the
        # matrix writer's refusal through the CLI.
        empty = SimilarityMatrix(labels=[], values=np.zeros((0, 0)))
        monkeypatch.setattr("hierkit.cli.cover_similarity", lambda q, s, cfg: empty)
        self._fails(["manifold", "cover", "--features", str(featdir / "features_e002.bin"),
                     "--k", "2", "--seed", "0"], tmp_path, capsys,
                    "cannot write a matrix with no labels")
        assert not (tmp_path / "out" / "cover.csv").exists()


def _child_env():
    """The environment of a child ``python -m hierkit.cli`` that imports this checkout."""
    src = str(Path(hierkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


_NO_SCIPY_CHILD = """
import json, sys
from hierkit.cli import run
for argv in json.loads(sys.argv[1]):
    if run(argv) != 0:
        sys.exit(f"exit status not 0: {argv}")
sys.exit("scipy was imported" if "scipy" in sys.modules else 0)
"""


def test_cli_commands_never_import_scipy(tax, featdir, tmp_path):
    # scipy is a test dependency only: one stray import would add about a third
    # of a second and 33 MB to every command.
    edges, classes, groups = tax
    tree = ["--hierarchy", str(edges), "--classes", str(classes)]
    space, log = tmp_path / "ls" / "hypernyms.tsv", tmp_path / "preds" / "predictions.csv"
    feats, head = str(featdir / "features_e002.bin"), tmp_path / "head.bin"
    write_head(ClassifierHead(weights=np.random.default_rng(0).standard_normal((6, 10)),
                              bias=np.zeros(6)), head)
    ccc = ["manifold", "ccc", "--features", feats, *tree, "--k", "2", "--seed", "0"]
    argvs = [
        ["labelspace", "build", *tree, "--groups", str(groups), "--out", str(space.parent)],
        ["synth", "predictions", *tree, "--labelspace", str(space), "--epochs", "3",
         "--examples", "60", "--accuracy", "linear:0.3:0.9", "--within", "0.5,0.5,0.5",
         "--seed", "1", "--out", str(log.parent)],
        ["metrics", "curves", "--log", str(log), "--labelspace", str(space), "--random-iso",
         "--seed", "3", "--out", str(tmp_path / "curves")],
        ccc + ["--out", str(tmp_path / "grid")],
        ccc + ["--method", "exact", "--out", str(tmp_path / "exact")],
        ["nc", "compute", "--features", feats, "--head", str(head), "--labelspace", str(space),
         "--out", str(tmp_path / "nc")],
    ]
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD, json.dumps(argvs)],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "nc" / "nc_hypernyms.json").exists()


@pytest.mark.parametrize("action", ["curves", "converge"])
def test_huge_label_without_labelspace_exits_one(tmp_path, action):
    # The hyponym space of this log has 10**17 + 1 classes.  It runs in a child
    # under a 1 GiB address-space limit, so a build that allocates per class
    # fails inside the child instead of exhausting the host's memory.
    resource = pytest.importorskip("resource")
    log = tmp_path / "p.csv"
    log.write_text(f"epoch,example_id,true_label,pred_label\n1,a,0,0\n1,b,0,{10**17}\n")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "hierkit.cli", "metrics", action,
                           "--log", str(log), "--out", str(tmp_path / "out")],
                          env=_child_env(), preexec_fn=limit_memory, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: Unable to allocate")


@pytest.mark.parametrize("action", ["curves", "converge"])
def test_label_beyond_int64_hyponym_space_exits_one(tmp_path, capsys, action):
    # the hyponym space of this log would have 2**63 classes
    log = tmp_path / "p.csv"
    log.write_text(f"epoch,example_id,true_label,pred_label\n1,a,0,0\n1,b,0,{2**63 - 1}\n")
    assert run(["metrics", action, "--log", str(log), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: class_count {2**63} does not fit in int64\n"


def test_examples_beyond_int64_exit_one(tax, spacefile, tmp_path):
    # np.arange(2**63) gave no rows and the example-id list grew until memory
    # ran out, so the case runs in a child under a 1 GiB address-space limit.
    resource = pytest.importorskip("resource")
    edges, classes, _ = tax

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "hierkit.cli", "synth", "predictions",
                           "--hierarchy", str(edges), "--classes", str(classes),
                           "--labelspace", str(spacefile), "--epochs", "2",
                           "--examples", str(2**63), "--accuracy", "linear:0.3:0.9",
                           "--within", "0.5,0.5", "--seed", "1", "--out", str(tmp_path / "out")],
                          env=_child_env(), preexec_fn=limit_memory, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == f"error: examples {2**63} does not fit in int64\n"


@pytest.mark.parametrize("action", ["cover", "ccc"])
def test_infinite_r_max_is_refused(tax, featdir, tmp_path, action):
    # Run in a child, so that a numpy warning would reach stderr as it does
    # from the shell: inf used to be taken, warn, and fail on a NaN matrix.
    edges, classes, _ = tax
    argv = [sys.executable, "-m", "hierkit.cli", "manifold", action, "--features",
            str(featdir / "features_e002.bin"), "--k", "2", "--seed", "0", "--r-max", "inf",
            "--out", str(tmp_path / "out")]
    if action == "ccc":
        argv += ["--hierarchy", str(edges), "--classes", str(classes)]
    proc = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "error: r_max must be finite, got inf\n"


# --------------------------------------- manifold cover and ccc: exit codes

@pytest.fixture(scope="module")
def cover_files(tmp_path_factory):
    """The taxonomy above and 6 classes x 6 rows of p=4 features, in both formats."""
    base = tmp_path_factory.mktemp("cover_property")
    (base / "edges.tsv").write_text(EDGES)
    (base / "classes.tsv").write_text(CLASSES)
    rng = np.random.default_rng(0)
    f = FeatureSet(rng.standard_normal((36, 4)), np.arange(36) % 6, 6)
    write_features(f, base / "features.bin")
    write_features(f, base / "features.csv")
    return base


_COVER_NUMBERS = ["0", "-1", "1e-320", str(2**63), "1e20", "nan", "inf"]
_COVER_COUNTS = ["1", "2", str(2**63), str(10**20)]
_EDITS = st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                            st.integers(0, 2**16), st.binary(min_size=1, max_size=1)),
                  max_size=3)


@settings(max_examples=200, deadline=None, database=None)
@given(command=st.sampled_from(["cover", "ccc"]), fmt=st.sampled_from(["bin", "csv"]),
       edits=_EDITS, k=st.sampled_from(_COVER_COUNTS),
       r_max=st.none() | st.sampled_from(_COVER_NUMBERS),
       grid_points=st.none() | st.sampled_from(_COVER_COUNTS),
       method=st.sampled_from(["grid", "exact"]))
def test_manifold_cover_and_ccc_exit_0_1_or_2(cover_files, command, fmt, edits, k, r_max,
                                              grid_points, method):
    # Every input here stays small: the features are at most a few bytes longer
    # than 36 rows, a class label costs no memory of its own, and counts beyond
    # int64 are refused before anything is allocated.  So the cases run
    # in-process, with warnings recorded, since from the shell they reach stderr.
    data = bytearray((cover_files / f"features.{fmt}").read_bytes())
    for op, pos, byte in edits:
        pos %= len(data) + 1
        if op == "insert":
            data[pos:pos] = byte
        elif pos < len(data):
            data[pos:pos + 1] = byte if op == "set" else b""
    path = cover_files / f"mutated.{fmt}"
    path.write_bytes(bytes(data))
    argv = ["manifold", command, "--features", str(path), "--k", k, "--seed", "0",
            "--method", method, "--out", str(cover_files / "out")]
    if command == "ccc":
        argv += ["--hierarchy", str(cover_files / "edges.tsv"),
                 "--classes", str(cover_files / "classes.tsv")]
    if r_max is not None:
        argv.append(f"--r-max={r_max}")
    if grid_points is not None:
        argv += ["--grid-points", grid_points]
    err = StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(argv)
    assert code in (0, 1, 2)
    assert err.getvalue() == "" or err.getvalue().startswith(("error:", "usage error:"))
    assert [str(w.message) for w in caught] == []


# ------------------------------ the other seven subcommands: exit codes

@pytest.fixture(scope="module")
def other_files(tmp_path_factory):
    """Valid inputs of every kind the remaining subcommands read."""
    base = tmp_path_factory.mktemp("other_property")
    (base / "edges.tsv").write_text(EDGES)
    (base / "classes.tsv").write_text(CLASSES)
    (base / "groups.tsv").write_text("fauna\tanimal\nflora\tplant\n")
    assert run(["labelspace", "build", "--hierarchy", str(base / "edges.tsv"),
                "--classes", str(base / "classes.tsv"), "--groups", str(base / "groups.tsv"),
                "--name", "space", "--out", str(base)]) == 0
    rng = np.random.default_rng(1)
    f = FeatureSet(rng.standard_normal((36, 4)), np.arange(36) % 6, 6)
    write_features(f, base / "features.bin")
    write_features(f, base / "features.csv")
    write_head(ClassifierHead(weights=rng.standard_normal((6, 4)), bias=np.zeros(6)),
               base / "head.bin")
    return base


_TAX = ["--hierarchy", "edges.tsv", "--classes", "classes.tsv"]
# per subcommand: its file flags (a value with {fmt} takes bin or csv) and its
# numeric flags with a valid value; "{}" marks where a drawn number goes
_OTHER_COMMANDS = {
    "labelspace build": ([*_TAX, "--groups", "groups.tsv"], {}),
    "labelspace random": (["--labelspace", "space.tsv"], {"--seed": "{}"}),
    "nc compute": (["--features", "features.{fmt}", "--head", "head.bin",
                    "--labelspace", "space.tsv"], {}),
    "synth features": ([*_TAX, "--labelspace", "space.tsv", "--config", "traj.cfg"],
                       {"--seed": "{}"}),
    "synth predictions": ([*_TAX, "--labelspace", "space.tsv"],
                          {"--epochs": "{}", "--examples": "{}", "--accuracy": "linear:0.3:{}",
                           "--within": "{},0.5", "--seed": "{}"}),
    "synth etf": ([], {"--class-count": "{}", "--dim": "{}", "--scale": "{}"}),
    "oracle superclass-acc": ([], {"--p": "{}", "--sizes": "3,{}", "--trials": "{}",
                                   "--seed": "{}"}),
}
_VALID = {"--seed": "1", "--epochs": "2", "--examples": "12", "--accuracy": "linear:0.3:0.9",
          "--within": "0.5,0.5", "--class-count": "4", "--dim": "6", "--scale": "1.0",
          "--p": "0.5", "--sizes": "3,3", "--trials": "1000"}
_CONFIG = {"epochs": "2", "dimension": "10", "examples_per_class": "2"}
_CONFIG_KEYS = [*_CONFIG, "seed", "hypernym_gap_schedule", "noise_schedule"]
_NUMBERS = ["0", "-1", str(2**63), str(10**20), "nan", "inf", "1e39"]
# argparse refuses a non-integer for an int flag with its own usage text, so
# these flags draw only the integers
_INT_FLAGS = ["--seed", "--epochs", "--examples", "--class-count", "--dim", "--trials"]
_DRAWS = (st.tuples(st.sampled_from(_INT_FLAGS), st.sampled_from(_NUMBERS[:4]))
          | st.tuples(st.sampled_from(sorted({*_VALID, *_CONFIG_KEYS} - {*_INT_FLAGS})),
                      st.sampled_from(_NUMBERS)))


@settings(max_examples=300, deadline=None, database=None)
@given(command=st.sampled_from(sorted(_OTHER_COMMANDS)), fmt=st.sampled_from(["bin", "csv"]),
       target=st.integers(0, 7), edits=_EDITS, numbers=st.lists(_DRAWS, max_size=3).map(dict))
def test_other_subcommands_exit_0_1_or_2(other_files, command, fmt, target, edits, numbers):
    # One input file is byte-mutated, and up to three numeric flags or config
    # keys take a number from _NUMBERS.  A count of 2**63 or 10**20 is refused
    # before anything is allocated (test_examples_beyond_int64_exit_one guards
    # the one that was not), and a mutated class count meets a smaller head or
    # hierarchy first, so the cases run in-process, with warnings recorded.
    files, flags = _OTHER_COMMANDS[command]
    work = other_files / "work"
    work.mkdir(exist_ok=True)
    drawn = {key: f"{n},{n}" if key.endswith("schedule") else n
             for key, n in numbers.items() if key in _CONFIG_KEYS}
    config = "".join(f"{key}={value}\n" for key, value in {**_CONFIG, **drawn}.items())
    argv = command.split()
    for i, (flag, name) in enumerate(zip(files[::2], files[1::2])):
        name = name.format(fmt=fmt)
        data = bytearray(config.encode() if name == "traj.cfg"
                         else (other_files / name).read_bytes())
        if i == target % (len(files) // 2):
            for op, pos, byte in edits:
                pos %= len(data) + 1
                if op == "insert":
                    data[pos:pos] = byte
                elif pos < len(data):
                    data[pos:pos + 1] = byte if op == "set" else b""
        (work / name).write_bytes(bytes(data))
        argv.append(f"{flag}={work / name}")
    argv += [f"{flag}={value.format(numbers[flag])}" if flag in numbers else f"{flag}={_VALID[flag]}"
             for flag, value in flags.items()]
    err = StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(argv + ["--out", str(work / "out")])
    assert code in (0, 1, 2)
    assert err.getvalue() == "" or err.getvalue().startswith(("error:", "usage error:"))
    assert "Traceback" not in err.getvalue()
    # the one warning by design: a singleton superclass cannot host a within error
    assert [str(w.message) for w in caught if "singleton superclass" not in str(w.message)] == []
