"""Set-up: write one workload's inputs for one input seed.

Run as its own process before the timed process starts, so the generator's
memory never counts in `peak_rss_mb`:

    PYTHONPATH=src python3 perfbench/gen.py --workload cover --seed 0 --out DIR

Random draws come from numpy's Philox keyed on (seed, stream) directly, not
from `hierkit.rng`, so a change to the package under test cannot change the
inputs.  Binary features, heads and label spaces go through hierkit's own
writers.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from workloads import SHAPES, WORKLOADS


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)


def write_tree(out: Path, fanout) -> int:
    """root -> t* -> m* -> c* with the given fan-out per level; returns C.

    The grouping file lists the top-level nodes, so the hypernym space has
    one superclass per top-level node.
    """
    tops, mids, leaves = fanout
    edges, classes, groups = [], [], []
    ci = 0
    for t in range(tops):
        edges.append(f"root\tt{t}")
        groups.append(f"T{t}\tt{t}")
        for m in range(mids):
            mid = t * mids + m
            edges.append(f"t{t}\tm{mid}")
            for _ in range(leaves):
                edges.append(f"m{mid}\tc{ci}")
                classes.append(f"{ci}\tc{ci}")
                ci += 1
    _write_lines(out / "edges.tsv", edges)
    _write_lines(out / "classes.tsv", classes)
    _write_lines(out / "groups.tsv", groups)
    return ci


def write_grouped_tree(out: Path, sizes) -> None:
    """root -> g* -> n*: the two-level taxonomy of acceptance criterion 6."""
    edges, classes, groups = [], [], []
    ci = 0
    for g, size in enumerate(sizes):
        edges.append(f"root\tg{g}")
        groups.append(f"g{g}\tg{g}")
        for _ in range(size):
            edges.append(f"g{g}\tn{ci}")
            classes.append(f"{ci}\tn{ci}")
            ci += 1
    _write_lines(out / "edges.tsv", edges)
    _write_lines(out / "classes.tsv", classes)
    _write_lines(out / "groups.tsv", groups)


def write_features(out: Path, fanout, p: int, per_class: int, seed: int) -> None:
    """Class mean = top-level anchor + mid-level offset + class offset; unit noise."""
    from hierkit.io import write_features as hk_write_features
    from hierkit.manifold import FeatureSet

    tops, mids, leaves = fanout
    c = tops * mids * leaves
    anchors = 2.0 * _rng(seed, 1).standard_normal((tops, p))
    offsets = 1.0 * _rng(seed, 2).standard_normal((tops * mids, p))
    own = 0.5 * _rng(seed, 3).standard_normal((c, p))
    cls = np.arange(c)
    means = anchors[cls // (mids * leaves)] + offsets[cls // leaves] + own
    labels = np.repeat(cls, per_class)
    vectors = means[labels] + _rng(seed, 4).standard_normal((labels.size, p))
    hk_write_features(FeatureSet(vectors.astype(np.float32), labels, c), out / "features.bin")


def write_head(out: Path, c: int, p: int, seed: int) -> None:
    from hierkit.collapse import ClassifierHead
    from hierkit.io import write_head as hk_write_head

    rng = _rng(seed, 5)
    hk_write_head(ClassifierHead(weights=rng.standard_normal((c, p)),
                                 bias=0.1 * rng.standard_normal(c)), out / "head.bin")


def write_hypernym_space(out: Path) -> None:
    from hierkit.hierarchy import parse_hierarchy
    from hierkit.labelspace import build_labelspace, parse_grouping, write_labelspace

    h = parse_hierarchy(out / "edges.tsv", out / "classes.tsv")
    space, _ = build_labelspace(h, parse_grouping(out / "groups.tsv"), name="hypernyms")
    write_labelspace(space, out / "hypernyms.tsv")


def generate(workload: str, shapes: dict, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "desk":
        write_grouped_tree(out, shapes["desk_groups"])
        return
    c = write_tree(out, shapes["tree"])
    p = shapes["dimension"]
    if workload == "cover":
        write_features(out, shapes["tree"], p, shapes["cover_per_class"], seed)
    elif workload == "collapse":
        write_features(out, shapes["tree"], p, shapes["collapse_per_class"], seed)
        write_head(out, c, p, seed)
        write_hypernym_space(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True, help="input seed")
    ap.add_argument("--shapes", choices=sorted(SHAPES), default="full")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    generate(args.workload, SHAPES[args.shapes], args.seed, args.out)


if __name__ == "__main__":
    main()
