"""Command-line front end.

Each subcommand wires library calls into one analysis pipeline and writes
plot-ready tables plus a `run.json` manifest (inputs, options, seed, toolkit
version, no timestamps), so identical invocations produce byte-identical
output directories.  The manifest comes from the parsed flags alone: inputs
are the file-path flags, options are the rest, and seed is `--seed` or null.
Exit codes: 0 success, 2 usage error, 1 data error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .collapse import class_statistics, lift_to_superclass, nc_report
from .hierarchy import graph_distance_matrix, parse_hierarchy
from .io import (read_features, read_head, read_predictions, write_csv, write_features,
                 write_json, write_predictions, write_table)
from .labelspace import (LabelSpace, build_labelspace, hyponym_space,
                         parse_grouping, project_log, random_isomorphic,
                         read_labelspace, write_labelspace)
from .manifold import (CoverConfig, FeatureSet, ccc, cover_similarity,
                       split_query_support, to_distance_matrix)
from .metrics import (accuracy_series, baseline, confusion_matrix,
                      convergence_epoch, relative_accuracy, relative_gain,
                      residual_error, theoretical_superclass_accuracy)
from .synth import (gen_etf, gen_hierarchical_trajectory, gen_prediction_trajectory,
                    mc_superclass_accuracy, parse_schedule, parse_trajectory_config)

__all__ = ["main", "run"]


class _UsageError(Exception):
    """Flag combinations argparse cannot express; mapped to exit code 2."""


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name)


# File-path flags; run.json records them under "inputs", None as "".
_INPUT_FLAGS = ("hierarchy", "classes", "groups", "labelspace", "log", "features",
                "head", "config")
# Namespace keys that are neither inputs nor options.
_NOT_OPTIONS = ("group", "action", "func", "out", "seed")


def _manifest(args) -> dict:
    """The run.json payload, derived from the parsed namespace alone."""
    flags = vars(args)
    return {"command": f"{args.group} {args.action}", "version": __version__,
            "seed": flags.get("seed"),
            "inputs": {k: "" if v is None else str(v)
                       for k, v in flags.items() if k in _INPUT_FLAGS},
            "options": {k: v for k, v in flags.items()
                        if k not in _INPUT_FLAGS and k not in _NOT_OPTIONS}}


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(x) for x in text.split(",")]
    except ValueError:
        raise _UsageError(f"--sizes must be comma-separated integers, got {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise _UsageError("--sizes entries must be positive")
    if max(sizes) >= 2**63:
        raise _UsageError(f"--sizes entry {max(sizes)} does not fit in int64")
    if sum(sizes) >= 2**63:
        raise _UsageError(f"--sizes total {sum(sizes)} does not fit in int64")
    return sizes


# ------------------------------------------------------------- labelspace

def _cmd_labelspace_build(args, out: Path) -> None:
    h = parse_hierarchy(args.hierarchy, args.classes)
    space, _ = build_labelspace(h, parse_grouping(args.groups), name=args.name)
    write_labelspace(space, out / f"{_safe_name(space.name)}.tsv")


def _cmd_labelspace_random(args, out: Path) -> None:
    base = read_labelspace(args.labelspace)
    space, _ = random_isomorphic(base, args.seed)
    write_labelspace(space, out / f"{_safe_name(space.name)}.tsv")


# ---------------------------------------------------------------- metrics

def _curve_spaces(args, log) -> list:
    """(tag, space, accuracy series) for the hyponym, named and random spaces.

    The named projection comes first, so that a partition mismatch fails before
    the hyponym space (one table entry per label of the log) is built, and the
    usage errors come before any output.  Each projected log is dropped once its
    series is taken, so no two projected logs are held at once.
    """
    curves = []
    if args.labelspace:
        named = read_labelspace(args.labelspace)
        curves.append((_safe_name(named.name), named,
                       accuracy_series(project_log(log, named))))
    if args.random_iso:
        if not args.labelspace:
            raise _UsageError("--random-iso requires --labelspace")
        if args.seed is None:
            raise _UsageError("--random-iso requires --seed")
        rand, _ = random_isomorphic(named, args.seed)
        curves.append(("random", rand, accuracy_series(project_log(log, rand))))
    return [("hyponym", hyponym_space(log.label_count), accuracy_series(log)), *curves]


def _cmd_metrics_curves(args, out: Path) -> None:
    log = read_predictions(args.log)
    for tag, space, a in _curve_spaces(args, log):
        write_table(a, out / f"{tag}_accuracy.csv")
        write_table(relative_accuracy(a), out / f"{tag}_relative.csv")
        write_table(relative_gain(a, baseline(space)), out / f"{tag}_gain.csv")
        write_table(residual_error(a), out / f"{tag}_residual.csv")


def _cmd_metrics_converge(args, out: Path) -> None:
    log = read_predictions(args.log)
    lines = [f"{tag},{convergence_epoch(a, args.fraction)}"
             for tag, _, a in _curve_spaces(args, log)]
    write_csv(out / "converge.csv", "space,epoch", lines)


def _cmd_metrics_confusion(args, out: Path) -> None:
    log = read_predictions(args.log)
    if args.labelspace:
        space = read_labelspace(args.labelspace)
        log = project_log(log, space)
    cm = confusion_matrix(log.at_epoch(args.epoch))
    write_table(cm, out / "confusion.csv")


# --------------------------------------------------------------- manifold

def _cover(args):
    """The cover similarity of --features under the cover flags.  The flags are
    checked before the feature file is read, and the feature set is never bound
    to a name, so it is freed once it is split."""
    cfg = CoverConfig(k=args.k, r_max=args.r_max, grid_points=args.grid_points,
                      seed=args.seed, method=args.method)
    return cover_similarity(*split_query_support(read_features(args.features), cfg), cfg)


def _cmd_manifold_cover(args, out: Path) -> None:
    write_table(_cover(args), out / "cover.csv")


def _cmd_manifold_ccc(args, out: Path) -> None:
    h = parse_hierarchy(args.hierarchy, args.classes)
    sim = _cover(args)
    d_features = to_distance_matrix(sim)
    d_graph = graph_distance_matrix(h, classes=d_features.labels)
    value = ccc(d_features, d_graph)
    write_json({"ccc": value, "classes": len(d_features.labels), "r_max": sim.r_max},
               out / "ccc.json")
    print(f"ccc {value:.6f}")


# --------------------------------------------------------------------- nc

def _cmd_nc_compute(args, out: Path) -> None:
    f = read_features(args.features)
    head = read_head(args.head)
    if head.class_count != f.class_count:
        raise ValueError(f"{args.head}: head has {head.class_count} rows, but "
                         f"{args.features} has {f.class_count} classes")
    stats = class_statistics(f)
    report = nc_report(f, head, "hyponyms", stats=stats)
    write_table(report, out / "nc_hyponyms.json")
    if args.labelspace:
        space = read_labelspace(args.labelspace)
        lifted_stats, lifted_head = lift_to_superclass(stats, head, space)
        lifted = nc_report(f, lifted_head, space.name, stats=lifted_stats)
        write_table(lifted, out / f"nc_{_safe_name(space.name)}.json")


# ------------------------------------------------------------------ synth

def _cmd_synth_features(args, out: Path) -> None:
    h = parse_hierarchy(args.hierarchy, args.classes)
    space = read_labelspace(args.labelspace)
    params = parse_trajectory_config(args.config or (), seed=args.seed)
    for f in gen_hierarchical_trajectory(h, space, params):
        write_features(f, out / f"features_e{f.epoch:03d}.bin")


def _cmd_synth_predictions(args, out: Path) -> None:
    h = parse_hierarchy(args.hierarchy, args.classes)
    space = read_labelspace(args.labelspace)
    try:
        acc = parse_schedule(args.accuracy, args.epochs, "--accuracy")
        within = parse_schedule(args.within, args.epochs, "--within")
    except ValueError as e:
        raise _UsageError(str(e)) from None
    log = gen_prediction_trajectory(h, space, args.epochs, acc, within,
                                    args.examples, args.seed)
    write_predictions(log, out / "predictions.csv")


def _cmd_synth_etf(args, out: Path) -> None:
    frame = gen_etf(args.class_count, args.dim, scale=args.scale)
    f = FeatureSet(vectors=frame, labels=np.arange(args.class_count),
                   class_count=args.class_count)
    write_features(f, out / "etf.bin")


# ----------------------------------------------------------------- oracle

def _cmd_oracle_superclass_acc(args, out: Path) -> None:
    sizes = _parse_sizes(args.sizes)
    space = LabelSpace(name="sizes", table=np.repeat(np.arange(len(sizes)), sizes))
    analytic = theoretical_superclass_accuracy(args.p, space)
    estimate, stderr = mc_superclass_accuracy(args.p, sizes, args.trials, args.seed)
    print(f"analytic {analytic:.6f}")
    print(f"monte-carlo {estimate:.6f} (stderr {stderr:.6f}, {args.trials} trials)")
    write_json({"analytic": analytic, "monte_carlo": estimate, "stderr": stderr,
                "trials": args.trials}, out / "oracle.json")


# ----------------------------------------------------------------- parser

def _add_out(p: argparse.ArgumentParser, func) -> None:
    """The --out flag, and ``func`` as the subcommand's handler."""
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.set_defaults(func=func)


def _add_cover_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True,
                   help="examples per class in each of the query/support halves")
    p.add_argument("--r-max", type=float, default=None,
                   help="cover radius ceiling (default: max observed min distance)")
    p.add_argument("--grid-points", type=int, default=200)
    p.add_argument("--method", choices=("grid", "exact"), default="grid")
    p.add_argument("--seed", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierkit",
        description="Hierarchy-aware training-dynamics toolkit: label spaces, "
                    "accuracy curves, manifold cover, neural-collapse reports.")
    parser.add_argument("--version", action="version", version=f"hierkit {__version__}")
    groups = parser.add_subparsers(dest="group", required=True, metavar="command")

    ls = groups.add_parser("labelspace", help="build and randomize label spaces")
    ls_sub = ls.add_subparsers(dest="action", required=True, metavar="action")
    p = ls_sub.add_parser("build", help="group classes by hierarchy ancestors")
    p.add_argument("--hierarchy", required=True, help="edge list file (parent<TAB>child)")
    p.add_argument("--classes", required=True, help="class list file (index<TAB>name)")
    p.add_argument("--groups", required=True, help="grouping file (one ancestor set per line)")
    p.add_argument("--name", default="hypernyms")
    _add_out(p, _cmd_labelspace_build)
    p = ls_sub.add_parser("random", help="size-isomorphic random control space")
    p.add_argument("--labelspace", required=True, help="label space TSV to mirror")
    p.add_argument("--seed", type=int, required=True)
    _add_out(p, _cmd_labelspace_random)

    me = groups.add_parser("metrics", help="accuracy-curve family from prediction logs")
    me_sub = me.add_subparsers(dest="action", required=True, metavar="action")
    for action, func in (("curves", _cmd_metrics_curves),
                         ("converge", _cmd_metrics_converge)):
        p = me_sub.add_parser(action)
        p.add_argument("--log", required=True, help="prediction log CSV")
        p.add_argument("--labelspace", default=None)
        p.add_argument("--random-iso", action="store_true",
                       help="also evaluate a seeded random isomorphic space")
        p.add_argument("--seed", type=int, default=None)
        if action == "converge":
            p.add_argument("--fraction", type=float, default=0.95)
        _add_out(p, func)
    p = me_sub.add_parser("confusion")
    p.add_argument("--log", required=True)
    p.add_argument("--labelspace", default=None)
    p.add_argument("--epoch", type=int, required=True)
    _add_out(p, _cmd_metrics_confusion)

    ma = groups.add_parser("manifold", help="mutual-cover similarity and CCC")
    ma_sub = ma.add_subparsers(dest="action", required=True, metavar="action")
    p = ma_sub.add_parser("cover")
    p.add_argument("--features", required=True)
    _add_cover_flags(p)
    _add_out(p, _cmd_manifold_cover)
    p = ma_sub.add_parser("ccc")
    p.add_argument("--features", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--classes", required=True)
    _add_cover_flags(p)
    _add_out(p, _cmd_manifold_ccc)

    nc = groups.add_parser("nc", help="neural-collapse reports")
    nc_sub = nc.add_subparsers(dest="action", required=True, metavar="action")
    p = nc_sub.add_parser("compute")
    p.add_argument("--features", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--labelspace", default=None,
                   help="also report in this lifted superclass space")
    _add_out(p, _cmd_nc_compute)

    sy = groups.add_parser("synth", help="synthetic data generators")
    sy_sub = sy.add_subparsers(dest="action", required=True, metavar="action")
    p = sy_sub.add_parser("features")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--labelspace", required=True)
    p.add_argument("--config", default=None, help="key=value trajectory config")
    p.add_argument("--seed", type=int, required=True)
    _add_out(p, _cmd_synth_features)
    p = sy_sub.add_parser("predictions")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--labelspace", required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--examples", type=int, required=True)
    p.add_argument("--accuracy", required=True, help="'linear:a:b' or comma list")
    p.add_argument("--within", required=True, help="'linear:a:b' or comma list")
    p.add_argument("--seed", type=int, required=True)
    _add_out(p, _cmd_synth_predictions)
    p = sy_sub.add_parser("etf")
    p.add_argument("--class-count", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    _add_out(p, _cmd_synth_etf)

    orc = groups.add_parser("oracle", help="closed-form and Monte-Carlo oracles")
    orc_sub = orc.add_subparsers(dest="action", required=True, metavar="action")
    p = orc_sub.add_parser("superclass-acc")
    p.add_argument("--p", type=float, required=True, help="hyponym accuracy in [0, 1]")
    p.add_argument("--sizes", required=True, help="superclass sizes, comma-separated")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    _add_out(p, _cmd_oracle_superclass_acc)

    return parser


def run(argv=None) -> int:
    """Parse and execute; returns 0 (ok), 2 (usage error) or 1 (data error)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return int(code) if isinstance(code, int) else (0 if code is None else 2)
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        args.func(args, out)
        write_json(_manifest(args), out / "run.json")
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
