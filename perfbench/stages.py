"""The timed process: one workload's stages, run back to back in one process.

    PYTHONPATH=src python3 perfbench/stages.py --workload logs --seed 0 \
        --inputs IN --out OUT --result RESULT.json [--trace] [--setup-only]

Run from the workload's work directory so the paths the CLI records in
`run.json` are relative.  Each stage is one `hierkit.cli.run(argv)` call or,
for `desk`, one seed of the criterion-6 loop through the library.  A stage
that returns non-zero or raises is recorded as failed and the next stage
still runs.  The result file holds the monotonic clock at the first stage
and at the end, per-stage status, CPU time and `ru_maxrss`, plus the raw
spans when traced.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from pathlib import Path

from workloads import SHAPES, WORKLOADS


def cli_stages(workload: str, shapes: dict, seed: int, inp: Path, out: Path):
    """(name, argv) per stage; each stage writes into out/<name>."""
    tree = ["--hierarchy", inp / "edges.tsv", "--classes", inp / "classes.tsv"]
    if workload == "logs":
        space = out / "labelspace" / "hypernyms.tsv"
        log = out / "predictions" / "predictions.csv"
        curves = ["--log", log, "--labelspace", space, "--random-iso", "--seed", seed]
        return [
            ("labelspace", ["labelspace", "build", *tree, "--groups", inp / "groups.tsv",
                            "--name", "hypernyms"]),
            ("predictions", ["synth", "predictions", *tree, "--labelspace", space,
                             "--epochs", shapes["log_epochs"],
                             "--examples", shapes["log_examples"],
                             "--accuracy", "linear:0.05:0.85", "--within", "linear:0.9:0.3",
                             "--seed", seed]),
            ("curves", ["metrics", "curves", *curves]),
            ("converge", ["metrics", "converge", *curves]),
            ("confusion", ["metrics", "confusion", "--log", log,
                           "--epoch", shapes["log_epochs"]]),
        ]
    if workload == "cover":
        return [("ccc", ["manifold", "ccc", "--features", inp / "features.bin", *tree,
                         "--k", shapes["cover_k"], "--seed", seed])]
    if workload == "collapse":
        return [("nc", ["nc", "compute", "--features", inp / "features.bin",
                        "--head", inp / "head.bin",
                        "--labelspace", inp / "hypernyms.tsv"])]
    raise ValueError(workload)


def desk_seeds(shapes: dict, seed: int) -> list[int]:
    return [1000 * seed + k for k in range(shapes["desk_seeds"])]


def desk_stage(hk, h, space, shapes: dict, seed: int, out: Path) -> None:
    """One seed of the criterion-6 loop; nc1 runs on every epoch."""
    synth, labelspace, metrics, collapse = hk.synth, hk.labelspace, hk.metrics, hk.collapse
    params = synth.default_trajectory_params(
        epochs=shapes["desk_epochs"], dimension=shapes["desk_dimension"],
        examples_per_class=shapes["desk_per_class"], seed=seed)
    traj = synth.gen_hierarchical_trajectory(h, space, params)
    log = synth.ncc_prediction_log(traj)
    rand, _ = labelspace.random_isomorphic(space, seed + 1000)
    converge = [metrics.convergence_epoch(metrics.accuracy_series(labelspace.project_log(log, s)))
                for s in (space, rand)]
    nc1 = []
    for f in traj:
        st = collapse.class_statistics(f)
        lifted, _ = collapse.lift_to_superclass(st, None, space)
        nc1.append([collapse.nc1(st), collapse.nc1(lifted)])
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "desk.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "converge": converge, "nc1": nc1}, fh)
        fh.write("\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True, help="input seed")
    ap.add_argument("--shapes", choices=sorted(SHAPES), default="full")
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="exit after import: one more sample of set-up time")
    args = ap.parse_args()

    import hierkit
    import hierkit.cli

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    result = {"hierkit_file": hierkit.__file__, "stages": []}
    t_first = time.monotonic()
    result["t_first"] = t_first
    if args.setup_only:
        result["t_end"] = t_first
        args.result.write_text(json.dumps(result))
        return

    shapes = SHAPES[args.shapes]
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    if args.workload == "desk":
        stages = [("taxonomy", None)]
        stages += [(f"seed{s}", s) for s in desk_seeds(shapes, args.seed)]
    else:
        stages = cli_stages(args.workload, shapes, args.seed, args.inputs, args.out)

    h = space = None
    for name, spec in stages:
        t0 = time.monotonic()
        rc = 0
        try:
            if args.workload != "desk":
                argv = [str(a) for a in spec] + ["--out", str(args.out / name)]
                span = tracer.open("cli." + "_".join(argv[:2])) if tracer else None
                try:
                    rc = hierkit.cli.run(argv)
                finally:
                    if span is not None:
                        tracer.close(span)
            elif spec is None:
                h = hierkit.hierarchy.parse_hierarchy(args.inputs / "edges.tsv",
                                                      args.inputs / "classes.tsv")
                groups = hierkit.labelspace.parse_grouping(args.inputs / "groups.tsv")
                space, _ = hierkit.labelspace.build_labelspace(h, groups, name="hypernyms")
            else:
                desk_stage(hierkit, h, space, shapes, spec, args.out / name)
        except Exception:  # a failed stage is counted, the run goes on
            traceback.print_exc()
            rc = -1
        result["stages"].append({"name": name, "rc": rc, "s": time.monotonic() - t0})
    t_end = time.monotonic()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result["t_end"] = t_end
    result["cpu_s"] = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    result["maxrss_kb"] = ru1.ru_maxrss
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
