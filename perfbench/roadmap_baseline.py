"""One-off: re-measure the ROADMAP's baseline table with the traced harness.

    PYTHONPATH=src python3 perfbench/roadmap_baseline.py

Run from the root of a hierkit checkout; takes about four minutes on 2 cores.
Not a workload: it runs once, at the ROADMAP's own shapes, and prints the
inclusive and self times of the traced calls.  The shapes are C=1000 in the
3-level tree, p=512 and 50 examples per class (N=50k):

- `manifold ccc --k 10`, grid and exact methods
- `nc compute --labelspace` on all 50k examples
- `synth predictions` writing and `metrics confusion` reading a 1M-row log
- `class_statistics` on 50k x 512 (inside `nc compute`)
- `graph_distance_matrix` at C=1000 (inside `manifold ccc`)
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

FANOUT = (10, 10, 10)
P = 512
PER_CLASS = 50

REPORTED = ("manifold.cover_similarity", "hierarchy.graph_distance_matrix",
            "collapse.nc_report", "collapse.nc4_mismatch", "collapse.nearest_mean_labels",
            "collapse.class_statistics", "io.write_predictions", "io.read_predictions",
            "io.read_features")


def main() -> None:
    work = BENCH / ".work" / "roadmap"
    shutil.rmtree(work, ignore_errors=True)
    inp = work / "in"
    inp.mkdir(parents=True)
    c = gen.write_tree(inp, FANOUT)
    gen.write_features(inp, FANOUT, P, PER_CLASS, seed=0)
    gen.write_head(inp, c, P, seed=0)
    gen.write_hypernym_space(inp)

    import hierkit.cli
    tracer = Tracer()
    tracer.install()
    tree = ["--hierarchy", str(inp / "edges.tsv"), "--classes", str(inp / "classes.tsv")]
    log = str(work / "synth" / "predictions.csv")
    stages = {
        "ccc grid, C=1000 k=10": ["manifold", "ccc", "--features", str(inp / "features.bin"),
                                  *tree, "--k", "10", "--seed", "0"],
        "ccc exact, C=1000 k=10": ["manifold", "ccc", "--features", str(inp / "features.bin"),
                                   *tree, "--k", "10", "--seed", "0", "--method", "exact"],
        "nc compute, N=50k": ["nc", "compute", "--features", str(inp / "features.bin"),
                              "--head", str(inp / "head.bin"),
                              "--labelspace", str(inp / "hypernyms.tsv")],
        "write 1M-row log": ["synth", "predictions", *tree,
                             "--labelspace", str(inp / "hypernyms.tsv"), "--epochs", "20",
                             "--examples", "50000", "--accuracy", "linear:0.05:0.85",
                             "--within", "linear:0.9:0.3", "--seed", "0"],
        "read 1M-row log": ["metrics", "confusion", "--log", log, "--epoch", "20"],
    }
    for title, argv in stages.items():
        out = work / ("synth" if argv[0] == "synth" else title.split(",")[0].replace(" ", "_"))
        tracer.spans = []
        t0 = time.monotonic()
        idx = tracer.open("cli." + "_".join(argv[:2]))
        rc = hierkit.cli.run(argv + ["--out", str(out)])
        tracer.close(idx)
        wall = time.monotonic() - t0
        m = layer_metrics(tracer.spans, {}, wall)
        print(f"## {title}: rc={rc} wall={wall:.2f} s coverage={m['trace.coverage']:.3f}")
        for fn in REPORTED:
            if f"{fn}.s" in m:
                print(f"   {fn}: {m[fn + '.s']:.2f} s over {m[fn + '.calls']} call(s)")
        layers = sorted((k for k in m if k.endswith(".self_s")), key=lambda k: -m[k])
        print("   self: " + ", ".join(f"{k[:-7]} {m[k]:.2f} s" for k in layers))
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
