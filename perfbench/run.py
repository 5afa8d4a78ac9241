"""hierkit benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload cover --seed 0 --seconds 30 --trace 0

Run from the root of a hierkit checkout; the package is imported from its
`src/`.  Each repetition is a set-up (input generation in its own process)
followed by one fresh timed process that runs the workload's stages back to
back.  Untraced runs (`--trace 0`) report the end-to-end metrics as medians
over repetitions; traced runs (`--trace 1`) make one untraced and one traced
repetition and report per-layer metrics.  Every repetition's outputs are
checked against the recorded references.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import tracer  # noqa: E402
from workloads import SHAPES, WORKLOADS, input_seed  # noqa: E402

# A run always has at least this many set-up samples: the missing ones come
# from set-ups whose timed process exits right after `import hierkit`.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120


def metric_units() -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and per-layer metrics in BENCHMARK.json."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result; nothing is printed."""


def reference_path(shapes: str, workload: str, seed: int) -> Path:
    return BENCH / "references" / shapes / workload / f"seed{seed}.json"


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import numpy  # noqa: F401  (loads the BLAS library)
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def gemm_gflops(n: int = 1024, repeats: int = 5) -> float:
    """Best rate of a fixed n x n float64 matrix product."""
    import numpy as np
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n ** 3 / best / 1e9


def machine_facts(loadavg_1m: float) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "loadavg_1m": loadavg_1m}


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, shapes: str) -> None:
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.shapes = shapes
        self.work = BENCH / ".work" / shapes / workload
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH", "")) if p)

    def _child(self, script: str, args: list, log) -> None:
        cmd = [sys.executable, str(BENCH / script), "--workload", self.workload,
               "--seed", str(self.seed), "--shapes", self.shapes, *map(str, args)]
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, stdout=log,
                              stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"{script} exited {proc.returncode}; see {log.name}")

    def repetition(self, trace: bool = False, setup_only: bool = False) -> dict:
        """Set up, then run the timed process; returns its measurements."""
        for name in ("in", "out", "result.json"):
            path = self.work / name
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        self.work.mkdir(parents=True, exist_ok=True)
        with open(self.work / "children.log", "w", encoding="utf-8") as log:
            t0 = time.monotonic()
            self._child("gen.py", ["--out", "in"], log)
            self._child("stages.py", ["--inputs", "in", "--out", "out",
                                      "--result", "result.json"]
                        + (["--trace"] if trace else [])
                        + (["--setup-only"] if setup_only else []), log)
        res = json.loads((self.work / "result.json").read_text(encoding="utf-8"))
        hk_file = Path(res["hierkit_file"]).resolve()
        if not hk_file.is_relative_to(self.src.resolve()):
            raise BenchError(f"imported hierkit from {hk_file}, not from {self.src}")
        res["hierkit_file"] = str(hk_file)
        res["setup_s"] = res["t_first"] - t0
        if not setup_only:
            res["pipeline_s"] = res["t_end"] - res["t_first"]
            res["peak_rss_mb"] = res["maxrss_kb"] / 1024.0
        return res

    def stage_failures(self, res: dict, reference: dict) -> list[str]:
        """Stages that failed or whose outputs differ from the reference."""
        failed = []
        for stage in res["stages"]:
            name = stage["name"]
            ref = reference["stages"].get(name)
            if stage["rc"] != 0 or ref is None or \
                    not check.stage_matches(ref, self.work / "out" / name):
                failed.append(name)
        missing = set(reference["stages"]) - {s["name"] for s in res["stages"]}
        return failed + sorted(missing)

    def record(self, res: dict) -> Path:
        bad = [s["name"] for s in res["stages"] if s["rc"] != 0]
        if bad:
            raise BenchError(f"not recording: stages {bad} failed")
        path = reference_path(self.shapes, self.workload, self.seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"workload": self.workload, "input_seed": self.seed,
                   "shapes": SHAPES[self.shapes],
                   "stages": {s["name"]: check.snapshot(self.work / "out" / s["name"])
                              for s in res["stages"]}}
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return path


def load_reference(shapes: str, workload: str, seed: int) -> dict:
    path = reference_path(shapes, workload, seed)
    if not path.is_file():
        raise BenchError(f"no reference outputs for {workload} input seed {seed} "
                         f"at {path}; refusing to run unchecked")
    ref = json.loads(path.read_text(encoding="utf-8"))
    if ref["shapes"] != json.loads(json.dumps(SHAPES[shapes])):
        raise BenchError(f"{path} was recorded for other shapes; re-record it")
    return ref


def per_layer(traced: dict, untraced: dict, gflops: float, names) -> dict:
    m = tracer.layer_metrics(traced["spans"], traced["counts"], traced["pipeline_s"])

    def rate(count_key: str, time_key: str, scale: float = 1.0) -> float:
        t = m.get(time_key, 0.0)
        return m.get(count_key, 0.0) / scale / t if t > 0 else 0.0

    m["io.read_predictions.rows_per_s"] = rate("io.read_predictions.rows",
                                               "io.read_predictions.s")
    m["io.write_predictions.rows_per_s"] = rate("io.write_predictions.rows",
                                                "io.write_predictions.s")
    m["io.read_features.mb_per_s"] = rate("io.read_features.bytes", "io.read_features.s",
                                          tracer.MB)
    for fn in ("manifold.cover_similarity", "collapse.nearest_mean_labels"):
        m[f"{fn}.gflops_nominal"] = rate(f"{fn}.flops", f"{fn}.s", 1e9)
    m["process.cpu_s"] = untraced["cpu_s"]
    m["process.cpu_util"] = untraced["cpu_s"] / untraced["pipeline_s"]
    m["machine.gemm_gflops"] = gflops
    m["trace.overhead_s"] = traced["pipeline_s"] - untraced["pipeline_s"]
    return {name: m.get(name, 0.0) for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; selects input set seed %% REFERENCE_SEEDS")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="start another repetition only if it should end within this")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shapes", choices=sorted(SHAPES), default="full",
                    help="'tiny' is for the self-test only")
    ap.add_argument("--record", action="store_true",
                    help="write the reference outputs for this input seed from one "
                         "repetition instead of checking against them")
    args = ap.parse_args(argv)

    with open("/proc/loadavg", encoding="ascii") as fh:
        loadavg = float(fh.read().split()[0])
    t_start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "hierkit" / "__init__.py").is_file():
        raise BenchError(f"{root} is not a hierkit checkout (no src/hierkit)")
    e2e_units, layer_units = metric_units()
    seed = input_seed(args.seed)
    runner = Runner(root, args.workload, seed, args.shapes)
    reference = None if args.record else load_reference(args.shapes, args.workload, seed)
    print(f"perfbench workload={args.workload} seed={args.seed} input_seed={seed} "
          f"shapes={args.shapes} trace={args.trace}")

    full: list[dict] = []
    setups: list[float] = []
    traced = None
    attempted = failed = 0

    def measured(res: dict, kind: str) -> dict:
        """Check (or record) a repetition's outputs before the next one replaces them."""
        nonlocal attempted, failed
        if args.record:
            print(f"recorded {runner.record(res).relative_to(root)}")
        bad = [] if args.record else runner.stage_failures(res, reference)
        attempted += len(res["stages"])
        failed += len(bad)
        setups.append(res["setup_s"])
        print(f"rep {kind} setup_s={res['setup_s']:.4f} pipeline_s={res['pipeline_s']:.4f} "
              f"peak_rss_mb={res['peak_rss_mb']:.1f} stages={len(res['stages'])} "
              f"failed={bad}")
        return res

    if args.record:
        full.append(measured(runner.repetition(), "untraced"))
    elif args.trace:
        full.append(measured(runner.repetition(), "untraced"))
        traced = measured(runner.repetition(trace=True), "traced")
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(runner.repetition(setup_only=True)["setup_s"])
        while True:
            t0 = time.monotonic()
            full.append(measured(runner.repetition(), "untraced"))
            if time.monotonic() + (time.monotonic() - t0) > t_start + args.seconds:
                break

    facts = machine_facts(loadavg)
    facts["machine.gemm_gflops"] = gemm_gflops()
    facts["hierkit_file"] = full[0]["hierkit_file"]
    print("machine " + json.dumps(facts, sort_keys=True))

    e2e = {"setup_s": statistics.median(setups),
           "pipeline_s": statistics.median(r["pipeline_s"] for r in full),
           "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full)}
    for name, unit in e2e_units.items():
        print(f"{name} {e2e[name]:.6g} {unit}")
    print(f"stage_error_rate {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} stages; samples: {len(setups)} set-ups, "
          f"{len(full)} pipelines)")

    if traced is not None:
        units = layer_units
        values = per_layer(traced, full[0], facts["machine.gemm_gflops"], units)
        for name in values:
            print(f"{name} {values[name]:.6g} {units[name]}")
    else:
        units = e2e_units
        values = {name: e2e[name] for name in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
