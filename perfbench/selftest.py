"""Self-test of the benchmark at tiny shapes; takes about a minute.

    python3 perfbench/selftest.py

Run from the root of a hierkit checkout.  It lives outside `tests/`, so the
package's own pytest run never collects it.  It checks that every workload
runs once untraced and twice traced with all outputs matching the tiny
references, that every metric in BENCHMARK.json is emitted with its unit,
that count metrics repeat exactly, that one corrupted output byte makes a
stage fail, that an input seed without references is refused, and that the
benchmark fails without printing a result outside a hierkit checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def bench(*args: str, cwd: Path = ROOT, bench_dir: Path = BENCH) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(bench_dir / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def run_tiny(workload: str, trace: int) -> tuple[dict, list[str]]:
    rc, lines = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                      "--trace", str(trace), "--shapes", "tiny")
    expect(rc == 0, f"{workload} trace={trace} exits 0")
    return (json.loads(lines[-1]) if lines else {}), lines


def check_metrics(result: dict, lines: list[str], wanted: dict, what: str) -> None:
    metrics = result.get("metrics", {})
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result has exactly correct/attempted/failed/metrics")
    expect(result.get("correct") is True and result.get("failed") == 0
           and result.get("attempted", 0) >= 1, f"{what}: all stages correct")
    expect({k: v["unit"] for k, v in metrics.items()} == wanted,
           f"{what}: every metric emitted once with its unit")
    for name, unit in (("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"),
                       ("stage_error_rate", "fraction")):
        expect(any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines),
               f"{what}: prints {name} with unit {unit}")
    facts = next((json.loads(line[len("machine "):]) for line in lines
                  if line.startswith("machine ")), {})
    expect({"nproc", "python", "numpy", "scipy", "blas", "blas_version", "blas_threads",
            "loadavg_1m", "machine.gemm_gflops", "hierkit_file"} <= set(facts),
           f"{what}: machine facts recorded")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists every workload")

    measured: set[str] = set()
    for workload in WORKLOADS:
        result, lines = run_tiny(workload, 0)
        check_metrics(result, lines, e2e, f"{workload} untraced")
        first, lines = run_tiny(workload, 1)
        check_metrics(first, lines, layers, f"{workload} traced")
        second, _ = run_tiny(workload, 1)
        counts = [n for n, unit in layers.items() if unit == "count"]
        expect(all(first["metrics"][n]["value"] == second["metrics"][n]["value"]
                   for n in counts), f"{workload}: count metrics repeat exactly")
        measured |= {n for n, m in first.get("metrics", {}).items() if m["value"] != 0}
    unmeasured = sorted(set(layers) - measured)
    expect(not unmeasured, f"every per-layer metric is non-zero on some workload {unmeasured}")

    for workload, victim in (("logs", "confusion/confusion.csv"), ("cover", "ccc/ccc.json")):
        run_tiny(workload, 0)
        runner = run.Runner(ROOT, workload, 1, "tiny")
        reference = run.load_reference("tiny", workload, 1)
        res = json.loads((runner.work / "result.json").read_text(encoding="utf-8"))
        expect(runner.stage_failures(res, reference) == [], f"{workload}: outputs match")
        path = runner.work / "out" / victim
        data = bytearray(path.read_bytes())
        # a significant digit: the last count of the CSV, the leading digit of ccc
        pos = (max(i for i, b in enumerate(data) if chr(b).isdigit()) if path.suffix == ".csv"
               else data.index(b": ") + 2)
        data[pos] = ord("7") if data[pos] != ord("7") else ord("3")
        path.write_bytes(bytes(data))
        expect(runner.stage_failures(res, reference) == [victim.split("/")[0]],
               f"{workload}: one corrupted byte in {victim} fails its stage")

    try:
        run.load_reference("tiny", "cover", 99)
        expect(False, "an input seed without references is refused")
    except run.BenchError:
        expect(True, "an input seed without references is refused")

    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, lines = bench("--workload", "desk", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=bare, bench_dir=bare / BENCH.name)
    expect(rc != 0 and not any(line.startswith("{") for line in lines),
           "outside a checkout: exits non-zero without a result")
    shutil.rmtree(bare)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
