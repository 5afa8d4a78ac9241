"""Spans around calls into hierkit's modules, recorded from outside the package.

`Tracer.install()` wraps every public function of each layer module in one
wrapper and rebinds every hierkit module attribute that held the original
function, so calls through the defining module and through names imported
elsewhere (`cli` binds the readers, `synth` binds `nearest_mean_labels`) are
all timed once.  Spans are kept in memory as (name, start, end, parent) and
turned into per-layer metrics by `layer_metrics` after the run.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import types
from collections import defaultdict

# `rng` is a one-line Philox factory: too thin to time.
LAYERS = ("io", "hierarchy", "labelspace", "metrics", "manifold", "collapse", "synth")

MB = float(1 << 20)


def _prediction_rows(args, result):
    return {"rows": len(args["log"])}


def _features_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _read_rows(args, result):
    return {"rows": len(result)}


def _cover_evals(args, result):
    q, s = args["query"], args["support"]
    evals = len(q) * len(s)
    return {"distance_evals": evals, "flops": 3 * q.dimension * evals}


def _ncc_evals(args, result):
    f, stats = args["f"], args["stats"]
    evals = len(f) * (stats.class_count if stats is not None else f.class_count)
    return {"distance_evals": evals, "flops": 3 * f.dimension * evals}


# Work counted at the boundary, from the bound arguments' shapes or the result.
COUNTERS = {
    "io.read_predictions": _read_rows,
    "io.write_predictions": _prediction_rows,
    "io.read_features": _features_bytes,
    "labelspace.project_log": _prediction_rows,
    "manifold.cover_similarity": _cover_evals,
    "collapse.nearest_mean_labels": _ncc_evals,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind every reference."""
        import hierkit.cli  # noqa: F401  (binds its imports before rebinding)

        modules = {n: m for n, m in sys.modules.items()
                   if n == "hierkit" or n.startswith("hierkit.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"hierkit.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])


def layer_metrics(spans, counts, pipeline_s: float) -> dict[str, float]:
    """Inclusive and self times per function and layer from recorded spans.

    A span's self time is its duration minus the durations of its direct
    children (one thread, so children never overlap).  A layer's `self_s`
    sums the self times of its spans.  `trace.coverage` is the share of
    `pipeline_s` covered by outermost spans of layers below `cli`.
    """
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    covered = 0.0
    for i, (name, _, _, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        inclusive[name] += dur[i]
        calls[name] += 1
        self_s[layer] += dur[i] - child[i]
        if layer != "cli" and (parent < 0 or spans[parent][0].startswith("cli.")):
            covered += dur[i]
    out: dict[str, float] = {}
    for name, value in inclusive.items():
        out[f"{name}.s"] = value
        out[f"{name}.calls"] = calls[name]
    for layer, value in self_s.items():
        out[f"{layer}.self_s"] = value
    out.update(counts)
    out["trace.coverage"] = covered / pipeline_s if pipeline_s > 0 else 0.0
    return out
