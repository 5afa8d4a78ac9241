"""Reference outputs: record them once, check every later run against them.

A stage's reference lists every file under its output directory.  Files
made with integer arithmetic or Philox draws (prediction logs, curve,
converge and confusion CSVs, `run.json` manifests) are kept as a SHA-256
and must match byte for byte.  JSON results whose floats go through BLAS
(`ccc.json`, `nc_*.json`, the desk `desk.json`) are kept parsed: strings,
integers and structure must match exactly, floats within `RTOL`.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-9
# Floor for values that are zero up to rounding, such as nc1 at the
# zero-noise final desk epoch, whose size is set by rounding alone.
ATOL = 1e-12

_PARSED = {"ccc.json", "desk.json"}


def _parsed(path: Path) -> bool:
    return path.name in _PARSED or (path.name.startswith("nc_") and path.suffix == ".json")


def _entry(path: Path) -> dict:
    if _parsed(path):
        return {"json": json.loads(path.read_text(encoding="utf-8"))}
    return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def snapshot(stage_dir: Path) -> dict:
    """{relative path: entry} for every file under one stage's output directory."""
    if not stage_dir.is_dir():
        return {}
    return {p.relative_to(stage_dir).as_posix(): _entry(p)
            for p in sorted(stage_dir.rglob("*")) if p.is_file()}


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))):
        return False
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return math.isfinite(a) and math.isfinite(b) and \
        abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def same_json(ref, got) -> bool:
    if isinstance(ref, dict):
        return isinstance(got, dict) and ref.keys() == got.keys() and \
            all(same_json(ref[k], got[k]) for k in ref)
    if isinstance(ref, list):
        return isinstance(got, list) and len(ref) == len(got) and \
            all(same_json(r, g) for r, g in zip(ref, got))
    if isinstance(ref, float) or isinstance(got, float):
        return _close(ref, got)
    return type(ref) is type(got) and ref == got


def stage_matches(reference: dict, stage_dir: Path) -> bool:
    got = snapshot(stage_dir)
    if got.keys() != reference.keys():
        return False
    for name, ref in reference.items():
        if "sha256" in ref:
            if got[name] != ref:
                return False
        elif not ("json" in got[name] and same_json(ref["json"], got[name]["json"])):
            return False
    return True
