"""Workload shapes shared by the set-up, timed and reporting processes.

`full` is the benchmark.  `tiny` keeps every stage and flag but shrinks the
sizes so the self-test runs in seconds; it is never reported as a measurement.
"""

from __future__ import annotations

WORKLOADS = ("logs", "cover", "collapse", "desk")

# The input seed space.  `--seed n` selects input set `n % REFERENCE_SEEDS`;
# every input set has recorded reference outputs, so no run goes unchecked.
# Set 0 is the default seed, the others are held out for re-checking claims.
REFERENCE_SEEDS = 5

SHAPES = {
    "full": {
        # root -> 10 -> 100 -> 1000 leaves: the ImageNet-1k shape
        "tree": (10, 10, 10),
        "dimension": 512,
        "cover_per_class": 10,
        "cover_k": 5,
        "collapse_per_class": 30,
        "log_epochs": 20,
        "log_examples": 50_000,
        # criterion-6 shape: 60 classes in 3 superclasses, p=64, 40 epochs
        "desk_groups": (20, 20, 20),
        "desk_epochs": 40,
        "desk_dimension": 64,
        "desk_per_class": 20,
        "desk_seeds": 20,
    },
    "tiny": {
        "tree": (3, 2, 4),
        "dimension": 16,
        "cover_per_class": 4,
        "cover_k": 2,
        "collapse_per_class": 5,
        "log_epochs": 4,
        "log_examples": 300,
        "desk_groups": (4, 4, 4),
        "desk_epochs": 8,
        "desk_dimension": 16,
        "desk_per_class": 5,
        "desk_seeds": 2,
    },
}


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS
