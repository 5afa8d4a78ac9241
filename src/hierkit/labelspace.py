"""Label spaces: partitions of class indices into superclasses.

A label space groups the C base classes into superclasses (every class in
exactly one group), held as the class -> superclass table.  Hypernym spaces
come from a taxonomy grouping; random size-isomorphic spaces are the
control: same superclass sizes, membership drawn uniformly at random.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .hierarchy import Hierarchy, _built_from, iter_lines
from .metrics import PredictionLog
from .rng import substream

__all__ = [
    "LabelSpace",
    "build_labelspace",
    "hyponym_space",
    "parse_grouping",
    "project_log",
    "random_isomorphic",
    "read_labelspace",
    "write_labelspace",
]


@dataclass(eq=False)
class LabelSpace:
    """An ordered partition of class indices 0..C-1 into superclasses 0..S-1.

    ``table`` is the length-C array mapping class index -> superclass index;
    every superclass has at least one member.
    """

    name: str
    table: np.ndarray

    def __post_init__(self) -> None:
        self.table = np.asarray(self.table, dtype=np.int64)
        if self.table.ndim != 1 or self.table.size == 0:
            raise ValueError("mapping table must be a non-empty 1-D array")
        if self.table.min() < 0:
            raise ValueError(f"negative superclass index {int(self.table.min())}")
        # C classes fill at most C - 1 indices below C when any index is >= C,
        # so clipping such indices to C keeps the first gap and bounds the count
        gaps = np.flatnonzero(np.bincount(np.minimum(self.table, self.class_count)) == 0)
        if gaps.size:
            raise ValueError(f"superclass index {gaps[0]} has no members (gapped indices)")

    @property
    def class_count(self) -> int:
        return len(self.table)

    @property
    def superclass_count(self) -> int:
        return int(self.table.max()) + 1

    @property
    def sizes(self) -> np.ndarray:
        """Member count of each superclass."""
        return np.bincount(self.table)


def parse_grouping(source) -> list[tuple[str, list[str]]]:
    """Parse a grouping file: one `superclass_name<TAB>node_id[,node_id...]` per line."""
    groups: dict[str, list[str]] = {}
    for name, lineno, line in iter_lines(source, "<grouping>"):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"{name}:{lineno}: expected 'superclass_name<TAB>node_id[,...]', "
                             f"got {line!r}")
        gname = parts[0]
        if gname in groups:
            raise ValueError(f"{name}:{lineno}: duplicate superclass name {gname!r}")
        node_ids = [t.strip() for t in parts[1].split(",")]
        if any(not t for t in node_ids):
            raise ValueError(f"{name}:{lineno}: empty node id in group {gname!r}")
        groups[gname] = node_ids
    if not groups:
        raise ValueError("grouping file defines no groups")
    return list(groups.items())


def build_labelspace(h: Hierarchy, groups, name: str = "hypernyms") -> tuple[LabelSpace, np.ndarray]:
    """Assign each class to the group containing its nearest listed ancestor.

    ``groups`` is a list of (superclass_name, node_ids) pairs, e.g. from
    :func:`parse_grouping`; group i becomes superclass i.  Returns the
    LabelSpace and its table.

    Raises if a node is listed in two groups, the taxonomy is not a tree
    (naming a node with two parents), a class reaches no group on the walk to
    the root, or a group ends up with no classes.
    """
    node_to_group: dict[str, int] = {}
    for gi, (gname, node_ids) in enumerate(groups):
        for node in node_ids:
            if node in node_to_group:
                raise ValueError(f"node {node!r} is listed in two groups")
            node_to_group[node] = gi

    if not h.is_tree:
        node, up = next((n, p) for n, p in h.parents.items() if len(p) > 1)
        raise ValueError(f"grouping requires a tree: node {node!r} has parents {up}")
    table = np.empty(h.class_count, dtype=np.int64)
    for ci in range(h.class_count):
        # walk up from the leaf (which counts) to the first grouped node
        node = leaf = h.class_index[ci]
        while node not in node_to_group:
            if not h.parents[node]:
                raise ValueError(f"class {ci} (leaf {leaf!r}) matches no group: "
                                 "partition violated")
            node = h.parents[node][0]
        table[ci] = node_to_group[node]

    sizes = np.bincount(table, minlength=len(groups))
    for (gname, _), size in zip(groups, sizes):
        if not size:
            raise ValueError(f"superclass {gname!r} matched no class")
    space = LabelSpace(name=name, table=table)
    return space, table


def hyponym_space(class_count: int) -> LabelSpace:
    """The identity label space: every class is its own (singleton) superclass."""
    class_count = int(class_count)
    if class_count < 1:
        raise ValueError("class_count must be >= 1")
    if class_count >= 2**63:  # np.arange would give an empty float64 array
        raise ValueError(f"class_count {class_count} does not fit in int64")
    return LabelSpace(name="hyponyms", table=np.arange(class_count))


def random_isomorphic(s: LabelSpace, seed: int) -> tuple[LabelSpace, np.ndarray]:
    """A uniformly random partition with the same superclass sizes as ``s``.

    Drawn by shuffling 0..C-1 with a seeded generator and slicing by the
    original sizes, so the same seed always yields the same partition.
    """
    rng = substream(seed, 0)
    perm = rng.permutation(s.class_count)
    table = np.empty(s.class_count, dtype=np.int64)
    table[perm] = np.repeat(np.arange(s.superclass_count), s.sizes)
    space = LabelSpace(name=f"{s.name}/random-{int(seed)}", table=table)
    return space, table


def project_log(log: PredictionLog, s: LabelSpace) -> PredictionLog:
    """Replace every true/pred label by its superclass index in ``s``.

    Epochs and example ids are preserved.
    """
    if s.class_count != log.label_count:
        raise ValueError(f"log has {log.label_count} labels but mapping covers "
                         f"{s.class_count} classes: partition mismatch")
    return PredictionLog(epochs=log.epochs,
                         example_ids=log.example_ids,
                         true_labels=s.table[log.true_labels],
                         pred_labels=s.table[log.pred_labels],
                         label_count=s.superclass_count)


def write_labelspace(s: LabelSpace, path) -> None:
    """Dump as text: one `class_index<TAB>superclass_index` line per class."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for ci, si in enumerate(s.table.tolist()):
            fh.write(f"{ci}\t{si}\n")


def read_labelspace(path) -> LabelSpace:
    """Read a label space dump written by :func:`write_labelspace`.

    The space is named after the file.
    """
    pairs: dict[int, int] = {}
    for name, lineno, line in iter_lines(path, "<labelspace>"):
        try:
            ci, si = map(int, line.split("\t"))
        except ValueError:
            raise ValueError(f"{name}:{lineno}: expected 'class_index<TAB>superclass_index', "
                             f"got {line!r}") from None
        if ci in pairs:
            raise ValueError(f"{name}:{lineno}: duplicate class index {ci}")
        if si < 0:
            raise ValueError(f"{name}:{lineno}: negative superclass index {si}")
        if si >= 2**63:
            raise ValueError(f"{name}:{lineno}: superclass index {si} does not fit in int64")
        pairs[ci] = si
    if not pairs:
        raise ValueError(f"{path}: label space dump is empty")
    if sorted(pairs) != list(range(len(pairs))):
        raise ValueError(f"{path}: class indices are not contiguous from 0")
    table = np.array([pairs[ci] for ci in range(len(pairs))], dtype=np.int64)
    base = os.path.splitext(os.path.basename(str(path)))[0]
    return _built_from(path, LabelSpace, name=base, table=table)
