"""Label spaces: partitions of class indices into named superclasses.

A label space groups the C base classes into superclasses (every class in
exactly one group).  Hypernym spaces come from a taxonomy grouping; random
size-isomorphic spaces are the control: same superclass sizes, membership
drawn uniformly at random.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .hierarchy import Hierarchy, hypernym_of, iter_lines
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


@dataclass
class LabelSpace:
    """An ordered partition of class indices 0..C-1 into named superclasses."""

    name: str
    superclasses: list[tuple[str, frozenset[int]]]

    def __post_init__(self) -> None:
        self.superclasses = [(str(n), frozenset(int(c) for c in members))
                             for n, members in self.superclasses]
        total = 0
        union: set[int] = set()
        for sname, members in self.superclasses:
            if not members:
                raise ValueError(f"superclass {sname!r} is empty")
            total += len(members)
            union |= members
        if len(union) != total:
            raise ValueError("superclasses overlap: some class appears twice")
        if union != set(range(total)):
            raise ValueError(f"superclass members must partition 0..{total - 1}")

    @property
    def class_count(self) -> int:
        return sum(len(m) for _, m in self.superclasses)

    @property
    def sizes(self) -> list[int]:
        return [len(m) for _, m in self.superclasses]

    def mapping(self) -> np.ndarray:
        """The length-C table mapping class index -> superclass index."""
        table = np.empty(self.class_count, dtype=np.int64)
        for si, (_, members) in enumerate(self.superclasses):
            table[list(members)] = si
        return table


def parse_grouping(source) -> list[tuple[str, list[str]]]:
    """Parse a grouping file: one `superclass_name<TAB>node_id[,node_id...]` per line."""
    groups: list[tuple[str, list[str]]] = []
    seen: set[str] = set()
    for name, lineno, line in iter_lines(source, "<grouping>"):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"{name}:{lineno}: expected 'superclass_name<TAB>node_id[,...]', "
                             f"got {line!r}")
        gname = parts[0]
        if gname in seen:
            raise ValueError(f"{name}:{lineno}: duplicate superclass name {gname!r}")
        seen.add(gname)
        node_ids = [t.strip() for t in parts[1].split(",")]
        if any(not t for t in node_ids):
            raise ValueError(f"{name}:{lineno}: empty node id in group {gname!r}")
        groups.append((gname, node_ids))
    if not groups:
        raise ValueError("grouping file defines no groups")
    return groups


def build_labelspace(h: Hierarchy, groups, name: str = "hypernyms") -> tuple[LabelSpace, np.ndarray]:
    """Assign each class to the group containing its nearest listed ancestor.

    ``groups`` is a list of (superclass_name, node_ids) pairs, e.g. from
    :func:`parse_grouping`.  Returns the LabelSpace and its mapping table.

    Raises if a node is listed in two groups, a class reaches no group on the
    walk to the root, or a group ends up with no classes.
    """
    node_to_group: dict[str, int] = {}
    for gi, (gname, node_ids) in enumerate(groups):
        for node in node_ids:
            if node in node_to_group:
                raise ValueError(f"node {node!r} is listed in two groups")
            node_to_group[node] = gi

    c = h.class_count
    table = np.empty(c, dtype=np.int64)
    members: list[set[int]] = [set() for _ in groups]
    targets = set(node_to_group)
    for ci in range(c):
        try:
            node = hypernym_of(h, ci, targets)
        except ValueError:
            leaf = h.class_index[ci]
            raise ValueError(f"class {ci} (leaf {leaf!r}) matches no group: "
                             "partition violated") from None
        gi = node_to_group[node]
        table[ci] = gi
        members[gi].add(ci)

    for (gname, _), mem in zip(groups, members):
        if not mem:
            raise ValueError(f"superclass {gname!r} matched no class")
    space = LabelSpace(name=name,
                       superclasses=[(gname, frozenset(mem))
                                     for (gname, _), mem in zip(groups, members)])
    return space, table


def hyponym_space(class_count: int, name: str = "hyponyms") -> LabelSpace:
    """The identity label space: every class is its own (singleton) superclass."""
    class_count = int(class_count)
    if class_count < 1:
        raise ValueError("class_count must be >= 1")
    return LabelSpace(name=name,
                      superclasses=[(f"c{i}", frozenset([i])) for i in range(class_count)])


def random_isomorphic(s: LabelSpace, seed: int) -> tuple[LabelSpace, np.ndarray]:
    """A uniformly random partition with the same superclass sizes as ``s``.

    Drawn by shuffling 0..C-1 with a seeded generator and slicing by the
    original sizes, so the same seed always yields the same partition.
    """
    rng = substream(seed, 0)
    perm = rng.permutation(s.class_count)
    superclasses = []
    start = 0
    for (sname, members) in s.superclasses:
        size = len(members)
        superclasses.append((sname, frozenset(int(x) for x in perm[start:start + size])))
        start += size
    space = LabelSpace(name=f"{s.name}/random-{int(seed)}", superclasses=superclasses)
    return space, space.mapping()


def project_log(log: PredictionLog, m) -> PredictionLog:
    """Replace every true/pred label by its superclass index.

    ``m`` is a LabelSpace or a mapping table (length-C array).  Epochs and
    example ids are preserved.
    """
    if isinstance(m, LabelSpace):
        table = m.mapping()
        s_count = len(m.superclasses)
    else:
        table = np.asarray(m, dtype=np.int64)
        if table.ndim != 1 or table.size == 0:
            raise ValueError("mapping table must be a non-empty 1-D array")
        s_count = int(table.max()) + 1
    if table.shape[0] != log.label_count:
        raise ValueError(f"log has {log.label_count} labels but mapping covers "
                         f"{table.shape[0]} classes: partition mismatch")
    return PredictionLog(epochs=log.epochs,
                         example_ids=log.example_ids,
                         true_labels=table[log.true_labels],
                         pred_labels=table[log.pred_labels],
                         label_count=s_count)


def write_labelspace(s: LabelSpace, path) -> None:
    """Dump as text: one `class_index<TAB>superclass_index` line per class."""
    table = s.mapping()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for ci in range(len(table)):
            fh.write(f"{ci}\t{int(table[ci])}\n")


def read_labelspace(path) -> LabelSpace:
    """Read a label space dump written by :func:`write_labelspace`.

    The dump stores only indices, so superclass names are synthesized as
    s0..s{k-1} and the space is named after the file.
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
        pairs[ci] = si
    if not pairs:
        raise ValueError(f"{path}: label space dump is empty")
    c = len(pairs)
    if sorted(pairs) != list(range(c)):
        raise ValueError(f"{path}: class indices are not contiguous from 0")
    s_count = max(pairs.values()) + 1
    members: list[set[int]] = [set() for _ in range(s_count)]
    for ci, si in pairs.items():
        members[si].add(ci)
    if any(not m for m in members):
        gap = next(i for i, m in enumerate(members) if not m)
        raise ValueError(f"{path}: superclass index {gap} has no members (gapped indices)")
    base = os.path.splitext(os.path.basename(str(path)))[0]
    return LabelSpace(name=base,
                      superclasses=[(f"s{i}", frozenset(m)) for i, m in enumerate(members)])
