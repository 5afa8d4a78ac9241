"""Class taxonomies: parsing and shortest-path distances.

A hierarchy is a directed parent->child edge list over string node ids plus
a map from contiguous class indices to leaf nodes.  Distances are unweighted
shortest-path hop counts on the undirected graph (defined for DAGs too);
building a label space walks parent links and therefore requires a tree,
i.e. at most one parent per node.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator

import numpy as np

from .kernels import _block_rows

__all__ = [
    "DistanceMatrix",
    "Hierarchy",
    "graph_distance_matrix",
    "parse_hierarchy",
]


@dataclass
class DistanceMatrix:
    """Pairwise class distances; ``labels`` fixes the row/column order."""

    labels: list[int]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.labels = [int(x) for x in self.labels]
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("distance matrix labels contain duplicates")
        v = np.asarray(self.values, dtype=np.float64)
        n = len(self.labels)
        if v.shape != (n, n):
            raise ValueError(f"matrix shape {v.shape} does not match {n} labels")
        if not np.isfinite(v).all():
            raise ValueError("distance matrix has non-finite entries")
        if (v < 0).any():
            raise ValueError("distance matrix has negative entries")
        if not np.array_equal(v, v.T):
            raise ValueError("distance matrix is not symmetric")
        if np.count_nonzero(np.diagonal(v)):
            raise ValueError("distance matrix has a non-zero diagonal")
        self.values = v

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass
class Hierarchy:
    """Parsed taxonomy graph.

    ``class_index`` maps contiguous class indices 0..C-1 to leaf node ids.
    ``is_tree`` is true iff no node has two parents; operations that walk
    parent links require it.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    class_index: dict[int, str]
    is_tree: bool
    parents: dict[str, list[str]] = field(repr=False, default_factory=dict)

    @property
    def class_count(self) -> int:
        return len(self.class_index)


@contextmanager
def open_text(path):
    """Open ``path`` for reading as UTF-8 text.

    A byte that is not valid UTF-8 raises a ValueError naming ``path`` and the
    line of the first such byte, counted as text mode counts lines.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise ValueError(_invalid_utf8(path)) from None


def _built_from(path, build, **fields):
    """``build(**fields)``, a type's refusal prefixed with the ``path`` it was read from."""
    try:
        return build(**fields)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _invalid_utf8(path) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as e:
        before = raw[:e.start]
        # text mode ends a line at "\n", "\r\n" or a lone "\r"
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        return f"{path}:{line}: invalid UTF-8 byte 0x{raw[e.start]:02x}"
    return f"{path}: invalid UTF-8"  # the file changed after the failed read


def iter_lines(source, default_name: str) -> Iterator[tuple[str, int, str]]:
    """Yield (source_name, line_number, content), skipping blanks and # comments.

    ``source`` is a path, named by itself in the yielded tuples, or an
    iterable of lines, named ``default_name``.
    """
    is_path = isinstance(source, (str, bytes, os.PathLike))
    name = str(source) if is_path else default_name
    with open_text(source) if is_path else nullcontext(source) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield name, lineno, line


def parse_hierarchy(edges, classes) -> Hierarchy:
    """Parse edge and class-index files into a validated Hierarchy.

    Parameters
    ----------
    edges : path or iterable of lines
        One ``parent<TAB>child`` edge per line; ``#`` starts a comment.
    classes : path or iterable of lines
        One ``index<TAB>node_id`` line per class; indices 0-based contiguous.

    Raises
    ------
    ValueError
        On malformed lines (with line numbers), cycles, class indices that
        are duplicated or gapped, or a class mapped to a non-leaf node.
    """
    # insertion-ordered dicts used as ordered sets: first appearance wins
    nodes: dict[str, None] = {}
    edge_set: dict[tuple[str, str], None] = {}
    for name, lineno, line in iter_lines(edges, "<edges>"):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"{name}:{lineno}: expected 'parent<TAB>child', got {line!r}")
        parent, child = parts
        if parent == child:
            raise ValueError(f"{name}:{lineno}: cycle detected (self-edge on {parent!r})")
        nodes[parent] = nodes[child] = None
        edge_set[parent, child] = None

    class_map: dict[int, str] = {}
    class_nodes: set[str] = set()
    for name, lineno, line in iter_lines(classes, "<classes>"):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[1]:
            raise ValueError(f"{name}:{lineno}: expected 'index<TAB>node_id', got {line!r}")
        try:
            idx = int(parts[0])
        except ValueError:
            raise ValueError(f"{name}:{lineno}: class index {parts[0]!r} is not an integer") from None
        if idx < 0:
            raise ValueError(f"{name}:{lineno}: class index {idx} is negative")
        if idx in class_map:
            raise ValueError(f"{name}:{lineno}: duplicate class index {idx}")
        node = parts[1]
        if node in class_nodes:
            raise ValueError(f"{name}:{lineno}: node {node!r} mapped to multiple class indices")
        class_map[idx] = node
        class_nodes.add(node)
        nodes[node] = None

    if not class_map:
        raise ValueError("class index file defines no classes")
    c = len(class_map)
    if sorted(class_map) != list(range(c)):
        missing = sorted(set(range(c)) - set(class_map))[:5]
        raise ValueError(f"class indices are not contiguous from 0: missing {missing}")

    children: dict[str, list[str]] = {n: [] for n in nodes}
    parents: dict[str, list[str]] = {n: [] for n in nodes}
    for parent, child in edge_set:
        children[parent].append(child)
        parents[child].append(parent)

    _check_acyclic(nodes, children)

    for idx in range(c):
        node = class_map[idx]
        if children[node]:
            raise ValueError(f"class {idx} maps to non-leaf node {node!r}")

    is_tree = all(len(p) <= 1 for p in parents.values())
    return Hierarchy(
        nodes=tuple(nodes),
        edges=tuple(edge_set),
        class_index=class_map,
        is_tree=is_tree,
        parents=parents,
    )


def _check_acyclic(nodes: Collection[str], children: dict[str, list[str]]) -> None:
    # Kahn's algorithm on the directed graph; leftovers are on a cycle.
    indeg = {n: 0 for n in nodes}
    for n in nodes:
        for ch in children[n]:
            indeg[ch] += 1
    queue = deque(n for n in nodes if indeg[n] == 0)
    seen = 0
    while queue:
        n = queue.popleft()
        seen += 1
        for ch in children[n]:
            indeg[ch] -= 1
            if indeg[ch] == 0:
                queue.append(ch)
    if seen != len(nodes):
        stuck = sorted(n for n in nodes if indeg[n] > 0)
        raise ValueError(f"cycle detected involving node {stuck[0]!r}")


def graph_distance_matrix(h: Hierarchy, classes: Iterable[int] | None = None) -> DistanceMatrix:
    """Shortest-path hop counts between class leaves, edges taken as undirected.

    Defined on DAGs as well as trees.  Raises on a disconnected class pair,
    naming the pair.
    """
    if classes is None:
        classes = range(h.class_count)
    labels = [int(cc) for cc in classes]
    for cc in labels:
        if cc not in h.class_index:
            raise ValueError(f"class {cc} does not exist in the hierarchy")

    index = {n: i for i, n in enumerate(h.nodes)}
    ends = np.array([(index[p], index[c]) for p, c in h.edges], dtype=np.intp).reshape(-1, 2)
    # undirected adjacency lists: the neighbours of node i are nbrs[indptr[i]:indptr[i + 1]]
    tails, heads = np.r_[ends[:, 0], ends[:, 1]], np.r_[ends[:, 1], ends[:, 0]]
    nbrs = heads[np.argsort(tails, kind="stable")]
    indptr = np.r_[0, np.cumsum(np.bincount(tails, minlength=len(index)))]
    nodes = np.array([index[h.class_index[cc]] for cc in labels], dtype=np.intp)
    # a class with one neighbour is one hop further than it from every other node,
    # so it is searched from that neighbour
    single = np.diff(indptr)[nodes] == 1
    starts = nodes.copy()
    starts[single] = nbrs[indptr[nodes[single]]]
    sources, source_of = np.unique(starts, return_inverse=True)
    hops = np.empty((len(sources), len(labels)))
    chunk = _block_rows(len(index))  # rows of each dense (chunk, all nodes) hop block
    for lo in range(0, len(sources), chunk):
        hops[lo:lo + chunk] = _bfs_hops(indptr, nbrs, sources[lo:lo + chunk])[:, nodes]
    values = hops[source_of]
    values += single[:, None]
    np.fill_diagonal(values, 0.0)
    unreachable = np.argwhere(np.isinf(values))
    if unreachable.size:
        i, j = unreachable[0]
        raise ValueError(f"no path between class {labels[i]} and class {labels[j]}")
    return DistanceMatrix(labels=labels, values=values)


def _bfs_hops(indptr: np.ndarray, nbrs: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """The (S, V) float64 hop counts from each of the S ``sources`` to every node
    of the V-node graph with adjacency lists ``indptr``/``nbrs``; inf where
    unreachable.

    One breadth-first search per source, all S in step: the frontier holds the
    (source, node) pairs first reached at the last level, as flat indices into
    the hop block.  Each level gathers the neighbours of every frontier pair,
    keeps those not yet reached and, of a pair reached twice, the one copy whose
    tag survived its write.  Each pair enters the frontier once and expands its
    node's list once, so the work is O(S * (V + E)) whatever the depth, plus a
    few numpy calls per level.  The frontier expands in pieces that reach at
    most :func:`_block_rows` of the largest degree neighbours each.
    """
    v = len(indptr) - 1
    hops = np.full((len(sources), v), np.inf)
    flat = hops.reshape(-1)
    degree = np.diff(indptr)
    piece = _block_rows(int(degree.max(initial=0)))
    frontier = np.arange(len(sources)) * v + sources
    flat[frontier] = 0.0
    level = 0
    while frontier.size:
        level += 1
        found = []
        for lo in range(0, len(frontier), piece):
            at = frontier[lo:lo + piece]
            node = at % v
            deg = degree[node]
            # the positions of every pair's neighbours in nbrs, back to back
            pos = np.arange(deg.sum()) + np.repeat(indptr[node] - (np.cumsum(deg) - deg), deg)
            reached = np.repeat(at - node, deg) + nbrs[pos]
            reached = reached[np.isinf(flat[reached])]
            tag = -1.0 - np.arange(len(reached))
            flat[reached] = tag
            reached = reached[flat[reached] == tag]
            flat[reached] = level
            found.append(reached)
        frontier = np.concatenate(found)
    return hops

