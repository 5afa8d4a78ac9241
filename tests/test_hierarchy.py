import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

import hierkit.hierarchy as hierarchy
from hierkit.hierarchy import DistanceMatrix, graph_distance_matrix, parse_hierarchy

from _helpers import animals_hierarchy


class TestParse:
    def test_minimal_tree(self):
        h = parse_hierarchy(["root\ta", "root\tb"], ["0\ta", "1\tb"])
        assert h.class_count == 2
        assert h.is_tree
        assert h.class_index == {0: "a", 1: "b"}

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            parse_hierarchy(["root\ta", "a\troot"], ["0\ta"])

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            parse_hierarchy(["a\ta"], ["0\ta"])

    def test_dag_two_parents_not_a_tree(self):
        h = parse_hierarchy(["r\tx", "s\tx", "x\tleaf"], ["0\tleaf"])
        assert not h.is_tree

    def test_duplicate_edges_collapse(self):
        h = parse_hierarchy(["root\ta", "root\ta", "root\tb"], ["0\ta", "1\tb"])
        assert h.edges == (("root", "a"), ("root", "b"))

    def test_nodes_and_edges_keep_first_appearance(self):
        # repeated edges keep their first place; a node seen only in the
        # class file comes last
        h = parse_hierarchy(["b\ty", "r\tb", "r\ta", "b\ty", "a\tx", "r\ta"],
                            ["0\tx", "1\ty", "2\tz"])
        assert h.nodes == ("b", "y", "r", "a", "x", "z")
        assert h.edges == (("b", "y"), ("r", "b"), ("r", "a"), ("a", "x"))
        assert h.parents == {"b": ["r"], "y": ["b"], "r": [], "a": ["r"], "x": ["a"],
                             "z": []}

    def test_class_on_non_leaf_rejected(self):
        with pytest.raises(ValueError, match="non-leaf"):
            parse_hierarchy(["root\ta", "a\tb"], ["0\ta"])

    def test_duplicate_class_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate class index 0"):
            parse_hierarchy(["root\ta", "root\tb"], ["0\ta", "0\tb"])

    def test_gapped_class_indices_rejected(self):
        with pytest.raises(ValueError, match="not contiguous"):
            parse_hierarchy(["root\ta", "root\tb"], ["0\ta", "2\tb"])

    def test_malformed_edge_line_reports_number(self):
        with pytest.raises(ValueError, match=":2:"):
            parse_hierarchy(["root\ta", "oops"], ["0\ta"])

    def test_malformed_class_line_reports_number(self):
        with pytest.raises(ValueError, match=":1:.*not an integer"):
            parse_hierarchy(["root\ta"], ["x\ta"])

    def test_comments_and_blanks_skipped(self):
        h = parse_hierarchy(["# taxonomy", "", "root\ta"], ["", "0\ta", "# end"])
        assert h.class_count == 1

    def test_reads_files(self, tmp_path):
        ep = tmp_path / "edges.tsv"
        cp = tmp_path / "classes.tsv"
        ep.write_text("root\ta\nroot\tb\n")
        cp.write_text("0\ta\n1\tb\n")
        h = parse_hierarchy(str(ep), str(cp))
        assert h.class_count == 2

    def test_file_error_names_file_and_line(self, tmp_path):
        ep = tmp_path / "edges.tsv"
        ep.write_text("root\ta\nbroken line\n")
        cp = tmp_path / "classes.tsv"
        cp.write_text("0\ta\n")
        with pytest.raises(ValueError, match=r"edges\.tsv:2"):
            parse_hierarchy(str(ep), str(cp))


class TestGraphDistances:
    def test_two_chains_through_root(self):
        h = parse_hierarchy(["root\ta", "a\tleaf0", "root\tb", "b\tleaf1"],
                            ["0\tleaf0", "1\tleaf1"])
        d = graph_distance_matrix(h)
        assert d.values[0, 1] == 4.0

    def test_star_all_two(self):
        h = parse_hierarchy(["root\tleaf0", "root\tleaf1", "root\tleaf2"],
                            ["0\tleaf0", "1\tleaf1", "2\tleaf2"])
        d = graph_distance_matrix(h)
        off = d.values[~np.eye(3, dtype=bool)]
        assert (off == 2.0).all()
        assert (np.diagonal(d.values) == 0.0).all()

    def test_works_on_dag(self):
        h = parse_hierarchy(["r\tx", "s\tx", "x\ta", "x\tb"], ["0\ta", "1\tb"])
        d = graph_distance_matrix(h)
        assert d.values[0, 1] == 2.0

    def test_disconnected_pair_reports_both_classes(self):
        h = parse_hierarchy(["r1\ta", "r2\tb"], ["0\ta", "1\tb"])
        with pytest.raises(ValueError, match="class 0 and class 1|class 1 and class 0"):
            graph_distance_matrix(h)

    def test_class_subset(self):
        h = animals_hierarchy()
        d = graph_distance_matrix(h, classes=[0, 3])
        assert d.labels == [0, 3]
        assert d.values[0, 1] == 4.0

    def test_unknown_class_rejected(self):
        h = animals_hierarchy()
        with pytest.raises(ValueError, match="class 17 does not exist"):
            graph_distance_matrix(h, classes=[0, 17])

    def test_symmetry_random_trees(self):
        # random parent assignment always yields a connected tree
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            parents = [int(rng.integers(0, i)) for i in range(1, n)]
            edges = [f"n{p}\tn{i + 1}" for i, p in enumerate(parents)]
            leaves = [i for i in range(1, n) if all(p != i for p in parents)]
            classes = [f"{j}\tn{i}" for j, i in enumerate(leaves)]
            h = parse_hierarchy(edges, classes)
            d = graph_distance_matrix(h)
            assert np.array_equal(d.values, d.values.T)
            assert (np.diagonal(d.values) == 0).all()
            if d.size > 1:
                assert d.values[~np.eye(d.size, dtype=bool)].min() >= 2


class TestDistanceMatrixValidation:
    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            DistanceMatrix(labels=[0, 1], values=np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix(labels=[0, 1], values=np.array([[1.0, 2.0], [2.0, 0.0]]))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            DistanceMatrix(labels=[0, 0], values=np.zeros((2, 2)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DistanceMatrix(labels=[0, 1], values=np.array([[0.0, -1.0], [-1.0, 0.0]]))


def _floyd_warshall_hops(h):
    """All-pairs undirected hop counts over h.nodes (inf when unreachable)."""
    idx = {n: i for i, n in enumerate(h.nodes)}
    d = np.full((len(h.nodes),) * 2, np.inf)
    np.fill_diagonal(d, 0.0)
    for parent, child in h.edges:
        d[idx[parent], idx[child]] = d[idx[child], idx[parent]] = 1.0
    for k in range(len(h.nodes)):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d, idx


def _random_taxonomy(rng, dag):
    """A random tree; with dag=True, extra internal edges (diamonds) and
    repeated edge lines.  Class indices are shuffled over the leaves."""
    n = int(rng.integers(3, 40))
    parents = [int(rng.integers(0, i)) for i in range(1, n)]
    edges = [f"n{p}\tn{i + 1}" for i, p in enumerate(parents)]
    internal = sorted(set(parents))
    if dag:
        for _ in range(int(rng.integers(1, 6))):
            p = int(rng.choice(internal))
            child = int(rng.integers(p + 1, n))
            edges.append(f"n{p}\tn{child}")
        edges += [edges[int(i)] for i in rng.integers(0, len(edges), size=3)]
    leaves = [i for i in range(n) if i not in internal]
    order = rng.permutation(len(leaves))
    classes = [f"{j}\tn{leaves[k]}" for j, k in enumerate(order)]
    return parse_hierarchy(edges, classes)


def _check_random_taxonomies(dag):
    """graph_distance_matrix against Floyd-Warshall on 25 random taxonomies, for
    all classes and for a permuted subset; returns the largest class count."""
    rng = np.random.default_rng(11 + dag)
    largest = 0
    for _ in range(25):
        h = _random_taxonomy(rng, dag)
        fw, idx = _floyd_warshall_hops(h)
        subset = [int(c) for c in rng.permutation(h.class_count)]
        subset = subset[:max(1, len(subset) - int(rng.integers(0, 3)))]
        for classes in (None, subset):
            labels = list(range(h.class_count)) if classes is None else classes
            nodes = [idx[h.class_index[c]] for c in labels]
            d = graph_distance_matrix(h, classes=classes)
            assert d.labels == labels
            assert np.array_equal(d.values, fw[np.ix_(nodes, nodes)])
        largest = max(largest, h.class_count)
    return largest


class TestGraphDistancesReference:
    @pytest.mark.parametrize("dag", [False, True])
    def test_matches_floyd_warshall(self, dag):
        _check_random_taxonomies(dag)

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("dag", [False, True])
    def test_matches_floyd_warshall_in_row_chunks(self, monkeypatch, dag, rows):
        # Test taxonomies have under 100 nodes, so the real block rule gives one chunk.
        monkeypatch.setattr(hierarchy, "_block_rows", lambda n_refs: rows)
        assert _check_random_taxonomies(dag) > 2 * rows

    def test_diamond_with_duplicate_edges(self):
        h = parse_hierarchy(["r\ta", "r\tb", "a\tm", "b\tm", "m\tx", "a\ty", "a\tm"],
                            ["0\tx", "1\ty"])
        fw, idx = _floyd_warshall_hops(h)
        d = graph_distance_matrix(h, classes=[1, 0])
        assert d.values[0, 1] == fw[idx["y"], idx["x"]] == 3.0

    def test_disconnected_names_first_pair_in_row_major_order(self):
        h = parse_hierarchy(["r1\ta", "r1\tb", "r2\tc", "r2\td"],
                            ["0\ta", "1\tb", "2\tc", "3\td"])
        with pytest.raises(ValueError, match=r"^no path between class 2 and class 0$"):
            graph_distance_matrix(h, classes=[2, 3, 0, 1])


@st.composite
def _forests(draw):
    """Edge and class lines of a random forest or DAG: node i hangs under an
    earlier node or starts a tree, extra edges run from earlier to later nodes,
    and a shuffled subset of the classes is asked for."""
    n = draw(st.integers(1, 30))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)
             if draw(st.integers(0, 5))]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    edges += [(a, b) for a, b in extra if a < b]
    parents = {a for a, _ in edges}
    leaves = draw(st.permutations([i for i in range(n) if i not in parents]))
    classes = draw(st.permutations(range(len(leaves))))
    asked = list(classes[:draw(st.integers(1, len(classes)))])
    return ([f"n{a}\tn{b}" for a, b in edges], [f"{j}\tn{leaf}" for j, leaf in enumerate(leaves)],
            asked, draw(st.sampled_from([None, 1, 2, 3])))


@settings(max_examples=300, deadline=None)
@given(_forests())
# a class with no edges; a leaf class with two parents beside one with one;
# five leaves under two parents, whose two sources run in chunks of one
@example(([], ["0\tn0"], [0], None))
@example((["n0\tn1", "n0\tn2", "n1\tn3", "n2\tn3", "n1\tn4"], ["0\tn3", "1\tn4"], [1, 0], None))
@example((["n0\tn1", "n0\tn2", "n0\tn3", "n1\tn4", "n1\tn5", "n1\tn6"],
          ["0\tn2", "1\tn3", "2\tn4", "3\tn5", "4\tn6"], [4, 0, 2, 1, 3], 1))
def test_graph_distances_match_shortest_path(forest):
    # In source chunks and frontier pieces of 1 to 3 rows too; a disconnected
    # pair raises naming the first such pair in row-major order.
    edges, classes, asked, rows = forest
    h = parse_hierarchy(edges, classes)
    index = {n: i for i, n in enumerate(h.nodes)}
    ends = np.array([(index[p], index[c]) for p, c in h.edges]).reshape(-1, 2)
    adj = csr_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(len(index),) * 2)
    nodes = [index[h.class_index[c]] for c in asked]
    want = shortest_path(adj, directed=False, unweighted=True, indices=nodes)[:, nodes]
    with pytest.MonkeyPatch.context() as m:
        if rows is not None:
            m.setattr(hierarchy, "_block_rows", lambda width: rows)
        if np.isinf(want).any():
            i, j = np.argwhere(np.isinf(want))[0]
            with pytest.raises(ValueError, match=f"^no path between class {asked[i]} "
                                                 f"and class {asked[j]}$"):
                graph_distance_matrix(h, classes=asked)
        else:
            assert np.array_equal(graph_distance_matrix(h, classes=asked).values, want)


def test_thousand_deep_chain_takes_under_a_second():
    # a0 -> a1 -> ... -> a999 with a class leaf under each: 1000 sources, and
    # searches 1000 levels deep.
    depth = 1000
    edges = [f"a{i}\ta{i + 1}" for i in range(depth - 1)] + [f"a{i}\tleaf{i}" for i in range(depth)]
    h = parse_hierarchy(edges, [f"{i}\tleaf{i}" for i in range(depth)])
    t0 = time.perf_counter()
    d = graph_distance_matrix(h)
    elapsed = time.perf_counter() - t0
    i = np.arange(depth)
    want = np.abs(i[:, None] - i[None]) + 2.0
    np.fill_diagonal(want, 0.0)
    assert np.array_equal(d.values, want)
    assert elapsed < 1.0
