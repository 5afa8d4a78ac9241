import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hierkit.hierarchy import parse_hierarchy
from hierkit.labelspace import (LabelSpace, build_labelspace, hyponym_space,
                                parse_grouping, project_log, random_isomorphic,
                                read_labelspace, write_labelspace)
from hierkit.metrics import PredictionLog

from _helpers import animals_hierarchy, animals_space


def _log(epochs, true, pred, n_labels):
    n = len(epochs)
    return PredictionLog(epochs=np.array(epochs),
                         example_ids=np.array([f"e{i}" for i in range(n)]),
                         true_labels=np.array(true), pred_labels=np.array(pred),
                         label_count=n_labels)


class TestLabelSpace:
    def test_two_dimensional_table_rejected(self):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            LabelSpace(name="bad", table=np.zeros((2, 2), dtype=np.int64))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            LabelSpace(name="bad", table=np.array([], dtype=np.int64))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="negative superclass index -1"):
            LabelSpace(name="bad", table=[0, -1, 0])

    def test_partition_enforced_gap(self):
        with pytest.raises(ValueError, match="superclass index 1 has no members"):
            LabelSpace(name="bad", table=[0, 2])

    def test_empty_superclass_rejected(self):
        with pytest.raises(ValueError, match="superclass index 0 has no members"):
            LabelSpace(name="bad", table=[1, 1, 2])

    def test_index_beyond_class_count_is_a_gap(self):
        # the first gap, 2, lies below the largest index: no 2**50-long count
        with pytest.raises(ValueError, match="superclass index 2 has no members"):
            LabelSpace(name="bad", table=[1, 0, 2**50, 3])

    def test_sizes_and_mapping(self):
        s = LabelSpace(name="s", table=[0, 1, 0])
        assert s.table.dtype == np.int64
        assert list(s.table) == [0, 1, 0]
        assert list(s.sizes) == [2, 1]
        assert s.class_count == 3
        assert s.superclass_count == 2


class TestBuildLabelspace:
    def test_animals(self):
        h, space, table = animals_space()
        assert list(space.sizes) == [3, 3]
        assert list(table) == [0, 0, 0, 1, 1, 1]
        assert np.array_equal(space.table, table)

    def test_single_group_root(self):
        h = animals_hierarchy()
        space, table = build_labelspace(h, [("all", ["root"])])
        assert list(space.sizes) == [6]
        assert (table == 0).all()

    def test_leaves_as_groups_is_identity(self):
        h = animals_hierarchy()
        names = ["dog", "cat", "wolf", "tree", "fern", "moss"]
        space, table = build_labelspace(h, [(n, [n]) for n in names])
        assert list(space.sizes) == [1] * 6
        assert list(table) == list(range(6))

    def test_unmatched_class_rejected(self):
        h = animals_hierarchy()
        with pytest.raises(ValueError, match="matches no group"):
            build_labelspace(h, [("fauna", ["animal"])])

    def test_node_in_two_groups_rejected(self):
        h = animals_hierarchy()
        with pytest.raises(ValueError, match="two groups"):
            build_labelspace(h, [("a", ["animal"]), ("b", ["animal", "plant"])])

    def test_group_matching_nothing_rejected(self):
        h = animals_hierarchy()
        # "dog" is claimed by its own group before "animal" is reached
        with pytest.raises(ValueError, match="matched no class"):
            build_labelspace(h, [("fauna", ["animal"]), ("flora", ["plant"]),
                                 ("ghost", ["missing_node"])])

    def test_dag_names_a_node_with_two_parents(self):
        h = parse_hierarchy(["r\ta", "r\tb", "a\tx", "b\tx", "r\ty"], ["0\tx", "1\ty"])
        with pytest.raises(ValueError, match=r"^grouping requires a tree: node 'x' has "
                                             r"parents \['a', 'b'\]$"):
            build_labelspace(h, parse_grouping(["A\ta", "R\tr"]))

    def test_nearest_listed_ancestor_wins(self):
        h = animals_hierarchy()
        space, table = build_labelspace(
            h, [("dogs", ["dog"]), ("fauna", ["animal"]), ("flora", ["plant"])])
        assert list(table) == [0, 1, 1, 2, 2, 2]

    def test_listed_intermediate_ancestor_beats_a_higher_one(self):
        # bulldog's walk meets the listed "dog" before the listed "animal"
        h = parse_hierarchy(["root\tanimal", "animal\tdog", "dog\tbulldog", "animal\tcat"],
                            ["0\tbulldog", "1\tcat"])
        _, table = build_labelspace(h, [("canines", ["dog"]), ("fauna", ["animal"])])
        assert list(table) == [0, 1]

    def test_listed_leaf_beats_its_listed_parent(self):
        # the walk starts at the leaf itself, so "bulldog" is met before "dog"
        h = parse_hierarchy(["root\tdog", "dog\tbulldog", "dog\tpoodle"],
                            ["0\tbulldog", "1\tpoodle"])
        _, table = build_labelspace(h, [("bulldogs", ["bulldog"]), ("canines", ["dog"])])
        assert list(table) == [0, 1]

    def test_unmatched_class_names_its_leaf(self):
        # the walk from "tree" reaches the root without meeting "animal"
        h = animals_hierarchy()
        with pytest.raises(ValueError, match=r"^class 3 \(leaf 'tree'\) matches no group: "
                                             r"partition violated$"):
            build_labelspace(h, [("fauna", ["animal"])])


class TestParseGrouping:
    def test_basic(self):
        groups = parse_grouping(["fauna\tanimal,bird", "flora\tplant"])
        assert groups == [("fauna", ["animal", "bird"]), ("flora", ["plant"])]

    def test_malformed_line(self):
        with pytest.raises(ValueError, match=":1:"):
            parse_grouping(["just-one-field"])

    def test_duplicate_group_name(self):
        with pytest.raises(ValueError, match="duplicate superclass name"):
            parse_grouping(["a\tx", "a\ty"])

    def test_groups_keep_file_order(self):
        groups = parse_grouping(["z\tq", "a\tp", "m\tr, s"])
        assert groups == [("z", ["q"]), ("a", ["p"]), ("m", ["r", "s"])]

    def test_duplicate_group_name_names_its_line(self):
        with pytest.raises(ValueError,
                           match=r"^<grouping>:5: duplicate superclass name 'a'$"):
            parse_grouping(["# groups", "a\tx", "", "b\ty", "a\tz"])


class TestRandomIsomorphic:
    def test_sizes_preserved(self):
        _, space, _ = animals_space()
        r, table = random_isomorphic(space, 3)
        assert sorted(r.sizes) == sorted(space.sizes)
        assert r.class_count == space.class_count
        assert np.array_equal(r.table, table)

    def test_seed_determinism(self):
        _, space, _ = animals_space()
        a, _ = random_isomorphic(space, 11)
        b, _ = random_isomorphic(space, 11)
        assert np.array_equal(a.table, b.table)

    def test_seeds_differ(self):
        big = LabelSpace(name="big", table=np.repeat([0, 1], [40, 60]))
        a, _ = random_isomorphic(big, 0)
        b, _ = random_isomorphic(big, 1)
        assert not np.array_equal(a.table, b.table)

    def test_singleton_sizes_give_relabeled_identity(self):
        s = hyponym_space(5)
        r, table = random_isomorphic(s, 2)
        assert list(r.sizes) == [1] * 5
        assert sorted(table) == list(range(5))

    def test_name_records_seed(self):
        _, space, _ = animals_space()
        r, _ = random_isomorphic(space, 9)
        assert r.name == "s2/random-9"


class TestProjectLog:
    def test_within_superclass_error_becomes_hit(self):
        s = LabelSpace(name="s", table=[0, 0, 1])
        log = _log([1, 1], [0, 2], [1, 2], 3)
        out = project_log(log, s)
        assert list(out.true_labels) == [0, 1]
        assert list(out.pred_labels) == [0, 1]
        assert out.label_count == 2

    def test_identity_mapping_unchanged(self):
        log = _log([1, 1, 2], [0, 1, 2], [2, 1, 0], 3)
        out = project_log(log, hyponym_space(3))
        assert np.array_equal(out.true_labels, log.true_labels)
        assert np.array_equal(out.pred_labels, log.pred_labels)

    def test_empty_log(self):
        log = _log([], [], [], 3)
        out = project_log(log, hyponym_space(3))
        assert len(out) == 0

    def test_wrong_size_table_rejected(self):
        log = _log([1], [0], [0], 2)
        with pytest.raises(ValueError, match="partition mismatch"):
            project_log(log, LabelSpace(name="s", table=[0, 0, 1]))


@st.composite
def _tables(draw, c):
    """A table over ``c`` classes in which every superclass has a member."""
    s_count = draw(st.integers(1, c))
    table = draw(arrays(np.int64, c, elements=st.integers(0, s_count - 1)))
    table[draw(st.permutations(range(c)))[:s_count]] = np.arange(s_count)
    return table


@st.composite
def _nested_spaces(draw):
    """A log over C labels, a space A on it and a space B on A's superclasses."""
    c = draw(st.integers(1, 12))
    a = LabelSpace(name="a", table=draw(_tables(c)))
    b = LabelSpace(name="b", table=draw(_tables(a.superclass_count)))
    n = draw(st.integers(0, 20))
    labels = st.integers(0, c - 1)
    log = _log(draw(arrays(np.int64, n, elements=st.integers(1, 3))),
               draw(arrays(np.int64, n, elements=labels)),
               draw(arrays(np.int64, n, elements=labels)), c)
    return log, a, b


@settings(max_examples=150, deadline=None, database=None)
@given(_nested_spaces())
def test_nested_projection_is_one_projection(inputs):
    log, a, b = inputs
    twice = project_log(project_log(log, a), b)
    once = project_log(log, LabelSpace(name="ab", table=b.table[a.table]))
    assert twice.label_count == once.label_count == b.superclass_count
    for field in ("epochs", "example_ids", "true_labels", "pred_labels"):
        assert np.array_equal(getattr(twice, field), getattr(once, field))


class TestLabelspaceFiles:
    def test_round_trip(self, tmp_path):
        _, space, _ = animals_space()
        p = tmp_path / "s2.tsv"
        write_labelspace(space, p)
        back = read_labelspace(p)
        assert back.name == "s2"
        assert np.array_equal(back.table, space.table)

    def test_gap_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("0\t0\n2\t1\n")
        with pytest.raises(ValueError):
            read_labelspace(p)

    def test_gapped_superclass_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("0\t0\n1\t2\n")
        with pytest.raises(ValueError, match=r"bad.tsv: superclass index 1 has no members "
                                             r"\(gapped indices\)"):
            read_labelspace(p)

    def test_extra_field_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("0\t0\tjunk\n1\t0\n")
        with pytest.raises(ValueError,
                           match="bad.tsv:1: expected 'class_index<TAB>superclass_index'"):
            read_labelspace(p)
