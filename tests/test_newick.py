import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhvkit import (
    DegreeTwoInternal,
    DuplicateLeaf,
    NegativeLength,
    NewickNode,
    NewickSyntaxError,
    TreePoint,
    UnknownLeafName,
    cone_point,
    enumerate_binary_topologies,
    is_binary,
    is_cone_point,
    make_split,
    parse_newick,
    splits_from_tree,
    to_newick,
)
from bhvkit.newick import iter_newick_lines, parse_tree_string
from helpers import random_face

FIG_TREE = "((1:1,6:1):0.25,((2:1,3:1):0.3,(4:1,5:1):0.45));"


def test_parse_weighted_binary_tree():
    x = parse_newick(FIG_TREE)
    assert x.n == 6
    assert {s.side for s in x.topology.splits} == {(1, 6), (2, 3), (4, 5)}
    assert x.lengths[make_split({1, 6}, 6)] == 0.25
    assert x.lengths[make_split({2, 3}, 6)] == 0.3
    assert x.lengths[make_split({4, 5}, 6)] == 0.45
    assert x.leaf_lengths == {i: 1.0 for i in range(1, 7)}
    assert is_binary(x.topology)


def test_parse_star_tree_is_cone_point():
    x = parse_newick("(1,2,3,4,5);")
    assert x.n == 5
    assert is_cone_point(x)
    assert x.leaf_lengths is None


def test_zero_length_internal_edge_dropped():
    x = parse_newick("((1,2):0.0,3,4,5);")
    assert is_cone_point(x)


def test_missing_internal_length_treated_as_zero():
    x = parse_newick("((1,2),3,4,5);")
    assert is_cone_point(x)


def test_degree_two_root_suppressed_and_lengths_merged():
    x = parse_newick("((1,2):0.1,((3,4):0.2,5,6):0.15);")
    assert {s.side for s in x.topology.splits} == {(1, 2), (3, 4)}
    assert x.lengths[make_split({1, 2}, 6)] == pytest.approx(0.25)
    assert x.lengths[make_split({3, 4}, 6)] == 0.2


def test_root_suppression_merges_into_leaf_edge():
    x = parse_newick("(1:0.5,(2,3,4):0.25);")
    assert is_cone_point(x)
    assert x.leaf_lengths == {1: 0.75}


def test_caterpillar_splits():
    x = parse_newick("((((1,2):0.1,3):0.2,4):0.3,5,6);")
    assert x.topology.splits == {
        make_split({1, 2}, 6),
        make_split({1, 2, 3}, 6),
        make_split({1, 2, 3, 4}, 6),  # canonical side is {5,6}
    }


def test_parse_counts_internal_edges():
    for text, p in [(FIG_TREE, 3), ("(1,2,3,4,5);", 0), ("((1,2):0.5,3,4,5,6,7);", 1)]:
        x = parse_newick(text)
        assert x.p == p <= x.n - 3


def test_syntax_error_reports_position():
    with pytest.raises(NewickSyntaxError) as exc:
        parse_newick("((1,2),3,4,5)")  # missing ';'
    assert exc.value.position == 13
    with pytest.raises(NewickSyntaxError):
        parse_newick("(1,2,,3,4);")
    with pytest.raises(NewickSyntaxError):
        parse_newick("(1,2,3,4); trailing")


def test_quoted_labels_and_comments_rejected():
    with pytest.raises(NewickSyntaxError):
        parse_newick("('a',b,c,d);")
    with pytest.raises(NewickSyntaxError):
        parse_newick("(1,2,3,4)[comment];")


def test_duplicate_leaf_rejected():
    with pytest.raises(DuplicateLeaf) as exc:
        parse_newick("(1,2,2,4);")
    assert exc.value.name == "2"


def test_negative_length_rejected():
    with pytest.raises(NegativeLength):
        parse_newick("((1,2):-0.5,3,4,5);")


def test_degree_two_internal_from_hand_built_node():
    # the grammar cannot produce single-child nodes, but hand-built trees can
    chain = NewickNode([NewickNode([NewickNode(label="1"), NewickNode(label="2")], None, 0.5)], None, None)
    root = NewickNode([chain, NewickNode(label="3"), NewickNode(label="4")])
    with pytest.raises(DegreeTwoInternal):
        splits_from_tree(root, {"1": 1, "2": 2, "3": 3, "4": 4})


def test_explicit_label_map():
    x = parse_newick("((ape,bee):0.5,cat,dog,emu);", {"ape": 3, "bee": 5, "cat": 1, "dog": 2, "emu": 4})
    assert x.topology.splits == {make_split({3, 5}, 5)}


def test_label_map_must_cover_all_leaves():
    with pytest.raises(UnknownLeafName):
        parse_newick("((ape,bee):0.5,cat,dog);", {"ape": 1, "bee": 2, "cat": 3})
    with pytest.raises(UnknownLeafName):
        parse_newick("((ape,bee):0.5,cat,dog);", {"ape": 1, "bee": 2, "cat": 3, "fox": 4})


def test_lexicographic_assignment_for_names():
    x = parse_newick("((ape,bee):0.5,cat,dog,emu);")
    # sorted: ape=1 bee=2 cat=3 dog=4 emu=5
    assert x.topology.splits == {make_split({1, 2}, 5)}


def test_mixed_names_require_map():
    with pytest.raises(UnknownLeafName):
        parse_newick("((1,bee):0.5,cat,dog);")


def test_numeric_names_must_be_complete_range():
    with pytest.raises(UnknownLeafName):
        parse_newick("((2,3):0.5,4,5);")


def test_to_newick_star():
    assert to_newick(cone_point(4)) == "(1,2,3,4);"


def test_figure_tree_round_trip():
    x = parse_newick(FIG_TREE)
    again = parse_newick(to_newick(x))
    assert again.topology == x.topology
    assert again.lengths == x.lengths
    assert again.leaf_lengths == x.leaf_lengths


def test_round_trip_all_binary_shapes_n6():
    rng = random.Random(808)
    for t in enumerate_binary_topologies(6):
        x = TreePoint(t, {s: rng.uniform(0.01, 1.0) for s in t.splits})
        again = parse_newick(to_newick(x))
        assert again.topology == x.topology
        assert again.lengths == x.lengths


def test_to_newick_relabeling_consistency():
    from bhvkit import Permutation

    rng = random.Random(909)
    for t in list(enumerate_binary_topologies(6))[:20]:
        x = TreePoint(t, {s: rng.uniform(0.1, 1.0) for s in t.splits})
        images = list(range(1, 7))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        assert parse_newick(to_newick(x.permute(sigma))).topology == x.topology.permute(sigma)


def test_canonical_form_starts_at_leaf_one():
    x = parse_newick(FIG_TREE)
    assert to_newick(x).startswith("(1:")


def test_parse_tree_string_structure():
    root = parse_tree_string("((1:1,6:1):0.25,(2,3));")
    assert len(root.children) == 2
    assert root.children[0].length == 0.25
    assert root.children[0].children[0].label == "1"


def test_iter_newick_lines_skips_comments():
    text = "# header\n(1,2,3,4);\n\n  # note\n(1,2,3,4,5);\n"
    assert list(iter_newick_lines(text)) == ["(1,2,3,4);", "(1,2,3,4,5);"]


def test_deep_nesting_is_a_syntax_error():
    text = "(" * 3000 + "1,2" + ")" * 3000 + ";"
    with pytest.raises(NewickSyntaxError):
        parse_newick(text)


def test_rooted_caterpillar_on_64_leaves_parses():
    text = "(1,2)"
    for leaf in range(3, 65):
        text = f"({text}:0.5,{leaf})"
    x = parse_newick(text + ";")
    assert x.n == 64
    assert x.p == 61
    assert parse_newick(to_newick(x)) == x


_LENGTHS = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
_LEAF_LENGTHS = st.floats(min_value=0, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.integers(4, 64), st.randoms(use_true_random=False), st.data())
def test_to_newick_round_trips_with_leaf_lengths(n, rnd, data):
    t = random_face(rnd, n)
    lengths = {s: data.draw(_LENGTHS) for s in t.sorted_splits}
    leaves = data.draw(st.sets(st.integers(1, n)))
    leaf_lengths = {leaf: data.draw(_LEAF_LENGTHS) for leaf in sorted(leaves)} or None
    x = TreePoint(t, lengths, leaf_lengths)
    assert parse_newick(to_newick(x)) == x
