import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhvkit import (
    BhvError,
    NewickSyntaxError,
    TreePoint,
    enumerate_binary_topologies,
    is_binary,
    is_cone_point,
    make_split,
    make_topology,
    parse_newick,
    to_newick,
)
from bhvkit.newick import _scan, iter_newick_lines
from helpers import (
    NewickNode,
    cone_point,
    has_single_child_node,
    parse_newick_by_tree,
    parse_tree_string,
    random_face,
    scan_with_offsets,
    splits_from_tree,
)

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
    with pytest.raises(BhvError, match=r"^duplicate leaf name '2'$"):
        parse_newick("(1,2,2,4);")


def test_negative_length_rejected():
    with pytest.raises(NewickSyntaxError, match=r"^negative branch length -0\.5 \(at offset 6\)$") as exc:
        parse_newick("((1,2):-0.5,3,4,5);")
    assert exc.value.position == 6  # the ':'


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(((1,2)),3,4,5);", 7),  # below the root
        ("((1,2,3,4));", 10),  # the root
        ("(1);", 2),  # the root, over a single leaf
    ],
)
def test_single_child_node_rejected_at_its_close(text, offset):
    with pytest.raises(NewickSyntaxError, match=f"^node with a single child \\(at offset {offset}\\)$") as exc:
        parse_newick(text)
    assert exc.value.position == offset
    assert text[offset] == ")"


def test_single_child_node_reported_before_later_faults():
    with pytest.raises(NewickSyntaxError, match="node with a single child"):
        parse_newick("((1),1,2,3);")  # also a duplicate leaf
    with pytest.raises(NewickSyntaxError, match="node with a single child"):
        parse_newick("((1),2,3,x);")  # also mixed names


def test_degree_two_internal_from_hand_built_node():
    # parse_newick rejects single-child nodes at their ')', but the node
    # trees of the oracle can still be built by hand with one
    chain = NewickNode([NewickNode([NewickNode(label="1"), NewickNode(label="2")], None, 0.5)], None, None)
    root = NewickNode([chain, NewickNode(label="3"), NewickNode(label="4")])
    with pytest.raises(NewickSyntaxError, match="node with a single child") as exc:
        splits_from_tree(root, {"1": 1, "2": 2, "3": 3, "4": 4})
    assert exc.value.position is None  # a node tree holds no text


def test_explicit_label_map():
    x = parse_newick("((ape,bee):0.5,cat,dog,emu);", {"ape": 3, "bee": 5, "cat": 1, "dog": 2, "emu": 4})
    assert x.topology.splits == {make_split({3, 5}, 5)}


def test_label_map_must_cover_all_leaves():
    with pytest.raises(BhvError, match=r"^label map must cover exactly 1\.\.4, got values \[1, 2, 3\]$"):
        parse_newick("((ape,bee):0.5,cat,dog);", {"ape": 1, "bee": 2, "cat": 3})
    with pytest.raises(BhvError, match=r"^leaf name 'dog' not in label map$"):
        parse_newick("((ape,bee):0.5,cat,dog);", {"ape": 1, "bee": 2, "cat": 3, "fox": 4})


@pytest.mark.parametrize("value", [1.0, True, "1", None])
def test_label_map_values_must_be_plain_ints(value):
    with pytest.raises(BhvError, match="must be ints"):
        parse_newick("(a,b,c);", {"a": value, "b": 2, "c": 3})
    with pytest.raises(BhvError, match=r"^label map values must be ints, got 1\.0$"):
        parse_newick("(a,b,c);", {"a": 1.0, "b": 2.0, "c": 3.0})


def test_lexicographic_assignment_for_names():
    x = parse_newick("((ape,bee):0.5,cat,dog,emu);")
    # sorted: ape=1 bee=2 cat=3 dog=4 emu=5
    assert x.topology.splits == {make_split({1, 2}, 5)}


def test_mixed_names_require_map():
    with pytest.raises(BhvError, match="^mixed numeric and non-numeric leaf names need an explicit label map$"):
        parse_newick("((1,bee):0.5,cat,dog);")


def test_unicode_digits_are_not_numeric_names():
    # "²".isdigit() is true, but int("²") fails
    with pytest.raises(BhvError, match="^mixed numeric and non-numeric leaf names"):
        parse_newick("(²,1,2,3);")
    x = parse_newick("((²,³):0.5,a,b);")
    assert x.topology.splits == {make_split({3, 4}, 4)}  # sorted: a b ² ³


def test_numeric_names_must_be_complete_range():
    with pytest.raises(BhvError, match=r"^numeric leaf names must be exactly 1\.\.4; pass a label map instead$"):
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


def test_nesting_bound_is_65_levels():
    with pytest.raises(NewickSyntaxError, match="node with a single child"):  # 65 levels pass the depth bound
        parse_newick("(" * 65 + "1,2" + ")" * 65 + ";")
    with pytest.raises(NewickSyntaxError) as exc:
        parse_newick("(" * 66 + "1,2" + ")" * 66 + ";")
    assert exc.value.position == 65


def test_rooted_caterpillar_on_64_leaves_parses():
    text = "(1,2)"
    for leaf in range(3, 65):
        text = f"({text}:0.5,{leaf})"
    x = parse_newick(text + ";")
    assert x.n == 64
    assert x.p == 61
    assert parse_newick(to_newick(x)) == x


@pytest.mark.parametrize(
    "text",
    [
        "(1,2);",
        "(1:1,2:2);",
        "(" + ",".join(map(str, range(1, 66))) + ");",
        "(" * 64 + "1,2" + "".join(f"):1,{leaf}" for leaf in range(3, 66)) + ");",
    ],
    ids=["two", "two_with_lengths", "star_65", "caterpillar_65"],
)
def test_leaf_count_outside_3_to_64_is_rejected(text):
    with pytest.raises(ValueError, match=r"leaf count must be in \[3, 64\]"):
        parse_newick(text)


@pytest.mark.parametrize(
    "text,label_map,error,message",
    [
        ("A;", None, ValueError, r"leaf count must be in \[3, 64\], got 1"),
        ("1;", None, ValueError, r"leaf count must be in \[3, 64\], got 1"),
        ("A:1.5;", None, ValueError, r"leaf count must be in \[3, 64\], got 1"),
        ("A;", {"A": 1}, ValueError, r"leaf count must be in \[3, 64\], got 1"),
        # the leaf-name faults raise a plain BhvError; their ids keep the
        # fault's name, "UnknownLeafName", so each case reads as before
        pytest.param(
            "2;",
            None,
            BhvError,
            r"numeric leaf names must be exactly 1\.\.1",
            id=r"2;-None-UnknownLeafName-numeric leaf names must be exactly 1\.\.1",
        ),
        pytest.param(
            "A;",
            {"A": 3},
            BhvError,
            r"label map must cover exactly 1\.\.1, got values \[3\]",
            id=r"A;-label_map5-UnknownLeafName-label map must cover exactly 1\.\.1, got values \[3\]",
        ),
    ],
)
def test_one_leaf_statement_is_rejected(text, label_map, error, message):
    # a statement without parentheses is one leaf, which the label or
    # leaf-count check rejects before any edge is read
    with pytest.raises(error, match=message):
        parse_newick(text, label_map)


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


# Random statements for the equivalence with the node-tree oracle.
_WS = ["", "", "", " ", "\t", "\n", "\r\n "]
_MUTANT_CHARS = "(),;:[]'\" \t0123456789.eE+-ab²"


def _random_statement(rnd, n: int, style: str, rooted: bool):
    """A valid Newick statement on n leaves and the label map it needs:
    random nesting, missing, zero and positive lengths, stray whitespace."""
    if style == "numeric":
        names = [str(i) for i in range(1, n + 1)]
    else:
        names = [f"t{rnd.randrange(10**6)}_{i}" for i in range(n)]
    label_map = None
    if style == "map":
        images = list(range(1, n + 1))
        rnd.shuffle(images)
        label_map = dict(zip(names, images))
    rnd.shuffle(names)

    def ws():
        return rnd.choice(_WS)

    def length():
        roll = rnd.random()
        if roll < 0.3:
            return ""
        w = 0.0 if roll < 0.5 else rnd.choice([rnd.uniform(0, 5), rnd.randint(1, 9), 1e-300, 2.5e10])
        return f"{ws()}:{ws()}{w!r}"

    items = [f"{ws()}{name}{length()}" for name in names]
    top = 2 if rooted else rnd.randint(3, n)
    while len(items) > top:
        k = rnd.randint(2, min(4, len(items) - top + 1))
        picked = sorted(rnd.sample(range(len(items)), k))
        group = [items[i] for i in picked]
        items = [item for i, item in enumerate(items) if i not in picked]
        label = rnd.choice(["", "", "x"])
        items.insert(rnd.randrange(len(items) + 1), f"({','.join(group)}){ws()}{label}{length()}")
    return f"{ws()}({','.join(items)}){ws()};{ws()}", label_map


def _outcome(parse, label_map, text):
    try:
        return parse(text, label_map)
    except Exception as exc:  # the class and offset are what the oracle must match
        return type(exc), getattr(exc, "position", None)


_STYLES = st.sampled_from(["numeric", "names", "map"])


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 20), _STYLES, st.booleans(), st.randoms(use_true_random=False))
def test_parse_matches_node_tree_oracle(n, style, rooted, rnd):
    text, label_map = _random_statement(rnd, n, style, rooted)
    x = parse_newick(text, label_map)
    assert x == parse_newick_by_tree(text, label_map)
    assert hash(x) == hash(parse_newick_by_tree(text, label_map))


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 64), _STYLES, st.booleans(), st.randoms(use_true_random=False))
def test_parsed_topology_equals_validated_topology(n, style, rooted, rnd):
    text, label_map = _random_statement(rnd, n, style, rooted)
    x = parse_newick(text, label_map)
    checked = make_topology(x.lengths, n)
    assert x.topology == checked
    assert hash(x.topology) == hash(checked)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(3, 12),
    _STYLES,
    st.booleans(),
    st.randoms(use_true_random=False),
    st.sampled_from(["delete", "insert", "replace"]),
    st.sampled_from(_MUTANT_CHARS),
)
def test_parse_mutants_match_node_tree_oracle(n, style, rooted, rnd, edit, ch):
    text, label_map = _random_statement(rnd, n, style, rooted)
    i = rnd.randrange(len(text))
    if edit == "delete":
        text = text[:i] + text[i + 1 :]
    elif edit == "insert":
        text = text[:i] + ch + text[i:]
    else:
        text = text[:i] + ch + text[i + 1 :]
    got = _outcome(parse_newick, label_map, text)
    want = _outcome(parse_newick_by_tree, label_map, text)
    if got != want:
        # a single-child node is reported at its ')', before faults the
        # oracle finds first
        with pytest.raises(NewickSyntaxError, match="node with a single child"):
            parse_newick(text, label_map)
        assert has_single_child_node(text)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(3, 64),
    _STYLES,
    st.booleans(),
    st.randoms(use_true_random=False),
    st.lists(
        st.tuples(st.sampled_from(["delete", "insert", "replace"]), st.sampled_from(_MUTANT_CHARS)),
        max_size=3,
    ),
)
def test_scan_matches_offset_tracking_scanner(n, style, rooted, rnd, edits):
    # the same items, or the same error class, message and offset, on
    # statements with up to three edits
    text, _ = _random_statement(rnd, n, style, rooted)
    for edit, ch in edits:
        i = rnd.randrange(len(text) + 1)
        text = text[:i] + (ch if edit != "delete" else "") + text[i + (edit != "insert") :]

    def outcome(scan):
        try:
            return scan(text)
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(_scan) == outcome(scan_with_offsets)
