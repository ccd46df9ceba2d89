import ast
import math
import random
import re
import sys
from enum import IntEnum
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhvkit import (
    BhvError,
    LeafCountMismatch,
    LinkGraph,
    Permutation,
    Split,
    Topology,
    TreePoint,
    all_permutations,
    apply_permutation,
    are_compatible,
    ball_volume,
    ball_volume_bounds,
    brute_force_automorphisms,
    build_link_graph,
    certify_aut,
    clade_children,
    degree_formula,
    degree_sequence,
    distance_upper_bound,
    double_factorial,
    ekr_independent_sets,
    enumerate_binary_refinements,
    enumerate_binary_topologies,
    enumerate_splits,
    euclidean_ball_volume,
    is_binary,
    is_cone_point,
    kneser_subgraph,
    make_split,
    make_topology,
    maximum_independent_sets,
    parse_newick,
    permutation_to_automorphism,
    same_orthant_distance,
    to_newick,
    verify_degrees,
)
from bhvkit.splits import check_int, check_leaf_count, full_mask, leaves_of, set_bits, split_key
from bhvkit.topology import _clade_tree
from helpers import compatible_disjoint_or_nested, compose_permutations


def test_make_split_keeps_smaller_side():
    assert make_split({1, 2}, 6).side == (1, 2)


def test_make_split_canonicalizes_to_complement():
    assert make_split({3, 4, 5, 6}, 6).side == (1, 2)


def test_equal_splits_hash_equal():
    for n in (4, 5, 6, 7):
        leaves = set(range(1, n + 1))
        for side in (set(c) for k in range(2, n - 1) for c in combinations(leaves, k)):
            a, b = make_split(side, n), make_split(leaves - side, n)
            assert a == b == Split(n, a.mask)
            assert hash(a) == hash(b) == hash(Split(n, a.mask)) == hash(a.mask)


def test_split_of_either_side_agrees_with_make_split():
    for n in (4, 5, 6, 7):
        for mask in range(1, 1 << n):
            if 2 <= mask.bit_count() <= n - 2:
                side = [i + 1 for i in range(n) if mask >> i & 1]
                assert Split(n, mask) == Split(n, full_mask(n) ^ mask) == make_split(side, n)
            else:
                small = min(mask.bit_count(), n - mask.bit_count())
                sizes = f"got sides of {small} and {n - small}$"
                for either in (mask, full_mask(n) ^ mask):
                    with pytest.raises(BhvError, match="^a split needs >= 2 leaves on each side, " + sizes):
                        Split(n, either)


def test_clade_is_the_side_without_leaf_one():
    assert make_split({1, 2}, 6).clade == 0b111100
    assert make_split({3, 4}, 6).clade == 0b001100
    assert make_split({1, 2, 3}, 6).clade == 0b111000
    for n in (4, 5, 6, 7):
        for s in enumerate_splits(n):
            assert not s.clade & 1
            assert Split(n, s.clade) == s


def test_make_split_half_size_tie_goes_to_leaf_one():
    assert make_split({2, 3, 4}, 6).side == (1, 5, 6)


def test_make_split_rejects_small_sides():
    message = r"^a split needs >= 2 leaves on each side, got sides of 1 and 5$"
    with pytest.raises(BhvError, match=message):
        make_split({1}, 6)
    with pytest.raises(BhvError, match=message):
        make_split({1, 2, 3, 4, 5}, 6)  # complement too small


def test_make_split_rejects_out_of_range_leaves():
    with pytest.raises(BhvError, match=r"^leaf must be in \[1, 6\], got 7$"):
        make_split({1, 7}, 6)
    with pytest.raises(BhvError, match=r"^leaf must be in \[1, 6\], got 0$"):
        make_split({0, 1}, 6)


BIG = 10**5000  # 16,610 bits, past the default limit of 4,300 digits for str()


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300, reason="needs the default limit")
@pytest.mark.parametrize("call, message", [
    (lambda: Split(5, BIG), "mask must be in [0, 31], got an int of 16610 bits"),
    (lambda: Split(5, -BIG), "mask must be in [0, 31], got a negative int of 16610 bits"),
    (lambda: Permutation((1, BIG)), "image must be in [1, 2], got an int of 16610 bits"),
    (lambda: check_int(-1, 0, BIG, "row"), "row must be in [0, an int of 16610 bits], got -1"),
    (lambda: check_int(BIG, -BIG, 0, "row"), "row must be in [a negative int of 16610 bits, 0], got an int of 16610 bits"),
    (lambda: Split(5, 10**4299), f"mask must be in [0, 31], got 1{'0' * 4299}"),  # 4,300 digits still print
], ids=["split", "split-negative", "permutation", "bound", "both", "at-the-limit"])
def test_an_int_too_long_to_print_is_named_by_its_bit_length(call, message):
    # str() of the int would raise Python's own ValueError in place of the rule's BhvError line
    with pytest.raises(BhvError) as info:
        call()
    assert str(info.value) == message


def test_leaf_count_bounds():
    with pytest.raises(ValueError):
        make_split({1, 2}, 2)
    with pytest.raises(ValueError):
        make_split({1, 2}, 65)


def test_split_constructor_takes_the_larger_side():
    s = Split(6, 0b111100)  # {3,4,5,6}: the larger side names the same split
    assert (s, s.mask, s.side) == (make_split({1, 2}, 6), 0b000011, (1, 2))


@pytest.mark.parametrize("mask", [0b100011, 1 << 63 | 0b11, -1])
def test_split_constructor_rejects_bits_past_n(mask):
    with pytest.raises(BhvError, match=rf"^mask must be in \[0, 31\], got {mask}$"):
        Split(5, mask)  # checked as given, before it is canonicalized


def test_compatible_nested_pair():
    assert are_compatible(make_split({1, 2}, 7), make_split({1, 2, 3}, 7))


def test_incompatible_crossing_pair():
    assert not are_compatible(make_split({1, 2}, 6), make_split({2, 3}, 6))


def test_compatible_disjoint_pair():
    assert are_compatible(make_split({1, 2}, 6), make_split({3, 4}, 6))


def test_compatibility_requires_same_leaf_count():
    with pytest.raises(LeafCountMismatch):
        are_compatible(make_split({1, 2}, 6), make_split({1, 2}, 7))


@pytest.mark.parametrize("n,count", [(4, 3), (5, 10), (6, 25)])
def test_enumerate_splits_counts(n, count):
    assert len(enumerate_splits(n)) == count


def test_enumerate_splits_n4_sides():
    assert [s.side for s in enumerate_splits(4)] == [(1, 2), (1, 3), (1, 4)]


@pytest.mark.parametrize("n", range(4, 13))
def test_enumerate_splits_is_sorted(n):
    out = enumerate_splits(n)
    assert out == sorted(out)
    assert out == sorted(out, key=lambda s: (s.size, s.side))


@st.composite
def split_lists(draw):
    """Splits on two leaf counts in 4..64, shuffled together; for an even
    count about half of its splits have the half size n/2 that ties the
    two sides."""
    out = []
    for n in draw(st.lists(st.integers(4, 64), min_size=2, max_size=2, unique=True)):
        any_side = st.integers(0, (1 << n) - 1).filter(lambda m, n=n: 2 <= m.bit_count() <= n - 2)
        half = st.sets(st.integers(1, n), min_size=n // 2, max_size=n // 2).map(
            lambda x: sum(1 << (leaf - 1) for leaf in x)
        )
        masks = draw(st.lists(st.one_of(any_side, half) if n % 2 == 0 else any_side, max_size=30))
        out += [Split(n, m) for m in masks]
    return draw(st.permutations(out))


@settings(max_examples=200, deadline=None)
@given(split_lists())
def test_split_key_orders_as_split_lt(splits):
    # both against the order written out on leaf labels, not on masks
    by_side = sorted(splits, key=lambda s: (s.n, s.size, s.side))
    assert sorted(splits) == by_side
    assert sorted(splits, key=lambda s: (s.n, split_key(s))) == by_side
    assert all(not b < a for a, b in zip(by_side, by_side[1:]))


@st.composite
def split_pairs(draw):
    """Two splits, usually on the same n; the second is often the first
    with one leaf moved, so equal-size sides that share a prefix occur."""
    n = draw(st.integers(4, 64))
    side = draw(st.sets(st.integers(1, n), min_size=2, max_size=n - 2))
    other_n = draw(st.sampled_from([n, n, n, draw(st.integers(4, 64))]))
    if other_n == n and draw(st.booleans()):
        moved = draw(st.sampled_from(sorted(side)))
        target = draw(st.sampled_from(sorted(set(range(1, n + 1)) - side)))
        other = side - {moved} | {target}
    else:
        other = draw(st.sets(st.integers(1, other_n), min_size=2, max_size=other_n - 2))
    return make_split(side, n), make_split(other, other_n)


@settings(deadline=None)
@given(split_pairs())
def test_split_order_matches_side_tuple_key(pair):
    a, b = pair

    def key(s):
        return (s.n, s.size, s.side)

    assert (a < b) == (key(a) < key(b))
    assert (b < a) == (key(b) < key(a))


def test_enumerate_splits_n6_sizes():
    sizes = [s.size for s in enumerate_splits(6)]
    assert sizes.count(2) == 15 and sizes.count(3) == 10


def test_split_count_against_subset_oracle():
    # brute force over all subsets, identifying each with its complement
    for n in range(3, 13):
        distinct = set()
        for mask in range(1 << n):
            size = mask.bit_count()
            if 2 <= size <= n - 2:
                comp = ((1 << n) - 1) ^ mask
                distinct.add(min(mask, comp))
        assert len(enumerate_splits(n)) == len(distinct) == 2 ** (n - 1) - n - 1


def test_canonical_idempotence():
    for n in range(4, 9):
        for s in enumerate_splits(n):
            assert make_split(s.side, n) == s


def test_compatibility_is_symmetric():
    for n in range(4, 9):
        splits = enumerate_splits(n)
        for a, b in combinations(splits, 2):
            assert are_compatible(a, b) == are_compatible(b, a)


def test_compatibility_definitions_agree():
    # four-empty-intersections form vs disjoint-or-nested form
    for n in range(4, 9):
        splits = enumerate_splits(n)
        for a in splits:
            for b in splits:
                assert are_compatible(a, b) == compatible_disjoint_or_nested(a, b)


def test_pairwise_compatible_agrees_with_are_compatible():
    # the clade-tree walk decides compatibility; are_compatible is the definition
    for n in range(4, 8):
        splits = enumerate_splits(n)
        for a, b in combinations(splits, 2):
            assert (_clade_tree([a.clade, b.clade], n) is not None) == are_compatible(a, b)
    rng = random.Random(515)
    for _ in range(2000):
        n = rng.randint(5, 12)
        chosen = rng.sample(enumerate_splits(n), rng.randint(0, 5))
        expected = all(are_compatible(a, b) for a, b in combinations(chosen, 2))
        assert (_clade_tree([s.clade for s in chosen], n) is not None) == expected


def test_enumeration_order_is_size_then_lex():
    for n in (5, 6, 7):
        keys = [(s.size, s.side) for s in enumerate_splits(n)]
        assert keys == sorted(keys)


def test_apply_identity_permutation():
    s = make_split({2, 5}, 6)
    assert apply_permutation(Permutation.from_cycles(6), s) == s


def test_apply_cyclic_permutation():
    sigma = Permutation.from_cycles(6, (1, 2, 3, 4, 5, 6))
    assert apply_permutation(sigma, make_split({1, 2}, 6)).side == (2, 3)


def test_apply_transposition():
    sigma = Permutation.from_cycles(6, (1, 6))
    assert apply_permutation(sigma, make_split({1, 2}, 6)).side == (2, 6)


def test_apply_permutation_leaf_count_mismatch():
    with pytest.raises(LeafCountMismatch):
        apply_permutation(Permutation.from_cycles(5), make_split({1, 2}, 6))


def test_apply_permutation_matches_leaf_list_relabeling():
    # the mask relabeling against make_split on the relabeled side
    rng = random.Random(404)

    def relabeled(sigma, s):
        return make_split([sigma(leaf) for leaf in s.side], s.n)

    for n in range(4, 10):
        for _ in range(20):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            sigma = Permutation(tuple(images))
            for s in enumerate_splits(n):
                assert apply_permutation(sigma, s) == relabeled(sigma, s)
    for _ in range(2000):
        n = rng.randint(4, 64)
        s = make_split(rng.sample(range(1, n + 1), rng.randint(2, n - 2)), n)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        assert apply_permutation(sigma, s) == relabeled(sigma, s)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    for images in ((1.0, 2.0, 3.0, 4.0, 5.0), (True, 2, 3, 4, 5)):  # equal to 1..5, but no leaf labels
        with pytest.raises(BhvError, match=rf"^image must be an int, got {images[0]!r}$"):
            Permutation(images)


@pytest.mark.parametrize("cycle, bad", [
    ((1, 7), "7"),  # past n: an IndexError once
    ((6, 0), "0"),  # 0 and -1 wrapped round to the last images, here undoing the first write
    ((5, -1), "-1"),
    ((True, 2), "True"),
    ((1.0, 2), "1.0"),
    (("1", 2), "'1'"),
])
def test_from_cycles_names_a_bad_entry(cycle, bad):
    says = r"in \[1, 6\]" if bad.lstrip("-").isdigit() else "an int"
    with pytest.raises(BhvError, match=rf"^cycle entry must be {says}, got {re.escape(bad)}$"):
        Permutation.from_cycles(6, cycle)


def test_from_cycles_refuses_an_entry_in_two_places():
    # once the identity, a transposition, and a refusal of the images (2, 3, 2, 4, 5, 6)
    for cycles, entry in [(((1, 1),), 1), (((1, 2), (2, 1)), 2), (((1, 2), (2, 3)), 2)]:
        with pytest.raises(BhvError, match=rf"^cycle entry {entry} appears twice$"):
            Permutation.from_cycles(6, *cycles)


def test_permutation_action_is_group_action():
    rng = random.Random(202)
    splits = enumerate_splits(6)
    for _ in range(200):
        a = list(range(1, 7))
        b = list(range(1, 7))
        rng.shuffle(a)
        rng.shuffle(b)
        sigma, tau = Permutation(tuple(a)), Permutation(tuple(b))
        s = rng.choice(splits)
        assert apply_permutation(compose_permutations(sigma, tau), s) == apply_permutation(
            sigma, apply_permutation(tau, s)
        )


def test_compatibility_is_permutation_invariant():
    rng = random.Random(303)
    splits = enumerate_splits(6)
    for _ in range(300):
        images = list(range(1, 7))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        a, b = rng.choice(splits), rng.choice(splits)
        assert are_compatible(apply_permutation(sigma, a), apply_permutation(sigma, b)) == are_compatible(a, b)


def test_permutation_action_permutes_vertex_set():
    splits = enumerate_splits(6)
    for sigma in [Permutation.from_cycles(6, (1, 2)), Permutation.from_cycles(6, (1, 2, 3, 4, 5, 6))]:
        image = {apply_permutation(sigma, s) for s in splits}
        assert image == set(splits)


@pytest.mark.parametrize("leaf", [0, -1, 6, True, 1.0, "1", None])
def test_calling_a_permutation_names_a_bad_leaf(leaf):
    # 0 and -1 once wrapped round to the last images, True read as leaf 1 and 6 was an IndexError
    sigma = Permutation.from_cycles(5, (1, 2, 3))
    says = "an int" if type(leaf) is not int else r"in \[1, 5\]"
    with pytest.raises(BhvError, match=rf"^leaf must be {says}, got {re.escape(repr(leaf))}$"):
        sigma(leaf)


def test_all_permutations_count():
    assert sum(1 for _ in all_permutations(4)) == 24


@pytest.mark.parametrize("n", range(1, 7))
def test_unchecked_permutations_equal_checked_ones(n):
    unchecked = list(all_permutations(n))
    checked = [Permutation(images) for images in permutations(range(1, n + 1))]
    assert len(unchecked) == math.factorial(n)
    assert unchecked == checked
    assert all(type(p) is Permutation and type(p.images) is tuple for p in unchecked)
    assert list(map(hash, unchecked)) == list(map(hash, checked))
    assert len(set(unchecked)) == math.factorial(n)


def test_unchecked_permutation_constructor_stays_in_splits():
    package = Path(__file__).resolve().parent.parent / "src" / "bhvkit"
    callers = {f.name for f in package.glob("*.py") if "object.__new__(Permutation)" in f.read_text()}
    assert callers == {"splits.py"}
    # splits.py builds them once, in all_permutations
    assert (package / "splits.py").read_text().count("object.__new__(Permutation)") == 1


def test_split_json_round_trip():
    s = make_split({2, 3, 4}, 6)
    assert s.side == (1, 5, 6)


# link-graph rows at n = 12 have 2,035 bits
WIDE_MASKS = st.one_of(
    st.integers(0, 2**2100 - 1),
    st.sets(st.integers(0, 2099), max_size=40).map(lambda bits: sum(1 << b for b in bits)),
)


@settings(deadline=None)
@given(WIDE_MASKS)
def test_set_bits_matches_a_per_bit_scan(mask):
    expected = [i for i in range(mask.bit_length()) if mask >> i & 1]
    assert set_bits(mask) == expected
    assert leaves_of(mask) == tuple(i + 1 for i in expected)


class Leaf(IntEnum):
    ONE = 1
    FIVE = 5


def arguments(ints):
    """ints, or a value the integer rule refuses: a bool, a float, an IntEnum member, a string or None."""
    return st.one_of(ints, st.booleans(), st.floats(), st.sampled_from(Leaf), st.text(max_size=2), st.none())


ANY, MASK = arguments(st.integers(-3, 70)), arguments(st.integers(-3, 300))
CENSUS_N, LINK_N = arguments(st.integers(-2, 8)), arguments(st.integers(-2, 9))  # the builds stay small
LINK7, SIGMA5 = build_link_graph(7), Permutation.from_cycles(5, (1, 2))

# every public call whose arguments the integer rule checks, with the strategy of each argument
INTEGER_ENTRY_POINTS = [
    (check_leaf_count, [ANY]),
    (Topology, [ANY]),
    (enumerate_binary_topologies, [CENSUS_N]),
    (build_link_graph, [LINK_N]),
    (lambda n: LinkGraph(n, (), ()), [ANY]),
    (Split, [ANY, MASK]),
    (lambda a, b, n: make_split([a, b], n), [ANY, ANY, ANY]),
    (lambda a, b, c: Permutation((a, b, c)), [ANY, ANY, ANY]),
    (SIGMA5, [ANY]),
    (lambda n, a, b: Permutation.from_cycles(n, (a, b)), [ANY, ANY, ANY]),
    (lambda leaf: TreePoint(make_topology((), 5), {}, {leaf: 1.0}), [ANY]),
    (double_factorial, [ANY]),
    (degree_formula, [ANY, ANY]),
    (lambda k: kneser_subgraph(LINK7, k), [ANY]),
    (lambda k: ekr_independent_sets(LINK7, k), [ANY]),
    (lambda m: euclidean_ball_volume(m, 0.1), [ANY]),
    (lambda n, p: ball_volume_bounds(n, p, 0.1), [ANY, ANY]),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_integer_argument_returns_or_raises_a_value_error(data):
    # never a TypeError or AttributeError; and any argument that is not a plain int is refused
    for call, strategies in INTEGER_ENTRY_POINTS:
        args = [data.draw(strategy) for strategy in strategies]
        if all(type(a) is int for a in args):
            try:
                call(*args)
            except ValueError:
                pass
        else:
            with pytest.raises(BhvError, match=r" must be "):
                call(*args)


def test_non_int_masks_and_cycle_lengths_raise_the_rule_error():
    with pytest.raises(BhvError, match=r"^mask must be an int, got 3\.0$"):
        Split(5, 3.0)
    with pytest.raises(BhvError, match=r"^n must be an int, got 2\.5$"):
        Permutation.from_cycles(2.5)
    with pytest.raises(BhvError, match=r"^leaf count must be an int, got <Leaf\.FIVE: 5>$"):
        make_split([1, 2], Leaf.FIVE)  # an int subclass is refused like any other non-int


@pytest.mark.parametrize("call, message", [
    (lambda: make_split(5, 6), "subset must be iterable, got 5"),
    (lambda: Permutation(5), "images must be iterable, got 5"),
    (lambda: Permutation.from_cycles(6, 3), "cycle must be iterable, got 3"),
    (lambda: Topology(6, [1, 2]), "splits must be an iterable of Splits, got [1, 2]"),
    (lambda: make_topology([(1, 2)], 6), "splits must be an iterable of Splits, got [(1, 2)]"),
    (lambda: TreePoint(Topology(6), None), "lengths must be a mapping, got None"),
], ids=["make_split", "Permutation", "from_cycles", "Topology", "make_topology", "TreePoint"])
def test_a_wrong_shaped_container_argument_is_refused_by_name(call, message):
    # a TypeError or AttributeError here would get past a caller's except ValueError
    with pytest.raises(BhvError) as info:
        call()
    assert str(info.value) == message


SIGMA6, SPLIT5, SPLIT6 = Permutation.from_cycles(6, (1, 2)), make_split({1, 2}, 5), make_split({1, 2}, 6)
POINT5 = TreePoint(make_topology([SPLIT5], 5), {SPLIT5: 1.0})
POINT6 = TreePoint(make_topology([SPLIT6], 6), {SPLIT6: 1.0})
LINK6 = build_link_graph(6)


@pytest.mark.parametrize("call, message", [
    (lambda: parse_newick(5), "text must be a str, got 5"),
    (lambda: parse_newick("(a,b,c);", label_map=5), "label_map must be a mapping, got 5"),
    (lambda: ball_volume(None, 0.1), "x must be a TreePoint, got None"),
    (lambda: are_compatible(1, 2), "a must be a Split, got 1"),
    (lambda: apply_permutation(None, SPLIT6), "sigma must be a Permutation, got None"),
    (lambda: degree_sequence(None), "t must be a Topology, got None"),
    (lambda: Topology(5).permute(None), "sigma must be a Permutation, got None"),
    (lambda: permutation_to_automorphism(None, LINK6), "sigma must be a Permutation, got None"),
    (lambda: permutation_to_automorphism(SIGMA6, None), "g must be a LinkGraph, got None"),
    (lambda: certify_aut(None), "g must be a LinkGraph, got None"),
    (lambda: verify_degrees(None), "g must be a LinkGraph, got None"),
    (lambda: kneser_subgraph(None, 2), "g must be a LinkGraph, got None"),
    (lambda: maximum_independent_sets(None), "g must be a LinkGraph, got None"),
    (lambda: ekr_independent_sets(None, 2), "g must be a LinkGraph, got None"),
    (lambda: brute_force_automorphisms(None), "g must be a LinkGraph, got None"),
    (lambda: same_orthant_distance(None, POINT6), "a must be a TreePoint, got None"),
    (lambda: distance_upper_bound(POINT6, None), "b must be a TreePoint, got None"),
    (lambda: to_newick(None), "x must be a TreePoint, got None"),
    (lambda: is_binary(None), "t must be a Topology, got None"),
    (lambda: is_cone_point(None), "x must be a TreePoint, got None"),
    (lambda: enumerate_binary_refinements(None), "t must be a Topology, got None"),
    (lambda: clade_children(None), "t must be a Topology, got None"),
], ids=["parse_newick", "label_map", "ball_volume", "are_compatible", "apply_permutation", "degree_sequence",
        "Topology.permute", "permutation_to_automorphism-sigma", "permutation_to_automorphism-g", "certify_aut",
        "verify_degrees", "kneser_subgraph", "maximum_independent_sets", "ekr_independent_sets",
        "brute_force_automorphisms", "same_orthant_distance", "distance_upper_bound", "to_newick", "is_binary",
        "is_cone_point", "enumerate_binary_refinements", "clade_children"])
def test_a_wrong_typed_value_argument_is_refused_by_name(call, message):
    # a TypeError or AttributeError here would get past a caller's except ValueError
    with pytest.raises(BhvError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call", [
    lambda: apply_permutation(SIGMA6, SPLIT5),
    lambda: are_compatible(SPLIT6, SPLIT5),
    lambda: Topology(5, {SPLIT6}),
    lambda: Topology(5).permute(SIGMA6),
    lambda: POINT5.permute(SIGMA6),
    lambda: same_orthant_distance(POINT6, POINT5),
    lambda: permutation_to_automorphism(SIGMA6, build_link_graph(5)),
], ids=["apply_permutation", "are_compatible", "Topology", "Topology.permute", "TreePoint.permute",
        "same_orthant", "permutation_to_automorphism"])
def test_every_leaf_count_mismatch_has_one_message(call):
    with pytest.raises(LeafCountMismatch, match=r"^leaf counts 6 and 5 do not match$"):
        call()


def test_integer_and_leaf_count_checks_stay_in_the_two_rules():
    # each plain-int test and each leaf-count match in the package, by module and innermost function;
    # _lengths (the length rule) and _resolve_labels (a Newick label map) keep tests of their own
    package = Path(__file__).resolve().parent.parent / "src" / "bhvkit"
    int_test = re.compile(r"\bis (not )?int\b|isinstance\([^)]*\b(int|bool)\b")
    match_test = re.compile(r"raise LeafCountMismatch|\.n != .*\.n\b")
    found = set()
    for f in package.glob("*.py"):
        text = f.read_text()
        owner = {}
        for node in ast.walk(ast.parse(text)):  # outer functions first: the innermost one wins
            if isinstance(node, ast.FunctionDef):
                owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.name))
        for i, line in enumerate(text.splitlines(), 1):
            found |= {(kind, f.name, owner.get(i)) for kind, test in (("int", int_test), ("match", match_test))
                      if test.search(line)}
    assert found == {
        ("int", "splits.py", "check_int"),
        ("int", "measure.py", "_lengths"),
        ("int", "newick.py", "_resolve_labels"),
        ("match", "splits.py", "check_same_n"),
    }
