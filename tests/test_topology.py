import gc
import hashlib
import random
import sys
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bhvkit import (
    EnumerationTooLarge,
    IncompatiblePair,
    LeafCountMismatch,
    NegativeOrEven,
    Permutation,
    Split,
    TooManySplits,
    Topology,
    TreePoint,
    apply_permutation,
    are_compatible,
    ball_volume,
    clade_children,
    count_refining_orthants,
    degree_sequence,
    double_factorial,
    enumerate_binary_refinements,
    enumerate_binary_topologies,
    enumerate_splits,
    is_binary,
    make_split,
    make_topology,
    parse_newick,
    split_of_mask,
    to_newick,
)
from bhvkit import topology
from bhvkit.topology import _DENSE, _census, _clade_tree, _select
from helpers import (
    all_faces,
    census_by_graph_walk,
    clade_children_by_parent_search,
    newick_trees,
    random_face,
    reconstruct_tree,
    to_newick_by_parent_search,
    to_newick_by_walk,
)


def splits(n, *sides):
    return {make_split(side, n) for side in sides}


def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(11) == 10395


def test_double_factorial_rejects_even_and_small():
    with pytest.raises(NegativeOrEven):
        double_factorial(4)
    with pytest.raises(NegativeOrEven):
        double_factorial(-3)


def test_empty_topology_is_cone_point():
    t = make_topology((), 5)
    assert t.p == 0


def test_nested_pair_topology():
    t = make_topology(splits(6, {1, 2}, {1, 2, 3}), 6)
    assert t.p == 2


def test_topology_repr_lists_sides_in_canonical_order():
    t = make_topology(splits(6, {4, 5, 6}, {3, 4, 5, 6}), 6)
    assert repr(t) == "Topology(n=6, splits=[{1,2}, {1,2,3}])"


def test_incompatible_pair_names_the_pair():
    with pytest.raises(IncompatiblePair) as exc:
        make_topology(splits(6, {1, 2}, {2, 3}), 6)
    assert {exc.value.a.side, exc.value.b.side} == {(1, 2), (2, 3)}


def test_too_many_splits():
    with pytest.raises(TooManySplits, match=r"^4 splits exceed n-3 = 3$"):
        make_topology(splits(6, {1, 2}, {1, 3}, {1, 4}, {1, 5}), 6)


def test_topology_rejects_mixed_leaf_counts():
    with pytest.raises(LeafCountMismatch):
        make_topology({make_split({1, 2}, 6), make_split({1, 2}, 7)}, 6)


def test_reconstruct_star():
    tree = reconstruct_tree(make_topology((), 6))
    assert tree.node_count == 1
    assert tree.degrees() == (6,)


def test_reconstruct_single_split():
    tree = reconstruct_tree(make_topology(splits(6, {1, 2}), 6))
    assert tree.degrees() == (5, 3)
    # the degree-3 node holds exactly leaves 1 and 2
    attach = tree.leaf_node
    assert attach[1] == attach[2]
    assert len({attach[leaf] for leaf in (3, 4, 5, 6)}) == 1


def test_reconstruct_binary():
    t = make_topology(splits(6, {1, 2}, {1, 2, 3}, {5, 6}), 6)
    tree = reconstruct_tree(t)
    assert tree.node_count == 4
    assert tree.degrees() == (3, 3, 3, 3)


def test_degree_sequence_examples():
    assert degree_sequence(make_topology((), 6)) == (6,)
    assert degree_sequence(make_topology(splits(6, {1, 2}), 6)) == (5, 3)
    assert degree_sequence(make_topology(splits(7, {1, 2}), 7)) == (6, 3)


def test_reconstruction_round_trip_all_faces():
    for n in (5, 6, 7):
        for t in all_faces(n):
            assert reconstruct_tree(t).splits_by_cutting() == set(t.splits)


def test_degree_sum_identity_all_faces():
    for n in (5, 6, 7):
        for t in all_faces(n):
            degrees = degree_sequence(t)
            assert len(degrees) == t.p + 1
            assert sum(d - 3 for d in degrees) == n - t.p - 3


def test_refining_orthants_examples():
    assert count_refining_orthants(make_topology(splits(6, {1, 2}, {1, 2, 3}, {5, 6}), 6)) == 1
    assert count_refining_orthants(make_topology((), 6)) == 105
    assert count_refining_orthants(make_topology(splits(6, {1, 2}), 6)) == 15


def test_refinements_of_binary_topology_is_itself():
    t = make_topology(splits(6, {1, 2}, {1, 2, 3}, {5, 6}), 6)
    assert enumerate_binary_refinements(t) == [t]


def test_refinement_counts_at_n5():
    assert len(enumerate_binary_refinements(make_topology((), 5))) == 15
    assert len(enumerate_binary_refinements(make_topology(splits(5, {1, 2}), 5))) == 3


def test_refinement_oracle_matches_formula():
    for n in (5, 6):
        for t in all_faces(n):
            refinements = enumerate_binary_refinements(t)
            assert count_refining_orthants(t) == len(refinements)
            assert all(t.splits <= b.splits for b in refinements)


@pytest.mark.parametrize("n", range(3, 9))
def test_census_matches_graph_walk_oracle(n):
    census = [t.splits for t in enumerate_binary_topologies(n)]
    assert len(set(census)) == len(census)
    oracle = census_by_graph_walk(n)
    assert len(set(oracle)) == len(oracle)
    assert set(census) == set(oracle)


@pytest.mark.parametrize("n", range(3, 9))
def test_census_trees_equal_their_validated_rebuild(n):
    for t in enumerate_binary_topologies(n):
        checked = Topology(t.n, t.splits)
        assert checked == t
        assert hash(checked) == hash(t)


def test_census_trees_are_frozen():
    t = next(enumerate_binary_topologies(6))
    with pytest.raises(AttributeError):
        t.splits = frozenset()


@pytest.mark.parametrize("n", [8, 9])
def test_census_index_rows_hold_the_trees_with_each_split(n):
    trees, index = _census(n)
    rows = {s.mask: bytearray((len(trees) + 7) // 8) for s in enumerate_splits(n)}
    for i, t in enumerate(trees):
        for s in t.splits:
            rows[s.mask][i >> 3] |= 1 << (i & 7)
    assert dict(index) == {mask: int.from_bytes(row, "little") for mask, row in rows.items()}


def test_empty_face_returns_a_fresh_copy_of_the_census():
    census = list(enumerate_binary_topologies(7))
    face = make_topology((), 7)
    found = enumerate_binary_refinements(face)
    assert found == census
    found.clear()
    assert enumerate_binary_refinements(face) == census
    assert list(enumerate_binary_topologies(7)) == census


def test_split_and_topology_hold_no_instance_dict():
    t = next(enumerate_binary_topologies(6))
    for obj in (t, make_topology(splits(6, {1, 2}), 6), make_split({1, 2, 3}, 6), *t.splits):
        assert not hasattr(obj, "__dict__")


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="set table sizes are a CPython detail")
@pytest.mark.parametrize("n", [8, 9])
def test_census_split_sets_are_no_larger_than_set_built_ones(n):
    for t in enumerate_binary_topologies(n):
        assert sys.getsizeof(t.splits) <= sys.getsizeof(frozenset(set(t.splits)))


def test_census_build_makes_fewer_split_hashes_than_trees():
    # hashing each tree's five splits would take 51,975 calls; the build hashes only the
    # splits of the 945 trees on 7 leaves and its per-n tables
    calls = 0
    hash_of = Split.__hash__

    def counting(s):
        nonlocal calls
        calls += 1
        return hash_of(s)

    with mock.patch.object(Split, "__hash__", counting):
        trees, _ = _census.__wrapped__(8)  # past the lru_cache: a fresh build
    assert len(trees) == 10395
    assert 0 < calls < len(trees)


@pytest.mark.parametrize("n", [4, 5, 8])
def test_census_trees_hold_the_very_splits_enumerate_splits_made(n):
    made = []

    def recording(m):
        made.extend(enumerate_splits(m))
        return list(made)

    with mock.patch.object(topology, "enumerate_splits", recording):
        trees, _ = _census.__wrapped__(n)
    by_mask = {s.mask: s for s in made}
    assert len(by_mask) == len(made)
    assert all(s is by_mask[s.mask] for t in trees for s in t.splits)


# sha256 of each census's canonical text, computed before the census build took
# its present shape: a reordered census, or a tree or index row changed, fails here
CENSUS_DIGESTS = {
    4: "387e20634b948e6ad0ea422d27388f184d25ba5208cf29b86a73fb0c3afab0e6",
    5: "29f0dc475b5f0f8c702286b957569a31724559354aeafec8f67514108cc8527e",
    6: "42f32b6174d548c4d54cdea9cc449e7a965f74d16ac42d278262a7c5953fd1c5",
    7: "12e92b205ab3a099fc54be227b478b4efe08a42a6f4399fee1f96be8c7730b4d",
    8: "2416f8b4a68d3ea02f4a0b75da3f9a1e759d6e9063b43d692607559afa372b40",
    9: "beed5432a95905d7c2fdf5c49658ac92570c123d4446a6cd7a87401f10a3a338",
}


@pytest.mark.parametrize("n", sorted(CENSUS_DIGESTS))
def test_census_order_and_index_match_their_golden_digest(n):
    trees, index = _census(n)
    h = hashlib.sha256()
    for t in trees:  # one line per tree in census order: its split masks, ascending
        h.update((" ".join(map(str, sorted(s.mask for s in t.splits))) + "\n").encode())
    for mask, bits in sorted(index.items()):  # then one line per index row, "mask:bits in hex"
        h.update(f"{mask}:{bits:x}\n".encode())
    assert h.hexdigest() == CENSUS_DIGESTS[n]


@pytest.mark.parametrize("enabled", [True, False])
def test_census_build_leaves_the_gc_as_it_found_it(enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        trees, _ = _census.__wrapped__(7)  # past the lru_cache: a fresh build
        assert len(trees) == 945
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_census_build_that_fails_restores_the_gc():
    was = gc.isenabled()

    def failing(n, split_sets):
        assert not gc.isenabled()  # raised inside the paused region
        raise RuntimeError("injected")

    try:
        gc.enable()
        with mock.patch.object(Topology, "_laminar", failing), pytest.raises(RuntimeError, match="injected"):
            _census.__wrapped__(7)
        assert gc.isenabled()
    finally:
        gc.enable() if was else gc.disable()


def _random_permutation(rnd, n):
    images = list(range(1, n + 1))
    rnd.shuffle(images)
    return Permutation(tuple(images))


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 64), st.randoms(use_true_random=False))
def test_permute_equals_validated_rebuild(n, rnd):
    t = random_face(rnd, n)
    sigma = _random_permutation(rnd, n)
    moved = t.permute(sigma)
    checked = make_topology([apply_permutation(sigma, s) for s in t.splits], n)
    assert moved == checked
    assert hash(moved) == hash(checked)
    assert moved.permute(sigma.inverse()) == t


@pytest.mark.parametrize("other", [5, 7])
@pytest.mark.parametrize("sides", [(), ({1, 2},), ({1, 2}, {4, 5})])
def test_permute_rejects_another_leaf_count(sides, other):
    t = make_topology(splits(6, *sides), 6)
    with pytest.raises(LeafCountMismatch):
        t.permute(Permutation.identity(other))


def test_trusted_constructor_stays_in_two_modules():
    package = Path(__file__).resolve().parent.parent / "src" / "bhvkit"
    callers = {f.name for f in package.glob("*.py") if "Topology._laminar" in f.read_text()}
    assert callers == {"topology.py", "newick.py"}


def test_refinements_match_census_filter():
    faces = [f for n in (4, 5, 6) for f in all_faces(n)]
    faces += random.Random(7401).sample(all_faces(7), 100)
    for t in faces:
        census = list(enumerate_binary_topologies(t.n))
        assert enumerate_binary_refinements(t) == [b for b in census if t.splits <= b.splits]


def test_dense_faces_match_census_filter():
    # every single-split face at n=8, and at n=9 a clustered cherry, a spread
    # cherry and one sampled face of each size 2..5: dense answers and sparse
    census8 = list(enumerate_binary_topologies(8))
    census9 = list(enumerate_binary_topologies(9))
    rnd = random.Random(1701)
    faces = [Topology(8, frozenset([s])) for s in enumerate_splits(8)]
    faces += [make_topology(splits(9, {1, 2}), 9), make_topology(splits(9, {8, 9}), 9)]
    faces += [Topology(9, frozenset(rnd.sample(sorted(rnd.choice(census9).splits), k))) for k in range(2, 6)]
    assert len(faces) == 119 + 6
    dense = 0
    for t in faces:
        census = census8 if t.n == 8 else census9
        expected = [b for b in census if t.splits <= b.splits]
        assert enumerate_binary_refinements(t) == expected
        dense += len(expected) * _DENSE > len(census)
    assert 0 < dense < len(faces)


def _bitset(positions, length: int) -> int:
    data = bytearray((length + 7) // 8)
    for i in positions:
        data[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(data, "little")


SELECT_KINDS = ("zero", "top", "all", "clustered", "spread", "below", "at", "above")


# lengths off a multiple of 64, one word's edges, and the n=8 and n=9 census sizes
@pytest.mark.parametrize("length", [1, 23, 63, 64, 65, 200, 1000, 10395, 135135])
@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(SELECT_KINDS), seed=st.integers(0, 2**32 - 1))
def test_select_equals_the_naive_bit_filter(length, kind, seed):
    items = tuple(range(length))
    rnd = random.Random(seed)
    # "at" is the largest popcount that still peels; "above" is the first dense one
    switch = length // _DENSE
    if kind == "zero":
        positions = []
    elif kind == "top":
        positions = [length - 1]
    elif kind == "all":
        positions = range(length)
    elif kind == "clustered":
        words = rnd.sample(range((length + 63) // 64), min((length + 63) // 64, rnd.randint(1, 8)))
        positions = [i for w in words for i in range(64 * w, min(64 * w + 64, length)) if rnd.random() < 0.7]
    elif kind == "spread":
        positions = rnd.sample(range(length), rnd.randint(0, min(length, 3 * switch + 3)))
    else:
        count = switch + {"below": -1, "at": 0, "above": 1}[kind]
        positions = rnd.sample(range(length), max(0, min(count, length)))
    bits = _bitset(positions, length)
    data = bits.to_bytes((length + 7) // 8, "little")
    assert _select(items, bits) == [items[i] for i in range(length) if data[i >> 3] >> (i & 7) & 1]


def test_orthant_maximum_over_degree_sequences():
    # for each p, the largest refinement count is hit exactly by one big node
    for n in (5, 6, 7):
        by_p = {}
        for t in all_faces(n):
            by_p.setdefault(t.p, []).append(t)
        for p, faces in by_p.items():
            best = double_factorial(2 * (n - p) - 5)
            counts = {t: count_refining_orthants(t) for t in faces}
            assert max(counts.values()) == best
            star_like = tuple([n - p] + [3] * p)
            for t, c in counts.items():
                assert (c == best) == (degree_sequence(t) == star_like)


def test_orthant_count_strict_above_codimension_power():
    for n in (5, 6, 7):
        for t in all_faces(n):
            if t.p < n - 3:
                assert count_refining_orthants(t) > 2 ** (n - 3 - t.p)


def test_degree_sequence_permutation_equivariant():
    rng = random.Random(404)
    faces = all_faces(6)
    for _ in range(100):
        t = rng.choice(faces)
        images = list(range(1, 7))
        rng.shuffle(images)
        assert degree_sequence(t.permute(Permutation(tuple(images)))) == degree_sequence(t)


@pytest.mark.parametrize("n,count", [(3, 1), (4, 3), (5, 15), (6, 105)])
def test_binary_topology_counts(n, count):
    tops = list(enumerate_binary_topologies(n))
    assert len(tops) == count
    assert len(set(tops)) == count
    assert all(is_binary(t) for t in tops)


def test_binary_enumeration_cap():
    with pytest.raises(EnumerationTooLarge, match="n = 10, got 11"):
        enumerate_binary_topologies(11)
    with pytest.raises(EnumerationTooLarge):
        enumerate_binary_refinements(make_topology((), 11))


@pytest.mark.parametrize("n", [[5], 5.0, True, "5"])
def test_binary_enumeration_rejects_a_leaf_count_that_is_not_an_int(n):
    with pytest.raises(ValueError, match="^leaf count must be an integer, got "):
        enumerate_binary_topologies(n)


def test_binary_enumeration_cap_at_its_boundary(monkeypatch):
    # with the cap lowered to 6, n = 6 builds and n = 7 is refused; no n = 10 census is built
    _census.cache_clear()
    monkeypatch.setattr(topology, "MAX_CENSUS_LEAVES", 6)
    try:
        assert len(list(enumerate_binary_topologies(6))) == 105
        with pytest.raises(EnumerationTooLarge, match=r"^census capped at n = 6, got 7: \(2n-5\)!! = 945$"):
            enumerate_binary_topologies(7)
    finally:
        _census.cache_clear()


def test_is_binary():
    assert not is_binary(make_topology((), 5))
    assert not is_binary(make_topology(splits(6, {1, 2}, {1, 2, 3}), 6))
    assert is_binary(make_topology(splits(6, {1, 2}, {1, 2, 3}, {5, 6}), 6))
    assert is_binary(make_topology((), 3))  # three leaves: the star is already binary


def test_binary_splits_pairwise_compatible_and_full():
    from bhvkit import are_compatible

    for t in enumerate_binary_topologies(6):
        assert t.p == 3
        for a, b in combinations(sorted(t.splits), 2):
            assert are_compatible(a, b)


def test_topology_json_round_trip():
    t = make_topology(splits(6, {1, 2}, {1, 2, 3}), 6)
    assert [s.side for s in t.sorted_splits] == [(1, 2), (1, 2, 3)]


def test_internal_tree_dot_export():
    dot = make_topology(splits(6, {1, 2}), 6).to_dot()
    assert dot.startswith("graph")
    assert "n0 -- n1" in dot
    assert 'label="{1,2}"' in dot


def test_clade_children_example():
    # hung from leaf 1: {1,2} names clade {3,4,5,6}, which holds {5,6}
    t = make_topology(splits(6, {1, 2}, {5, 6}), 6)
    assert clade_children(t) == {0b111111: [0b111100], 0b111100: [0b110000], 0b110000: []}
    assert clade_children(make_topology((), 5)) == {0b11111: []}


def _sample_point(t, rng):
    lengths = {s: rng.choice((0.5, 1.0, 2.75, 1e-3)) for s in t.splits}
    leaf = {leaf: rng.choice((0.0, 0.25, 3.0)) for leaf in range(1, t.n + 1) if rng.random() < 0.5}
    return TreePoint(t, lengths, leaf or None)


@pytest.mark.parametrize("n", range(4, 8))
def test_clade_view_matches_graph_oracle_all_faces(n):
    rng = random.Random(5000 + n)
    for t in all_faces(n):
        tree = reconstruct_tree(t)
        assert degree_sequence(t) == tree.degrees()
        assert t.to_dot() == tree.to_dot()
        x = _sample_point(t, rng)
        assert to_newick(x) == to_newick_by_walk(x)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 64), st.randoms(use_true_random=False))
def test_clade_view_matches_graph_oracle_random_faces(n, rnd):
    t = random_face(rnd, n)
    tree = reconstruct_tree(t)
    assert degree_sequence(t) == tree.degrees()
    assert t.to_dot() == tree.to_dot()
    x = _sample_point(t, rnd)
    assert to_newick(x) == to_newick_by_walk(x)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(3, 64),
    st.sampled_from([1.0, 0.7, 0.3, 0.0]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_clade_tree_matches_parent_search(n, keep, leaf_lengths, rnd):
    # keep = 1.0 draws binary trees, lower values polytomies, 0.0 the star
    t = random_face(rnd, n, keep)
    children = clade_children(t)
    assert {node: sorted(kids) for node, kids in children.items()} == {
        node: sorted(kids) for node, kids in clade_children_by_parent_search(t).items()
    }
    for kids in children.values():
        assert kids == sorted(kids, key=lambda c: c & -c)
    lengths = {s: rnd.choice([0.1, 1.0, 2.5, rnd.uniform(1e-9, 1e9)]) for s in t.splits}
    leaves = {leaf: rnd.choice([0.0, 0.5, rnd.uniform(0, 3)]) for leaf in range(1, n + 1, 2)}
    x = TreePoint(t, lengths, leaves if leaf_lengths else None)
    assert to_newick(x) == to_newick_by_parent_search(x)


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 16), st.sampled_from([1.0, 0.5]), st.integers(0, 2), st.randoms(use_true_random=False))
def test_clade_tree_walk_decides_compatibility(n, keep, extra, rnd):
    # a random face plus up to two splits, random or a face clade with one leaf
    # moved out and one in: laminar sets, and crossing ones far and near
    chosen = set(random_face(rnd, n, keep).splits)
    for _ in range(extra):
        if chosen and rnd.random() < 0.5:
            clade = rnd.choice(sorted(s.clade for s in chosen))
            mask = clade ^ (clade & -clade) ^ (1 << rnd.choice([i for i in range(n) if not clade >> i & 1]))
        else:
            mask = sum(1 << i for i in rnd.sample(range(n), rnd.randint(2, n - 2)))
        chosen.add(split_of_mask(mask, n))
    tree = _clade_tree([s.clade for s in chosen], n)
    assert (tree is not None) == all(are_compatible(a, b) for a, b in combinations(chosen, 2))
    if tree is None:
        return
    children = clade_children_by_parent_search(Topology(n, frozenset(chosen)))
    assert tree.keys() == children.keys()
    for node, kids in children.items():
        below = 0
        for c in kids:
            below |= c
        leaves = [1 << i for i in range(n) if (node ^ below) >> i & 1]
        assert tree[node] == sorted(kids + leaves, key=lambda c: c & -c)


def test_each_topology_walks_its_clade_tree_at_most_once(monkeypatch):
    calls = []
    real = topology._clade_tree

    def counted(clades, n):
        calls.append(n)
        return real(clades, n)

    monkeypatch.setattr(topology, "_clade_tree", counted)
    x = parse_newick("((1:1,6:1):0.25,((2:1,3:1):0.3,(4:1,5:1):0.45),7,8);")
    assert calls == []  # the trusted path leaves the tree to its first reader
    degree_sequence(x.topology)
    ball_volume(x, 0.01)
    to_newick(x)
    x.topology.to_dot()
    assert calls == [8]
    t = make_topology(splits(7, {1, 2}, {1, 2, 3}), 7)
    assert calls == [8, 7]  # the constructor's walk, which validates
    count_refining_orthants(t)
    degree_sequence(t)
    clade_children(t)
    t.to_dot()
    assert calls == [8, 7]


def test_topology_keeps_no_caller_container():
    a, b = make_split({1, 2}, 5), make_split({1, 3}, 5)
    splits = {a}
    t = Topology(5, splits)
    splits.add(b)
    assert t.splits == frozenset({a}) and isinstance(t.splits, frozenset)
    assert hash(t) == hash(make_topology([a], 5))
    with pytest.raises(AttributeError):
        t.splits.add(b)


@pytest.mark.parametrize("n", range(3, 11))
def test_laminar_split_equals_split_of_mask(n):
    for mask in range(1 << n):
        if 2 <= mask.bit_count() <= n - 2:
            s, checked = Split._laminar(mask, n), split_of_mask(mask, n)
            assert (type(s), s.n, s.mask, hash(s)) == (Split, n, checked.mask, hash(checked))
            assert s == checked


def assert_splits_pass_every_check(splits):
    """Each split equals its checked rebuild, so Split._laminar made none that Split refuses."""
    for s in splits:
        assert (type(s), s) == (Split, Split(s.n, s.mask))


def assert_passes_every_check(t):
    """The same for a Topology and its splits, for Topology._laminar."""
    assert_splits_pass_every_check(t.splits)
    assert (type(t), t) == (Topology, Topology(t.n, t.splits))


@settings(deadline=None)
@given(newick_trees())
def test_parsed_trees_pass_every_check(text):
    assert_passes_every_check(parse_newick(text).topology)


def test_generated_splits_and_census_trees_pass_every_check():
    for n in range(3, 13):
        assert_splits_pass_every_check(enumerate_splits(n))
    for n in range(4, 9):
        for t in enumerate_binary_topologies(n):
            assert_passes_every_check(t)


def test_trusted_split_constructor_stays_in_the_parser():
    package = Path(__file__).resolve().parent.parent / "src" / "bhvkit"
    callers = {f.name for f in package.glob("*.py") if "Split._laminar(" in f.read_text()}
    assert callers == {"splits.py", "newick.py"}
    # splits.py calls it once, in enumerate_splits
    assert (package / "splits.py").read_text().count("Split._laminar(") == 1
    # no other module builds a Split field by field or picks its canonical side
    for f in package.glob("*.py"):
        if f.name != "splits.py":
            assert "object.__new__(Split)" not in f.read_text() and "_canonical_side" not in f.read_text()


@st.composite
def incompatible_split_sets(draw):
    """n <= 12 and at most n - 3 distinct splits, at least two of them incompatible."""
    n = draw(st.integers(5, 12))
    sides = st.integers(1, (1 << n) - 1).filter(lambda m: 2 <= m.bit_count() <= n - 2)
    chosen = {split_of_mask(m, n) for m in draw(st.lists(sides, min_size=2, max_size=n - 3))}
    assume(not all(are_compatible(a, b) for a, b in combinations(chosen, 2)))
    return n, chosen


@settings(deadline=None)
@given(incompatible_split_sets())
def test_incompatible_pair_is_the_first_in_canonical_order(case):
    n, chosen = case
    ordered = sorted(chosen)
    first = next(
        (a, b) for i, a in enumerate(ordered) for b in ordered[i + 1 :] if not are_compatible(a, b)
    )
    with pytest.raises(IncompatiblePair) as exc:
        Topology(n, frozenset(chosen))
    assert (exc.value.a, exc.value.b) == first
