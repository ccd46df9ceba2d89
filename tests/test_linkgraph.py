import hashlib
import math
import random
import sys
from functools import lru_cache
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhvkit import (
    BhvError,
    LeafCountMismatch,
    LinkGraph,
    Permutation,
    TooLarge,
    all_permutations,
    are_compatible,
    brute_force_automorphisms,
    build_link_graph,
    certify_aut,
    degree_formula,
    double_factorial,
    ekr_independent_sets,
    enumerate_binary_topologies,
    enumerate_splits,
    kneser_subgraph,
    make_split,
    make_topology,
    maximum_independent_sets,
    permutation_to_automorphism,
    verify_degrees,
)
from bhvkit import linkgraph
from bhvkit.linkgraph import are_automorphisms
from bhvkit.splits import set_bits
from helpers import (
    DOCTORS,
    compose,
    compose_permutations,
    concurrently,
    doctored,
    enumerate_automorphisms,
    is_vertex_automorphism,
    maximal_cliques,
    neighbors_of_size,
    pairwise_adjacency,
    preserves_adjacency_pairwise,
    relabel_by_make_split,
)


@lru_cache(maxsize=None)
def cached_link_graph(n):
    return build_link_graph(n)


@st.composite
def permutation_pairs(draw, max_n):
    n = draw(st.integers(5, max_n))
    return tuple(Permutation(tuple(draw(st.permutations(range(1, n + 1))))) for _ in range(2))


@pytest.fixture(scope="module")
def link5():
    return build_link_graph(5)


@pytest.fixture(scope="module")
def link6():
    return build_link_graph(6)


@pytest.fixture(scope="module")
def link7():
    return build_link_graph(7)


def test_link4_is_three_isolated_vertices():
    g = build_link_graph(4)
    assert g.vertex_count == 3
    assert g.edge_count == 0


def test_link5_is_petersen(link5):
    assert link5.vertex_count == 10
    assert link5.edge_count == 15
    assert all(link5.degree(i) == 3 for i in range(10))


def test_link6_vertex_count(link6):
    assert link6.vertex_count == 25


def test_adjacency_matches_pairwise_oracle():
    for n in range(4, 12):
        g = build_link_graph(n)
        assert g.adjacency == pairwise_adjacency(g.vertices)
    g = cached_link_graph(12)  # 40 seeded rows, as all 2,035 would take a few seconds
    for i in random.Random(1212).sample(range(g.vertex_count), 40):
        u = g.vertices[i]
        assert g.adjacency[i] == sum(1 << j for j, v in enumerate(g.vertices) if j != i and are_compatible(u, v))


def test_link_graph_size_cap():
    with pytest.raises(TooLarge):
        build_link_graph(13)


def test_degree_formula_values():
    assert degree_formula(5, 2) == 3
    assert degree_formula(6, 2) == 10
    assert degree_formula(6, 3) == 6


def test_degree_formula_k_range():
    with pytest.raises(BhvError, match=r"^k must be in \[2, 3\], got 1$"):
        degree_formula(6, 1)
    with pytest.raises(BhvError, match=r"^k must be in \[2, 3\], got 4$"):
        degree_formula(6, 4)


def test_every_degree_matches_formula():
    for n in range(5, 10):
        g = build_link_graph(n)
        for i, v in enumerate(g.vertices):
            assert g.degree(i) == degree_formula(n, v.size)
        assert verify_degrees(g)


def test_one_cut_edge_fails_the_degree_check():
    for n in (5, 9, 12):
        g = cached_link_graph(n)
        i = n  # for n >= 5 every vertex has neighbours
        j = set_bits(g.adjacency[i])[0]
        rows = list(g.adjacency)
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
        assert verify_degrees(g)
        assert not verify_degrees(LinkGraph(n, g.vertices, rows))


def test_vertex_set_partitions_by_size():
    for n in range(5, 10):
        g = build_link_graph(n)
        by_size = {}
        for v in g.vertices:
            by_size[v.size] = by_size.get(v.size, 0) + 1
        assert sum(by_size.values()) == g.vertex_count
        for k, count in by_size.items():
            if 2 * k < n:
                assert count == math.comb(n, k)
            else:
                assert count == math.comb(n, k) // 2


def test_kneser_subgraph_n5_is_whole_graph(link5):
    sub = kneser_subgraph(link5, 2)
    assert sub.vertex_count == 10
    assert sub.edge_count == 15


def test_kneser_subgraph_n6_k2(link6):
    sub = kneser_subgraph(link6, 2)
    assert sub.vertex_count == 15
    assert all(sub.degree(i) == 6 for i in range(15))


def test_half_size_layer_is_edgeless(link6):
    sub = kneser_subgraph(link6, 3)
    assert sub.vertex_count == 10
    assert sub.edge_count == 0


def test_kneser_edges_are_exactly_disjoint_pairs(link7):
    layers = [(link7, 2), (link7, 3)]
    layers += [(g, k) for g in map(build_link_graph, range(8, 13)) for k in range(2, g.n // 2 + 1)]
    for g, k in layers:
        sub = kneser_subgraph(g, k)
        for i, j in combinations(range(sub.vertex_count), 2):
            disjoint = not (sub.vertices[i].mask & sub.vertices[j].mask)
            assert sub.adjacent(i, j) == disjoint


def test_kneser_k_range(link6):
    with pytest.raises(BhvError, match=r"^k must be in \[2, 3\], got 1$"):
        kneser_subgraph(link6, 1)
    with pytest.raises(BhvError, match=r"^k must be in \[2, 3\], got 4$"):
        kneser_subgraph(link6, 4)


@pytest.mark.parametrize("k", [2.0, 2.5, True, "2"])
def test_k_must_be_an_int(link6, k):
    message = rf"^k must be an int, got {k!r}$"
    for call in (lambda: degree_formula(6, k), lambda: kneser_subgraph(link6, k),
                 lambda: ekr_independent_sets(link6, k)):
        with pytest.raises(BhvError, match=message):
            call()


def test_ekr_star_sets_n5(link5):
    stars = ekr_independent_sets(link5, 2)
    assert len(stars) == 5
    assert {s.side for s in stars[0]} == {(1, 2), (1, 3), (1, 4), (1, 5)}
    for star in stars:
        assert len(star) == 4


def test_ekr_star_sets_sizes_and_independence(link6, link7):
    for g, k in [(link6, 2), (link7, 2), (link7, 3)]:
        stars = ekr_independent_sets(g, k)
        assert len(stars) == g.n
        for star in stars:
            assert len(star) == math.comb(g.n - 1, k - 1)
            for a, b in combinations(sorted(star), 2):
                i, j = g.vertices.index(a), g.vertices.index(b)
                assert not g.adjacent(i, j)


def test_ekr_rejects_half_size(link6):
    with pytest.raises(BhvError, match=r"^k must be in \[2, 2\], got 3$"):
        ekr_independent_sets(link6, 3)


def test_maximum_independent_sets_petersen(link5):
    sub = kneser_subgraph(link5, 2)
    found = maximum_independent_sets(sub)
    assert len(found) == 5
    assert all(len(s) == 4 for s in found)
    assert set(found) == set(ekr_independent_sets(link5, 2))


def test_maximum_independent_sets_kneser62(link6):
    sub = kneser_subgraph(link6, 2)
    found = maximum_independent_sets(sub)
    assert len(found) == 6
    assert all(len(s) == 5 for s in found)
    assert set(found) == set(ekr_independent_sets(link6, 2))


def test_maximum_independent_sets_edgeless_layer(link6):
    sub = kneser_subgraph(link6, 3)
    found = maximum_independent_sets(sub)
    assert len(found) == 1
    assert len(found[0]) == 10


def test_maximum_independent_sets_vertex_cap(link7):
    sub = kneser_subgraph(link7, 3)  # 35 vertices, once refused by a vertex cap
    found = maximum_independent_sets(sub)
    assert len(found) == 7
    assert all(len(s) == 15 for s in found)
    assert set(found) == set(ekr_independent_sets(link7, 3))


def test_maximum_independent_sets_node_cap(link7, monkeypatch):
    monkeypatch.setattr(linkgraph, "NODE_CAP", 10)
    with pytest.raises(TooLarge, match=r"^independent-set search exceeded 10 nodes$"):
        maximum_independent_sets(kneser_subgraph(link7, 3))


def test_maximum_independent_sets_past_the_recursion_limit():
    # K(48,2) by hand: 1,128 pair splits, adjacent when disjoint. A search
    # that recursed once per excluded vertex would overflow the stack.
    n = 48
    vertices = tuple(make_split(pair, n) for pair in combinations(range(1, n + 1), 2))
    rows = tuple(
        sum(1 << j for j, w in enumerate(vertices) if not v.mask & w.mask) for v in vertices
    )
    found = maximum_independent_sets(LinkGraph(n, vertices, rows))
    assert len(found) == n
    assert {frozenset(s) for s in found} == {
        frozenset(v for v in vertices if v.contains(leaf)) for leaf in range(1, n + 1)
    }


def test_upward_neighbors_n6(link6):
    v = make_split({1, 2}, 6)
    up = neighbors_of_size(link6, v, 3)
    expected = {
        w
        for w in link6.vertices
        if w.size == 3 and are_compatible(v, w)
    }
    assert up == expected
    for w in up:
        assert v.mask & w.mask in (0, v.mask) or v.mask & w.complement_mask in (0, v.mask)


def test_upward_intersection_pins_unique_superset(link7):
    # {1,2,3} is the only size-3 split compatible with all its 2-subsets
    # and with every 2-subset of the complement
    target = make_split({1, 2, 3}, 7)
    pairs = [*combinations((1, 2, 3), 2), *combinations((4, 5, 6, 7), 2)]
    sets = [neighbors_of_size(link7, make_split(pair, 7), 3) for pair in pairs]
    common = set.intersection(*sets)
    assert common == {target}


def test_downward_intersection_pins_unique_subset(link7):
    # {1,2} recovered from the size-3 splits extending it
    target = make_split({1, 2}, 7)
    sets = [neighbors_of_size(link7, make_split({1, 2, a}, 7), 2) for a in (3, 4, 5, 6, 7)]
    assert set.intersection(*sets) == {target}


def test_downward_intersection_via_subset_size(link7):
    # {1,2,3}: the extending subsets {1,2,3,a} have size 4 > n/2, so their
    # canonical sides are the size-3 complements; query by target size
    # instead of canonical-size-minus-one.
    target = make_split({1, 2, 3}, 7)
    sets = [neighbors_of_size(link7, make_split({1, 2, 3, a}, 7), 3) for a in (4, 5, 6, 7)]
    assert set.intersection(*sets) == {target}


def test_automorphism_group_orders():
    assert brute_force_automorphisms(build_link_graph(4)).order == 6
    assert brute_force_automorphisms(build_link_graph(5)).order == 120
    assert brute_force_automorphisms(build_link_graph(6)).order == 720


def test_automorphisms_are_leaf_permutation_images(link5, link6):
    for g, n in [(link5, 5), (link6, 6)]:
        group = brute_force_automorphisms(g)
        images = {}
        for sigma in all_permutations(n):
            vp = permutation_to_automorphism(sigma, g)
            assert vp not in images  # injective homomorphism
            images[vp] = sigma
        assert set(group.elements) == set(images)


def test_no_nonidentity_automorphism_fixes_small_layer(link5, link6):
    for g in (link5, link6):
        layer = [i for i, v in enumerate(g.vertices) if v.size == 2]
        identity = tuple(range(g.vertex_count))
        for element in brute_force_automorphisms(g).elements:
            if element != identity:
                assert any(element[i] != i for i in layer)


def test_permutation_to_automorphism_transposition(link5):
    sigma = Permutation.from_cycles(5, (1, 2))
    vp = permutation_to_automorphism(sigma, link5)
    idx = {v: i for i, v in enumerate(link5.vertices)}
    assert vp[idx[make_split({1, 2}, 5)]] == idx[make_split({1, 2}, 5)]
    assert vp[idx[make_split({1, 3}, 5)]] == idx[make_split({2, 3}, 5)]
    assert vp[idx[make_split({2, 3}, 5)]] == idx[make_split({1, 3}, 5)]


def test_permutation_to_automorphism_needs_the_graph_leaf_count(link5):
    with pytest.raises(LeafCountMismatch, match=r"^leaf counts 6 and 5 do not match$"):
        permutation_to_automorphism(Permutation.from_cycles(6), link5)


@settings(deadline=None)
@given(permutation_pairs(max_n=12))
def test_relabeling_matches_make_split_oracle(pair):
    sigma, _ = pair
    g = cached_link_graph(sigma.n)
    assert permutation_to_automorphism(sigma, g) == relabel_by_make_split(sigma, g)


@settings(deadline=None)
@given(permutation_pairs(max_n=12))
def test_relabeling_is_a_homomorphism(pair):
    sigma, tau = pair
    g = cached_link_graph(sigma.n)
    assert permutation_to_automorphism(compose_permutations(sigma, tau), g) == compose(
        permutation_to_automorphism(sigma, g), permutation_to_automorphism(tau, g)
    )


@settings(deadline=None)
@given(permutation_pairs(max_n=8), st.integers(0, 2**16), st.integers(0, 2**16))
def test_relabeling_is_an_automorphism(pair, a, b):
    sigma, _ = pair
    g = cached_link_graph(sigma.n)
    perm = permutation_to_automorphism(sigma, g)
    assert is_vertex_automorphism(g, perm)
    assert preserves_adjacency_pairwise(g, perm)
    # the row check agrees with the pairwise oracle once two images are swapped
    swapped = list(perm)
    a, b = a % len(perm), b % len(perm)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    assert is_vertex_automorphism(g, swapped) == preserves_adjacency_pairwise(g, swapped)


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_relabeling_a_half_size_layer_matches_make_split_oracle(n):
    # half-size vertices alone, indexed apart from the full graph: any image may be a complement
    layer = kneser_subgraph(cached_link_graph(n), n // 2)
    rng = random.Random(n)
    sigmas = [Permutation.from_cycles(n, cycle) for cycle in ((1, 2), range(1, n + 1), (n - 1, n))]
    sigmas += [Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(5)]
    for sigma in sigmas:
        assert permutation_to_automorphism(sigma, layer) == relabel_by_make_split(sigma, layer)


@pytest.mark.parametrize("n", [16, 17, 33, 64])
def test_relabeling_fills_lanes_as_wide_as_the_leaf_count(n):
    # pair splits built by hand hold leaf n, the top bit of the narrowest word holding n bits at 16 and 64
    pairs = [make_split(pair, n) for pair in combinations(range(1, n + 1), 2)]
    g = LinkGraph(n, pairs, [0] * len(pairs))
    rng = random.Random(n)
    sigmas = [Permutation.from_cycles(n, cycle) for cycle in (range(1, n + 1), (n - 1, n))]
    sigmas += [Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(4)]
    for sigma in sigmas:
        assert permutation_to_automorphism(sigma, g) == relabel_by_make_split(sigma, g)


def test_a_relabel_that_leaves_the_graph_names_the_side():
    # the pairs holding leaf 1, then {2,3} and {2,4}: one-byte lanes at n = 6, two-byte ones at n = 9;
    # (1 n) moves the first vertex out of the graph, (2 n) only the first without leaf 1
    for n, cycle, side in [(6, (1, 6), "2,6"), (6, (2, 6), "3,6"), (9, (1, 9), "2,9"), (9, (2, 9), "3,9")]:
        g = LinkGraph(n, enumerate_splits(n)[: n + 1], [0] * (n + 1))
        message = rf"^sigma takes a side to Split\(\{{{side}\}}, n={n}\), which is not a vertex of g$"
        with pytest.raises(BhvError, match=message):
            permutation_to_automorphism(Permutation.from_cycles(n, cycle), g)


@pytest.mark.parametrize("n, code, table", [(8, "B", bytes), (9, "H", type(None))])
def test_relabeling_every_vertex_at_the_last_one_byte_lane_and_the_first_wide_one(n, code, table):
    g = build_link_graph(n)  # not relabeled yet: the first relabel here picks the index
    rng = random.Random(n)
    sigmas = [Permutation.from_cycles(n, range(1, n + 1))]
    sigmas += [Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(4)]
    for sigma in sigmas:
        assert permutation_to_automorphism(sigma, g) == relabel_by_make_split(sigma, g)
    assert type(g._index[1]) is table and g._index[2] == code


def test_first_relabel_leaves_the_graph_equal_to_a_fresh_build():
    g, fresh = build_link_graph(7), build_link_graph(7)
    before = hash(g)
    permutation_to_automorphism(Permutation.from_cycles(7, (1, 2)), g)
    assert g._index is not None and fresh._index is None
    assert g == fresh and hash(g) == hash(fresh) == before
    assert repr(g) == repr(fresh)


def test_concurrent_first_relabels_agree():
    g = cached_link_graph(8)
    sigma = Permutation.from_cycles(8, (1, 2, 5), (3, 8))
    fresh = [LinkGraph(8, g.vertices, g.adjacency) for _ in range(50)]  # equal graphs, none relabeled yet
    results = concurrently([lambda: [permutation_to_automorphism(sigma, x) for x in fresh]] * 4)
    assert all(r == [relabel_by_make_split(sigma, g)] * 50 for r in results)
    assert all(x == g and x._index == fresh[0]._index for x in fresh)


def test_compose_matches_the_oracle_at_every_length():
    # itemgetter gives a bare item for one index and refuses none, so lengths 0 and 1 take another path
    for length in range(4):
        perms = list(permutations(range(length)))
        for p in perms:
            for q in perms:
                assert type(linkgraph._compose(p, q)) is tuple
                assert linkgraph._compose(p, q) == compose(p, q)
    rng = random.Random(56)
    for _ in range(200):
        p, q = (tuple(rng.sample(range(56), 56)) for _ in range(2))
        assert linkgraph._compose(p, q) == compose(p, q)


def test_vertex_automorphism_needs_a_vertex_permutation(link5):
    # on the edgeless n = 4 graph every map of the vertices keeps the rows
    for g in (build_link_graph(4), link5):
        identity = tuple(range(g.vertex_count))
        for check in (is_vertex_automorphism, lambda g, p: are_automorphisms(g, [p])):
            assert check(g, identity)
            assert not check(g, identity[:-1])  # too short
            assert not check(g, (1,) + identity[1:])  # a repeated image
            assert not check(g, identity[:-1] + (len(identity),))  # an image past the last vertex


@st.composite
def graphs_and_vertex_maps(draw):
    """A link graph for n <= 9, or one of the doctored n = 7 graphs, perhaps
    with one arc dropped, and a few vertex maps: the identity, relabelings,
    relabelings with two images swapped, random permutations, and maps cut
    short or with a repeated image."""
    n = draw(st.integers(3, 9))
    g = cached_link_graph(n)
    if n == 7 and draw(st.booleans()):
        g = cached_doctored(draw(st.sampled_from(sorted(DOCTORS))))
    nv = g.vertex_count
    if nv and draw(st.booleans()):  # one arc dropped: rows that are not symmetric
        i = draw(st.integers(0, nv - 1))
        rows = list(g.adjacency)
        rows[i] &= rows[i] - 1
        g = LinkGraph(g.n, g.vertices, rows)
    maps = []
    for kind in draw(st.lists(st.sampled_from(["identity", "relabel", "swap", "random", "short", "repeat"]), max_size=4)):
        if kind in ("relabel", "swap"):
            sigma = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
            perm = list(permutation_to_automorphism(sigma, g))
        else:
            perm = list(range(nv)) if kind == "identity" else list(draw(st.permutations(range(nv))))
        if kind == "swap" and nv:
            a, b = draw(st.integers(0, nv - 1)), draw(st.integers(0, nv - 1))
            perm[a], perm[b] = perm[b], perm[a]
        if kind == "short":
            perm = perm[:-1]
        if kind == "repeat" and nv > 1:
            perm[draw(st.integers(1, nv - 1))] = perm[0]
        maps.append(tuple(perm))
    return g, maps


@lru_cache(maxsize=None)
def cached_doctored(check):
    return doctored(cached_link_graph(7), check)


@settings(deadline=None)
@given(graphs_and_vertex_maps())
def test_transposition_check_matches_the_row_walk(graph_and_maps):
    g, maps = graph_and_maps
    assert are_automorphisms(g, maps) == all(is_vertex_automorphism(g, p) for p in maps)


@pytest.mark.parametrize("check", sorted(DOCTORS))
def test_transposition_check_on_each_doctored_graph(check):
    h = cached_doctored(check)
    relabelings = [permutation_to_automorphism(Permutation.from_cycles(7, c), h) for c in ((1, 2), range(1, 8))]
    for p in relabelings:
        assert are_automorphisms(h, [p]) == is_vertex_automorphism(h, p)
    assert are_automorphisms(h, relabelings) == (check != "d")


def test_transposition_check_at_n12_with_one_edge_cut():
    g = cached_link_graph(12)
    relabelings = [permutation_to_automorphism(Permutation.from_cycles(12, c), g) for c in ((1, 2), range(1, 13))]
    assert are_automorphisms(g, relabelings)
    i, j = (g.vertices.index(make_split(side, 12)) for side in ({1, 2}, {3, 4}))
    rows = list(g.adjacency)
    rows[i] ^= 1 << j
    rows[j] ^= 1 << i
    # (1 2) keeps {1,2} and {3,4}, so only the n-cycle's relabeling breaks the cut graph
    assert not are_automorphisms(LinkGraph(12, g.vertices, rows), relabelings[1:])


def chain_checks(g) -> tuple[bool, bool, bool, bool]:
    """certify_aut's four checks, each read from the definitions: (a) each
    degree class in one size layer, (b) the pair layer's maximum independent
    sets are the leaf stars, taken from the sides, (c) distinct pair
    neighbourhoods, (d) both relabelings keep adjacency, pair by pair."""
    sizes = {}
    for i, v in enumerate(g.vertices):
        sizes.setdefault(g.degree(i), set()).add(v.size)
    pairs = [v for v in g.vertices if v.size == 2]
    stars = {frozenset(v for v in pairs if leaf in v.side) for leaf in range(1, g.n + 1)}
    neighbourhoods = [frozenset(neighbors_of_size(g, v, 2)) for v in g.vertices]
    relabelings = (
        relabel_by_make_split(Permutation.from_cycles(g.n, cycle), g)
        for cycle in ((1, 2), range(1, g.n + 1))
    )
    return (
        all(len(s) == 1 for s in sizes.values()),
        set(maximum_independent_sets(kneser_subgraph(g, 2))) == stars,
        len(set(neighbourhoods)) == len(neighbourhoods),
        all(preserves_adjacency_pairwise(g, perm) for perm in relabelings),
    )


def test_certify_aut_gives_the_two_relabelings():
    for n in range(5, 10):
        g = cached_link_graph(n)
        assert chain_checks(g) == (True, True, True, True)
        assert certify_aut(g) == tuple(
            permutation_to_automorphism(Permutation.from_cycles(n, cycle), g)
            for cycle in ((1, 2), range(1, n + 1))
        )


def test_certify_aut_refuses_n_below_5():
    for n in (3, 4):
        assert certify_aut(build_link_graph(n)) is None


def test_certify_aut_refuses_the_empty_graph():
    # each of the four checks passes vacuously on no vertices; Aut is the trivial group, not S_5
    assert certify_aut(LinkGraph(5, (), ())) is None


def test_certify_aut_refuses_a_graph_missing_a_vertex(link6):
    # the half-size side {1,5,6}, the last vertex, dropped with its row and its bit; the
    # relabel by (1 2) takes the vertex {1,3,4} to {2,3,4}, whose complement is no vertex now
    assert link6.vertices[-1] == make_split({1, 5, 6}, 6)
    keep = (1 << link6.vertex_count - 1) - 1
    g = LinkGraph(6, link6.vertices[:-1], [row & keep for row in link6.adjacency[:-1]])
    assert certify_aut(g) is None


@st.composite
def hand_built_graphs(draw):
    """A graph on n = 5..7 leaves: every canonical split in order, or a random
    subset of them, joined as in the link graph or not at all, with a few
    vertex pairs then toggled in both rows."""
    n = draw(st.integers(5, 7))
    g = cached_link_graph(n)
    keep = range(g.vertex_count)
    if draw(st.booleans()):
        keep = sorted(draw(st.sets(st.sampled_from(keep), max_size=len(keep))))
    built = draw(st.booleans())
    rows = [sum(1 << j for j, v in enumerate(keep) if built and g.adjacent(u, v)) for u in keep]
    pairs = list(combinations(range(len(keep)), 2))
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else ():
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
    return LinkGraph(n, [g.vertices[u] for u in keep], rows)


@lru_cache(maxsize=None)
def acts_as_s_n(g) -> bool:
    """The graph's automorphisms, found by search, are n! in number and are the
    relabelings through make_split, one for each permutation of the leaves."""
    relabelings = {relabel_by_make_split(sigma, g) for sigma in all_permutations(g.n)}
    return len(relabelings) == math.factorial(g.n) and sorted(relabelings) == enumerate_automorphisms(g)


@settings(deadline=None)
@given(hand_built_graphs())
def test_certify_aut_certifies_only_the_faithful_action_of_s_n(g):
    if certify_aut(g) is not None:
        assert acts_as_s_n(g)


@pytest.mark.parametrize("check", "abcd")
def test_certify_aut_rejects_a_graph_failing_one_check(link7, check):
    h = doctored(link7, check)
    assert chain_checks(h) == tuple(c != check for c in "abcd")
    assert certify_aut(h) is None


def test_elements_match_enumeration_oracle():
    for n in range(4, 7):
        g = build_link_graph(n)
        group = brute_force_automorphisms(g)
        assert list(group.elements) == enumerate_automorphisms(g)
        assert group.order == (6 if n == 4 else math.factorial(n))


def test_generators_generate_the_group(link5):
    group = brute_force_automorphisms(link5)
    from helpers import _closure

    assert len(_closure(list(group.generators), link5.vertex_count)) == group.order


def test_group_order_divides_vertex_factorial(link5):
    group = brute_force_automorphisms(link5)
    assert math.factorial(link5.vertex_count) % group.order == 0


def test_search_self_check_on_the_group_order(link5, monkeypatch):
    # a vertex factorial that the order found does not divide trips the first self-check
    monkeypatch.setattr(linkgraph, "math", SimpleNamespace(prod=math.prod, factorial=lambda m: 1))
    with pytest.raises(AssertionError, match="^group order does not divide the vertex factorial$"):
        brute_force_automorphisms(link5)


def test_search_self_check_on_each_generator(link5, monkeypatch):
    # a row check that refuses every permutation trips the second
    monkeypatch.setattr(linkgraph, "are_automorphisms", lambda g, perms: False)
    with pytest.raises(AssertionError, match="^search produced a non-automorphism generator$"):
        brute_force_automorphisms(link5)


def test_search_budget_cap(link6, monkeypatch):
    monkeypatch.setattr(linkgraph, "NODE_CAP", 10)
    with pytest.raises(TooLarge, match=r"^automorphism search exceeded 10 nodes$"):
        brute_force_automorphisms(link6)


def test_search_work_bound_n7(link7, monkeypatch):
    monkeypatch.setattr(linkgraph, "NODE_CAP", 10_000)
    group = brute_force_automorphisms(link7)
    assert group.order == 5040


# sha256 of repr((order, generators)): a change to the probe order that
# finds other generators fails here even when the group is unchanged
PINNED_SEARCH = {
    5: "c1681ca71493f39f19bc7c251aaada9c2d7e45199ba629e516bc82360a71dc39",
    6: "81c6cb831e4fa4aa8bc8abecc4a637fc10d977290f05fbbe01a8e70fd021e9ea",
    7: "574cc4b087fa7838d55e04ef95aa92ea2654bdc14d3ce9621de98ea695dcda92",
    8: "5683ece4afc78a292015e3e9557ae5a789c52045ec37eea52201c86ff8a11f4a",
    9: "c59f65ac488448fe4c1a3ab1d8d884b78df7212c326c4afbf234ee6222529d56",
}


@pytest.mark.parametrize("n", sorted(PINNED_SEARCH))
def test_search_output_is_pinned(n):
    group = brute_force_automorphisms(cached_link_graph(n))
    digest = hashlib.sha256(repr((group.order, group.generators)).encode()).hexdigest()
    assert digest == PINNED_SEARCH[n]


def stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_search_depth_does_not_grow_with_vertex_count():
    # n=9 has 246 vertices; a search that recursed once per vertex would
    # need more than 100 frames beyond the caller's
    g = cached_link_graph(9)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        group = brute_force_automorphisms(g)
    finally:
        sys.setrecursionlimit(old)
    assert group.order == math.factorial(9)


def test_search_backs_out_of_a_dead_end():
    # a 3-cycle plus a 4-cycle: every vertex has degree 2, so the probe that
    # maps a triangle vertex into the square runs out of candidates only
    # after it branches, and falls through its last return None
    vertices = enumerate_splits(6)[:7]
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
    rows = [0] * 7
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    g = LinkGraph(6, vertices, rows)
    dead_ends = []

    def trace(frame, event, arg):
        if frame.f_code.co_name != "first_automorphism":
            return None

        def local(frame, event, arg):
            # only the return after the branching loop has w bound
            if event == "return" and arg is None and "w" in frame.f_locals:
                dead_ends.append(frame.f_lineno)
            return local

        return local

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        group = brute_force_automorphisms(g)
    finally:
        sys.settrace(old)
    assert group.order == 48  # D3 x D4
    assert list(group.elements) == enumerate_automorphisms(g)
    assert dead_ends


def test_binary_topologies_are_maximal_cliques(link5, link6):
    # (n-3)-cliques of the graph == binary topologies, counted by (2n-5)!!
    for g, n in [(link5, 5), (link6, 6)]:
        size = n - 3
        cliques = [
            c
            for c in combinations(range(g.vertex_count), size)
            if all(g.adjacent(i, j) for i, j in combinations(c, 2))
        ]
        assert len(cliques) == double_factorial(2 * n - 5)
        for c in cliques:
            make_topology({g.vertices[i] for i in c}, n)  # validates compatibility


@pytest.mark.parametrize("n", range(4, 10))
def test_maximal_cliques_are_exactly_the_binary_topologies(n):
    # the link of the cone point is the flag complex of this graph, so its
    # facets, the maximal cliques, must be the census trees as split sets
    g = cached_link_graph(n)
    cliques = maximal_cliques(g.adjacency)
    as_splits = {frozenset(g.vertices[i] for i in set_bits(c)) for c in cliques}
    assert len(as_splits) == len(cliques)
    assert as_splits == {t.splits for t in enumerate_binary_topologies(n)}


def test_dot_export(link5):
    dot = link5.to_dot()
    assert dot.startswith("graph link {")
    assert '"1,2" -- "3,4";' in dot


def test_link_graph_checks_its_leaf_count():
    with pytest.raises(BhvError, match=r"^leaf count must be an int, got True$"):
        LinkGraph(True, (), ())
    with pytest.raises(BhvError, match=r"^leaf count must be in \[3, 64\], got 2$"):
        LinkGraph(2, (), ())


def test_link_graph_keeps_no_caller_container():
    s = make_split({1, 2}, 5)
    vertices, adjacency = [s], [0]
    g = LinkGraph(5, vertices, adjacency)
    vertices.append(make_split({1, 3}, 5))
    adjacency[0] = 1
    assert g.vertices == (s,) and g.adjacency == (0,)
    assert hash(g) == hash(LinkGraph(5, (s,), (0,)))


def test_link_graph_refuses_a_vertex_that_is_not_a_split_of_n():
    with pytest.raises(BhvError, match=r"^vertices must be Splits, got 1$"):
        LinkGraph(6, [1, 2], [0, 0])
    with pytest.raises(BhvError, match=r"^vertices must be Splits, got '12'$"):
        LinkGraph(6, [make_split({1, 2}, 6), "12"], [0, 0])
    with pytest.raises(LeafCountMismatch, match=r"^leaf counts 5 and 6 do not match$"):
        LinkGraph(6, [make_split({1, 2}, 5)], [0])
    with pytest.raises(BhvError, match=r"^vertices must be an iterable of Splits, got 5$"):
        LinkGraph(6, 5, [0])


def test_link_graph_refuses_a_repeated_vertex():
    # 300 vertices at n = 8 would pass the 0xFF that marks a non-vertex in the one-byte relabel table
    s12 = make_split({1, 2}, 8)
    with pytest.raises(BhvError, match=r"^Split\(\{1,2\}, n=8\) is a vertex twice$"):
        LinkGraph(8, [s12] * 300, [0] * 300)
    with pytest.raises(BhvError, match=r"^Split\(\{1,3\}, n=8\) is a vertex twice$"):
        LinkGraph(8, [make_split(side, 8) for side in ({1, 3}, {1, 2}, {2, 4, 5, 6, 7, 8}, {1, 2})], [0] * 4)


def test_link_graph_refuses_an_adjacency_of_another_length():
    with pytest.raises(BhvError, match=r"^adjacency has 0 rows for 1 vertices$"):
        LinkGraph(6, [make_split({1, 2}, 6)], [])
    with pytest.raises(BhvError, match=r"^adjacency has 2 rows for 1 vertices$"):
        LinkGraph(6, [make_split({1, 2}, 6)], [0, 0])
    with pytest.raises(BhvError, match=r"^adjacency must be an iterable of ints, got 3$"):
        LinkGraph(6, [make_split({1, 2}, 6)], 3)


@pytest.mark.parametrize("row, message", [
    pytest.param(True, r"must be an int, got True", id="bool"),
    pytest.param(2.0, r"must be an int, got 2\.0", id="float"),
    pytest.param(-1, r"must be in \[0, 3\], got -1", id="negative"),
    pytest.param(4, r"must be in \[0, 3\], got 4", id="past-the-last-vertex"),
])
def test_link_graph_refuses_a_row_outside_the_integer_rule(row, message):
    vertices = [make_split({1, 2}, 6), make_split({3, 4}, 6)]
    with pytest.raises(BhvError, match=rf"^adjacency row {message}$"):
        LinkGraph(6, vertices, [2, row])


def test_link_graph_refuses_a_loop():
    with pytest.raises(BhvError, match=r"^adjacency row 0 joins vertex 0 to itself$"):
        LinkGraph(5, [make_split({1, 2}, 5)], [1])
    g = cached_link_graph(7)
    rows = list(g.adjacency)
    rows[40] |= 1 << 40
    with pytest.raises(BhvError, match=r"^adjacency row 40 joins vertex 40 to itself$"):
        LinkGraph(7, g.vertices, rows)


@pytest.mark.parametrize("n", range(3, 13))
def test_the_unchecked_builders_make_graphs_the_checked_constructor_accepts(n):
    g = cached_link_graph(n)
    for h in [g, *(kneser_subgraph(g, k) for k in range(2, n // 2 + 1))]:
        assert LinkGraph(h.n, h.vertices, h.adjacency) == h
