"""Shared brute-force helpers for the test suite."""

from functools import lru_cache
from itertools import combinations

from bhvkit import (
    SearchBudgetExceeded,
    Topology,
    apply_permutation,
    are_compatible,
    enumerate_binary_topologies,
    make_split,
)
from bhvkit.splits import leaves_of


@lru_cache(maxsize=8)
def all_faces(n: int) -> tuple[Topology, ...]:
    """Every face of tree space on n leaves: all subsets of the split sets
    of all binary topologies, deduplicated. Independent of the refinement
    counting it is used to check."""
    faces = set()
    for binary in enumerate_binary_topologies(n):
        splits = sorted(binary.splits)
        for r in range(len(splits) + 1):
            for sub in combinations(splits, r):
                faces.add(frozenset(sub))
    return tuple(Topology(n, f) for f in sorted(faces, key=lambda f: (len(f), sorted(s.side for s in f))))


def census_by_graph_walk(n: int) -> list[frozenset]:
    """Split sets of every binary topology on n leaves, by leaf insertion on
    an explicit edge list, reading each internal edge's split off a graph
    walk. Independent of the clade-mask census it is used to check."""

    def splits_of(edge_list):
        # adjacency over leaves 1..n and internal node ids > n
        adj: dict[int, list[int]] = {}
        for u, v in edge_list:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        splits = []
        for u, v in edge_list:
            if u <= n or v <= n:
                continue
            seen = {u, v}
            stack = [v]
            mask = 0
            while stack:
                w = stack.pop()
                if w <= n:
                    mask |= 1 << (w - 1)
                    continue
                for x in adj[w]:
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
            splits.append(make_split(leaves_of(mask), n))
        return splits

    def grow(k, edges):
        if k > n:
            yield edges
            return
        w = n + k - 2  # internal node ids n+2 .. 2n-2; n+1 is the seed node
        for i in range(len(edges)):
            u, v = edges[i]
            yield from grow(k + 1, edges[:i] + edges[i + 1:] + [(u, w), (v, w), (k, w)])

    seed = [(1, n + 1), (2, n + 1), (3, n + 1)]
    return [frozenset(splits_of(e)) for e in grow(4, seed)]


def pairwise_adjacency(vertices) -> tuple[int, ...]:
    """Adjacency rows by one are_compatible call per vertex pair."""
    rows = [0] * len(vertices)
    for i, u in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            if are_compatible(u, vertices[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def relabel_by_make_split(sigma, g) -> tuple[int, ...]:
    """Vertex permutation induced by sigma, through make_split on each
    relabeled side and a lookup of the resulting Split."""
    lookup = {v: i for i, v in enumerate(g.vertices)}
    return tuple(lookup[apply_permutation(sigma, v)] for v in g.vertices)


def compose(p, q):
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[x] for x in q)


def _closure(gens, nv: int) -> set[tuple[int, ...]]:
    """Every product of the generators, by breadth-first closure."""
    identity = tuple(range(nv))
    known = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for gen in gens:
                prod = compose(gen, e)
                if prod not in known:
                    known.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return known


def enumerate_automorphisms(g, node_cap: int = 5_000_000) -> list[tuple[int, ...]]:
    """Every adjacency-preserving vertex permutation, sorted, by backtracking
    over complete assignments.

    Candidate images start as the (degree, neighbor-degree multiset)
    signature class of each vertex. Mapping v -> w propagates immediately:
    every unmapped vertex keeps only candidates on the correct side of w's
    adjacency. The vertex with the fewest candidates is assigned next.
    """
    nv = g.vertex_count
    degs = [g.degree(i) for i in range(nv)]
    sig = [(degs[i], tuple(sorted(degs[j] for j in g.neighbors(i)))) for i in range(nv)]
    adj = g.adjacency
    all_mask = (1 << nv) - 1
    base_cand = [sum(1 << w for w in range(nv) if sig[w] == sig[v]) for v in range(nv)]

    image = [-1] * nv
    elements: list[tuple[int, ...]] = []
    budget = node_cap

    def extend(cand: list[int], unmapped: int):
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise SearchBudgetExceeded(f"automorphism search exceeded {node_cap} nodes")
        if not unmapped:
            elements.append(tuple(image))
            return
        v, fewest = -1, nv + 1
        m = unmapped
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            count = cand[u].bit_count()
            if count < fewest:
                v, fewest = u, count
                if count <= 1:
                    break
        if fewest == 0:
            return
        rest = unmapped & ~(1 << v)
        adj_v = adj[v]
        options = cand[v]
        while options:
            w = (options & -options).bit_length() - 1
            options &= options - 1
            narrowed = list(cand)
            adj_w = adj[w]
            ok = True
            m = rest
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                keep = adj_w if adj_v >> u & 1 else all_mask & ~adj_w
                narrowed[u] = narrowed[u] & keep & ~(1 << w)
                if not narrowed[u]:
                    ok = False
                    break
            if ok:
                image[v] = w
                extend(narrowed, rest)
                image[v] = -1

    extend(base_cand, all_mask)
    return sorted(elements)
