"""The compatibility graph on splits and its symmetries.

Vertices are all canonical splits on n leaves; edges join compatible pairs.
The size-k layers are Kneser graphs, whose maximum independent sets are the
leaf stars, and the full automorphism group is realized by leaf relabelings;
both facts are checked by exact search on the built graph, not assumed.
Adjacency rows are vertex-index bitmasks, each read off subset tables of
per-leaf bitsets, one per half of the leaves. A leaf relabeling moves every
side at once, as lanes of one int, and reads every image back through an
index that the graph's first relabel fills in: a 256-byte table for one-byte
lanes (n <= 8), a dict for wider ones. certify_aut proves
Aut = S_n by the paper's lemma chain, never by degree_formula: the size
layers are kept, the pair layer's maximum independent sets are the leaf
stars, and the pair layer pins every vertex; bit-matrix transposition
checks that a vertex permutation keeps the rows. The stabiliser-chain
search stays as the tests' oracle. NODE_CAP search nodes is the only
bound on either search.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat
from operator import itemgetter, lshift

from .errors import BhvError, TooLarge
from .splits import (
    Permutation,
    Split,
    check_int,
    check_leaf_count,
    check_same_n,
    check_shape,
    check_type,
    enumerate_splits,
    full_mask,
    set_bits,
    _FrozenValue,
    _words,
)

MAX_LINK_LEAVES = 12
NODE_CAP = 5_000_000
ELEMENT_CAP = 10_000  # lists the 7! elements at n=7; 8! would outcost the search

VertexPerm = tuple[int, ...]


class LinkGraph(_FrozenValue):
    """Undirected graph over splits; adjacency rows are vertex-index bitmasks.
    It takes distinct Splits of n and one row per vertex, an int in [0, 2^nv)
    without its own bit; rows need not be symmetric."""

    _fields = __match_args__ = ("n", "vertices", "adjacency")
    # side masks and complements -> vertex index, the same as a 256-byte table for one-byte lanes
    # (else None), lane typecode, leaf columns; filled by the first relabel
    _index: tuple[dict[int, int], bytes | None, str, tuple[int, ...]] | None = None

    def __init__(self, n: int, vertices: tuple[Split, ...], adjacency: tuple[int, ...]):
        n = check_leaf_count(n)
        vertices = check_shape(tuple, vertices, "vertices", "an iterable of Splits")  # no caller's list to change
        adjacency = check_shape(tuple, adjacency, "adjacency", "an iterable of ints")
        if not all(map(isinstance, vertices, repeat(Split))):
            raise BhvError(f"vertices must be Splits, got {next(v for v in vertices if not isinstance(v, Split))!r}")
        for m in {v.n for v in vertices}:
            check_same_n(m, n)
        if len({v.mask for v in vertices}) < len(vertices):  # int hashes, not Split.__hash__
            last = {v.mask: i for i, v in enumerate(vertices)}
            raise BhvError(f"{next(v for i, v in enumerate(vertices) if last[v.mask] != i)} is a vertex twice")
        if len(adjacency) != len(vertices):
            raise BhvError(f"adjacency has {len(adjacency)} rows for {len(vertices)} vertices")
        top = (1 << len(vertices)) - 1
        for i, row in enumerate(adjacency):
            if check_int(row, 0, top, "adjacency row") >> i & 1:
                raise BhvError(f"adjacency row {i} joins vertex {i} to itself")
        self._set(n, vertices, adjacency)

    @classmethod
    def _unchecked(cls, n: int, vertices: tuple[Split, ...], adjacency: tuple[int, ...]) -> "LinkGraph":
        """The graph built without the checks, for this module's builders: their vertices are
        distinct Splits of n and their rows loop-free ints by construction."""
        g = object.__new__(cls)
        g._set(n, vertices, adjacency)
        return g

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i] >> j & 1)

    def to_dot(self) -> str:
        names = ['"' + ",".join(map(str, v.side)) + '"' for v in self.vertices]
        lines = ["graph link {", *(f"  {name};" for name in names)]
        for i, row in enumerate(self.adjacency):
            lines += [f"  {names[i]} -- {names[i + 1 + j]};" for j in set_bits(row >> i + 1)]
        return "\n".join([*lines, "}"])


def build_link_graph(n: int) -> LinkGraph:
    """Graph with every canonical split as a vertex and compatible pairs as edges.

    Canonical sides are compatible unless they cross, as no two cover every
    leaf (splits.are_compatible): j crosses i when j's side meets i's side,
    lacks a leaf of it and meets its complement. With holds[l] the bitset of
    vertices whose side holds leaf l, the sides meeting a leaf set X are
    OR(holds[X]) and those lacking a leaf of X are OR(~holds[X]). Each OR is
    two lookups, in _subset_images tables over leaves 1..n//2 and the rest.
    """
    check_leaf_count(n)
    if n > MAX_LINK_LEAVES:
        raise TooLarge(f"link graph capped at n = {MAX_LINK_LEAVES}, got {n}")
    vertices = tuple(enumerate_splits(n))
    sides = [v.mask for v in vertices]
    all_mask, full, half = (1 << len(vertices)) - 1, full_mask(n), n // 2
    digits = "0" * n + "".join([format(m, f"0{n}b") for m in reversed(sides)])
    holds = [int(digits[n - 1 - leaf :: n], 2) for leaf in range(n)]  # leaf l: every n-th digit
    misses = [all_mask ^ h for h in holds]
    meets_lo, meets_hi = _subset_images(holds[:half]), _subset_images(holds[half:])
    lacks_lo, lacks_hi = _subset_images(misses[:half]), _subset_images(misses[half:])
    cut, rows = (1 << half) - 1, []
    for i, m in enumerate(sides):
        lo, hi, c = m & cut, m >> half, full ^ m
        meets, lacks = meets_lo[lo] | meets_hi[hi], lacks_lo[lo] | lacks_hi[hi]
        outside = meets_lo[c & cut] | meets_hi[c >> half]
        rows.append(all_mask ^ (meets & lacks & outside | 1 << i))  # a side meets and covers itself
    return LinkGraph._unchecked(n, vertices, tuple(rows))


def _subset_images(bits: list[int]) -> list[int]:
    """table[m] = OR of bits[j] over the set bits j of m."""
    table = [0]
    for bit in bits:
        table += [t | bit for t in table]
    return table


def degree_formula(n: int, k: int) -> int:
    """Closed-form degree of a size-k vertex: 2^k + 2^(n-k) - n - 4."""
    check_int(k, 2, check_leaf_count(n) // 2, "k")
    return 2**k + 2 ** (n - k) - n - 4


def verify_degrees(g: LinkGraph) -> bool:
    """True when every vertex degree matches the closed-form formula, taken once per side size."""
    sizes = [v.mask.bit_count() for v in check_type(g, LinkGraph, "g").vertices]
    want = {k: degree_formula(g.n, k) for k in set(sizes)}
    return list(map(int.bit_count, g.adjacency)) == list(map(want.__getitem__, sizes))


def kneser_subgraph(g: LinkGraph, k: int) -> LinkGraph:
    """Induced subgraph on the size-k vertices.

    For k < n/2 this is the Kneser graph on k-subsets: adjacency within the
    layer is exactly disjointness of sides.
    """
    check_int(k, 2, check_type(g, LinkGraph, "g").n // 2, "k")
    keep = [i for i, v in enumerate(g.vertices) if v.size == k]
    position, layer = {u: j for j, u in enumerate(keep)}, sum(1 << u for u in keep)
    rows = (sum(1 << position[u] for u in set_bits(g.adjacency[i] & layer)) for i in keep)
    return LinkGraph._unchecked(g.n, tuple(g.vertices[i] for i in keep), tuple(rows))


def ekr_independent_sets(g: LinkGraph, k: int) -> list[frozenset[Split]]:
    """The n leaf stars in the size-k layer: for each leaf i, all size-k
    splits whose side contains i. Each has size C(n-1, k-1) and is
    independent (shared leaf forces intersecting sides)."""
    check_int(k, 2, (check_type(g, LinkGraph, "g").n - 1) // 2, "k")
    layer = [v for v in g.vertices if v.size == k]
    return [frozenset(v for v in layer if v.contains(i)) for i in range(1, g.n + 1)]


def maximum_independent_sets(g: LinkGraph) -> list[frozenset[Split]]:
    """All independent sets of maximum size, by exact branch and bound.

    Branching takes the highest-degree candidate, include before exclude,
    so the first branch to run out of candidates holds a maximal set; it
    sets the size bound, and branches that cannot reach the bound are cut.
    The search raises TooLarge after NODE_CAP nodes; that is
    its only bound, since its cost tracks the nodes it expands, not the
    vertex count.
    """
    nv, adj = check_type(g, LinkGraph, "g").vertex_count, g.adjacency
    order = sorted(range(nv), key=lambda v: adj[v].bit_count(), reverse=True)
    best, results, budget = 0, [], NODE_CAP

    def search(chosen: int, size: int, cand: int):
        # the include branch recurses; the exclude branch is the next pass of
        # the loop, so the depth is bounded by the set size, not the vertex count
        nonlocal best, results, budget
        while True:
            budget -= 1
            if budget < 0:
                raise TooLarge(f"independent-set search exceeded {NODE_CAP} nodes")
            if size + cand.bit_count() < best:
                return
            if not cand:  # size >= best, or the bound above would have cut it
                if size > best:
                    best, results = size, []
                results.append(chosen)
                return
            for v in order:
                if cand >> v & 1:
                    break
            search(chosen | (1 << v), size + 1, cand & ~((1 << v) | adj[v]))
            cand &= ~(1 << v)

    search(0, 0, (1 << nv) - 1)
    sets = [frozenset(g.vertices[v] for v in set_bits(mask)) for mask in results]
    sets.sort(key=lambda s: sorted(sp.side for sp in s))
    return sets


class AutomorphismGroup(_FrozenValue):
    """Search result: group order, a generating set, and (when the order is
    at most ELEMENT_CAP) the complete element list as vertex permutations."""

    _fields = __match_args__ = ("order", "generators", "elements")

    def __init__(self, order: int, generators: tuple[VertexPerm, ...],
                 elements: tuple[VertexPerm, ...] | None):
        self._set(order, generators, elements)


def _compose(p: VertexPerm, q: VertexPerm) -> VertexPerm:
    """(p o q)(i) = p[q[i]]; itemgetter gives a bare item for one index and refuses none."""
    return itemgetter(*q)(p) if len(q) > 1 else tuple(map(p.__getitem__, q))


def _grow_orbit(orbit: dict[int, VertexPerm], generators: list[VertexPerm]) -> None:
    """Close an orbit, kept as point -> element taking the base point there,
    under the generators."""
    frontier = list(orbit.items())
    while frontier:
        point, element = frontier.pop()
        for gen in generators:
            image = gen[point]
            if image not in orbit:
                orbit[image] = _compose(gen, element)
                frontier.append((image, orbit[image]))


def are_automorphisms(g: LinkGraph, perms: list[VertexPerm] | tuple[VertexPerm, ...]) -> bool:
    """True when every vertex permutation p in perms keeps the rows: bit p[j]
    of row p[i] is bit j of row i, for all i and j. Reads the rows alone.

    The rows in the order p, packed through bytes, form a w-by-w bit matrix,
    w a power of two. Its transpose, read in the order p, must equal the
    transposed adjacency. Stage b of the log2(w) transposition stages swaps
    bit (r, c), with r & b == 0 and c & b != 0, and bit (r + b, c - b) in
    every matrix by one delta swap, under a mask built for that stage alone.
    """
    nv = len(g.adjacency)
    if any(sorted(p) != list(range(nv)) for p in perms):
        return False
    w = max(8, 1 << (nv - 1).bit_length())
    rows = [row.to_bytes(w // 8, "little") for row in g.adjacency] + [bytes(w // 8)] * (w - nv)
    orders = [[*p, *range(nv, w)] for p in perms]
    packed = (b"".join(map(rows.__getitem__, order)) for order in [range(w), *orders])
    mats = [int.from_bytes(m, "little") for m in packed]  # the adjacency first
    b = w // 2
    while b:
        cols = ((1 << w) // ((1 << 2 * b) - 1) * ((1 << b) - 1) << b).to_bytes(w // 8, "little")
        mask = int.from_bytes((cols * b + bytes(w // 8 * b)) * (w // (2 * b)), "little")
        shift = b * (w - 1)  # from bit (r + b, c - b) to bit (r, c)
        for k, x in enumerate(mats):
            t = (x ^ x >> shift) & mask
            mats[k] = x ^ t ^ t << shift
        b //= 2
    target, *flipped = (m.to_bytes(w * w // 8, "little") for m in mats)
    for order, m in zip(orders, flipped):
        chunks = [m[r * w // 8 : (r + 1) * w // 8] for r in range(w)]
        if b"".join(map(chunks.__getitem__, order)) != target:
            return False
    return True


def brute_force_automorphisms(g: LinkGraph) -> AutomorphismGroup:
    """The full automorphism group, exactly, by a stabiliser chain.

    Candidate images start as the degree class of each vertex, since an
    automorphism preserves degree. Mapping v -> w propagates: every
    unmapped vertex keeps only candidates on the correct side of w's
    adjacency. Base points b1, b2, ... are the vertices that still have more
    than one candidate once the earlier ones are fixed to themselves, until
    every candidate set is a single vertex.

    Level by level, from the deepest up, the orbit of b_i under the
    stabiliser of b1..b_(i-1) is grown from the generators found so far,
    which all lie in that stabiliser. Each candidate of b_i still outside
    the orbit is probed by a backtracking search that stops at the first
    automorphism fixing b1..b_(i-1) and mapping b_i to it; a hit joins the
    generators. A probe maps single-candidate vertices in a loop and
    recurses only where it branches. The orbits are grown from the
    generators, so they generate the group; its order is the product of the
    orbit lengths. Up to ELEMENT_CAP, elements lists the products of one
    orbit representative per level. The probes together raise
    TooLarge after NODE_CAP nodes.
    """
    nv, adj, budget = check_type(g, LinkGraph, "g").vertex_count, g.adjacency, NODE_CAP
    all_mask = (1 << nv) - 1

    def fix(cand: list[int], rest: int, v: int, w: int) -> tuple[list[int], int] | None:
        """Map v -> w and narrow the candidates in rest; returns them and the vertex
        of rest with the fewest left (lowest on a tie), or None once one has none."""
        narrowed = list(cand)
        narrowed[v] = 1 << w
        adj_v, inside, outside = adj[v], adj[w], all_mask ^ adj[w] ^ 1 << w
        nxt, fewest = -1, nv + 1
        for u in set_bits(rest):
            narrowed[u] &= inside if adj_v >> u & 1 else outside
            count = narrowed[u].bit_count()
            if not count:
                return None
            if count < fewest:
                nxt, fewest = u, count
        return narrowed, nxt

    def first_automorphism(cand: list[int], v: int, unmapped: int) -> VertexPerm | None:
        """The first automorphism within cand; v is the unmapped vertex to map next."""
        nonlocal budget
        while True:
            budget -= 1
            if budget < 0:
                raise TooLarge(f"automorphism search exceeded {NODE_CAP} nodes")
            if not unmapped:
                return tuple(c.bit_length() - 1 for c in cand)
            unmapped &= ~(1 << v)
            if cand[v] & (cand[v] - 1):
                break
            step = fix(cand, unmapped, v, cand[v].bit_length() - 1)
            if step is None:
                return None
            cand, v = step
        for w in set_bits(cand[v]):
            step = fix(cand, unmapped, v, w)
            found = None if step is None else first_automorphism(*step, unmapped)
            if found is not None:
                return found
        return None

    by_degree: dict[int, int] = {}
    for v, row in enumerate(adj):
        by_degree[row.bit_count()] = by_degree.get(row.bit_count(), 0) | 1 << v
    cand = [by_degree[row.bit_count()] for row in adj]
    unmapped = all_mask
    levels = []
    for b in range(nv):
        if cand[b] & (cand[b] - 1):
            unmapped &= ~(1 << b)
            levels.append((b, cand, unmapped))
            cand, _ = fix(cand, unmapped, b, b)

    identity = tuple(range(nv))
    generators: list[VertexPerm] = []
    transversals: list[list[VertexPerm]] = []
    for b, cand, rest in reversed(levels):
        orbit = {b: identity}
        _grow_orbit(orbit, generators)
        for w in set_bits(cand[b]):
            if w not in orbit:
                step = fix(cand, rest, b, w)
                found = None if step is None else first_automorphism(*step, rest)
                if found is not None:
                    generators.append(found)
                    _grow_orbit(orbit, generators)
        transversals.append(list(orbit.values()))

    group_order = math.prod(len(t) for t in transversals)
    if math.factorial(nv) % group_order:
        raise AssertionError("group order does not divide the vertex factorial")
    if not are_automorphisms(g, generators):
        raise AssertionError("search produced a non-automorphism generator")
    elements = None
    if group_order <= ELEMENT_CAP:
        products = [identity]
        for transversal in transversals:
            products = [_compose(t, p) for t in transversal for p in products]
        elements = tuple(sorted(products))
    return AutomorphismGroup(group_order, tuple(generators), elements)


def permutation_to_automorphism(sigma: Permutation, g: LinkGraph) -> VertexPerm:
    """The vertex permutation induced by relabeling leaves through sigma.

    Every side moves at once. g's first relabel stores n leaf columns, column
    l an int whose lane i, an array word of at least n bits, holds bit l of
    vertex i's side, and an index of every side and its complement (only a
    half-size side relabels to a non-canonical mask): one idempotent write to
    a slot no caller reaches. A call sums the columns shifted to their images.
    One-byte lanes (n <= 8) are read back as bytes through a 256-byte table,
    which makes no object per vertex; wider ones as array words, through the dict.
    """
    check_same_n(check_type(sigma, Permutation, "sigma").n, check_type(g, LinkGraph, "g").n)
    nv = g.vertex_count
    if g._index is None:
        sides = [v.mask for v in g.vertices]
        code = next(c for c in "BHILQ" if array(c).itemsize * 8 >= g.n)  # a narrower lane carries into the next
        size = array(code).itemsize
        packed = int.from_bytes(b"".join([m.to_bytes(size, "little") for m in sides]), "little")
        ones = ((1 << 8 * size * nv) - 1) // ((1 << 8 * size) - 1)  # bit 0 of every lane
        index = dict(zip(sides + [full_mask(g.n) ^ m for m in sides], [*range(nv)] * 2))
        # distinct vertices number at most 119 at n = 8, so no vertex index is the 0xFF of a non-vertex
        table = bytes(map(index.get, range(256), repeat(0xFF))) if size == 1 else None
        object.__setattr__(g, "_index", (index, table, code, tuple(packed >> l & ones for l in range(g.n))))
    index, table, code, columns = g._index
    # bit sigma(l + 1) of a lane, then one shift down for all: lane bit n is the next lane's unset bit 0
    moved = sum(map(lshift, columns, sigma.images)) >> 1
    if table is not None:
        image = moved.to_bytes(nv, "little").translate(table)
        if 0xFF not in image:
            return tuple(image)
    try:  # wider lanes, or a side that is no vertex: the dict names the first
        return tuple(map(index.__getitem__, _words(moved, code, nv)))
    except KeyError as exc:
        raise BhvError(f"sigma takes a side to {Split(g.n, exc.args[0])}, which is not a vertex of g") from None


def certify_aut(g: LinkGraph) -> tuple[VertexPerm, VertexPerm] | None:
    """The relabelings by (1 2) and (1 2 ... n) when four checks on g prove
    that Aut(g) is S_n acting on the leaves, else None (always for n < 5 and
    for vertices other than enumerate_splits(n), in its order).

    (a) Each degree class lies in one size layer, so automorphisms keep the
    layers. (b) The pair layer's maximum independent sets are the n leaf
    stars, so an automorphism permutes the leaves by some sigma and agrees
    with its relabeling on the pairs. (c) No two vertices have the same pair
    neighbours, so only the identity fixes every pair: |Aut| <= n!. (d) The
    two relabelings, which generate S_n, are automorphisms: |Aut| >= n!;
    are_automorphisms checks both on the rows by bit-matrix transposition.
    """
    n, adj = check_type(g, LinkGraph, "g").n, g.adjacency
    if n < 5 or g.vertices != tuple(enumerate_splits(n)):
        return None
    size_of: dict[int, int] = {}
    if any(size_of.setdefault(g.degree(i), v.size) != v.size for i, v in enumerate(g.vertices)):
        return None
    if set(maximum_independent_sets(kneser_subgraph(g, 2))) != set(ekr_independent_sets(g, 2)):
        return None
    pair_mask = sum(1 << i for i, v in enumerate(g.vertices) if v.size == 2)
    if len({row & pair_mask for row in adj}) < len(adj):
        return None
    generators = tuple(
        permutation_to_automorphism(Permutation.from_cycles(n, cycle), g)
        for cycle in ((1, 2), range(1, n + 1))
    )
    return generators if are_automorphisms(g, generators) else None
