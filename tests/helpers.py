"""Shared brute-force helpers for the test suite."""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from bhvkit import (
    LeafCountMismatch,
    SearchBudgetExceeded,
    Split,
    Topology,
    TreePoint,
    apply_permutation,
    are_compatible,
    enumerate_binary_topologies,
    make_split,
)
from bhvkit.splits import full_mask, leaves_of


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


def compatible_disjoint_or_nested(a: Split, b: Split) -> bool:
    """Compatibility via the reduced form: canonical sides ordered by size
    are either disjoint or nested. An independent cross-check of
    are_compatible.
    """
    if a.n != b.n:
        raise LeafCountMismatch(f"splits over n={a.n} and n={b.n}")
    if a.size > b.size:
        a, b = b, a
    am, bm = a.mask, b.mask
    return not (am & bm) or (am & bm) == am


@dataclass
class InternalTree:
    """The unique unrooted tree realizing a topology, as an explicit graph.

    Internal nodes are indexed 0..p; each leaf attaches to exactly one
    internal node and each split labels exactly one internal edge. The
    oracle for the clade-mask tree view of bhvkit.topology.
    """

    n: int
    node_leaves: list[int]            # per node, bitmask of directly attached leaves
    adjacency: list[dict[int, Split]]  # per node, neighbor -> split on that edge

    @property
    def node_count(self) -> int:
        return len(self.node_leaves)

    @property
    def edges(self) -> list[tuple[int, int, Split]]:
        out = []
        for u, nbrs in enumerate(self.adjacency):
            for v, s in nbrs.items():
                if u < v:
                    out.append((u, v, s))
        return out

    @property
    def leaf_node(self) -> dict[int, int]:
        attach = {}
        for u, mask in enumerate(self.node_leaves):
            for leaf in leaves_of(mask):
                attach[leaf] = u
        return attach

    def degree(self, u: int) -> int:
        return self.node_leaves[u].bit_count() + len(self.adjacency[u])

    def degrees(self) -> tuple[int, ...]:
        """Node degrees, sorted descending."""
        return tuple(sorted((self.degree(u) for u in range(self.node_count)), reverse=True))

    def side_behind(self, u: int, v: int) -> int:
        """Leaf bitmask of the component containing v after cutting edge (u, v).

        Recomputed by traversal, independently of the stored edge labels, so
        round-trip tests exercise the actual tree shape.
        """
        seen = {v}
        stack = [v]
        mask = 0
        while stack:
            w = stack.pop()
            mask |= self.node_leaves[w]
            for x in self.adjacency[w]:
                if x not in seen and not (w == v and x == u):
                    seen.add(x)
                    stack.append(x)
        return mask

    def splits_by_cutting(self) -> set[Split]:
        """Recompute the split of every internal edge from scratch."""
        out = set()
        for u, v, _ in self.edges:
            out.add(make_split(leaves_of(self.side_behind(u, v)), self.n))
        return out

    def to_dot(self) -> str:
        """Graphviz rendering: internal nodes as points, leaves as plain labels."""
        lines = ["graph internal_tree {"]
        for u in range(self.node_count):
            lines.append(f'  n{u} [shape=point];')
        for leaf in range(1, self.n + 1):
            lines.append(f'  leaf{leaf} [shape=none, label="{leaf}"];')
        for u, v, s in sorted(self.edges):
            label = ",".join(map(str, s.side))
            lines.append(f'  n{u} -- n{v} [label="{{{label}}}"];')
        for leaf, u in sorted(self.leaf_node.items()):
            lines.append(f"  leaf{leaf} -- n{u};")
        lines.append("}")
        return "\n".join(lines)


def reconstruct_tree(t: Topology) -> InternalTree:
    """Build the unique tree whose internal-edge splits equal t.splits.

    Starts from the star tree and inserts splits in increasing side size.
    Each insertion pulls the split's side off a single node: compatibility
    guarantees exactly one node has no edge straddling the side.
    """
    n = t.n
    node_leaves = [full_mask(n)]
    adjacency: list[dict[int, Split]] = [{}]
    through: dict[tuple[int, int], int] = {}

    for s in sorted(t.splits):
        side, comp = s.mask, s.complement_mask
        host = None
        for u in range(len(node_leaves)):
            if all(m & side == 0 or m & comp == 0 for m in
                   (through[(u, v)] for v in adjacency[u])):
                if host is not None:
                    raise AssertionError(f"split {s} attachable at two nodes")
                host = u
        if host is None:
            raise AssertionError(f"no attachment node for split {s}")

        w = len(node_leaves)
        node_leaves.append(node_leaves[host] & side)
        node_leaves[host] &= comp
        adjacency.append({})
        moved = [v for v in adjacency[host] if through[(host, v)] & side]
        for v in moved:
            edge_split = adjacency[host].pop(v)
            adjacency[v].pop(host)
            adjacency[w][v] = edge_split
            adjacency[v][w] = edge_split
            through[(w, v)] = through.pop((host, v))
            through[(v, w)] = through.pop((v, host))
        adjacency[host][w] = s
        adjacency[w][host] = s
        through[(host, w)] = side
        through[(w, host)] = comp

    tree = InternalTree(n, node_leaves, adjacency)
    if any(tree.degree(u) < 3 for u in range(tree.node_count)):
        raise AssertionError("reconstruction produced a degree < 3 node")
    return tree


def to_newick_by_walk(x: TreePoint) -> str:
    """Canonical Newick by walking the reconstructed graph from the node
    holding leaf 1, ordering each node's items by the smallest leaf found
    behind them with side_behind."""
    tree = reconstruct_tree(x.topology)
    root = tree.leaf_node[1]

    def leaf_text(leaf: int) -> str:
        if x.leaf_lengths and leaf in x.leaf_lengths:
            return f"{leaf}:{float(x.leaf_lengths[leaf])!r}"
        return str(leaf)

    def items_at(u: int, parent: int | None) -> str:
        items: list[tuple[int, str]] = []
        for leaf in leaves_of(tree.node_leaves[u]):
            items.append((leaf, leaf_text(leaf)))
        for v, s in tree.adjacency[u].items():
            if v == parent:
                continue
            sub = items_at(v, u)
            smallest = min(leaves_of(tree.side_behind(u, v)))
            items.append((smallest, f"({sub}):{float(x.lengths[s])!r}"))
        items.sort()
        return ",".join(text for _, text in items)

    return f"({items_at(root, None)});"


def random_face(rnd, n: int, keep: float = 0.7) -> Topology:
    """A random face on n leaves: the clades of a random binary tree, built
    by merging random pairs of subtrees until three remain, each kept with
    probability keep."""
    parts = [1 << i for i in range(n)]
    kept = []
    while len(parts) > 3:
        i, j = rnd.sample(range(len(parts)), 2)
        joined = parts[i] | parts[j]
        parts = [p for k, p in enumerate(parts) if k not in (i, j)] + [joined]
        if rnd.random() < keep:
            kept.append(make_split(leaves_of(joined), n))
    return Topology(n, frozenset(kept))
