"""Shared brute-force helpers for the test suite."""

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from hypothesis import strategies as st

from bhvkit import (
    DegreeTwoInternal,
    DuplicateLeaf,
    LeafCountMismatch,
    NegativeLength,
    NewickSyntaxError,
    SearchBudgetExceeded,
    Split,
    Topology,
    TreePoint,
    all_permutations,
    are_compatible,
    enumerate_binary_topologies,
    make_split,
    make_topology,
    permutation_to_automorphism,
)
from bhvkit.newick import _resolve_labels
from bhvkit.splits import MAX_LEAVES, full_mask, leaves_of, mask_of, set_bits, split_of_mask


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


def maximal_cliques(adjacency: tuple[int, ...]) -> list[int]:
    """Every maximal clique of a graph given by vertex-bitset adjacency rows,
    each once, as a vertex bitset: Bron–Kerbosch with a pivot, on bitsets.

    A clique r grows by the candidates p adjacent to all of it; x holds the
    vertices already tried, so a clique is maximal when p and x are empty.
    Branching only on candidates outside the pivot's neighbourhood misses
    no maximal clique, and the pivot is the vertex of p | x with the most
    neighbours in p.
    """
    out = []

    def expand(r: int, p: int, x: int):
        if not p | x:
            out.append(r)
            return
        pivot = max(set_bits(p | x), key=lambda u: (adjacency[u] & p).bit_count())
        for v in set_bits(p & ~adjacency[pivot]):
            expand(r | 1 << v, p & adjacency[v], x & adjacency[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, (1 << len(adjacency)) - 1, 0)
    return out


def relabel_by_make_split(sigma, g) -> tuple[int, ...]:
    """Vertex permutation induced by sigma, through make_split on each
    relabeled side and a lookup of the resulting Split."""
    lookup = {v: i for i, v in enumerate(g.vertices)}
    return tuple(lookup[make_split([sigma(leaf) for leaf in v.side], g.n)] for v in g.vertices)


def neighbors_of_size(g, v: Split, size: int) -> set[Split]:
    """Vertices of the given side size in v's adjacency row of the built graph g."""
    row = g.adjacency[g.vertices.index(v)]
    return {w for j, w in enumerate(g.vertices) if row >> j & 1 and w.size == size}


def preserves_adjacency_pairwise(g, perm) -> bool:
    """Adjacency preservation by one comparison per vertex pair."""
    nv = g.vertex_count
    if sorted(perm) != list(range(nv)):
        return False
    return all(
        g.adjacent(i, j) == g.adjacent(perm[i], perm[j])
        for i in range(nv)
        for j in range(i + 1, nv)
    )


def realized_by_sweep(g, group) -> bool:
    """Aut = image of S_n, by relabeling through all n! permutations and
    comparing the image set with the group's element list."""
    if group.elements is None or group.order != math.factorial(g.n):
        return False
    images = {permutation_to_automorphism(sigma, g) for sigma in all_permutations(g.n)}
    return images == set(group.elements)


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
    sig = [
        (degs[i], tuple(sorted(degs[j] for j in range(nv) if g.adjacent(i, j))))
        for i in range(nv)
    ]
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


# ---------------------------------------------------------------------------
# The clade tree by parent search: each clade's parent is the first larger
# clade containing it, O(p^2). The oracle for the linear clade tree of
# bhvkit.topology and the canonical Newick built on it.
# ---------------------------------------------------------------------------


def clade_children_by_parent_search(t: Topology) -> dict[int, list[int]]:
    """The tree realizing t, hung from leaf 1, as a map from each internal
    node to the clades of its child edges.

    A node is named by its clade: the full leaf mask for the root (the node
    holding leaf 1) and Split.clade for the node below each split's edge.
    Clades form a laminar family, so with clades sorted by size the parent
    of a clade is the first larger clade containing it, or the root. The
    leaves attached directly to a node are its clade minus its children.
    """
    clades = sorted((s.clade for s in t.splits), key=int.bit_count)
    root = full_mask(t.n)
    children: dict[int, list[int]] = {c: [] for c in clades}
    children[root] = []
    for i, c in enumerate(clades):
        parent = next((d for d in clades[i + 1 :] if d & c == c), root)
        children[parent].append(c)
    return children


def _own_leaves(node: int, kids: list[int]) -> int:
    """Leaf mask of the leaves attached directly to a node."""
    below = 0
    for c in kids:
        below |= c
    return node ^ below


def _format_length(w: float) -> str:
    """Shortest decimal that round-trips the float."""
    return repr(float(w))


def to_newick_by_parent_search(x: TreePoint) -> str:
    """Canonical Newick string: rooted at the internal node holding leaf 1,
    children ordered by smallest descendant leaf, shortest round-trip
    lengths. parse_newick(to_newick(x)) reproduces x."""
    children = clade_children_by_parent_search(x.topology)
    length_of = {s.clade: w for s, w in x.lengths.items()}
    leaf_lengths = x.leaf_lengths or {}

    def items_at(node: int) -> str:
        # items keyed by their lowest leaf bit, which is distinct per item
        kids = children[node]
        items = [(c & -c, f"({items_at(c)}):{_format_length(length_of[c])}") for c in kids]
        for leaf in leaves_of(_own_leaves(node, kids)):
            text = f"{leaf}:{_format_length(leaf_lengths[leaf])}" if leaf in leaf_lengths else str(leaf)
            items.append((1 << leaf - 1, text))
        items.sort()
        return ",".join(text for _, text in items)

    return f"({items_at(full_mask(x.n))});"


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


# ---------------------------------------------------------------------------
# Newick by node tree: a recursive character-level parser that builds
# explicit nodes, unroots them and walks them for splits. The oracle for
# the one-pass clade-mask parser in bhvkit.newick.
# ---------------------------------------------------------------------------

_LABEL_END = set("():,;[]'\" \t\r\n")
_REJECTED = set("[]'\"")
_NUMBER = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_MAX_DEPTH = MAX_LEAVES + 1


@dataclass
class NewickNode:
    """One node of a parsed Newick tree; leaves have no children."""

    children: list["NewickNode"] = field(default_factory=list)
    label: str | None = None
    length: float | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def fail(self, message: str):
        raise NewickSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def label(self) -> str:
        self.skip_ws()
        if self.peek() in _REJECTED:
            self.fail("quoted labels and bracket comments are not supported")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in _LABEL_END:
            self.pos += 1
        return self.text[start : self.pos]

    def maybe_length(self) -> float | None:
        if self.peek() != ":":
            return None
        self.pos += 1
        self.skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            self.fail("expected a branch length")
        self.pos = m.end()
        value = float(m.group())
        if value < 0:
            raise NegativeLength(f"negative branch length {m.group()}")
        return value

    def subtree(self) -> NewickNode:
        if self.peek() == "(":
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                self.fail(f"nesting deeper than {_MAX_DEPTH} levels")
            self.pos += 1
            children = [self.subtree()]
            while self.peek() == ",":
                self.pos += 1
                children.append(self.subtree())
            self.expect(")")
            self.depth -= 1
            label = self.label() or None
            return NewickNode(children, label, self.maybe_length())
        name = self.label()
        if not name:
            self.fail("expected '(' or a leaf label")
        return NewickNode([], name, self.maybe_length())

    def tree(self) -> NewickNode:
        root = self.subtree()
        self.expect(";")
        if self.peek():
            self.fail("trailing text after ';'")
        return root


def parse_tree_string(text: str) -> NewickNode:
    """Parse one Newick statement into a node tree."""
    return _Parser(text).tree()


def collect_leaves(node: NewickNode, out: list[NewickNode]):
    if node.is_leaf:
        out.append(node)
    for child in node.children:
        collect_leaves(child, out)


def unroot(root: NewickNode) -> NewickNode:
    """Suppress a degree-2 root by merging its two incident edges."""
    if len(root.children) != 2:
        return root
    a, b = root.children
    keep, other = (a, b) if a.children else (b, a)
    if not keep.children:
        return root  # two-leaf tree; rejected later by the leaf-count check
    if keep.length is None and other.length is None:
        merged = None
    else:
        merged = (keep.length or 0.0) + (other.length or 0.0)
    moved = NewickNode(other.children, other.label, merged)
    return NewickNode(keep.children + [moved], keep.label, None)


def splits_from_tree(root: NewickNode, leaf_index: dict[str, int]) -> set[tuple[Split, float]]:
    """One (split, length) pair per internal edge of an unrooted node tree.

    The split side is the leaf set cut off below the edge; missing lengths
    count as zero. Raises DegreeTwoInternal (with no text offset) for a
    non-root single-child node and NegativeLength for hand-built nodes with
    negative lengths.
    """
    n = len(leaf_index)
    records: set[tuple[Split, float]] = set()

    def below(node: NewickNode, at_root: bool) -> int:
        if node.is_leaf:
            return mask_of([leaf_index[node.label]], n)
        if len(node.children) < 2 and not at_root:
            raise DegreeTwoInternal(None)
        mask = 0
        for child in node.children:
            child_mask = below(child, False)
            mask |= child_mask
            if not child.is_leaf:
                length = child.length if child.length is not None else 0.0
                if length < 0:
                    raise NegativeLength(f"negative branch length {child.length}")
                records.add((split_of_mask(child_mask, n), length))
        return mask

    below(root, True)
    return records


def parse_newick_by_tree(text: str, label_map: dict[str, int] | None = None) -> TreePoint:
    """parse_newick through an explicit node tree: parse, unroot, collect
    the leaves, resolve their labels and walk the tree for splits."""
    root = unroot(parse_tree_string(text))
    leaves: list[NewickNode] = []
    collect_leaves(root, leaves)
    names = [leaf.label for leaf in leaves]
    seen = set()
    for name in names:
        if name in seen:
            raise DuplicateLeaf(name)
        seen.add(name)
    leaf_index = _resolve_labels(names, label_map)
    records = splits_from_tree(root, leaf_index)
    lengths = {s: w for s, w in records if w > 0}
    leaf_lengths = {
        leaf_index[leaf.label]: leaf.length for leaf in leaves if leaf.length is not None
    }
    return TreePoint(make_topology(lengths.keys(), len(names)), lengths, leaf_lengths or None)


def has_single_child_node(text: str) -> bool:
    """True if some '(' of the text is closed by a ')' with no ',' between
    them at its own level: a node with a single child, whatever else the
    text holds."""
    commas = []
    for ch in text:
        if ch == "(":
            commas.append(0)
        elif ch == "," and commas:
            commas[-1] += 1
        elif ch == ")" and commas and commas.pop() == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# The Newick scanner that tracks the offset of every token, whitespace runs
# included. The oracle for the scanner of bhvkit.newick, which keeps no
# offsets and finds an error's token by scanning the text again.
# ---------------------------------------------------------------------------

_SCAN_TOKEN = re.compile(
    r"[ \t\r\n]+"
    r"|[(),;]"
    r"|:[ \t\r\n]*(?:[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)?"
    r"|[^():,;\[\]'\" \t\r\n]+"
    r"|[\[\]'\"]"
)
_SCAN_SPACE = " \t\r\n"
_SCAN_REJECTED = "[]'\""
_SCAN_SUBTREE, _SCAN_CLOSED, _SCAN_LABELED, _SCAN_MEASURED, _SCAN_DONE = range(5)


def scan_with_offsets(text: str) -> tuple[list[str], list[tuple]]:
    """One pass over a Newick statement, keeping the offset of every token.

    Returns the leaf names in text order and one item per edge of the
    unrooted tree; an item with end - first == 1 is a leaf edge.
    """
    names: list[str] = []
    items: list[tuple] = []  # edges not at the root
    stack: list[list[tuple]] = []  # the children read so far, per open node
    root: list[tuple] = []
    first = end = 0
    length = None
    state = _SCAN_SUBTREE
    pos = 0
    for tok in _SCAN_TOKEN.findall(text):
        at = pos
        pos += len(tok)
        c = tok[0]
        if c in _SCAN_SPACE:
            continue
        if c in _SCAN_REJECTED:
            raise NewickSyntaxError("quoted labels and bracket comments are not supported", at)
        if state == _SCAN_SUBTREE:
            if c == "(":
                if len(stack) == _MAX_DEPTH:
                    raise NewickSyntaxError(f"nesting deeper than {_MAX_DEPTH} levels", at)
                stack.append([])
                continue
            if c in "),;:":
                raise NewickSyntaxError("expected '(' or a leaf label", at)
            first, end, length = len(names), len(names) + 1, None
            names.append(tok)
            state = _SCAN_LABELED
        elif state == _SCAN_DONE:
            raise NewickSyntaxError("trailing text after ';'", at)
        elif c == ":" and state != _SCAN_MEASURED:
            number = tok[1:].lstrip(_SCAN_SPACE)
            if not number:
                raise NewickSyntaxError("expected a branch length", pos)
            length = float(number)
            if length < 0:
                raise NegativeLength(f"negative branch length {number}")
            state = _SCAN_MEASURED
        elif state == _SCAN_CLOSED and c not in "(),;":
            state = _SCAN_LABELED  # internal node labels are read and ignored
        elif c == "," and stack:
            stack[-1].append((first, end, length))
            state = _SCAN_SUBTREE
        elif c == ")" and stack:
            kids = stack.pop()
            kids.append((first, end, length))
            if len(kids) == 1:
                raise DegreeTwoInternal(at)
            if stack:
                items += kids
            else:
                root = kids
            first, length = kids[0][0], None
            state = _SCAN_CLOSED
        elif c == ";" and not stack:
            state = _SCAN_DONE
        else:
            raise NewickSyntaxError("expected ')'" if stack else "expected ';'", at)
    if state != _SCAN_DONE:
        expected = "'(' or a leaf label" if state == _SCAN_SUBTREE else "')'" if stack else "';'"
        raise NewickSyntaxError(f"expected {expected}", pos)
    if not root:
        root = [(first, end, length)]  # the whole tree is one leaf
    elif len(root) == 2:
        (a0, a1, wa), (b0, b1, wb) = root
        if a1 - a0 > 1 or b1 - b0 > 1:
            # Unroot: the first internal child becomes the root, and the
            # other child's edge takes both lengths.
            merged = None if wa is None and wb is None else (wa or 0.0) + (wb or 0.0)
            root = [(b0, b1, merged) if a1 - a0 > 1 else (a0, a1, merged)]
    return names, items + root


@st.composite
def newick_trees(draw):
    """Well-formed Newick on 3..12 leaves, lengths anywhere in 0..1e308 or absent."""
    length = st.one_of(st.just(""), st.floats(0, 1e308).map(lambda w: f":{w!r}"))
    n = draw(st.integers(3, 12))
    items = [f"{leaf}{draw(length)}" for leaf in draw(st.permutations(range(1, n + 1)))]
    while len(items) > 3 and draw(st.booleans()):
        i = draw(st.integers(0, len(items) - 2))
        items[i : i + 2] = [f"({items[i]},{items[i + 1]}){draw(length)}"]
    return f"({','.join(items)});"
