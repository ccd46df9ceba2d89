"""Tree topologies as compatible split sets.

A topology is a set of pairwise-compatible splits on n leaves; it names a
face of tree space with one coordinate per split. Hung from leaf 1, each
split names the clade below its edge (Split.clade, the side without leaf
1), and a set is compatible exactly when its clades form a laminar family.
So one walk decides both: _clade_tree reads the realizing tree's nodes,
child edges and leaves off mask containment, or finds two clades that
cross. A Topology keeps the tree it walked, and clade_children, degree
sequences, orthant counts, the DOT rendering and the canonical Newick all
read it.
The binary census is built by leaf insertion on the same clade masks, the
last leaf by frozenset algebra along each tree's edges, with the cyclic GC
paused: its trees share one Split per split, none hashes one, and they are
made in one batch. A read-only index maps each split mask
to the bitset of census trees holding it, so enumerating the refinements of
a face, still an exhaustive filter over the census, is an AND of bitsets.

Topology(n, splits) is the one checked reader of a split set; make_topology
is that reader with make_split's argument order. The trusted path,
Topology._laminar, checks nothing: its callers give it laminar families on a
checked leaf count: the census, all trees in one call, the clades of trees
grown by leaf insertion; parse_newick, the clades of the one tree it parsed.
"""

from __future__ import annotations

import gc
import threading
from collections import deque
from collections.abc import Iterable
from functools import lru_cache
from itertools import combinations, compress, repeat
from math import inf, prod
from types import MappingProxyType

from .errors import BhvError, IncompatiblePair, TooLarge
from .splits import (
    Permutation,
    Split,
    are_compatible,
    check_int,
    check_shape,
    check_type,
    check_leaf_count,
    check_same_n,
    enumerate_splits,
    full_mask,
    split_key,
    _FrozenValue,
    _relabel,
    _words,
)

MAX_CENSUS_LEAVES = 10  # 15!! = 2,027,025 trees; n=11 would hold 17!! = 34,459,425
_DENSE = 24  # _select takes the byte mask below this many items per set bit
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_CENSUS_LOCK = threading.Lock()  # held around every _census call, so each n is built once


def double_factorial(m: int) -> int:
    """m!! for odd m >= -1, with (-1)!! = 1 (empty product)."""
    if check_int(m, -1, inf, "double factorial m") % 2 == 0:
        raise BhvError(f"double factorial needs odd m >= -1, got {m}")
    return prod(range(m, 0, -2))


class Topology(_FrozenValue):
    """A face of tree space: n leaves plus a pairwise-compatible split set.

    The constructor reads any iterable of Splits and checks, in this order,
    that it is one, that no split is given twice (by either side), the leaf
    count, that each split is on n leaves, the n-3 bound and compatibility,
    keeping the clade tree whose walk decides it. _laminar (see the module
    docstring) builds equal values without the checks or the tree; a value's
    first reader walks it: one idempotent write from immutable data to a slot
    no caller reaches, so a Topology is still safe to share.
    """

    __slots__ = ("n", "splits", "_tree")
    _fields = __match_args__ = ("n", "splits")

    def __init__(self, n: int, splits: Iterable[Split] = frozenset()):
        if not hasattr(splits, "__len__"):  # an iterator, kept to find a repeat in
            splits = check_shape(list, splits, "splits", "an iterable of Splits")
        unique = check_shape(frozenset, splits, "splits", "an iterable of Splits")  # a frozenset is kept as is
        if not all(map(isinstance, unique, repeat(Split))):
            raise BhvError(f"splits must be an iterable of Splits, got {splits!r}")
        if len(unique) < len(splits):  # name the first to repeat; set.add returns None
            seen: set[Split] = set()
            raise BhvError(f"{next(s for s in splits if s in seen or seen.add(s))} is given twice")
        _SET_N(self, n)
        _SET_SPLITS(self, unique)
        _SET_TREE(self, None)
        check_leaf_count(n)
        for m in {s.n for s in unique}:
            check_same_n(m, n)
        if len(unique) > n - 3:
            raise BhvError(f"{len(unique)} splits exceed n-3 = {n - 3}")
        if self._clades() is None:  # two clades cross: name the first such pair in canonical order
            ordered = sorted(unique, key=split_key)
            raise IncompatiblePair(*next(p for p in combinations(ordered, 2) if not are_compatible(*p)))

    @classmethod
    def _laminar(cls, n: int, split_sets: list[frozenset[Split]]) -> tuple["Topology", ...]:
        """One Topology per frozenset in split_sets, each of splits on n leaves
        that are pairwise compatible by construction, built without the checks
        of __init__ in one batch of C-level maps."""
        trees = tuple(map(object.__new__, repeat(cls, len(split_sets))))
        deque(map(_SET_N, trees, repeat(n)), 0)  # slot setters: cheaper than object.__setattr__
        deque(map(_SET_SPLITS, trees, split_sets), 0)
        deque(map(_SET_TREE, trees, repeat(None)), 0)
        return trees

    def _clades(self) -> dict[int, list[int]] | None:
        """_clade_tree of the splits, walked at most once per Topology; read-only."""
        if self._tree is None:
            _SET_TREE(self, _clade_tree([s.clade for s in self.splits], self.n))
        return self._tree

    @property
    def p(self) -> int:
        """Number of internal edges (positive-length splits)."""
        return len(self.splits)

    @property
    def sorted_splits(self) -> tuple[Split, ...]:
        return tuple(sorted(self.splits, key=split_key))

    def permute(self, sigma: Permutation) -> "Topology":
        """Relabel all leaves through sigma, a permutation of the same n leaves."""
        check_same_n(check_type(sigma, Permutation, "sigma").n, self.n)
        return Topology(self.n, frozenset(_relabel(sigma, s) for s in self.splits))

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, s.side)) + "}" for s in self.sorted_splits)
        return f"Topology(n={self.n}, splits=[{inner}])"

    def to_dot(self) -> str:
        """Graphviz rendering of the realizing tree: internal nodes as
        points, leaves as plain labels, each internal edge labelled with its
        split's canonical side.

        Node i+1 is the canonical-side end of the i-th split in canonical
        order and node 0 is the one node left over (canonical sides of one
        node's edges never overlap, so no node is named twice).
        """
        tree = self._clades()
        parent = {item: node for node, items in tree.items() for item in items}  # clades and leaf bits
        node_id = dict.fromkeys(tree, 0)
        for i, s in enumerate(self.sorted_splits, start=1):
            node_id[parent[s.clade] if s.mask & 1 else s.clade] = i
        edges = sorted((*sorted((node_id[s.clade], node_id[parent[s.clade]])), s) for s in self.splits)
        lines = ["graph internal_tree {"]
        lines += [f"  n{u} [shape=point];" for u in range(len(tree))]
        lines += [f'  leaf{leaf} [shape=none, label="{leaf}"];' for leaf in range(1, self.n + 1)]
        for u, v, s in edges:
            label = ",".join(map(str, s.side))
            lines.append(f'  n{u} -- n{v} [label="{{{label}}}"];')
        lines += [f"  leaf{leaf} -- n{node_id[parent[1 << leaf - 1]]};" for leaf in range(1, self.n + 1)]
        lines.append("}")
        return "\n".join(lines)


_SET_N, _SET_SPLITS, _SET_TREE = Topology.n.__set__, Topology.splits.__set__, Topology._tree.__set__


def make_topology(splits, n: int) -> Topology:
    """Topology(n, splits), with make_split's argument order: the collection, then n."""
    return Topology(n, splits)


def is_binary(t: Topology) -> bool:
    """A topology is binary when it has the full complement of n-3 splits."""
    return check_type(t, Topology, "t").p == t.n - 3


def _clade_tree(clades, n: int) -> dict[int, list[int]] | None:
    """clade_children of distinct clades on n leaves, with each node's own leaves,
    as one-bit masks, among its child clades in order of lowest leaf; the root
    comes last. By ascending size, a clade is the parent of the tops (earlier
    clades with no parent yet) inside it; tops are disjoint and keyed by lowest
    bit, so peeling the clade from its lowest bit takes off a top or a leaf:
    n + p steps in all. None when two clades cross: then a peeled leaf keys no
    top yet lies in an earlier clade (the clade's own, or one toggled in by
    peeling a top the clade does not hold)."""
    tops: dict[int, int] = {}  # lowest bit -> a clade with no parent yet
    tree = {}
    seen = 0  # the leaves of the earlier clades
    for node in sorted(clades, key=int.bit_count) + [full_mask(n)]:
        items, rest = [], node
        while rest:
            low = rest & -rest
            item = tops.pop(low, low)
            if item & seen == low:
                return None
            items.append(item)
            rest ^= item
        tree[node] = items
        tops[node & -node] = node
        seen |= node
    return tree


def clade_children(t: Topology) -> dict[int, list[int]]:
    """The tree realizing t, hung from leaf 1, as a map from each internal
    node to the clades of its child edges, in order of lowest leaf. A node is
    named by its clade: the full leaf mask for the root (the node holding leaf
    1) and Split.clade for the node below each split's edge."""
    tree = check_type(t, Topology, "t")._clades()
    return {node: [c for c in items if c & c - 1] for node, items in tree.items()}


def degree_sequence(t: Topology) -> tuple[int, ...]:
    """Internal-node degrees of the realized tree, sorted descending: per
    node, its child edges, its own leaves and, below the root, its parent
    edge."""
    root = full_mask(check_type(t, Topology, "t").n)
    degrees = [len(items) + (node != root) for node, items in t._clades().items()]
    return tuple(sorted(degrees, reverse=True))


def count_refining_orthants(t: Topology) -> int:
    """Number of binary topologies refining t: the product of (2d-5)!! over
    internal node degrees."""
    return prod(double_factorial(2 * d - 5) for d in degree_sequence(t))


@lru_cache(maxsize=8)
def _census(n: int) -> tuple[tuple[Topology, ...], MappingProxyType]:
    """Every binary topology on n leaves, plus an index from each split
    mask to the int bitset of census positions whose tree holds it.

    Trees are rooted at leaf 1 and each edge is named by its clade, the
    leaf mask below it. Inserting leaf k on the edge with clade C adds k
    to every clade containing C, then appends C and {k}. Every edge of
    every tree on k-1 leaves takes leaf k once, which realizes the
    classical bijection, so no deduplication is needed. The internal
    splits are the clades of size 2..n-2; one Split per clade is shared
    by every tree. The clades of one tree form a laminar family, so all
    the trees go through the trusted Topology._laminar at once, unchecked.

    The last leaf goes in by set algebra on frozensets, which keep their
    members' hashes, so no tree calls Split.__hash__. Leaf n joins the
    clades of the insertion edge and of its ancestors, so each edge carries
    its parent edge and a tree on n-1 leaves is walked ancestors first: an
    edge's split set is its parent's, with its own split traded for the one
    holding n (`^ swap[c]`) when its clade is a split both ways, and the
    root edge's is the tree's splits. Each new tree's set is its edge's
    set `| cherry[c]`, the split the new edge adds; the sets of one tree's
    children are made in one map and then set their bits in the index rows.

    The cyclic GC collects the young generations first, is paused for the
    walk and the batch (they make no cycles) and the caller's setting
    restored after, also on an error; another thread's gc.enable() or
    gc.disable() meanwhile may be overridden. The batch is then tenured:
    gc.freeze() and gc.unfreeze() move every tracked object to the oldest
    generation, so no young collection walks the new trees. With objects
    already frozen this step is skipped, so none is thawed; another
    thread's gc.freeze() during a build may be thawed.
    """
    if n > MAX_CENSUS_LEAVES:
        raise TooLarge(f"census capped at n = {MAX_CENSUS_LEAVES}, got {n}: "
                       f"(2n-5)!! = {double_factorial(2 * n - 5)}")
    if n == 3:
        return Topology._laminar(3, [frozenset()]), MappingProxyType({})
    shared = {s.clade: s for s in enumerate_splits(n)}
    rows = {s.mask: bytearray((double_factorial(2 * n - 5) + 7) // 8) for s in shared.values()}
    sets: list[frozenset[Split]] = []  # each census tree's splits, in census order
    last = 1 << (n - 1)
    # a clade on n-1 leaves that is a split both ways (not a leaf or the root edge) -> its two splits
    swap = {c: frozenset((s, shared[c | last])) for c, s in shared.items() if c < last and c | last in shared}
    # the edge with clade c -> the split inserting leaf n there adds: c, or the cherry c + {n}
    cherry = {c: frozenset((shared.get(c) or shared[c | last],)) for c in range(2, last, 2)}

    def grow(k: int, clades: list[int], parents: list[int]):
        if k < n:
            leaf, m = 1 << (k - 1), len(clades)
            for i, below in enumerate(clades):
                # edge i keeps the upper half; m, the lower half, takes i's children, and m + 1 is leaf k
                grow(k + 1, [c | leaf if c & below == below else c for c in clades] + [below, leaf],
                     [m if p == i else p for p in parents] + [i, i])
            return
        # each edge's split set, larger clades (ancestors) first; the root edge's parent, -1,
        # reads the last entry, the tree's own splits
        states = [frozenset([shared[c] for c in clades if c in swap])] * (len(clades) + 1)
        for j in sorted(range(len(clades)), key=[-c.bit_count() for c in clades].__getitem__):
            traded = swap.get(clades[j])
            states[j] = states[parents[j]] ^ traded if traded else states[parents[j]]
        i = len(sets)
        sets.extend(map(frozenset.union, states, map(cherry.__getitem__, clades)))
        for j, splits in enumerate(sets[i:], i):
            byte, bit = j >> 3, 1 << (j & 7)
            for s in splits:
                rows[s.mask][byte] |= bit

    enabled = gc.isenabled()
    gc.collect(1)  # young garbage goes now, not to the oldest generation with the census
    gc.disable()  # the build's frozensets and trees form no cycles; refcounting still frees
    try:
        grow(4, [0b10, 0b100, 0b110], [2, 2, -1])  # hung from leaf 1, the root edge has clade 0b110
        trees = Topology._laminar(n, sets)
        if not gc.get_freeze_count():  # tenure: no young collection walks the batch
            gc.freeze()
            gc.unfreeze()
    finally:
        if enabled:
            gc.enable()
    # each row is freed as it is read, so the rows and the index are never both whole
    index = {mask: int.from_bytes(rows.pop(mask), "little") for mask in list(rows)}
    return trees, MappingProxyType(index)


@lru_cache(maxsize=8)
def _word_indices(nitems: int) -> tuple[int, ...]:
    """0, 1, ... for each 64-bit word of a bitset over nitems items."""
    return tuple(range((nitems + 63) // 64))


def _select(items: tuple, bits: int) -> tuple:
    """The items at the set bits of a non-negative int below 2**len(items), in order, as a tuple.

    Dense answers, more than one set bit per _DENSE items, take one C pass:
    the reversed binary digits, translated to a byte mask, go to
    itertools.compress at about 6 ns per item. Sparse ones are read one
    64-bit word at a time, about 0.2 us per set bit: compress skips the zero
    words over a cached word-index tuple, and the rest are peeled bit by bit
    (`x & -x` on the big int would be quadratic). The popcount picks the path,
    not the occupied words: census rows cluster (at n = 9 cherry {1,2} fills
    258 of the 2,112 words, {8,9} all), so a word count would peel {1,2}.
    """
    if bits.bit_count() * _DENSE > len(items):
        return tuple(compress(items, format(bits, "b")[::-1].encode().translate(_DIGIT_BYTES)))
    words = _words(bits, "Q", (bits.bit_length() + 63) // 64)
    out = []
    for j in compress(_word_indices(len(items)), words):
        word, base = words[j], 64 * j
        while word:
            low = word & -word
            out.append(items[base + low.bit_length() - 1])
            word ^= low
    return tuple(out)


def enumerate_binary_topologies(n: int):
    """Iterate all (2n-5)!! binary topologies on n leaves, no repeats.

    The census is built once per n by leaf insertion on clade masks and
    cached; its trees share one Split object per split. Raises TooLarge
    up front for n > MAX_CENSUS_LEAVES; checks n first.
    """
    with _CENSUS_LOCK:
        return iter(_census(check_leaf_count(n))[0])


def enumerate_binary_refinements(t: Topology) -> tuple[Topology, ...]:
    """All binary topologies whose split sets contain t.splits, as a tuple in census order.

    Still an exhaustive filter over the full binary census, independent of
    the (2d-5)!! formula it checks: the census index gives, per split, the
    bitset of census trees holding it, and the trees at the set bits of
    their AND are returned. Serves as the brute-force oracle for
    count_refining_orthants. A binary t is its own only refinement, and the
    cone point's tuple is the cached census itself, shared as its trees are;
    any other t raises TooLarge for t.n > MAX_CENSUS_LEAVES.
    """
    if is_binary(t):
        return (t,)
    with _CENSUS_LOCK:
        trees, index = _census(t.n)
    if not t.splits:
        return trees
    first, *rest = t.splits
    bits = index[first.mask]
    for s in rest:
        bits &= index[s.mask]
    return _select(trees, bits)
