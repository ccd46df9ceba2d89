"""Newick parsing and serialization for tree-space points.

Accepted grammar (deliberately small; quoted labels and bracket comments are
rejected rather than skipped):

    tree    := subtree ";"
    subtree := "(" subtree ("," subtree)+ ")" [label] [":" number]
             | label [":" number]
    number  := nonnegative decimal (exponent notation allowed)

Nesting deeper than 65 levels is rejected as a syntax error: no valid tree
on at most 64 leaves goes deeper.

Rooted input is unrooted by suppressing a degree-2 root, summing the two
merged edge lengths. Internal edges of length zero are boundary edges and
are dropped from the topology; leaf edge lengths are kept as metadata only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (
    DegreeTwoInternal,
    DuplicateLeaf,
    NegativeLength,
    NewickSyntaxError,
    UnknownLeafName,
)
from .measure import TreePoint
from .splits import MAX_LEAVES, Split, full_mask, mask_of, split_of_mask
from .topology import clade_children, make_topology

_LABEL_END = set("():,;[]'\" \t\r\n")
_REJECTED = set("[]'\"")
_NUMBER = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


@dataclass
class NewickNode:
    """One node of a parsed Newick tree; leaves have no children."""

    children: list["NewickNode"] = field(default_factory=list)
    label: str | None = None
    length: float | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


# No valid tree on MAX_LEAVES leaves nests deeper: below the root, every
# internal node on a path adds at least one leaf off that path.
_MAX_DEPTH = MAX_LEAVES + 1


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


def _collect_leaves(node: NewickNode, out: list[NewickNode]):
    if node.is_leaf:
        out.append(node)
    for child in node.children:
        _collect_leaves(child, out)


def _resolve_labels(names: list[str], label_map: dict[str, int] | None) -> dict[str, int]:
    """Map leaf names to indices 1..n.

    With no map: all-numeric names must be exactly 1..n; purely non-numeric
    names are assigned by lexicographic sort. Anything else needs an
    explicit map, since sorting "10" before "2" would scramble labels.
    """
    n = len(names)
    if label_map is not None:
        if sorted(label_map.values()) != list(range(1, n + 1)):
            raise UnknownLeafName(
                f"label map must cover exactly 1..{n}, got values {sorted(label_map.values())}"
            )
        missing = [name for name in names if name not in label_map]
        if missing:
            raise UnknownLeafName(f"leaf name {missing[0]!r} not in label map")
        return {name: label_map[name] for name in names}
    numeric = [name for name in names if name.isdigit()]
    if numeric:
        if len(numeric) != n:
            raise UnknownLeafName(
                "mixed numeric and non-numeric leaf names need an explicit label map"
            )
        values = sorted(int(name) for name in names)
        if values != list(range(1, n + 1)):
            raise UnknownLeafName(
                f"numeric leaf names must be exactly 1..{n}; pass a label map instead"
            )
        return {name: int(name) for name in names}
    return {name: i for i, name in enumerate(sorted(names), start=1)}


def _unroot(root: NewickNode) -> NewickNode:
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
    count as zero. Raises DegreeTwoInternal for a non-root single-child node
    and NegativeLength for hand-built nodes with negative lengths.
    """
    n = len(leaf_index)
    records: set[tuple[Split, float]] = set()

    def below(node: NewickNode, at_root: bool) -> int:
        if node.is_leaf:
            return mask_of([leaf_index[node.label]], n)
        if len(node.children) < 2 and not at_root:
            raise DegreeTwoInternal("internal node with a single child")
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


def parse_newick(text: str, label_map: dict[str, int] | None = None) -> TreePoint:
    """Parse one Newick statement into a TreePoint.

    Splits come from the internal edges of the unrooted tree; zero-length
    internal edges are dropped from the topology and leaf edge lengths are
    retained as metadata.
    """
    root = _unroot(parse_tree_string(text))

    leaves: list[NewickNode] = []
    _collect_leaves(root, leaves)
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
    topology = make_topology(lengths.keys(), len(names))
    return TreePoint(topology, lengths, leaf_lengths or None)


def _format_length(w: float) -> str:
    """Shortest decimal that round-trips the float."""
    return repr(float(w))


def to_newick(x: TreePoint) -> str:
    """Canonical Newick string: rooted at the internal node holding leaf 1,
    children ordered by smallest descendant leaf, shortest round-trip
    lengths. parse_newick(to_newick(x)) reproduces x."""
    children = clade_children(x.topology)
    length_of = {s.clade: w for s, w in x.lengths.items()}
    leaf_lengths = x.leaf_lengths or {}

    def items_at(node: int) -> str:
        # items keyed by their lowest leaf bit, which is distinct per item
        items: list[tuple[int, str]] = []
        below = 0
        for c in children[node]:
            below |= c
            items.append((c & -c, f"({items_at(c)}):{_format_length(length_of[c])}"))
        own = node ^ below
        while own:
            low = own & -own
            own ^= low
            leaf = low.bit_length()
            text = f"{leaf}:{_format_length(leaf_lengths[leaf])}" if leaf in leaf_lengths else str(leaf)
            items.append((low, text))
        items.sort()
        return ",".join(text for _, text in items)

    return f"({items_at(full_mask(x.n))});"


def iter_newick_lines(text: str):
    """Tree statements from file content: one per line, '#' comments and
    blank lines skipped."""
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line
