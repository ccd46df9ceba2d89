"""Newick parsing and serialization for tree-space points.

Accepted grammar (deliberately small; quoted labels and bracket comments are
rejected rather than skipped):

    tree    := subtree ";"
    subtree := "(" subtree ("," subtree)+ ")" [label] [":" number]
             | label [":" number]
    number  := nonnegative decimal (exponent notation allowed)

Whitespace (space, tab, CR, LF) may stand between any two tokens and ends
a label. A branch length is the longest number at the head of the text
after the ':'. A node with a single child breaks the grammar and is
reported as DegreeTwoInternal at its ')'; nesting deeper than 65 levels is
a syntax error: no valid tree on at most 64 leaves goes deeper.

Parsing is one pass over one regex tokenizer with an explicit stack of open
nodes and no node objects. Leaf i of the text is bit i of a clade, and the
leaves below a node are consecutive in the text, so each closed node's
clade, the OR of its children's clades, is the range of leaves read
between its '(' and ')'. Once the labels are resolved, prefix sums of the
leaves' index bits turn each range into a clade mask.

Rooted input is unrooted by suppressing a degree-2 root and summing the two
merged edge lengths onto the edge that stays: a leaf edge if either child
is a leaf, else the edge whose split both child clades name. Internal edges
of length zero or missing are boundary edges and are dropped from the
topology; leaf edge lengths are kept as metadata only.
"""

from __future__ import annotations

import re

from .errors import (
    DegreeTwoInternal,
    DuplicateLeaf,
    NegativeLength,
    NewickSyntaxError,
    UnknownLeafName,
)
from .measure import TreePoint
from .splits import MAX_LEAVES, check_leaf_count, full_mask, leaves_of, split_of_mask
from .topology import Topology, _own_leaves, clade_children

# Whitespace runs, punctuation, a ':' with its number (matched as a prefix),
# labels, and the rejected quote and bracket characters: every character
# of the text falls in exactly one token.
_TOKEN = re.compile(
    r"[ \t\r\n]+"
    r"|[(),;]"
    r"|:[ \t\r\n]*(?:[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)?"
    r"|[^():,;\[\]'\" \t\r\n]+"
    r"|[\[\]'\"]"
)
_SPACE = " \t\r\n"
_REJECTED = "[]'\""

# No valid tree on MAX_LEAVES leaves nests deeper: below the root, every
# internal node on a path adds at least one leaf off that path.
_MAX_DEPTH = MAX_LEAVES + 1

# What the tokens read so far allow next: a subtree; after a ')', a label, a
# length or a separator; after a label, a length or a separator; after a
# length, a separator; after the ';', nothing.
_SUBTREE, _CLOSED, _LABELED, _MEASURED, _DONE = range(5)

# An edge as read: the range first..end-1 of text-order leaves below it and
# its length, None when missing.
_Item = tuple[int, int, float | None]


def _scan(text: str) -> tuple[list[str], list[_Item]]:
    """One pass over a Newick statement.

    Returns the leaf names in text order and one item per edge of the
    unrooted tree; an item with end - first == 1 is a leaf edge.
    """
    names: list[str] = []
    items: list[_Item] = []  # edges not at the root
    stack: list[list[_Item]] = []  # the children read so far, per open node
    root: list[_Item] = []
    first = end = 0
    length = None
    state = _SUBTREE
    pos = 0
    for tok in _TOKEN.findall(text):
        at = pos
        pos += len(tok)
        c = tok[0]
        if c in _SPACE:
            continue
        if c in _REJECTED:
            raise NewickSyntaxError("quoted labels and bracket comments are not supported", at)
        if state == _SUBTREE:
            if c == "(":
                if len(stack) == _MAX_DEPTH:
                    raise NewickSyntaxError(f"nesting deeper than {_MAX_DEPTH} levels", at)
                stack.append([])
                continue
            if c in "),;:":
                raise NewickSyntaxError("expected '(' or a leaf label", at)
            first, end, length = len(names), len(names) + 1, None
            names.append(tok)
            state = _LABELED
        elif state == _DONE:
            raise NewickSyntaxError("trailing text after ';'", at)
        elif c == ":" and state != _MEASURED:
            number = tok[1:].lstrip(_SPACE)
            if not number:
                raise NewickSyntaxError("expected a branch length", pos)
            length = float(number)
            if length < 0:
                raise NegativeLength(f"negative branch length {number}")
            state = _MEASURED
        elif state == _CLOSED and c not in "(),;":
            state = _LABELED  # internal node labels are read and ignored
        elif c == "," and stack:
            stack[-1].append((first, end, length))
            state = _SUBTREE
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
            state = _CLOSED
        elif c == ";" and not stack:
            state = _DONE
        else:
            raise NewickSyntaxError("expected ')'" if stack else "expected ';'", at)
    if state != _DONE:
        expected = "'(' or a leaf label" if state == _SUBTREE else "')'" if stack else "';'"
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


def _resolve_labels(names: list[str], label_map: dict[str, int] | None) -> dict[str, int]:
    """Map leaf names to indices 1..n.

    With no map: names of ASCII digits only must be exactly 1..n; purely
    non-numeric names are assigned by lexicographic sort. Anything else
    needs an explicit map, since sorting "10" before "2" would scramble
    labels.
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
    numeric = [name for name in names if name.isascii() and name.isdigit()]
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


def parse_newick(text: str, label_map: dict[str, int] | None = None) -> TreePoint:
    """Parse one Newick statement into a TreePoint.

    Splits come from the internal edges of the unrooted tree; zero-length
    internal edges are dropped from the topology and leaf edge lengths are
    retained as metadata. The splits are clades of one tree, a laminar
    family, so the topology is built by the trusted Topology._laminar; the
    leaf count is checked here, and TreePoint checks the lengths.
    """
    names, items = _scan(text)
    seen = set()
    for name in names:
        if name in seen:
            raise DuplicateLeaf(name)
        seen.add(name)
    index = _resolve_labels(names, label_map)
    n = check_leaf_count(len(names))
    below = [0]  # below[i]: the index bits of the first i leaves of the text
    for name in names:
        below.append(below[-1] | 1 << (index[name] - 1))
    lengths = {}
    leaf_lengths = {}
    for first, end, w in items:
        if end - first == 1:
            if w is not None:
                leaf_lengths[index[names[first]]] = w
        elif w:
            lengths[split_of_mask(below[end] ^ below[first], n)] = w
    return TreePoint(Topology._laminar(n, frozenset(lengths)), lengths, leaf_lengths)


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
        kids = children[node]
        items = [(c & -c, f"({items_at(c)}):{_format_length(length_of[c])}") for c in kids]
        for leaf in leaves_of(_own_leaves(node, kids)):
            text = f"{leaf}:{_format_length(leaf_lengths[leaf])}" if leaf in leaf_lengths else str(leaf)
            items.append((1 << leaf - 1, text))
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
