"""Newick parsing and serialization for tree-space points.

Accepted grammar (deliberately small; quoted labels and bracket comments are
rejected rather than skipped):

    tree    := subtree ";"
    subtree := "(" subtree ("," subtree)+ ")" [label] [":" number]
             | label [":" number]
    number  := nonnegative decimal (exponent notation allowed)

Whitespace (space, tab, CR, LF) may stand between any two tokens and ends
a label. A branch length is the longest number at the head of the text
after the ':'. Text outside the grammar raises NewickSyntaxError at an
offset: a node with a single child at its ')' and a negative length at
its ':'. So does nesting deeper than 65 levels, at the 66th '(': no valid
tree on at most 64 leaves goes deeper. A repeated leaf name, or names that
resolve to no leaf indices, raise BhvError.

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
from itertools import islice
from operator import length_hint

from .errors import BhvError, NewickSyntaxError
from .measure import TreePoint
from .splits import MAX_LEAVES, Split, check_leaf_count, check_shape, check_type, full_mask
from .topology import Topology

# Punctuation, a ':' with its number (matched as a prefix), labels, and the
# rejected quote and bracket characters: every character of the text falls
# in one token but whitespace, which findall skips between tokens.
_TOKEN = re.compile(
    r"[(),;]"
    r"|:[ \t\r\n]*(?:[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)?"
    r"|[^():,;\[\]'\" \t\r\n]+"
    r"|[\[\]'\"]"
)
_SPACE = " \t\r\n"
_REJECTED = "[]'\""
_REJECTION = "quoted labels and bracket comments are not supported"

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
    tokens = _TOKEN.findall(text)
    rest = iter(tokens)

    def token_at() -> re.Match:  # the token last taken from rest: the scan keeps no offsets
        return next(islice(_TOKEN.finditer(text), len(tokens) - length_hint(rest) - 1, None))

    def syntax_error(message: str) -> NewickSyntaxError:  # a quote or bracket is named as such
        token = token_at()
        return NewickSyntaxError(_REJECTION if token[0] in _REJECTED else message, token.start())

    for tok in rest:
        c = tok[0]
        if state == _SUBTREE:
            if c == "(":
                if len(stack) == _MAX_DEPTH:
                    raise syntax_error(f"nesting deeper than {_MAX_DEPTH} levels")
                stack.append([])
                continue
            if c in "),;:[]'\"":
                raise syntax_error("expected '(' or a leaf label")
            first, end, length = len(names), len(names) + 1, None
            names.append(tok)
            state = _LABELED
        elif c == ":" and state < _MEASURED:
            number = tok[1:].lstrip(_SPACE)
            if not number:
                raise NewickSyntaxError("expected a branch length", token_at().end())
            length = float(number)
            if length < 0:
                raise NewickSyntaxError(f"negative branch length {number}", token_at().start())
            state = _MEASURED
        elif c == "," and stack:
            stack[-1].append((first, end, length))
            state = _SUBTREE
        elif c == ")" and stack:
            kids = stack.pop()
            kids.append((first, end, length))
            if len(kids) == 1:
                raise NewickSyntaxError("node with a single child", token_at().start())
            if stack:
                items += kids
            else:
                root = kids
            first, length = kids[0][0], None
            state = _CLOSED
        elif state == _CLOSED and c not in "(),;[]'\"":
            state = _LABELED  # internal node labels are read and ignored
        elif c == ";" and not stack and state != _DONE:
            state = _DONE
        else:
            expected = "')'" if stack else "';'"
            raise syntax_error("trailing text after ';'" if state == _DONE else f"expected {expected}")
    if state != _DONE:
        expected = "'(' or a leaf label" if state == _SUBTREE else "')'" if stack else "';'"
        raise NewickSyntaxError(f"expected {expected}", len(text))
    if len(root) == 2:
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
    labels. A map's values must be plain ints (not bools) covering 1..n.
    """
    n = len(names)
    if label_map is not None:
        label_map = check_shape(dict, label_map, "label_map", "a mapping")
        wrong = [value for value in label_map.values() if type(value) is not int]
        if wrong:
            raise BhvError(f"label map values must be ints, got {wrong[0]!r}")
        if sorted(label_map.values()) != list(range(1, n + 1)):
            raise BhvError(f"label map must cover exactly 1..{n}, got values {sorted(label_map.values())}")
        missing = [name for name in names if name not in label_map]
        if missing:
            raise BhvError(f"leaf name {missing[0]!r} not in label map")
        return {name: label_map[name] for name in names}
    numeric = [name for name in names if name.isascii() and name.isdigit()]
    if numeric:
        if len(numeric) != n:
            raise BhvError("mixed numeric and non-numeric leaf names need an explicit label map")
        index = {name: int(name) for name in names}
        if sorted(index.values()) != list(range(1, n + 1)):
            raise BhvError(f"numeric leaf names must be exactly 1..{n}; pass a label map instead")
        return index
    return {name: i for i, name in enumerate(sorted(names), start=1)}


def parse_newick(text: str, label_map: dict[str, int] | None = None) -> TreePoint:
    """Parse one Newick statement into a TreePoint.

    Splits come from the internal edges of the unrooted tree; zero-length
    internal edges are dropped from the topology and leaf edge lengths are
    retained as metadata. The splits are clades of one tree, a laminar
    family whose sides all hold at least two leaves, so each Split is built
    by the trusted Split._laminar and the topology by Topology._laminar;
    the leaf count is checked here, and TreePoint checks the lengths.
    """
    names, items = _scan(check_type(text, str, "text"))
    if len(set(names)) < len(names):  # name the first to repeat; set.add returns None
        seen = set()
        name = next(name for name in names if name in seen or seen.add(name))
        raise BhvError(f"duplicate leaf name {name!r}")
    index = _resolve_labels(names, label_map)
    n = check_leaf_count(len(names))
    below = [0]  # below[i]: the index bits of the first i leaves of the text
    for name in names:
        below.append(below[-1] | 1 << (index[name] - 1))
    masks, ws, leaf_lengths = [], [], {}
    for first, end, w in items:
        if end - first == 1:
            if w is not None:
                leaf_lengths[index[names[first]]] = w
        elif w:
            masks.append(below[end] ^ below[first])
            ws.append(w)
    lengths = dict(zip(Split._laminar(n, masks), ws))
    return TreePoint(Topology._laminar(n, [frozenset(lengths)])[0], lengths, leaf_lengths)


def to_newick(x: TreePoint) -> str:
    """Canonical Newick string: rooted at the internal node holding leaf 1,
    children ordered by smallest descendant leaf, shortest round-trip
    lengths. parse_newick(to_newick(x)) reproduces x."""
    tree = check_type(x, TreePoint, "x").topology._clades()
    # each item's ':' and length, if it has one; a clade has two or more bits, a leaf one
    suffix = {s.clade: f":{float(w)!r}" for s, w in x.lengths.items()}
    suffix.update({1 << leaf - 1: f":{float(w)!r}" for leaf, w in (x.leaf_lengths or {}).items()})

    def items_at(node: int) -> str:
        return ",".join(
            f"({items_at(c)}){suffix[c]}" if c & c - 1 else f"{c.bit_length()}{suffix.get(c, '')}"
            for c in tree[node]
        )

    return f"({items_at(full_mask(x.n))});"


def iter_newick_lines(text: str):
    """Tree statements from file content: one per line, '#' comments and
    blank lines skipped."""
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line
