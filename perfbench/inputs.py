"""Seeded benchmark inputs and their expected answers.

Nothing here imports bhvkit. Every tree is built from its own clade list,
so the split set, degree sequence, orthant count s_F, ball volume and
distance bound it should produce are worked out here, independently of the
library under test. The same (workload, seed) gives byte-identical inputs
in any process: only ``random.Random`` seeded from a string drives them, and
no set's iteration order reaches them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import asdict, dataclass
from string import ascii_lowercase

WORKLOADS = ("trees", "census", "link")

# trees: every n in 16..64 equally often, so op latencies do not depend on
# which sizes a seed happens to draw; only shapes, lengths and labels vary.
TREE_SIZES = range(16, 65)
TREES_PER_SIZE = 4
ZERO_EDGE_SHARE = 0.2
EPS = 0.05  # below every positive internal length (>= 0.1)
LABEL_STYLES = ("numeric", "names", "mixed")

# census: far more faces at n=9 than at n=8, so the median face is an n=9
# one. Machine speed swings on scales of seconds, so the faces are many
# enough to be sampled over about as long as the census build takes.
CENSUS_FACES = {8: 20, 9: 500}

LINK_SIZES = range(5, 13)
AUT_SIZES = range(5, 8)
MIS_VERTEX_CAP = 25  # bhvkit's default cap for maximum_independent_sets
SAMPLED_VERTICES = 16
SAMPLED_PAIRS = 64
SAMPLED_RELABELINGS = 8


# ---------------------------------------------------------------------------
# split arithmetic on bitmasks (leaf i on bit i-1)
# ---------------------------------------------------------------------------

def canonical(mask: int, n: int) -> int:
    """The stored side of a split: the smaller side, ties to the side with leaf 1."""
    size = mask.bit_count()
    if 2 * size > n or (2 * size == n and not mask & 1):
        return ((1 << n) - 1) ^ mask
    return mask


def compatible(a: int, b: int, n: int) -> bool:
    """Four-intersection test: some pair of sides does not meet."""
    full = (1 << n) - 1
    ac, bc = full ^ a, full ^ b
    return not (a & b and a & bc and ac & b and ac & bc)


def mask_of(leaf_list) -> int:
    return sum(1 << (leaf - 1) for leaf in leaf_list)


def leaves(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def double_factorial(m: int) -> int:
    return math.prod(range(m, 0, -2))


def orthant_count(degrees) -> int:
    """Binary orthants around a face: product of (2d-5)!! over node degrees."""
    return math.prod(double_factorial(2 * d - 5) for d in degrees)


def euclidean_ball(m: int, eps: float) -> float:
    return math.pi ** (m / 2) * eps**m / math.gamma(m / 2 + 1)


def random_clades(rng: random.Random, n: int):
    """A random unrooted binary tree on leaves 1..n as nested clades.

    Random pairs merge until three subtrees remain under a degree-3 root.
    Returns the root's three child masks and, per internal clade, its two
    child masks, in creation order.
    """
    pool = [1 << i for i in range(n)]
    children: dict[int, tuple[int, int]] = {}
    while len(pool) > 3:
        a = pool.pop(rng.randrange(len(pool)))
        b = pool.pop(rng.randrange(len(pool)))
        children[a | b] = (a, b)
        pool.append(a | b)
    return tuple(pool), children


def degree_sequence(root_children, children, positive) -> tuple[int, ...]:
    """Internal node degrees, sorted descending, after contracting every
    internal clade not in ``positive`` into its parent."""

    def width(kids) -> int:
        return sum(
            width(children[k]) if k in children and k not in positive else 1 for k in kids
        )

    degrees = [width(root_children)] + [width(children[c]) + 1 for c in positive]
    return tuple(sorted(degrees, reverse=True))


# ---------------------------------------------------------------------------
# Newick text
# ---------------------------------------------------------------------------

def _length_text(w: float) -> str:
    return repr(w) if w else "0"


def write_newick(root_children, children, lengths, leaf_lengths, names, rng) -> str:
    """Newick for a clade tree, children in random order, zero-length
    internal edges written as ':0'."""

    def text(c: int) -> str:
        if c in children:
            kids = list(children[c])
            rng.shuffle(kids)
            return "(" + ",".join(text(k) for k in kids) + "):" + _length_text(lengths[c])
        leaf = c.bit_length()
        return f"{names[leaf]}:{_length_text(leaf_lengths[leaf])}"

    kids = list(root_children)
    rng.shuffle(kids)
    return "(" + ",".join(text(k) for k in kids) + ");"


_TOKEN = re.compile(r"\s*([(),;]|[0-9]+(?::[0-9.eE+-]+)?|:[0-9.eE+-]+)")
_FINITE = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


def read_newick(text: str):
    """Splits and leaf lengths of a Newick string with numeric labels 1..n.

    An independent reader for checking bhvkit's canonical output: it
    returns ({canonical mask: length}, {leaf: length}, n) and raises
    ValueError on anything else, including non-finite or missing internal
    lengths.
    """
    splits: list[tuple[int, float]] = []
    leaf_lengths: dict[int, float] = {}
    pos = 0

    def number(token: str) -> float:
        if not _FINITE.fullmatch(token):
            raise ValueError(f"bad branch length {token!r}")
        return float(token)

    def next_token() -> str:
        nonlocal pos
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"unreadable Newick at {pos}")
        pos = m.end()
        return m.group(1)

    def subtree(token: str) -> int:
        if token != "(":
            label, _, length = token.partition(":")
            leaf = int(label)
            if leaf in leaf_lengths or leaf < 1:
                raise ValueError(f"bad or repeated leaf {label}")
            leaf_lengths[leaf] = number(length) if length else None
            return 1 << (leaf - 1)
        mask = 0
        while True:
            mask |= subtree(next_token())
            sep = next_token()
            if sep == ")":
                break
            if sep != ",":
                raise ValueError(f"expected ',' or ')' at {pos}")
        token = next_token()
        if not token.startswith(":"):
            raise ValueError(f"internal edge without a length at {pos}")
        splits.append((mask, number(token[1:])))
        return mask

    if next_token() != "(":
        raise ValueError("tree must start with '('")
    root = 0
    while True:
        root |= subtree(next_token())
        sep = next_token()
        if sep == ")":
            break
        if sep != ",":
            raise ValueError(f"expected ',' or ')' at {pos}")
    if next_token() != ";" or text[pos:].strip():
        raise ValueError("expected ';' at the end")
    n = len(leaf_lengths)
    if root != (1 << n) - 1:
        raise ValueError("leaf labels are not exactly 1..n")
    found = {canonical(mask, n): w for mask, w in splits}
    if len(found) != len(splits):
        raise ValueError("repeated split")
    return found, {k: w for k, w in leaf_lengths.items() if w is not None}, n


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeCase:
    """One trees operation: a tree, its partner and every expected answer."""

    n: int
    style: str
    newick: str
    partner: str
    label_map: dict | None
    sides: list            # leaf lists of every internal clade, zero-length ones too
    splits: dict           # canonical mask -> length, positive edges only
    leaf_lengths: dict     # leaf index -> length
    degrees: list
    s_f: int
    volume: float
    lower: float
    upper: float
    partner_splits: dict
    norm: float
    partner_norm: float
    same_orthant: bool
    distance: float


def _names(rng: random.Random, n: int, style: str) -> tuple[dict[int, str], dict | None]:
    """Leaf names by index, plus the label map parse_newick needs, if any.

    'names' are sorted so that bhvkit's lexicographic assignment gives
    leaf i the i-th name; 'mixed' mixes numbers and words and so needs a map.
    """
    if style == "numeric":
        return {i: str(i) for i in range(1, n + 1)}, None
    taken: set[str] = set()
    words = []
    while len(words) < n:
        if style == "mixed" and rng.random() < 0.5:
            word = str(rng.randrange(100, 10_000))
        else:
            word = "sp" + "".join(rng.choice(ascii_lowercase) for _ in range(5))
        if word not in taken:
            taken.add(word)
            words.append(word)
    if style == "names":
        words.sort()
        return {i: w for i, w in enumerate(words, start=1)}, None
    names = {i: w for i, w in enumerate(words, start=1)}
    return names, {w: i for i, w in names.items()}


def _edge_lengths(rng: random.Random, clades) -> dict[int, float]:
    return {
        c: 0.0 if rng.random() < ZERO_EDGE_SHARE else rng.randint(100, 999) / 1000
        for c in clades
    }


def _tree_case(rng: random.Random, n: int, style: str, share: bool) -> TreeCase:
    names, label_map = _names(rng, n, style)
    root_children, children = random_clades(rng, n)
    lengths = _edge_lengths(rng, children)
    leaf_lengths = {i: rng.randint(1, 999) / 1000 for i in range(1, n + 1)}
    newick = write_newick(root_children, children, lengths, leaf_lengths, names, rng)
    positive = {c for c, w in lengths.items() if w}
    splits = {canonical(c, n): w for c, w in lengths.items() if w}

    # The partner shares the closed orthant when it is a face of the same
    # binary tree; otherwise it is redrawn until some split pair conflicts.
    while True:
        p_root, p_children = (root_children, children) if share else random_clades(rng, n)
        p_lengths = _edge_lengths(rng, p_children)
        partner_splits = {canonical(c, n): w for c, w in p_lengths.items() if w}
        union = sorted(set(splits) | set(partner_splits))
        fits = all(compatible(a, b, n) for i, a in enumerate(union) for b in union[i + 1 :])
        if fits == share:
            break
    p_leaf = {i: rng.randint(1, 999) / 1000 for i in range(1, n + 1)}
    partner = write_newick(p_root, p_children, p_lengths, p_leaf, names, rng)

    norm = math.sqrt(sum(w * w for w in splits.values()))
    partner_norm = math.sqrt(sum(w * w for w in partner_splits.values()))
    distance = norm + partner_norm
    if share:
        same = math.sqrt(
            sum((splits.get(m, 0.0) - partner_splits.get(m, 0.0)) ** 2 for m in union)
        )
        distance = min(same, distance)

    degrees = degree_sequence(root_children, children, positive)
    p = len(splits)
    s_f = orthant_count(degrees)
    a = euclidean_ball(n - 3, EPS)
    upper = double_factorial(2 * n - 2 * p - 5) * 2**p / 2 ** (n - 3) * a
    return TreeCase(
        n=n,
        style=style,
        newick=newick,
        partner=partner,
        label_map=label_map,
        sides=[leaves(c) for c in children],
        splits=splits,
        leaf_lengths=leaf_lengths,
        degrees=list(degrees),
        s_f=s_f,
        volume=s_f / 2 ** (n - 3 - p) * a,
        lower=a,
        upper=upper,
        partner_splits=partner_splits,
        norm=norm,
        partner_norm=partner_norm,
        same_orthant=share,
        distance=distance,
    )


def trees_inputs(rng: random.Random) -> dict:
    sizes = [n for n in TREE_SIZES for _ in range(TREES_PER_SIZE)]
    rng.shuffle(sizes)
    cases = [
        _tree_case(rng, n, LABEL_STYLES[i % len(LABEL_STYLES)], share=i % 2 == 0)
        for i, n in enumerate(sizes)
    ]
    return {"cases": cases}


def census_inputs(rng: random.Random) -> dict:
    """Per n: the full census size, then faces drawn as proper subsets of
    the splits of random binary trees, each with its expected count."""
    faces = {}
    for n, count in CENSUS_FACES.items():
        faces[n] = []
        for _ in range(count):
            root_children, children = random_clades(rng, n)
            clades = list(children)
            chosen = rng.sample(clades, rng.randrange(len(clades)))
            faces[n].append(
                {
                    "sides": [leaves(c) for c in chosen],
                    "masks": sorted(canonical(c, n) for c in chosen),
                    "count": orthant_count(degree_sequence(root_children, children, set(chosen))),
                }
            )
    return {
        "census": {n: double_factorial(2 * n - 5) for n in CENSUS_FACES},
        "faces": faces,
    }


def link_vertices(n: int) -> list[int]:
    """Every canonical split mask on n leaves, ascending."""
    return [m for m in range(1, 1 << n) if 2 <= m.bit_count() <= n - 2 and canonical(m, n) == m]


def degree_formula(n: int, k: int) -> int:
    return 2**k + 2 ** (n - k) - n - 4


def link_inputs(rng: random.Random) -> dict:
    """Per n: vertex set, edge count from the degree formula, seeded
    spot-checks of adjacency and degree by direct compatibility tests,
    the leaf stars of each layer small enough for the exact search, and
    seeded leaf relabelings for the realization check."""
    graphs = {}
    for n in LINK_SIZES:
        verts = link_vertices(n)
        edges = sum(degree_formula(n, v.bit_count()) for v in verts) // 2
        sampled = rng.sample(verts, min(SAMPLED_VERTICES, len(verts)))
        pairs = [tuple(rng.sample(verts, 2)) for _ in range(SAMPLED_PAIRS)]
        graphs[n] = {
            "vertices": verts,
            "edges": edges,
            "degrees": [
                (v, sum(compatible(v, u, n) for u in verts if u != v)) for v in sampled
            ],
            "pairs": [(a, b, compatible(a, b, n)) for a, b in pairs],
        }
    stars = {}
    for n in LINK_SIZES:
        for k in range(2, (n + 1) // 2):
            if math.comb(n, k) <= MIS_VERTEX_CAP:
                layer = [v for v in graphs[n]["vertices"] if v.bit_count() == k]
                stars[(n, k)] = sorted(
                    sorted(v for v in layer if v >> (leaf - 1) & 1) for leaf in range(1, n + 1)
                )
    relabelings = {}
    for n in AUT_SIZES:
        perms = []
        for _ in range(SAMPLED_RELABELINGS):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perms.append(images)
        relabelings[n] = perms
    return {
        "graphs": graphs,
        "stars": stars,
        "aut_orders": {n: math.factorial(n) for n in AUT_SIZES},
        "relabelings": relabelings,
    }


def generate(workload: str, seed: int) -> dict:
    rng = random.Random(f"bhvkit-bench:{workload}:{seed}")
    return {"trees": trees_inputs, "census": census_inputs, "link": link_inputs}[workload](rng)


def op_count(workload: str, inputs: dict) -> int:
    """Operations in one round of the workload's fixed list."""
    if workload == "trees":
        return len(inputs["cases"])
    if workload == "census":
        return len(inputs["census"]) + sum(len(f) for f in inputs["faces"].values())
    return 2 * len(inputs["graphs"]) + len(inputs["stars"]) + 2 * len(inputs["aut_orders"])


def _plain(obj):
    if isinstance(obj, TreeCase):
        return _plain(asdict(obj))
    if isinstance(obj, dict):
        return [[_plain(k), _plain(v)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def digest(inputs: dict) -> str:
    """sha256 of the inputs in a fixed serialization; equal seeds give equal digests."""
    blob = json.dumps(_plain(inputs), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def sizes(workload: str, inputs: dict) -> dict:
    """Input sizes recorded with each run."""
    if workload == "trees":
        cases = inputs["cases"]
        return {
            "trees": len(cases),
            "n": [min(c.n for c in cases), max(c.n for c in cases)],
            "newick_bytes": sum(len(c.newick) + len(c.partner) for c in cases),
            "zero_edge_share": ZERO_EDGE_SHARE,
        }
    if workload == "census":
        return {
            "census_n": sorted(inputs["census"]),
            "faces": {str(n): len(f) for n, f in inputs["faces"].items()},
        }
    return {
        "link_n": [min(inputs["graphs"]), max(inputs["graphs"])],
        "aut_n": sorted(inputs["aut_orders"]),
        "mis_layers": [list(nk) for nk in inputs["stars"]],
    }


if __name__ == "__main__":
    import sys

    # python inputs.py WORKLOAD SEED: print the digest of that seed's inputs
    print(digest(generate(sys.argv[1], int(sys.argv[2]))))
