"""Points of tree space with positive edge lengths, small-ball volumes, and
distance bounds.

The volume of an epsilon-ball around a point depends only on how many
binary orthants contain the point's face and on the face codimension; the
coefficient s_F / 2^(n-3-p) is kept as an exact Fraction so equality and
dominance claims can be tested without float noise. A volume, bound, norm or
distance too large for a float raises ValueError.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .errors import EpsilonTooLarge, LeafCountMismatch, NonpositiveRadius, POutOfRange
from .splits import Permutation, Split, apply_permutation, check_leaf_count, make_split, split_key
from .topology import Topology, _clade_tree, count_refining_orthants, double_factorial, make_topology


@dataclass(frozen=True)
class TreePoint:
    """A topology with a positive finite length per split.

    Finite non-negative leaf-edge lengths may ride along as metadata but
    never enter coordinates, norms, or distances; an empty leaf map is
    stored as None. No length is a bool, and every leaf is an int.
    Immutable and hashable: both length maps are read-only copies of the
    mappings passed in.
    """

    topology: Topology
    lengths: Mapping[Split, float] = field(default_factory=dict)
    leaf_lengths: Mapping[int, float] | None = None

    def __post_init__(self):
        lengths = dict(self.lengths)
        object.__setattr__(self, "lengths", MappingProxyType(lengths))
        leaf_lengths = MappingProxyType(dict(self.leaf_lengths)) if self.leaf_lengths else None
        object.__setattr__(self, "leaf_lengths", leaf_lengths)
        if frozenset(lengths) != self.topology.splits:  # from a dict: no Split.__hash__ calls
            raise ValueError("lengths must be keyed by exactly the topology's splits")
        for s, w in lengths.items():
            if type(w) is bool:
                raise ValueError(f"edge {s} has bool length {w}")
            if not w > 0:
                raise ValueError(f"edge {s} has nonpositive length {w}; drop it from the topology")
            if not math.isfinite(w):
                raise ValueError(f"edge {s} has non-finite length {w}")
        n = self.topology.n
        for leaf, w in (leaf_lengths or {}).items():
            if type(leaf) is not int or not 1 <= leaf <= n:  # to_json writes str(leaf)
                raise ValueError(f"leaf {leaf!r} not in 1..{n}")
            if type(w) is bool:
                raise ValueError(f"leaf {leaf} has bool length {w}")
            if not (w >= 0 and math.isfinite(w)):
                raise ValueError(f"leaf {leaf} has negative or non-finite length {w}")

    def __hash__(self) -> int:
        leaf = None if self.leaf_lengths is None else frozenset(self.leaf_lengths.items())
        return hash((self.topology, frozenset(self.lengths.items()), leaf))

    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def p(self) -> int:
        return self.topology.p

    @property
    def norm(self) -> float:
        """Euclidean norm of the internal edge-length vector."""
        return _euclidean("norm", [self.lengths[s] for s in self.topology.sorted_splits])

    @property
    def min_edge(self) -> float | None:
        """Shortest internal edge, or None at the cone point."""
        if not self.lengths:
            return None
        return min(self.lengths.values())

    def permute(self, sigma: Permutation) -> "TreePoint":
        """Relabel leaves through sigma, a permutation of the same n leaves;
        lengths follow their splits."""
        topology = self.topology.permute(sigma)
        new_lengths = {apply_permutation(sigma, s): w for s, w in self.lengths.items()}
        new_leaf = (
            {sigma(leaf): w for leaf, w in self.leaf_lengths.items()}
            if self.leaf_lengths is not None
            else None
        )
        return TreePoint(topology, new_lengths, new_leaf)

    def to_json(self) -> dict:
        obj = {
            "n": self.n,
            "edges": [
                {"side": list(s.side), "length": self.lengths[s]}
                for s in self.topology.sorted_splits
            ],
        }
        if self.leaf_lengths:
            obj["leaf_lengths"] = {str(k): v for k, v in sorted(self.leaf_lengths.items())}
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "TreePoint":
        """Inverse of to_json, raising ValueError for a missing or mistyped field
        or a split given twice, by either side. Lengths must be JSON numbers,
        leaf_lengths keys plain decimal leaf labels."""
        try:
            n = obj["n"]
            lengths = {}
            for e in obj["edges"]:
                w = _json_number(e["length"])  # a bad length is named before a bad side
                s = make_split(e["side"], n)
                if s in lengths:  # either side of a split names it
                    raise ValueError(f"edge {s} is given twice")
                lengths[s] = w
            leaf = obj.get("leaf_lengths")
            if leaf is not None:
                leaf = {_json_leaf(k): _json_number(v) for k, v in leaf.items()}
            return cls(make_topology(lengths.keys(), n), lengths, leaf)
        except KeyError as exc:
            raise ValueError(f"JSON tree lacks field {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"JSON tree has a mistyped field: {exc}") from None


def _json_number(value) -> float:
    """A JSON number as a float; true, false and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"length {value!r} is not a JSON number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("length is too large for a float") from None


def _json_leaf(key: str) -> int:
    """The leaf named by a leaf_lengths key, which must read exactly str(leaf)."""
    if key.isascii() and key.isdigit() and str(int(key)) == key:
        return int(key)
    raise ValueError(f"leaf_lengths key {key!r} is not a leaf label")


def _finite(what: str, *computes: Callable[[], float]) -> float:
    """The value of the first of computes that gives a finite float; each is
    tried only where the ones before it overflow (to inf or by raising).
    ValueError when all of them overflow."""
    for compute in computes:
        try:
            value = compute()
        except OverflowError:
            continue
        if math.isfinite(value):
            return value
    raise ValueError(f"{what} is not a finite float")


def _euclidean(what: str, coordinates: list[float]) -> float:
    """The root of the in-order sum of squares, or math.hypot where that overflows."""
    return _finite(
        what, lambda: math.sqrt(sum(c**2 for c in coordinates)), lambda: math.hypot(*coordinates)
    )


def cone_point(n: int) -> TreePoint:
    """The star tree with no internal edges, common to every orthant."""
    return TreePoint(Topology(n), {})


def is_cone_point(x: TreePoint) -> bool:
    return x.p == 0


@dataclass(frozen=True)
class BallVolume:
    """Volume of a small ball, with the exact rational coefficient that
    multiplies the Euclidean ball volume A_(n-3)(eps)."""

    value: float
    n: int
    p: int
    s_f: int
    epsilon: float
    coefficient: Fraction


def _check_radius(eps: float):
    if not (eps > 0 and math.isfinite(eps)):
        raise NonpositiveRadius(f"radius must be positive and finite, got {eps}")


def euclidean_ball_volume(m: int, eps: float) -> float:
    """Volume of a radius-eps ball in R^m: pi^(m/2) eps^m / Gamma(m/2 + 1).

    Computed as written; only where that overflows, which pi^(m/2) eps^m can
    do when the volume does not, it is exp of the same formula in logs.
    """
    if m < 0:
        raise ValueError(f"dimension must be >= 0, got {m}")
    _check_radius(eps)
    return _finite(
        "ball volume",
        lambda: math.pi ** (m / 2) * eps**m / math.gamma(m / 2 + 1),
        lambda: math.exp(m / 2 * math.log(math.pi) + m * math.log(eps) - math.lgamma(m / 2 + 1)),
    )


def ball_volume(x: TreePoint, eps: float) -> BallVolume:
    """Exact small-ball volume: s_F / 2^(n-3-p) times A_(n-3)(eps).

    Only valid when eps is smaller than every edge of x, so the ball meets
    no lower-dimensional face; otherwise EpsilonTooLarge is raised rather
    than returning a silently wrong number.
    """
    _check_radius(eps)
    min_edge = x.min_edge
    if min_edge is not None and eps >= min_edge:
        raise EpsilonTooLarge(min_edge)
    n, p = x.n, x.p
    s_f = count_refining_orthants(x.topology)
    coefficient = Fraction(s_f, 2 ** (n - 3 - p))
    a = euclidean_ball_volume(n - 3, eps)
    value = _finite("ball volume", lambda: float(coefficient) * a)
    return BallVolume(value, n, p, s_f, eps, coefficient)


def ball_volume_bounds(n: int, p: int, eps: float) -> tuple[float, float]:
    """Dimension-only bounds on the small-ball volume.

    Lower bound A_(n-3)(eps) is achieved exactly by binary points; the upper
    bound (2n-2p-5)!! 2^p / 2^(n-3) A_(n-3)(eps) comes from the star-heaviest
    degree sequence.
    """
    check_leaf_count(n)
    if p < 0 or p > n - 3:
        raise POutOfRange(f"need 0 <= p <= n-3, got p={p} for n={n}")
    a = euclidean_ball_volume(n - 3, eps)
    upper_coeff = Fraction(double_factorial(2 * n - 2 * p - 5) * 2**p, 2 ** (n - 3))
    return a, _finite("volume upper bound", lambda: float(upper_coeff) * a)


def _same_orthant(a: TreePoint, b: TreePoint) -> tuple[float | None, list[float], list[float]]:
    """same_orthant_distance, and both points' coordinates on their splits' union, in order."""
    if a.n != b.n:
        raise LeafCountMismatch(f"points over n={a.n} and n={b.n}")
    union = sorted(a.topology.splits | b.topology.splits, key=split_key)
    xa, xb = ([x.lengths.get(s, 0.0) for s in union] for x in (a, b))
    if _clade_tree([s.clade for s in union], a.n) is None:
        return None, xa, xb
    return _euclidean("distance", [u - v for u, v in zip(xa, xb)]), xa, xb


def same_orthant_distance(a: TreePoint, b: TreePoint) -> float | None:
    """Euclidean distance when both points fit in one closed orthant.

    Returns None when the union of their splits is not pairwise compatible;
    absent splits contribute coordinate 0.
    """
    return _same_orthant(a, b)[0]


def _distances(a: TreePoint, b: TreePoint) -> tuple[float | None, float | None, float]:
    """same_orthant_distance, the cone path ||a|| + ||b|| (None where it overflows
    a float) and distance_upper_bound, the smaller of the two that exist. Each
    norm sums its point's lengths in the sorted union's order, its own one."""
    same, xa, xb = _same_orthant(a, b)
    try:
        cone = _finite("cone path", lambda: sum(_euclidean("norm", [w for w in x if w]) for x in (xa, xb)))
    except ValueError:
        if same is None:
            raise
        return same, None, same
    return same, cone, cone if same is None else min(same, cone)


def distance_upper_bound(a: TreePoint, b: TreePoint) -> float:
    """Upper bound on geodesic distance: the straight segment when the two
    points share an orthant (where it is exact), else the path through the
    cone point of length ||a|| + ||b||, unless that overflows a float."""
    return _distances(a, b)[2]
