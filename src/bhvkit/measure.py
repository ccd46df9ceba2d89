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
from types import MappingProxyType

from .errors import BhvError, EpsilonTooLarge
from .splits import (
    Permutation, Split, check_int, check_leaf_count, check_same_n, check_shape, check_type, make_split,
    split_key, _FrozenValue, _relabel,
)
from .topology import Topology, _clade_tree, count_refining_orthants, double_factorial


class TreePoint(_FrozenValue):
    """A topology with a positive finite length per split.

    Finite non-negative leaf-edge lengths may ride along as metadata but
    never enter coordinates, norms, or distances; an empty leaf map is
    stored as None. A length is an int or float, not a bool, and is stored
    as a float; every leaf is an int. Immutable and hashable: both length
    maps are read-only copies of the mappings passed in.
    """

    _fields = __match_args__ = ("topology", "lengths", "leaf_lengths")

    def __init__(self, topology: Topology, lengths: Mapping[Split, float] = MappingProxyType({}),
                 leaf_lengths: Mapping[int, float] | None = None):
        copy = type(lengths) in (dict, MappingProxyType)  # .copy() keeps the keys' hashes
        lengths = lengths.copy() if copy else check_shape(dict, lengths, "lengths", "a mapping")
        topology = check_type(topology, Topology, "topology")
        if frozenset(lengths) != topology.splits:  # from a dict: no Split.__hash__ calls
            raise ValueError("lengths must be keyed by exactly the topology's splits")
        lengths = MappingProxyType(_lengths(lengths, "edge {} length"))
        leaf = leaf_lengths and check_shape(dict, leaf_lengths, "leaf_lengths", "a mapping")
        for key in leaf or ():
            check_int(key, 1, topology.n, "leaf")  # to_json writes str(leaf)
        leaf = leaf and _lengths(leaf, "leaf {} length", zero_ok=True)
        self._set(topology, lengths, MappingProxyType(leaf) if leaf else None)

    def __hash__(self) -> int:
        leaf = None if self.leaf_lengths is None else frozenset(self.leaf_lengths.items())
        return hash((self.topology, frozenset(self.lengths.items()), leaf))

    def __reduce__(self):  # through plain dicts: a mappingproxy does not pickle
        leaf = self.leaf_lengths and self.leaf_lengths.copy()
        return type(self), (self.topology, self.lengths.copy(), leaf)

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
        return min(self.lengths.values(), default=None)

    def permute(self, sigma: Permutation) -> "TreePoint":
        """Relabel leaves through sigma, a permutation of the same n leaves;
        lengths follow their splits, each relabeled once."""
        check_same_n(check_type(sigma, Permutation, "sigma").n, self.n)
        lengths = {_relabel(sigma, s): w for s, w in self.lengths.items()}
        leaf = None if self.leaf_lengths is None else {sigma(i): w for i, w in self.leaf_lengths.items()}
        return TreePoint(Topology(self.n, lengths), lengths, leaf)

    def to_json(self) -> dict:
        edges = [{"side": list(s.side), "length": self.lengths[s]} for s in self.topology.sorted_splits]
        obj = {"n": self.n, "edges": edges}
        if self.leaf_lengths:
            obj["leaf_lengths"] = {str(k): v for k, v in sorted(self.leaf_lengths.items())}
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "TreePoint":
        """Inverse of to_json, raising ValueError for a missing or mistyped field,
        a bad length or a repeated split, by either side (Topology's rule).
        leaf_lengths keys must be plain decimal leaf labels."""
        try:
            n, edges = obj["n"], obj["edges"]
            ws = _lengths({i: e["length"] for i, e in enumerate(edges)}, "edges[{}].length")
            splits = [make_split(e["side"], n) for e in edges]
            leaf = obj.get("leaf_lengths")
            if leaf is not None:
                leaf = {_json_leaf(k): v for k, v in leaf.items()}
            return cls(Topology(n, splits), dict(zip(splits, ws.values())), leaf)
        except KeyError as exc:
            raise ValueError(f"JSON tree lacks field {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"JSON tree has a mistyped field: {exc}") from None


def _lengths(values: dict, label: str, zero_ok: bool = False) -> dict:
    """The one rule for a length or a radius: values, each made a float in place, where
    each is an int or float (not a bool) whose float is finite and above 0, or at least 0
    where zero_ok; else BhvError on the first that is not, named by label.format(key)."""
    least = 0.0 if zero_ok else 5e-324  # the least float accepted
    for key, w in values.items():  # a value replaced keeps the dict's size: the walk goes on
        if type(w) is not float:
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise BhvError(f"{label.format(key)} {w!r} is not an int or float")
            try:
                w = values[key] = float(w)
            except OverflowError:
                raise BhvError(f"{label.format(key)} is too large for a float") from None
        if not least <= w < math.inf:
            rule = "finite" if not math.isfinite(w) else "at least 0" if zero_ok else "above 0"
            raise BhvError(f"{label.format(key)} {w!r} is not {rule}")
    return values


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


def is_cone_point(x: TreePoint) -> bool:
    return check_type(x, TreePoint, "x").p == 0


class BallVolume(_FrozenValue):
    """Volume of a small ball, with the exact rational coefficient, a Fraction,
    that multiplies the Euclidean ball volume A_(n-3)(eps)."""

    _fields = __match_args__ = ("value", "n", "p", "s_f", "epsilon", "coefficient")

    def __init__(self, value: float, n: int, p: int, s_f: int, epsilon: float, coefficient):
        self._set(value, n, p, s_f, epsilon, coefficient)


def _fraction(numerator: int, denominator: int):
    """Fraction(numerator, denominator); the first call imports fractions and rebinds this name to it."""
    global _fraction
    from fractions import Fraction as _fraction
    return _fraction(numerator, denominator)


def euclidean_ball_volume(m: int, eps: float) -> float:
    """Volume of a radius-eps ball in R^m: pi^(m/2) eps^m / Gamma(m/2 + 1).

    Computed as written; only where that overflows, which pi^(m/2) eps^m can
    do when the volume does not, it is exp of the same formula in logs.
    """
    return _ball(check_int(m, 0, math.inf, "dimension m"), _lengths({0: eps}, "radius")[0])


def _ball(m: int, eps: float) -> float:
    """euclidean_ball_volume on a checked m and radius."""
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
    eps = _lengths({0: eps}, "radius")[0]  # before min_edge: EpsilonTooLarge wins over the volume's overflow
    min_edge = check_type(x, TreePoint, "x").min_edge
    if min_edge is not None and eps >= min_edge:
        raise EpsilonTooLarge(min_edge)
    n, p = x.n, x.p
    s_f = count_refining_orthants(x.topology)
    coefficient = _fraction(s_f, 2 ** (n - 3 - p))
    a = _ball(n - 3, eps)
    value = _finite("ball volume", lambda: float(coefficient) * a)
    return BallVolume(value, n, p, s_f, eps, coefficient)


def ball_volume_bounds(n: int, p: int, eps: float) -> tuple[float, float]:
    """Dimension-only bounds on the small-ball volume.

    Lower bound A_(n-3)(eps) is achieved exactly by binary points; the upper
    bound (2n-2p-5)!! 2^p / 2^(n-3) A_(n-3)(eps) comes from the star-heaviest
    degree sequence.
    """
    check_int(p, 0, check_leaf_count(n) - 3, "p")
    a = euclidean_ball_volume(n - 3, eps)
    upper_coeff = _fraction(double_factorial(2 * n - 2 * p - 5) * 2**p, 2 ** (n - 3))
    return a, _finite("volume upper bound", lambda: float(upper_coeff) * a)


def _same_orthant(a: TreePoint, b: TreePoint) -> tuple[float | None, list[float], list[float]]:
    """same_orthant_distance, and both points' coordinates on their splits' union, in order."""
    check_same_n(check_type(a, TreePoint, "a").n, check_type(b, TreePoint, "b").n)
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
