import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhvkit import (
    EpsilonTooLarge,
    LeafCountMismatch,
    NonpositiveRadius,
    POutOfRange,
    Permutation,
    Topology,
    TreePoint,
    are_compatible,
    ball_volume,
    ball_volume_bounds,
    cone_point,
    distance_upper_bound,
    euclidean_ball_volume,
    is_binary,
    is_cone_point,
    make_split,
    make_topology,
    same_orthant_distance,
)
from helpers import all_faces, random_face


def point(n, sides_lengths, leaf_lengths=None):
    lengths = {make_split(side, n): w for side, w in sides_lengths}
    return TreePoint(make_topology(lengths.keys(), n), lengths, leaf_lengths)


def unit_point(t):
    return TreePoint(t, {s: 1.0 for s in t.splits})


def test_ball_volume_dimension_one():
    assert euclidean_ball_volume(1, 0.5) == pytest.approx(1.0, rel=1e-14)


def test_ball_volume_dimension_two():
    assert euclidean_ball_volume(2, 1.0) == pytest.approx(math.pi, rel=1e-14)


def test_ball_volume_dimension_three():
    assert euclidean_ball_volume(3, 1.0) == pytest.approx(4 * math.pi / 3, rel=1e-14)


def test_ball_volume_dimension_zero_is_one():
    assert euclidean_ball_volume(0, 0.25) == 1.0


def test_ball_volume_rejects_negative_dimension():
    with pytest.raises(ValueError, match="dimension must be >= 0, got -1"):
        euclidean_ball_volume(-1, 0.1)


def test_ball_volume_past_numerator_overflow():
    # pi^30.5 * (1e5)^61 overflows a float; the volume, about 1e287, does not
    a = euclidean_ball_volume(61, 1e5)
    expected = math.exp(30.5 * math.log(math.pi) + 61 * math.log(1e5) - math.lgamma(31.5))
    assert a == pytest.approx(expected, rel=1e-12)
    assert 1e286 < a < 1e288
    with pytest.raises(ValueError, match="not a finite float"):
        euclidean_ball_volume(61, 1e6)


def test_ball_volume_is_the_direct_formula_where_it_is_finite():
    for m in range(0, 62):
        for eps in (1e-5, 0.1, 0.5, 1.0, 3.7, 1e3, 1e4):
            direct = math.pi ** (m / 2) * eps**m / math.gamma(m / 2 + 1)
            assert euclidean_ball_volume(m, eps) == direct


def test_ball_volume_rejects_nonpositive_radius():
    with pytest.raises(NonpositiveRadius):
        euclidean_ball_volume(3, 0.0)
    with pytest.raises(NonpositiveRadius):
        euclidean_ball_volume(3, -1.0)


def test_tree_point_requires_exact_split_keys():
    t = make_topology({make_split({1, 2}, 6)}, 6)
    with pytest.raises(ValueError):
        TreePoint(t, {})
    with pytest.raises(ValueError):
        TreePoint(t, {make_split({1, 2}, 6): 0.5, make_split({5, 6}, 6): 0.5})


def test_tree_point_requires_positive_lengths():
    t = make_topology({make_split({1, 2}, 6)}, 6)
    with pytest.raises(ValueError):
        TreePoint(t, {make_split({1, 2}, 6): 0.0})


@pytest.mark.parametrize("w", [math.inf, math.nan])
def test_tree_point_rejects_non_finite_lengths(w):
    t = make_topology({make_split({1, 2}, 6)}, 6)
    with pytest.raises(ValueError):
        TreePoint(t, {make_split({1, 2}, 6): w})


@pytest.mark.parametrize("w", [-1.0, -1e-300, math.inf, -math.inf, math.nan])
def test_tree_point_rejects_negative_or_non_finite_leaf_lengths(w):
    with pytest.raises(ValueError):
        TreePoint(make_topology((), 5), {}, {1: w})


@pytest.mark.parametrize("leaf", [0, 6])
def test_tree_point_rejects_leaf_lengths_off_the_leaf_set(leaf):
    with pytest.raises(ValueError, match=f"leaf {leaf} not in 1..5"):
        TreePoint(make_topology((), 5), {}, {leaf: 1.0})


def test_tree_point_accepts_zero_leaf_length():
    assert TreePoint(make_topology((), 5), {}, {1: 0.0}).leaf_lengths == {1: 0.0}


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_volumes_require_finite_radius(eps):
    with pytest.raises(NonpositiveRadius):
        euclidean_ball_volume(3, eps)
    with pytest.raises(NonpositiveRadius):
        ball_volume(cone_point(6), eps)
    with pytest.raises(NonpositiveRadius):
        ball_volume_bounds(6, 0, eps)


def test_binary_point_volume_hits_lower_bound():
    x = point(6, [(( 1, 2), 0.4), ((1, 2, 3), 0.5), ((5, 6), 0.3)])
    vol = ball_volume(x, 0.1)
    assert vol.coefficient == 1
    assert vol.value == euclidean_ball_volume(3, 0.1)


def test_cone_point_volume_coefficient():
    vol = ball_volume(cone_point(6), 5.0)  # any radius is fine at the cone point
    assert vol.coefficient == Fraction(105, 8)
    assert vol.s_f == 105
    assert vol.value == float(Fraction(105, 8)) * euclidean_ball_volume(3, 5.0)


def test_single_split_volume_coefficient():
    x = point(6, [((1, 2), 0.5)])
    vol = ball_volume(x, 0.1)
    assert vol.coefficient == Fraction(15, 4)


def test_epsilon_must_be_below_min_edge():
    x = point(6, [((1, 2), 0.25), ((1, 2, 3), 0.3), ((5, 6), 0.45)])
    with pytest.raises(EpsilonTooLarge) as exc:
        ball_volume(x, 0.25)
    assert exc.value.min_edge == 0.25
    with pytest.raises(EpsilonTooLarge):
        ball_volume(x, 0.3)
    ball_volume(x, 0.2499)  # strictly below passes


def test_volume_bounds_examples():
    eps = 0.7
    a3 = euclidean_ball_volume(3, eps)
    lower, upper = ball_volume_bounds(6, 0, eps)
    assert lower == a3
    assert upper == float(Fraction(105, 8)) * a3
    lower, upper = ball_volume_bounds(6, 1, eps)
    assert upper == float(Fraction(15, 4)) * a3
    lower, upper = ball_volume_bounds(6, 3, eps)
    assert lower == upper == a3


def test_volume_bounds_p_range():
    with pytest.raises(POutOfRange):
        ball_volume_bounds(6, 4, 0.1)
    with pytest.raises(POutOfRange):
        ball_volume_bounds(6, -1, 0.1)


def test_volume_between_bounds_with_binary_equality():
    eps = 0.01
    for n in (5, 6):
        for t in all_faces(n):
            x = unit_point(t)
            vol = ball_volume(x, eps)
            lower, upper = ball_volume_bounds(n, t.p, eps)
            assert lower <= vol.value * (1 + 1e-12)
            assert vol.value <= upper * (1 + 1e-12)
            assert (vol.coefficient == 1) == is_binary(t)


def test_cone_point_volume_dominates():
    eps = 0.01
    for n in (5, 6, 7):
        cone_coeff = ball_volume(cone_point(n), eps).coefficient
        for t in all_faces(n):
            if t.p == 0:
                continue
            assert ball_volume(unit_point(t), eps).coefficient < cone_coeff


def test_volume_invariant_under_relabeling():
    rng = random.Random(505)
    faces = all_faces(6)
    for _ in range(200):
        t = rng.choice(faces)
        lengths = {s: rng.uniform(0.2, 1.0) for s in t.splits}
        x = TreePoint(t, lengths)
        eps = 0.1
        images = list(range(1, 7))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        v1, v2 = ball_volume(x, eps), ball_volume(x.permute(sigma), eps)
        assert v1.value == v2.value
        assert v1.coefficient == v2.coefficient


def test_permute_moves_splits_and_leaf_lengths():
    x = point(6, [((1, 2), 0.25), ((1, 2, 3), 0.5)], leaf_lengths={1: 1.5, 4: 0.5})
    y = x.permute(Permutation.from_cycles(6, (1, 4, 6)))
    assert y == point(6, [((2, 4), 0.25), ((2, 3, 4), 0.5)], leaf_lengths={4: 1.5, 6: 0.5})


@pytest.mark.parametrize("other", [5, 7])
def test_permute_rejects_another_leaf_count(other):
    sigma = Permutation.identity(other)
    for x in (
        cone_point(6),
        TreePoint(make_topology((), 6), {}, {1: 0.5, 6: 1.0}),
        point(6, [((1, 2), 0.25)]),
    ):
        with pytest.raises(LeafCountMismatch):
            x.permute(sigma)


def test_permute_equals_validated_rebuild():
    rnd = random.Random(1101)
    for _ in range(50):
        n = rnd.randint(4, 40)
        t = random_face(rnd, n)
        x = TreePoint(t, {s: rnd.uniform(0.1, 2.0) for s in t.splits})
        images = list(range(1, n + 1))
        rnd.shuffle(images)
        y = x.permute(Permutation(tuple(images)))
        checked = TreePoint(make_topology(y.lengths, n), y.lengths)
        assert y == checked
        assert hash(y) == hash(checked)


def test_volume_scales_with_radius_power():
    x = point(6, [((1, 2), 1.0)])
    for c in (0.5, 2.0, 3.7):
        base = ball_volume(x, 0.05)
        scaled = ball_volume(x, c * 0.05)
        assert scaled.value == pytest.approx(c**3 * base.value, rel=1e-12)


def test_tree_point_is_immutable():
    x = point(6, [((1, 2), 1.0), ((4, 5), 2.0)], {1: 0.5})
    with pytest.raises(AttributeError):
        x.lengths.clear()
    with pytest.raises(TypeError):
        x.lengths[make_split({1, 2}, 6)] = 3.0
    with pytest.raises(TypeError):
        x.leaf_lengths[2] = 1.0
    with pytest.raises(AttributeError):
        x.lengths = {}


def test_tree_point_copies_the_mappings_it_is_given():
    lengths = {make_split({1, 2}, 6): 1.0}
    leaf = {3: 0.5}
    x = TreePoint(make_topology(lengths.keys(), 6), lengths, leaf)
    lengths.clear()
    leaf[4] = 1.0
    assert x.lengths == {make_split({1, 2}, 6): 1.0}
    assert x.leaf_lengths == {3: 0.5}


def test_tree_point_hash_agrees_with_equality():
    a = point(6, [((1, 2), 1.0), ((4, 5), 2.0)], {1: 0.5, 6: 0.0})
    b = point(6, [((4, 5), 2.0), ((1, 2), 1.0)], {6: -0.0, 1: 0.5})
    assert a == b and hash(a) == hash(b)
    assert len({a, b, point(6, [((1, 2), 1.0), ((4, 5), 2.0)])}) == 2
    assert a.lengths == {make_split({1, 2}, 6): 1.0, make_split({4, 5}, 6): 2.0}
    assert a.leaf_lengths == {1: 0.5, 6: 0.0}
    assert a != point(6, [((1, 2), 1.0), ((4, 5), 2.5)], {1: 0.5, 6: 0.0})


def test_same_orthant_distance_identity():
    x = point(6, [((1, 2), 0.3)])
    assert same_orthant_distance(x, x) == 0.0


def test_same_orthant_distance_one_coordinate():
    a = point(6, [((1, 6), 0.3), ((2, 3), 0.25), ((4, 5), 0.45)])
    b = point(6, [((1, 6), 0.3), ((2, 3), 0.25), ((4, 5), 0.95)])
    assert same_orthant_distance(a, b) == pytest.approx(0.5, rel=1e-12)


def test_cone_point_shares_every_orthant():
    b = point(6, [((1, 2), 0.6), ((3, 4), 0.8)])
    assert same_orthant_distance(cone_point(6), b) == pytest.approx(b.norm, rel=1e-15)
    assert distance_upper_bound(cone_point(6), b) == pytest.approx(b.norm, rel=1e-15)


def test_incomparable_points_fall_back_to_cone_path():
    a = point(6, [((1, 2), 0.6), ((3, 4), 0.8)])
    b = point(6, [((1, 3), 0.6), ((2, 4), 0.8)])
    assert same_orthant_distance(a, b) is None
    assert distance_upper_bound(a, b) == pytest.approx(2.0, rel=1e-12)


def test_distance_requires_same_leaf_count():
    with pytest.raises(LeafCountMismatch):
        same_orthant_distance(cone_point(5), cone_point(6))


def test_distance_axioms_sampled():
    rng = random.Random(606)
    faces = all_faces(6)

    def sample():
        t = rng.choice(faces)
        return TreePoint(t, {s: rng.uniform(0.1, 1.0) for s in t.splits})

    points = [sample() for _ in range(30)]
    for a in points:
        assert distance_upper_bound(a, a) == 0.0
    for a in points[:10]:
        for b in points[:10]:
            dab = distance_upper_bound(a, b)
            assert dab >= 0.0
            assert dab == pytest.approx(distance_upper_bound(b, a), rel=1e-12)
    # triangle inequality holds for the cone-path component alone
    for a, b, c in zip(points[:10], points[10:20], points[20:30]):
        assert a.norm + c.norm <= (a.norm + b.norm) + (b.norm + c.norm) + 1e-15


def test_distance_upper_bound_permutation_invariant():
    rng = random.Random(707)
    faces = all_faces(6)
    for _ in range(100):
        ta, tb = rng.choice(faces), rng.choice(faces)
        a = TreePoint(ta, {s: rng.uniform(0.1, 1.0) for s in ta.splits})
        b = TreePoint(tb, {s: rng.uniform(0.1, 1.0) for s in tb.splits})
        images = list(range(1, 7))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        d1 = distance_upper_bound(a, b)
        d2 = distance_upper_bound(a.permute(sigma), b.permute(sigma))
        assert math.isclose(d1, d2, rel_tol=1e-12, abs_tol=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 64), st.randoms(use_true_random=False))
def test_distances_sum_in_canonical_split_order(n, rnd):
    # sums of squares taken in Split.__lt__ order, as both norms and the
    # same-orthant distance always have been: equal to the last bit
    def euclid(coordinates):
        return math.sqrt(sum(c**2 for c in coordinates))

    a = random_face(rnd, n)
    if rnd.random() < 0.5:
        b = random_face(rnd, n)
    else:  # a face of a: one orthant holds both points
        b = Topology(n, frozenset(rnd.sample(sorted(a.splits), len(a.splits) // 2)))
    xa = TreePoint(a, {s: rnd.uniform(1e-3, 1e3) for s in a.splits})
    xb = TreePoint(b, {s: rnd.uniform(1e-3, 1e3) for s in b.splits})
    norms = [euclid([x.lengths[s] for s in sorted(x.lengths)]) for x in (xa, xb)]
    assert [xa.norm, xb.norm] == norms
    union = sorted(a.splits | b.splits)
    same = euclid([xa.lengths.get(s, 0.0) - xb.lengths.get(s, 0.0) for s in union])
    if any(not are_compatible(s, u) for s in union for u in union):
        same = None
    assert same_orthant_distance(xa, xb) == same
    cone = norms[0] + norms[1]
    assert distance_upper_bound(xa, xb) == (cone if same is None else min(same, cone))


def test_cone_path_overflow_leaves_the_same_orthant_bound():
    big = 8.98846567431158e307  # two such norms sum past the float range
    x = TreePoint(make_topology([make_split({1, 2}, 6)], 6), {make_split({1, 2}, 6): big})
    y = TreePoint(make_topology([make_split({1, 3}, 6)], 6), {make_split({1, 3}, 6): big})
    assert same_orthant_distance(x, x) == distance_upper_bound(x, x) == 0.0
    assert same_orthant_distance(x, y) is None
    with pytest.raises(ValueError, match="^cone path is not a finite float$"):
        distance_upper_bound(x, y)


def test_is_cone_point():
    assert is_cone_point(cone_point(5))
    assert not is_cone_point(point(6, [((1, 2), 0.1)]))


def test_tree_point_json_round_trip():
    x = point(6, [((1, 2), 0.25), ((5, 6), 0.5)], leaf_lengths={1: 1.5, 4: 0.5})
    again = TreePoint.from_json(x.to_json())
    assert again.topology == x.topology
    assert again.lengths == x.lengths
    assert again.leaf_lengths == x.leaf_lengths
    assert x.to_json() == {
        "n": 6,
        "edges": [
            {"side": [1, 2], "length": 0.25},
            {"side": [5, 6], "length": 0.5},
        ],
        "leaf_lengths": {"1": 1.5, "4": 0.5},
    }


def test_empty_leaf_map_is_none():
    x = TreePoint(make_topology((), 5), {}, {})
    assert x.leaf_lengths is None
    again = TreePoint.from_json(x.to_json())
    assert again == x and hash(again) == hash(x)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"n": 5}, "JSON tree lacks field 'edges'"),
        ({"n": 5, "edges": [{"side": [1, 2]}]}, "JSON tree lacks field 'length'"),
        ({"n": 5, "edges": [5]}, "JSON tree has a mistyped field: "),
        ({"n": 5, "edges": None}, "JSON tree has a mistyped field: "),
        ({"n": 5, "edges": [], "leaf_lengths": [1]}, "JSON tree has a mistyped field: "),
        ([], "JSON tree has a mistyped field: "),
    ],
)
def test_from_json_rejects_a_missing_or_mistyped_field(obj, message):
    with pytest.raises(ValueError) as info:
        TreePoint.from_json(obj)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("second", [[1, 2], [2, 1], [3, 4, 5, 6]])
def test_from_json_rejects_a_split_given_twice(second):
    edges = [{"side": [1, 2], "length": 1}, {"side": second, "length": 2}]
    with pytest.raises(ValueError, match="given twice"):
        TreePoint.from_json({"n": 6, "edges": edges})


@pytest.mark.parametrize("flag", [True, False])
def test_tree_point_rejects_a_bool_length(flag):
    t, s = make_topology([make_split((1, 2), 5)], 5), make_split((1, 2), 5)
    with pytest.raises(ValueError, match="bool length"):
        TreePoint(t, {s: flag})
    with pytest.raises(ValueError, match="bool length"):
        TreePoint(t, {s: 1.0}, {3: flag})
    x = TreePoint(t, {s: 1}, {3: 0})  # ints are lengths, and to_json's inverse takes them back
    assert TreePoint.from_json(x.to_json()) == x


@pytest.mark.parametrize("leaf", [True, 1.0, "1"])
def test_tree_point_rejects_a_leaf_that_is_not_an_int(leaf):
    t, s = make_topology([make_split((1, 2), 5)], 5), make_split((1, 2), 5)
    with pytest.raises(ValueError, match="not in 1..5"):
        TreePoint(t, {s: 1.0}, {leaf: 1.0})


_FINITE = {"allow_nan": False, "allow_infinity": False}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tree_point_json_round_trip_property(data):
    n = data.draw(st.integers(4, 9))
    t = random_face(data.draw(st.randoms(use_true_random=False)), n)
    positive = st.floats(min_value=0, exclude_min=True, **_FINITE)
    lengths = {s: data.draw(positive) for s in t.sorted_splits}
    leaf = data.draw(st.none() | st.dictionaries(st.integers(1, n), st.floats(min_value=0, **_FINITE)))
    x = TreePoint(t, lengths, leaf)
    again = TreePoint.from_json(json.loads(json.dumps(x.to_json())))
    assert again == x
    assert hash(again) == hash(x)
