"""End-to-end acceptance checks.

Each test prints one pass/fail line (visible with pytest -s) and pins the
tolerances stated in the interface contract: integer claims are exact,
rational volume coefficients are compared exactly, float comparisons use
relative tolerance 1e-12, and the heavyweight searches carry wall-clock
budgets.
"""

import math
import random
import time

from bhvkit import (
    Permutation,
    Topology,
    TreePoint,
    all_permutations,
    ball_volume,
    ball_volume_bounds,
    brute_force_automorphisms,
    build_link_graph,
    certify_aut,
    count_refining_orthants,
    degree_formula,
    degree_sequence,
    distance_upper_bound,
    ekr_independent_sets,
    enumerate_binary_refinements,
    enumerate_binary_topologies,
    euclidean_ball_volume,
    is_binary,
    is_cone_point,
    kneser_subgraph,
    make_split,
    maximum_independent_sets,
    parse_newick,
    permutation_to_automorphism,
    to_newick,
)
from bhvkit.cli import main as cli_main
from helpers import all_faces, cone_point, is_vertex_automorphism

FIG_TREE = "((1:1,6:1):0.25,((2:1,3:1):0.3,(4:1,5:1):0.45));"
REL_TOL = 1e-12


def report(num, desc, ok):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def sampled_faces_n7(count=100, seed=7202):
    rng = random.Random(seed)
    binaries = list(enumerate_binary_topologies(7))
    faces = []
    for _ in range(count):
        b = rng.choice(binaries)
        k = rng.randint(0, 4)
        faces.append(Topology(7, frozenset(rng.sample(sorted(b.splits), k))))
    return faces


def criterion_4_faces():
    return list(all_faces(5)) + list(all_faces(6)) + sampled_faces_n7()


def test_criterion_01_degree_formula():
    start = time.monotonic()
    ok = True
    for n in range(5, 10):
        g = build_link_graph(n)
        for i, v in enumerate(g.vertices):
            ok = ok and g.degree(i) == degree_formula(n, v.size)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report(1, f"vertex degrees match 2^k + 2^(n-k) - n - 4 for n=5..9 ({elapsed:.2f}s)", ok)


def test_criterion_02_orthant_census():
    start = time.monotonic()
    expected = {4: 3, 5: 15, 6: 105, 7: 945, 8: 10395}
    ok = True
    for n, count in expected.items():
        tops = list(enumerate_binary_topologies(n))
        ok = ok and len(tops) == count and len(set(tops)) == count
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(2, f"binary topology census is (2n-5)!! for n=4..8 ({elapsed:.2f}s)", ok)


def test_criterion_03_automorphism_group():
    start = time.monotonic()
    ok = True
    for n in range(5, 12):
        g = build_link_graph(n)
        group = brute_force_automorphisms(g)
        ok = ok and certify_aut(g) is not None and group.order == math.factorial(n)
        ok = ok and all(is_vertex_automorphism(g, gen) for gen in group.generators)
        if n <= 6:
            preimages = {}
            for sigma in all_permutations(n):
                vp = permutation_to_automorphism(sigma, g)
                ok = ok and vp not in preimages
                preimages[vp] = sigma
            ok = ok and set(group.elements) == set(preimages)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(
        3,
        "lemma chain certifies Aut = S_n and the search finds order n!, n=5..11; "
        f"equal to the n! relabelings, n=5,6 ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_04_orthant_count_oracle():
    start = time.monotonic()
    ok = True
    for t in criterion_4_faces():
        ok = ok and count_refining_orthants(t) == len(enumerate_binary_refinements(t))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    report(4, f"prod (2d-5)!! equals exhaustive refinement count on every checked face ({elapsed:.2f}s)", ok)


def test_criterion_05_degree_sum_identity():
    ok = True
    for t in criterion_4_faces():
        degrees = degree_sequence(t)
        ok = ok and sum(d - 3 for d in degrees) == t.n - t.p - 3
    report(5, "degree sums satisfy sum(d_i - 3) = n - p - 3 on every checked face", ok)


def test_criterion_06_ball_volume_bounds():
    eps = 0.01
    ok = True
    for n in (5, 6):
        for t in all_faces(n):
            x = TreePoint(t, {s: 1.0 for s in t.splits})
            mu = ball_volume(x, eps)
            lower, upper = ball_volume_bounds(n, t.p, eps)
            ok = ok and lower <= mu.value * (1 + REL_TOL)
            ok = ok and mu.value <= upper * (1 + REL_TOL)
            at_lower = abs(mu.value - lower) <= REL_TOL * lower
            ok = ok and at_lower == is_binary(t)
    report(6, "volumes sit within the closed-form bounds; lower bound hit exactly by binary points", ok)


def test_criterion_07_cone_point_dominance():
    ok = True
    for n in (5, 6, 7):
        cone_coeff = ball_volume(cone_point(n), 0.01).coefficient
        for t in all_faces(n):
            if t.p == 0:
                continue
            x = TreePoint(t, {s: 1.0 for s in t.splits})
            ok = ok and ball_volume(x, 0.01).coefficient < cone_coeff
    report(7, "cone-point ball volume strictly dominates (exact rational coefficients), n=5..7", ok)


def test_criterion_08_relabeling_invariance():
    rng = random.Random(1861)
    ok = True
    for n in (5, 6, 7):
        faces = all_faces(n) if n < 7 else sampled_faces_n7(400, seed=41)

        def sample_point():
            t = rng.choice(faces)
            return TreePoint(t, {s: rng.uniform(0.1, 1.0) for s in t.splits})

        def sample_sigma():
            images = list(range(1, n + 1))
            rng.shuffle(images)
            return Permutation(tuple(images))

        for _ in range(334):
            x = sample_point()
            sigma = sample_sigma()
            eps = rng.uniform(0.05, 0.95) * (x.min_edge if x.p else 1.0)
            v1, v2 = ball_volume(x, eps), ball_volume(x.permute(sigma), eps)
            ok = ok and v1.value == v2.value and v1.coefficient == v2.coefficient
            a, b = sample_point(), sample_point()
            d1 = distance_upper_bound(a, b)
            d2 = distance_upper_bound(a.permute(sigma), b.permute(sigma))
            ok = ok and math.isclose(d1, d2, rel_tol=REL_TOL, abs_tol=1e-15)
    report(8, "ball volume bit-exact and distance bound 1e-12-stable under 1000 seeded relabelings", ok)


def test_criterion_09_ekr_maximum_independent_sets():
    start = time.monotonic()
    ok = True
    layers = [(n, 2) for n in range(5, 11)] + [(n, 3) for n in range(7, 10)]
    for n, k in layers:
        g = build_link_graph(n)
        found = maximum_independent_sets(kneser_subgraph(g, k))
        ok = ok and len(found) == n
        ok = ok and all(len(s) == math.comb(n - 1, k - 1) for s in found)
        ok = ok and set(found) == set(ekr_independent_sets(g, k))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(
        9,
        "layers K(n,2), n=5..10, and K(n,3), n=7..9, have exactly the n leaf stars "
        f"as maximum independent sets ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_10_newick_round_trip():
    rng = random.Random(905)
    ok = True
    count = 0
    for t in enumerate_binary_topologies(6):
        count += 1
        x = TreePoint(t, {s: rng.uniform(0.01, 1.0) for s in t.splits})
        again = parse_newick(to_newick(x))
        ok = ok and again.topology.splits == x.topology.splits
        ok = ok and again.lengths == x.lengths
    ok = ok and count == 105
    report(10, "parse(to_newick(x)) reproduces splits and lengths for all 105 binary shapes at n=6", ok)


def test_criterion_11_figure_tree_fidelity():
    x = parse_newick(FIG_TREE)
    ok = {s.side for s in x.topology.splits} == {(1, 6), (2, 3), (4, 5)}
    ok = ok and x.lengths[make_split({1, 6}, 6)] == 0.25
    ok = ok and x.lengths[make_split({2, 3}, 6)] == 0.30
    ok = ok and x.lengths[make_split({4, 5}, 6)] == 0.45
    ok = ok and x.p == 3 and is_binary(x.topology) and not is_cone_point(x)
    ok = ok and ball_volume(x, 0.1).value == euclidean_ball_volume(3, 0.1)
    report(11, "weighted example tree parses to {1,6},{2,3},{4,5} and hits the binary volume exactly", ok)


def test_criterion_12_n4_anomaly_reported(capsys):
    code = cli_main(["aut", "4"])
    _, err = capsys.readouterr()
    ok = code == 2 and "order 6" in err and "not faithful" in err
    order = brute_force_automorphisms(build_link_graph(4)).order
    ok = ok and order == 6
    report(
        12,
        f"aut 4 refuses with the documented message; search reports order {order} "
        "(informational: 6 = 3!, not 4!, the relabeling action has a kernel at n=4)",
        ok,
    )
