"""One round of a workload in a fresh interpreter.

Usage: python worker.py --workload NAME --seed N --trace 0|1 [--plant-fault]

Generates the seeded inputs, imports bhvkit, runs the workload's fixed list
of operations once and prints one JSON line: per-operation latencies, the
round's wall time, failures, peak RSS, work counts and, when traced, the
spans. Each operation is timed around the bhvkit calls only; its result is
checked against the expected answer outside that time. A failed operation
is recorded and the round goes on.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from dataclasses import replace

import inputs as gen


class Mismatch(Exception):
    """A bhvkit result differs from the expected answer."""


def expect(ok: bool, what: str):
    if not ok:
        raise Mismatch(what)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-300)


class Tracer:
    """Stands in for the bhvkit module and records a span around each call.

    A span is (id, name, start_ns, end_ns, parent id, operation id). Spans
    stay in this list until the round prints them.
    """

    def __init__(self, module):
        self._module = module
        self.spans: list[list] = []
        self.op_span: int | None = None
        self.op_id: int | None = None

    def begin_op(self, name: str, op_id: int) -> int:
        self.op_span, self.op_id = len(self.spans), op_id
        self.spans.append([self.op_span, f"op.{name}", time.perf_counter_ns(), None, None, op_id])
        return self.op_span

    def end_op(self, span: int):
        self.spans[span][3] = time.perf_counter_ns()
        self.op_span = self.op_id = None

    def __getattr__(self, name: str):
        fn = getattr(self._module, name)
        span_name = fn.__module__.rsplit(".", 1)[-1] + "." + name
        spans = self.spans

        def traced(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append(
                    [len(spans), span_name, start, time.perf_counter_ns(), self.op_span, self.op_id]
                )

        setattr(self, name, traced)
        return traced


class Round:
    """Runs operations in order, timing the work and then checking it."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.latencies_ns: list[int] = []
        self.failures: list[str] = []
        self.counts: dict[str, float] = {}

    def op(self, name: str, work, check):
        op_id = len(self.latencies_ns)
        span = self.tracer.begin_op(name, op_id) if self.tracer else None
        start = time.perf_counter_ns()
        try:
            result = work()
        except Exception as exc:  # an operation that raises is a failed operation
            result, error = None, exc
        else:
            error = None
        self.latencies_ns.append(time.perf_counter_ns() - start)
        if span is not None:
            self.tracer.end_op(span)
        if error is None:
            try:
                check(result)
            except Exception as exc:  # a wrong answer, or a check that cannot read it
                error = exc
        if error is not None:
            self.failures.append(f"op {op_id} {name}: {type(error).__name__}: {error}")

    def count(self, name: str, value: float = 1):
        self.counts[name] = self.counts.get(name, 0) + value


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_trees(bk, data: dict, rnd: Round):
    """parse_newick -> make_split lookups -> degree_sequence -> ball_volume +
    ball_volume_bounds -> to_newick + re-parse -> distance_upper_bound."""
    for case in data["cases"]:
        n = case.n

        def work(case=case, n=n):
            x = bk.parse_newick(case.newick, case.label_map)
            looked_up = [x.lengths.get(bk.make_split(side, n)) for side in case.sides]
            degrees = bk.degree_sequence(x.topology)
            volume = bk.ball_volume(x, gen.EPS)
            bounds = bk.ball_volume_bounds(x.n, x.p, gen.EPS)
            text = bk.to_newick(x)
            again = bk.parse_newick(text)
            partner = bk.parse_newick(case.partner, case.label_map)
            return x, looked_up, degrees, volume, bounds, text, again, partner, bk.distance_upper_bound(x, partner)

        def check(result, case=case, n=n):
            x, looked_up, degrees, volume, bounds, text, again, partner, distance = result
            expect({s.mask: w for s, w in x.lengths.items()} == case.splits, "split lengths")
            expect(x.leaf_lengths == case.leaf_lengths, "leaf lengths")
            wanted = [case.splits.get(gen.canonical(gen.mask_of(side), n)) for side in case.sides]
            expect(looked_up == wanted, "lengths looked up by make_split")
            expect(list(degrees) == case.degrees, f"degree sequence {degrees} != {case.degrees}")
            expect(volume.s_f == case.s_f and volume.p == len(case.splits), "s_F or p")
            expect(close(volume.value, case.volume), "ball volume")
            expect(close(bounds[0], case.lower) and close(bounds[1], case.upper), "volume bounds")
            expect({s.mask: w for s, w in again.lengths.items()} == case.splits, "re-parsed split lengths")
            expect(again.leaf_lengths == case.leaf_lengths, "re-parsed leaf lengths")
            expect(gen.read_newick(text) == (case.splits, case.leaf_lengths, n), "canonical Newick")
            expect({s.mask: w for s, w in partner.lengths.items()} == case.partner_splits, "partner splits")
            expect(close(distance, case.distance), f"distance {distance} != {case.distance}")
            rnd.count("newick.bytes_in", len(case.newick) + len(text) + len(case.partner))
            rnd.count("newick.bytes_out", len(text))
            rnd.count("same_orthant_pairs", distance < (case.norm + case.partner_norm) * (1 - 1e-9))
            rnd.count("pairs")

        rnd.op("tree", work, check)


def run_census(bk, data: dict, rnd: Round):
    """Full census at each n (cold: a fresh worker has no cached census),
    then faces checked as count_refining_orthants == len(refinements)."""
    for n, size in data["census"].items():

        def census(n=n):
            return list(bk.enumerate_binary_topologies(n))

        def check_census(trees, n=n, size=size):
            expect(len(trees) == size, f"census size {len(trees)} != {size}")
            keys = set()
            for t in trees:
                masks = sorted(s.mask for s in t.splits)
                expect(len(masks) == n - 3, "census tree is not binary")
                keys.add(sum(m << (n * i) for i, m in enumerate(masks)))
            expect(len(keys) == size, "census trees repeat")
            rnd.count("topology.census_trees", size)

        rnd.op("census", census, check_census)

        for face in data["faces"][n]:

            def work(face=face, n=n):
                t = bk.make_topology([bk.make_split(side, n) for side in face["sides"]], n)
                return t, bk.count_refining_orthants(t), len(bk.enumerate_binary_refinements(t))

            def check(result, face=face, size=size):
                t, count, found = result
                expect(sorted(s.mask for s in t.splits) == face["masks"], "face splits")
                expect(count == face["count"], f"count {count} != {face['count']}")
                expect(found == face["count"], f"{found} refinements != {face['count']}")
                rnd.count("refinements_found", found)
                rnd.count("census_trees_scanned", size)

            rnd.op("face", work, check)


def run_link(bk, data: dict, rnd: Round):
    """Link graphs n=5..12 with degree checks, Kneser layers against the
    leaf stars, and the automorphism group against the image of S_n."""
    graphs = {}
    for n, want in data["graphs"].items():

        def build(n=n):
            return bk.build_link_graph(n)

        def check_build(g, n=n, want=want):
            graphs[n] = g
            index = {v.mask: i for i, v in enumerate(g.vertices)}
            expect(sorted(index) == want["vertices"], "vertex set")
            expect(g.edge_count == want["edges"], f"edges {g.edge_count} != {want['edges']}")
            for v, degree in want["degrees"]:
                expect(g.degree(index[v]) == degree, f"degree of {gen.leaves(v)}")
            for a, b, adjacent in want["pairs"]:
                expect(g.adjacent(index[a], index[b]) == adjacent, "adjacency")
            rnd.count("linkgraph.vertices", g.vertex_count)
            rnd.count("linkgraph.edges", g.edge_count)

        rnd.op("build", build, check_build)
        rnd.op("verify", lambda n=n: bk.verify_degrees(graphs[n]), lambda ok: expect(ok is True, "verify_degrees"))

    for (n, k), stars in data["stars"].items():

        def mis(n=n, k=k):
            return bk.maximum_independent_sets(bk.kneser_subgraph(graphs[n], k))

        def check_mis(sets, stars=stars):
            expect(sorted(sorted(s.mask for s in found) for found in sets) == stars, "leaf stars")

        rnd.op("mis", mis, check_mis)

    groups = {}
    for n, order in data["aut_orders"].items():

        def aut(n=n):
            return bk.brute_force_automorphisms(graphs[n])

        def check_aut(group, n=n, order=order):
            groups[n] = group
            expect(group.order == order, f"aut order {group.order} != {order}")
            expect(group.elements is not None and len(group.elements) == order, "element list")
            rnd.count("linkgraph.aut_order", group.order)

        rnd.op("aut", aut, check_aut)

        def realize(n=n):
            g = graphs[n]
            return {bk.permutation_to_automorphism(sigma, g) for sigma in bk.all_permutations(n)}

        def check_realize(images, n=n):
            g = graphs[n]
            expect(images == set(groups[n].elements), "image of S_n differs from the group")
            index = {v.mask: i for i, v in enumerate(g.vertices)}
            for images_of in data["relabelings"][n]:
                moved = tuple(
                    index[gen.canonical(gen.mask_of(images_of[leaf - 1] for leaf in gen.leaves(v.mask)), n)]
                    for v in g.vertices
                )
                expect(moved in images, "relabeling missing from the image")

        rnd.op("realize", realize, check_realize)


RUNNERS = {"trees": run_trees, "census": run_census, "link": run_link}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-fault", action="store_true", help="trees only; for the self-test")
    args = parser.parse_args()

    data = gen.generate(args.workload, args.seed)
    if args.plant_fault:
        # the self-test's wrong expected answer: s_F of the first tree
        data["cases"][0] = replace(data["cases"][0], s_f=data["cases"][0].s_f + 1)
    import bhvkit

    tracer = Tracer(bhvkit) if args.trace else None
    rnd = Round(tracer)
    start = time.perf_counter_ns()
    RUNNERS[args.workload](tracer or bhvkit, data, rnd)
    wall_ns = time.perf_counter_ns() - start
    out = {
        "wall_s": wall_ns / 1e9,
        "latencies_ms": [t / 1e6 for t in rnd.latencies_ns],
        "failures": rnd.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counts": rnd.counts,
        "spans": tracer.spans if tracer else None,
    }
    sys.stdout.write(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
