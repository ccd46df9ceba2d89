"""bhvkit benchmark: seeded workloads, checked results, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload trees|census|link --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

A run repeats rounds of the workload's fixed operation list, each in a
fresh worker process (perfbench/worker.py), one at a time, until S seconds
have passed. Before each round it times ``import bhvkit`` in a few fresh
interpreters (setup_s), so that set-up samples spread over the run. Every
operation is checked against an answer computed without bhvkit
(perfbench/inputs.py). The last line of stdout is one JSON object:
with --trace 0 it carries the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. --trace 1 alternates untraced and traced
rounds, and then times each CLI subcommand that the workload's inputs
drive as a subprocess. A readable summary goes to stderr, and the full run
record (and, when traced, every span) to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import inputs as gen
from worker import close, expect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SPAWNS_PER_ROUND = 5
RUN_LIMIT_S = 170  # every subprocess of a run must end by then
TAIL_SAMPLES = 10
DIST_PAIRS = 6

# Busy time of these public calls, summed per round from their spans.
CALL_METRICS = {
    "newick.parse_newick": "newick.parse_s",
    "newick.to_newick": "newick.to_newick_s",
    "measure.ball_volume": "measure.ball_volume_s",
    "measure.ball_volume_bounds": "measure.bounds_s",
    "measure.distance_upper_bound": "measure.distance_s",
    "topology.degree_sequence": "topology.degree_sequence_s",
    "topology.enumerate_binary_topologies": "topology.census_s",
    "topology.make_topology": "topology.make_topology_s",
    "topology.count_refining_orthants": "topology.count_refining_orthants_s",
    "topology.enumerate_binary_refinements": "topology.refinements_s",
    "splits.make_split": "splits.make_split_s",
    "linkgraph.build_link_graph": "linkgraph.build_s",
    "linkgraph.verify_degrees": "linkgraph.verify_degrees_s",
    "linkgraph.brute_force_automorphisms": "linkgraph.aut_s",
    "linkgraph.permutation_to_automorphism": "linkgraph.realize_s",
    "linkgraph.maximum_independent_sets": "linkgraph.mis_s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    # A fixed hash seed keeps set and dict layouts, and so the work done, the same in every round.
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (checkout has no git metadata)"


class Deadline:
    """Seconds left before RUN_LIMIT_S, given to each subprocess as its timeout."""

    def __init__(self):
        self.end = time.perf_counter() + RUN_LIMIT_S

    def left(self) -> float:
        return max(1.0, self.end - time.perf_counter())


def measure_setup(env: dict, count: int, deadline: Deadline) -> list[float]:
    """Seconds from spawning an interpreter to its ``import bhvkit`` returning.

    The child prints the system-wide monotonic clock right after the import.
    """
    code = "import time, bhvkit; print(time.monotonic())"
    samples = []
    for _ in range(count):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=deadline.left())
        if proc.returncode:
            raise BenchError(f"import bhvkit failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout) - start)
    return samples


def run_round(workload: str, seed: int, trace: int, env: dict, deadline: Deadline,
              plant_fault: bool = False):
    """One worker round; returns (result, None) or (None, error text)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if plant_fault:
        cmd.append("--plant-fault")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=deadline.left())
    except subprocess.TimeoutExpired:
        return None, "worker ran past the run's time limit"
    if proc.returncode or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"worker exited {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.splitlines()[-1]), None


def tail_rank(per_round: int) -> float:
    """The highest percentile of one round's operation list that leaves
    TAIL_SAMPLES operations beyond it; fixed by the list, not by how many
    rounds a run fits."""
    return (per_round - TAIL_SAMPLES) / per_round


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(setup: list[float], rounds: list[dict], per_round: int) -> tuple[dict, dict]:
    latencies = sorted(t for r in rounds for t in r["latencies_ms"])
    q = tail_rank(per_round)
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(r["wall_s"] for r in rounds),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": percentile(latencies, q),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    notes = {
        "op_tail_percentile": round(100 * q, 2),
        "op_samples": len(latencies),
        "op_samples_beyond_tail": len(latencies) - math.ceil(q * len(latencies)),
        "rounds": len(rounds),
    }
    return values, notes


def layer_values(result: dict) -> dict:
    """Per-layer busy seconds and work counts of one traced round."""
    spans = result["spans"]
    child_time = defaultdict(int)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    values = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        module = name.split(".", 1)[0]
        if module == "op":
            continue
        busy = (end - start) / 1e9
        values[f"{module}.self_s"] += busy - child_time[sid] / 1e9
        if name in CALL_METRICS:
            values[CALL_METRICS[name]] += busy
        if module == "splits":
            values["splits.calls"] += 1
    counts = result["counts"]
    for name in ("newick.bytes_in", "newick.bytes_out", "topology.census_trees",
                 "linkgraph.vertices", "linkgraph.edges", "linkgraph.aut_order"):
        values[name] = counts.get(name, 0)
    pairs = counts.get("pairs", 0)
    values["measure.same_orthant_ratio"] = counts.get("same_orthant_pairs", 0) / pairs if pairs else 0.0
    scanned = counts.get("census_trees_scanned", 0)
    values["topology.refinement_hit_ratio"] = counts.get("refinements_found", 0) / scanned if scanned else 0.0
    return values


# ---------------------------------------------------------------------------
# CLI subcommands, each run as a subprocess on the workload's inputs
# ---------------------------------------------------------------------------

def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")

    return json.loads(text, parse_constant=reject)


class CliRunner:
    def __init__(self, env: dict, workdir: Path, deadline: Deadline):
        self.env = env
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []

    def file(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)

    def run(self, args: list[str], check) -> float:
        """Wall seconds of one ``python -m bhvkit.cli`` run; checks exit code and output."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "bhvkit.cli", *args], capture_output=True,
                                  text=True, env=self.env, timeout=self.deadline.left())
        except subprocess.TimeoutExpired:
            self.failures.append(f"cli {args[0]}: timed out")
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        try:
            if proc.returncode:
                raise ValueError(f"exit {proc.returncode}: {proc.stderr.strip()}")
            check([_strict_json(line) for line in proc.stdout.splitlines()])
        except Exception as exc:  # a wrong or unreadable report is a failed command
            self.failures.append(f"cli {args[0]}: {type(exc).__name__}: {exc}")
        return wall


def cli_trees(cli: CliRunner, data: dict) -> dict:
    # The CLI takes no label map, so trees with mixed labels stay in-process.
    cases = [c for c in data["cases"] if c.style != "mixed"]
    trees = cli.file("trees.nwk", "\n".join(c.newick for c in cases))

    def check_volume(reports):
        expect(len(reports) == len(cases), "one report per tree")
        for r, c in zip(reports, cases):
            p = len(c.splits)
            expect(r["p"] == p and r["degree_sequence"] == c.degrees and r["s_F"] == c.s_f, "p, degrees or s_F")
            expect(close(r["mu"], c.volume) and close(r["lower"], c.lower) and close(r["upper"], c.upper), "volume")
            expect(r["is_binary"] == (p == c.n - 3) and r["is_cone_point"] == (p == 0), "flags")

    def check_parse(reports):
        expect(len(reports) == len(cases), "one report per tree")
        for r, c in zip(reports, cases):
            edges = {gen.canonical(gen.mask_of(e["side"]), c.n): e["length"] for e in r["edges"]}
            leaf = {int(k): v for k, v in r["leaf_lengths"].items()}
            expect(r["n"] == c.n and edges == c.splits and leaf == c.leaf_lengths, "tree point")
            expect(gen.read_newick(r["newick"]) == (c.splits, c.leaf_lengths, c.n), "newick does not re-parse")

    walls = {
        "cli.volume_s": cli.run(["volume", trees, "--eps", repr(gen.EPS)], check_volume),
        "cli.parse_s": cli.run(["parse", trees], check_parse),
    }
    dist = []
    for i, c in enumerate(cases[:DIST_PAIRS]):
        # one tree per file, the documented use of dist
        a, b = cli.file(f"a{i}.nwk", c.newick), cli.file(f"b{i}.nwk", c.partner)

        def check_dist(reports, c=c):
            (r,) = reports
            expect(close(r["upper_bound"], c.distance), "upper bound")
            expect((r["same_orthant"] is not None) == c.same_orthant, "same-orthant verdict")

        dist.append(cli.run(["dist", a, b], check_dist))
    walls["cli.dist_s"] = statistics.median(dist)
    return walls


def cli_census(cli: CliRunner, data: dict) -> dict:
    n = max(data["faces"])
    face = data["faces"][n][0]

    def check(reports):
        expect(reports == [{"count": face["count"], "oracle_ok": True}], f"count report {reports}")

    args = ["count", str(n), "--refine", json.dumps(face["sides"]), "--oracle"]
    return {"cli.count_s": cli.run(args, check)}


def cli_link(cli: CliRunner, data: dict) -> dict:
    n = max(data["graphs"])
    want = data["graphs"][n]
    m = max(data["aut_orders"])

    def check_link(reports):
        expected = {"n": n, "vertices": len(want["vertices"]), "edges": want["edges"], "degrees_ok": True}
        expect(reports == [expected], f"link report {reports}")

    def check_aut(reports):
        (r,) = reports
        order = data["aut_orders"][m]
        expect(r["aut_order"] == order == r["expected_order"] and r["realized"] is True, f"aut report {r}")

    return {
        "cli.link_s": cli.run(["link", str(n)], check_link),
        "cli.aut_s": cli.run(["aut", str(m)], check_aut),
    }


CLI = {"trees": cli_trees, "census": cli_census, "link": cli_link}


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if not (SRC / "bhvkit" / "__init__.py").is_file():
        raise BenchError(f"no bhvkit sources under {SRC}; run from a repository checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    data = gen.generate(workload, seed)
    per_round = gen.op_count(workload, data)

    limit = Deadline()
    measure_setup(env, 1, limit)  # warms the bytecode cache; not counted
    setup: list[float] = []
    modes = (0, 1) if trace else (0,)
    rounds = {0: [], 1: []}
    errors: list[str] = []
    attempted = failed = 0
    stop_at = time.perf_counter() + seconds
    i = 0
    # at least one round of each mode, and in traced runs whole pairs
    while i < len(modes) or time.perf_counter() < stop_at or i % len(modes):
        mode = modes[i % len(modes)]
        setup += measure_setup(env, SETUP_SPAWNS_PER_ROUND, limit)
        result, error = run_round(workload, seed, mode, env, limit)
        i += 1
        attempted += per_round
        if error:
            failed += per_round
            errors.append(error)
            continue
        failed += len(result["failures"])
        errors.extend(result["failures"])
        rounds[mode].append(result)
    if not rounds[0] or (trace and not rounds[1]):
        raise BenchError(f"no round completed: {errors[:3]}")

    values, notes = end_to_end(setup, rounds[0], per_round)
    cli_walls: dict = {}
    spans = None
    if trace:
        layers = [layer_values(r) for r in rounds[1]]
        names = sorted({k for v in layers for k in v})
        values = {k: statistics.median(v.get(k, 0.0) for v in layers) for k in names}
        values["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in rounds[1]) / statistics.median(r["wall_s"] for r in rounds[0])
        )
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            cli = CliRunner(env, Path(tmp), limit)
            cli_walls = CLI[workload](cli, data)
        values.update(cli_walls)
        attempted += cli.attempted
        failed += len(cli.failures)
        errors.extend(cli.failures)
        spans = [r["spans"] for r in rounds[1]]

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "input_sizes": gen.sizes(workload, data),
        "input_sha256": gen.digest(data),
        "ops_per_round": per_round,
        "fail_ratio": failed / attempted,
        "errors": errors[:20],
        "notes": notes,
        "setup_samples_s": setup,
        "round_walls_s": {str(k): [r["wall_s"] for r in v] for k, v in rounds.items() if v},
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        # columns: id, name, start_ns, end_ns, parent id, operation id; one list per traced round
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans, separators=(",", ":")) + "\n")
    return {
        "record": record,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def summarize(record: dict):
    notes = record["notes"]
    print(
        f"{record['workload']} seed={record['seed']} python={record['python']} nproc={record['nproc']} "
        f"git={record['git_sha']} inputs={json.dumps(record['input_sizes'])} sha256={record['input_sha256'][:16]}",
        file=sys.stderr,
    )
    print(f"  fail_ratio = {record['fail_ratio']:.6g} (1)", file=sys.stderr)
    for name, m in record["metrics"].items():
        extra = ""
        if name == "op_tail_ms":
            extra = (f"  (p{notes['op_tail_percentile']} of {notes['op_samples']} ops, "
                     f"{notes['op_samples_beyond_tail']} beyond)")
        print(f"  {name} = {m['value']:.6g} ({m['unit']}){extra}", file=sys.stderr)
    for error in record["errors"][:5]:
        print(f"  FAILED {error}", file=sys.stderr)


def self_test() -> int:
    """Inputs are byte-identical per seed across processes, and a planted
    wrong answer shows as a failed operation without stopping the round."""
    env = child_env()
    for workload in gen.WORKLOADS:
        digests = []
        for seed, hashseed in ((3, "1"), (3, "2"), (4, "1")):
            proc = subprocess.run([sys.executable, str(HERE / "inputs.py"), workload, str(seed)],
                                  capture_output=True, text=True, check=True,
                                  env=dict(env, PYTHONHASHSEED=hashseed), timeout=60)
            digests.append(proc.stdout.strip())
        if digests[0] != digests[1] or digests[0] == digests[2]:
            print(f"self-test FAILED: {workload} inputs are not a function of the seed", file=sys.stderr)
            return 1
    data = gen.generate("trees", 1)
    result, error = run_round("trees", 1, 0, env, Deadline(), plant_fault=True)
    if error or not result["failures"] or len(result["latencies_ms"]) != gen.op_count("trees", data):
        print(f"self-test FAILED: planted fault gave {error or result['failures']}", file=sys.stderr)
        return 1
    ratio = len(result["failures"]) / len(result["latencies_ms"])
    print(f"self-test passed: deterministic inputs; planted fault gives fail_ratio {ratio:.4g} > 0")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="bhvkit benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seconds < 1:
        parser.error("--workload is required and --seconds must be at least 1")
    try:
        out = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    summarize(out["record"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
