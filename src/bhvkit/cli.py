"""Batch command-line front end.

Subcommands: link, aut, volume, count, dist, parse. Every report goes to
stdout, deterministically: fixed key order, shortest round-trip floats (via
json), so identical inputs give byte-identical bytes. Only `--dot PATH`
writes a file; `parse` writes every tree's DOT there, in order.

`aut n` runs for 5 <= n <= 12, the n that `link` takes; "realized"
certifies Aut = image of S_n from the order n! and a leaf relabeling for
every generator the search found.
`count n --oracle` runs for n <= 10 (a binary face needs no census). A
tree source must hold a tree, and each `dist` argument exactly one.

Exit codes: 0 success, 1 verification failure, 2 size/budget cap or `aut`
outside 5..12, 3 epsilon too large, 4 leaf-count mismatch, 5 rejected input
(a usage error too). Codes 2 to 5 each come with one `error:` line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .errors import (
    BhvError,
    EnumerationTooLarge,
    EpsilonTooLarge,
    LeafCountMismatch,
    SearchBudgetExceeded,
    TooLarge,
)
from .linkgraph import (
    brute_force_automorphisms,
    build_link_graph,
    leaf_relabeling,
    verify_degrees,
)
from .measure import TreePoint, _distances, ball_volume, ball_volume_bounds, is_cone_point
from .newick import iter_newick_lines, parse_newick, to_newick
from .splits import make_split
from .topology import (
    count_refining_orthants,
    degree_sequence,
    enumerate_binary_refinements,
    is_binary,
    make_topology,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_TOO_LARGE = 2
EXIT_EPSILON = 3
EXIT_LEAF_MISMATCH = 4
EXIT_BAD_INPUT = 5
# (exception types, exit code) for main; the first matching row wins
EXIT_CODES = (
    (EpsilonTooLarge, EXIT_EPSILON),
    ((TooLarge, EnumerationTooLarge, SearchBudgetExceeded), EXIT_TOO_LARGE),
    (LeafCountMismatch, EXIT_LEAF_MISMATCH),
    ((BhvError, ValueError), EXIT_BAD_INPUT),
)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _emit(text: str, path: str):
    """Write a --dot rendering to PATH, or to stdout for '-'."""
    if path == "-":
        print(text)
        return
    try:
        Path(path).write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _decode(text: str, what: str):
    """JSON text as a value; malformed or too deeply nested text is a ValueError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


def _parse_tree_line(line: str) -> TreePoint:
    if not line.lstrip().startswith("{"):
        return parse_newick(line)
    return TreePoint.from_json(_decode(line, "JSON tree"))


def _load_trees(arg: str) -> list[TreePoint]:
    """Tree argument: '-' for stdin, an existing file (one tree per line,
    '#' comments skipped), or an inline string. Each tree may be Newick or
    the JSON tree-point schema; one leading byte-order mark is skipped. A
    source with no tree is an error."""
    if arg != "-" and not os.path.isfile(arg):
        return [_parse_tree_line(arg)]
    content = sys.stdin.read() if arg == "-" else Path(arg).read_text(encoding="utf-8")
    content = content.removeprefix("\ufeff")
    trees = [_parse_tree_line(line) for line in iter_newick_lines(content)]
    if not trees:
        raise ValueError(f"{arg}: no tree found")
    return trees


def cmd_link(args) -> int:
    g = build_link_graph(args.n)
    ok = verify_degrees(g)
    if args.dot is not None:
        _emit(g.to_dot(), args.dot)
    print(_dump({"n": g.n, "vertices": g.vertex_count, "edges": g.edge_count, "degrees_ok": ok}))
    return EXIT_OK if ok else EXIT_FAIL


def cmd_aut(args) -> int:
    if args.n < 5:
        raise TooLarge(
            f"aut {args.n} refused: the group-equals-leaf-permutations check only "
            "applies for n >= 5; the n=4 link graph is three isolated vertices with "
            "automorphism group of order 6, while there are 4! = 24 leaf "
            "relabelings, so the relabeling action is not faithful at n=4."
        )
    g = build_link_graph(args.n)
    group = brute_force_automorphisms(g)
    expected = math.factorial(args.n)
    realized = group.order == expected and all(
        leaf_relabeling(g, gen) is not None for gen in group.generators
    )
    report = {
        "n": args.n,
        "aut_order": group.order,
        "expected_order": expected,
        "realized": realized,
        "generators": [list(gen) for gen in group.generators],
    }
    print(_dump(report))
    return EXIT_OK if realized else EXIT_FAIL


def cmd_volume(args) -> int:
    trees = _load_trees(args.tree)
    lines = []
    for x in trees:
        vol = ball_volume(x, args.eps)
        lower, upper = ball_volume_bounds(x.n, x.p, args.eps)
        lines.append(
            _dump(
                {
                    "p": x.p,
                    "degree_sequence": list(degree_sequence(x.topology)),
                    "s_F": vol.s_f,
                    "mu": vol.value,
                    "lower": lower,
                    "upper": upper,
                    "is_binary": is_binary(x.topology),
                    "is_cone_point": is_cone_point(x),
                }
            )
        )
    print("\n".join(lines))
    return EXIT_OK


def cmd_count(args) -> int:
    sides = [] if args.refine is None else _decode(args.refine, "--refine")
    if not (isinstance(sides, list) and all(isinstance(side, list) for side in sides)):
        raise ValueError("--refine must be a JSON list of leaf lists, e.g. [[1,2]]")
    face = make_topology((make_split(side, args.n) for side in sides), args.n)
    value = count_refining_orthants(face)
    if args.oracle:
        ok = len(enumerate_binary_refinements(face)) == value
        print(_dump({"count": value, "oracle_ok": ok}))
        return EXIT_OK if ok else EXIT_FAIL
    print(value)
    return EXIT_OK


def cmd_dist(args) -> int:
    trees = _load_trees(args.tree_a), _load_trees(args.tree_b)
    counts = tuple(map(len, trees))
    if counts != (1, 1):
        raise ValueError(f"dist takes one tree per argument, got {counts[0]} and {counts[1]}")
    (a,), (b,) = trees
    same, cone, upper = _distances(a, b)
    print(_dump({"same_orthant": same, "cone_path": cone, "upper_bound": upper}))
    return EXIT_OK


def cmd_parse(args) -> int:
    trees = _load_trees(args.tree)
    reports = [_dump({**x.to_json(), "newick": to_newick(x)}) for x in trees]
    if args.dot == "-":
        reports = [f"{x.topology.to_dot()}\n{r}" for x, r in zip(trees, reports)]
    elif args.dot is not None:
        _emit("\n".join(x.topology.to_dot() for x in trees), args.dot)
    print("\n".join(reports))
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, for main to report as rejected input."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="bhvkit",
        description="Combinatorics and local geometry of phylogenetic tree space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("link", help="build the split compatibility graph and verify degrees")
    p.add_argument("n", type=int)
    p.add_argument("--dot", metavar="PATH", help="write Graphviz output ('-' for stdout)")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("aut", help="certify Aut(link) = S_n by stabiliser chain (5 <= n <= 12)")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("volume", help="epsilon-ball volume report for Newick trees")
    p.add_argument("tree", help="file, inline Newick, or '-' for stdin")
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("count", help="orthant census or refining-orthant count")
    p.add_argument("n", type=int)
    p.add_argument("--refine", metavar="SPLITS_JSON", help='face splits, e.g. "[[1,2]]"')
    p.add_argument("--oracle", action="store_true", help="cross-check by census filter (n <= 10)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("dist", help="distance bounds between two trees")
    p.add_argument("tree_a")
    p.add_argument("tree_b")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("parse", help="parse Newick to the JSON tree-point schema")
    p.add_argument("tree")
    p.add_argument("--dot", metavar="PATH", help="also write every tree as Graphviz ('-': stdout)")
    p.set_defaults(func=cmd_parse)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (BhvError, ValueError) as exc:
        print(f"error: {exc}".replace("\n", "\\n"), file=sys.stderr)  # an argument may hold a newline
        return next(code for types, code in EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
