import argparse
import inspect
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import bhvkit
from bhvkit.cli import build_parser, main
from bhvkit.topology import MAX_CENSUS_LEAVES
from helpers import LENGTHS, doctored, newick_trees, realized_by_sweep

FIG_TREE = "((1:1,6:1):0.25,((2:1,3:1):0.3,(4:1,5:1):0.45));"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_link_report(capsys):
    code, out, _ = run(capsys, "link", "5")
    assert code == 0
    assert out.strip() == '{"n":5,"vertices":10,"edges":15,"degrees_ok":true}'


def test_link_6(capsys):
    code, out, _ = run(capsys, "link", "6")
    assert code == 0
    report = json.loads(out)
    assert report["vertices"] == 25
    assert report["degrees_ok"] is True


def test_link_too_large(capsys):
    code, _, err = run(capsys, "link", "13")
    assert code == 2
    assert "12" in err


def test_link_dot_output(capsys, tmp_path):
    target = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "link", "4", "--dot", str(target))
    assert code == 0
    assert target.read_text().startswith("graph link {")


def test_link_dot_to_stdout_comes_before_the_report(capsys):
    code, out, _ = run(capsys, "link", "5", "--dot", "-")
    assert code == 0
    report = '{"n":5,"vertices":10,"edges":15,"degrees_ok":true}'
    assert out == bhvkit.build_link_graph(5).to_dot() + "\n" + report + "\n"


def test_aut_4_refused_with_explanation(capsys):
    code, _, err = run(capsys, "aut", "4")
    assert code == 2
    assert "order 6" in err
    assert "n=4" in err
    assert "n >= 5" in err


def test_aut_5(capsys):
    code, out, _ = run(capsys, "aut", "5")
    assert code == 0
    report = json.loads(out)
    assert report["aut_order"] == 120
    assert report["expected_order"] == 120
    assert report["realized"] is True
    assert report["generators"]


def test_aut_range(capsys):
    for n in ("3", "13"):
        code, out, err = run(capsys, "aut", n)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
    for n in ("2", "65"):  # no splits outside 3..64: rejected input, as for link and count
        for command in ("aut", "link", "count"):
            code, out, err = run(capsys, command, n)
            assert (code, out, err) == (5, "", f"error: leaf count must be in [3, 64], got {n}\n")


def test_aut_3_and_4_each_give_their_own_reason(capsys):
    reasons = {
        "3": "the n=3 link graph has no vertices: no split of 3 leaves has two leaves on each side.",
        "4": "the n=4 link graph is three isolated vertices with automorphism group of order 6, "
        "while there are 4! = 24 leaf relabelings, so the relabeling action is not faithful at n=4.",
    }
    for n, reason in reasons.items():
        prefix = f"error: aut {n} refused: the group-equals-leaf-permutations check only applies for n >= 5; "
        assert run(capsys, "aut", n) == (2, "", prefix + reason + "\n")


def test_aut_node_budget_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(bhvkit.linkgraph, "NODE_CAP", 10)
    code, out, err = run(capsys, "aut", "7")
    assert code == 2
    assert out == ""
    assert err == "error: independent-set search exceeded 10 nodes\n"


def test_aut_does_not_run_the_automorphism_search(capsys, monkeypatch):
    def refuse(g):
        raise AssertionError("aut ran the stabiliser-chain search")

    monkeypatch.setattr(bhvkit.linkgraph, "brute_force_automorphisms", refuse)
    assert not hasattr(bhvkit.cli, "brute_force_automorphisms")
    code, out, _ = run(capsys, "aut", "7")
    assert code == 0
    assert json.loads(out)["realized"] is True


@pytest.mark.parametrize("n", range(5, 13))
def test_aut_generators_are_the_two_relabelings(capsys, n):
    code, out, _ = run(capsys, "aut", str(n))
    g = bhvkit.build_link_graph(n)
    expected = [
        list(bhvkit.permutation_to_automorphism(bhvkit.Permutation.from_cycles(n, cycle), g))
        for cycle in ((1, 2), range(1, n + 1))
    ]
    assert code == 0
    assert json.loads(out) == {
        "n": n,
        "aut_order": math.factorial(n),
        "expected_order": math.factorial(n),
        "realized": True,
        "generators": expected,
    }


def test_aut_8_is_certified(capsys):
    code, out, _ = run(capsys, "aut", "8")
    assert code == 0
    report = json.loads(out)
    assert report["aut_order"] == report["expected_order"] == math.factorial(8)
    assert report["realized"] is True


def test_aut_11_is_certified(capsys):
    code, out, _ = run(capsys, "aut", "11")
    assert code == 0
    report = json.loads(out)
    assert report["aut_order"] == math.factorial(11)
    assert report["realized"] is True


@pytest.mark.parametrize("n", [5, 6, 7])
def test_aut_certificate_agrees_with_sweep(capsys, n):
    code, out, _ = run(capsys, "aut", str(n))
    g = bhvkit.build_link_graph(n)
    assert realized_by_sweep(g, bhvkit.brute_force_automorphisms(g))
    assert json.loads(out)["realized"] is True
    assert code == 0


def doctored_aut(capsys, monkeypatch, n, check):
    """aut n on the link graph doctored to fail one check of certify_aut."""
    g = doctored(bhvkit.build_link_graph(n), check)
    monkeypatch.setattr(bhvkit.cli, "build_link_graph", lambda n: g)
    code, out, _ = run(capsys, "aut", str(n))
    report = json.loads(out)
    assert report["realized"] is False
    assert report["aut_order"] is None
    assert report["generators"] == []
    return code


@pytest.mark.parametrize("n", [5, 7])
def test_aut_rejects_a_fake_generator(capsys, monkeypatch, n):
    # with the edge {1,2}-{3,4} cut, the n-cycle's relabeling is no automorphism
    assert doctored_aut(capsys, monkeypatch, n, "d") == 1


@pytest.mark.parametrize("n", [5, 7])
def test_aut_rejects_a_wrong_order(capsys, monkeypatch, n):
    # a complete pair layer has no leaf stars to pin the group down to n!
    assert doctored_aut(capsys, monkeypatch, n, "b") == 1


def test_volume_binary_tree(capsys):
    code, out, _ = run(capsys, "volume", FIG_TREE, "--eps", "0.1")
    assert code == 0
    report = json.loads(out)
    assert report["p"] == 3
    assert report["degree_sequence"] == [3, 3, 3, 3]
    assert report["s_F"] == 1
    assert report["is_binary"] is True
    assert report["is_cone_point"] is False
    assert report["mu"] == report["lower"]
    a3 = math.pi ** 1.5 * 0.1**3 / math.gamma(2.5)
    assert report["mu"] == pytest.approx(a3, rel=1e-14)


def test_volume_of_a_64_leaf_caterpillar_past_numerator_overflow(capsys):
    text = "(1,2)"
    for leaf in range(3, 65):
        text = f"({text}:1e6,{leaf})"
    code, out, err = run(capsys, "volume", text + ";", "--eps", "1e5")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["is_binary"] is True
    assert report["mu"] == report["lower"] == report["upper"]
    assert 1e286 < report["mu"] < 1e288


def test_volume_star(capsys):
    code, out, _ = run(capsys, "volume", "(1,2,3,4,5,6);", "--eps", "1")
    assert code == 0
    report = json.loads(out)
    assert report["s_F"] == 105
    assert report["is_cone_point"] is True
    assert report["mu"] == pytest.approx(105 / 8 * 4 * math.pi / 3, rel=1e-12)


def test_volume_epsilon_too_large(capsys):
    code, _, err = run(capsys, "volume", FIG_TREE, "--eps", "0.3")
    assert code == 3
    assert "0.25" in err


def test_volume_from_file(capsys, tmp_path):
    trees = tmp_path / "trees.nwk"
    trees.write_text("# two stars\n(1,2,3,4,5);\n(1,2,3,4,5,6);\n")
    code, out, _ = run(capsys, "volume", str(trees), "--eps", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["s_F"] == 15
    assert json.loads(lines[1])["s_F"] == 105


def test_count_census(capsys):
    code, out, _ = run(capsys, "count", "8")
    assert code == 0
    assert out.strip() == "10395"


def test_count_refine(capsys):
    code, out, _ = run(capsys, "count", "6", "--refine", "[[1,2]]")
    assert code == 0
    assert out.strip() == "15"


def test_count_refine_oracle(capsys):
    code, out, _ = run(capsys, "count", "6", "--refine", "[[1,2]]", "--oracle")
    assert code == 0
    assert out.strip() == '{"count":15,"oracle_ok":true}'


def test_count_cap(capsys):
    code, out, err = run(capsys, "count", "11", "--oracle")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert f"n = {MAX_CENSUS_LEAVES}" in err
    assert "34459425" in err


def test_count_binary_face_needs_no_census(capsys):
    # a binary face is its own only refinement, so the leaf bound never applies
    sides = [[1, 2], *([*range(1, k + 1)] for k in range(3, 11))]
    code, out, _ = run(capsys, "count", "12", "--refine", json.dumps(sides), "--oracle")
    assert code == 0
    assert out == '{"count":1,"oracle_ok":true}\n'


def test_count_closed_form_needs_no_census(capsys):
    code, out, _ = run(capsys, "count", "12")
    assert code == 0
    assert out.strip() == "654729075"


def test_count_oracle_past_cap(capsys):
    code, out, err = run(capsys, "count", "12", "--oracle")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_dist_identical(capsys):
    code, out, _ = run(capsys, "dist", FIG_TREE, FIG_TREE)
    assert code == 0
    report = json.loads(out)
    assert report["upper_bound"] == 0.0
    assert report["same_orthant"] == 0.0


def test_dist_single_coordinate(capsys):
    a = "((1,2):0.3,3,4,5,6);"
    b = "((1,2):0.8,3,4,5,6);"
    code, out, _ = run(capsys, "dist", a, b)
    assert code == 0
    assert json.loads(out)["upper_bound"] == 0.5


def test_dist_incompatible_uses_cone_path(capsys):
    a = "((1,2):0.6,(3,4):0.8,5,6);"
    b = "((1,3):0.6,(2,4):0.8,5,6);"
    code, out, _ = run(capsys, "dist", a, b)
    assert code == 0
    report = json.loads(out)
    assert report["same_orthant"] is None
    assert report["cone_path"] == pytest.approx(2.0, rel=1e-12)


def test_dist_computes_the_same_orthant_distance_once(capsys, monkeypatch):
    import bhvkit.measure

    calls = []
    real = bhvkit.measure._same_orthant

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(bhvkit.measure, "_same_orthant", counted)
    code, out, _ = run(capsys, "dist", "((1,2):0.3,3,4,5,6);", "((1,2):0.8,3,4,5,6);")
    assert code == 0
    assert json.loads(out) == {"same_orthant": 0.5, "cone_path": 1.1, "upper_bound": 0.5}
    assert len(calls) == 1


def assert_rejected(code, out, err):
    assert code == 5
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_out_of_range_count_is_rejected_input(capsys):
    assert_rejected(*run(capsys, "count", "70"))


def test_undecodable_tree_file_is_rejected_input(capsys, tmp_path):
    source = tmp_path / "bom.nwk"
    source.write_bytes(b"\xff\xfe")
    assert_rejected(*run(capsys, "parse", str(source)))


@pytest.mark.parametrize(
    "tree, newick",
    [
        ("(1,2,(3,4):1,5);", "(1,2,(3,4):1.0,5);"),
        ('{"n":5,"edges":[{"side":[1,2],"length":1}]}', "(1,2,(3,4,5):1.0);"),
    ],
)
def test_a_leading_byte_order_mark_is_skipped(capsys, monkeypatch, tmp_path, tree, newick):
    source = tmp_path / "bom.txt"
    source.write_bytes(b"\xef\xbb\xbf" + tree.encode() + b"\n")
    code, out, _ = run(capsys, "parse", str(source))
    assert code == 0 and json.loads(out)["newick"] == newick
    monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + tree + "\n"))
    assert run(capsys, "parse", "-") == (code, out, "")


def test_dist_rejects_empty_files(capsys, tmp_path):
    empty = tmp_path / "empty.nwk"
    empty.write_text("# no trees\n")
    assert_rejected(*run(capsys, "dist", str(empty), str(empty)))


def test_dist_rejects_a_file_of_two_trees(capsys, tmp_path):
    two = tmp_path / "two.nwk"
    two.write_text("((1,2):0.3,3,4,5,6);\n((1,2):0.8,3,4,5,6);\n")
    assert_rejected(*run(capsys, "dist", str(two), "((1,2):0.8,3,4,5,6);"))
    assert_rejected(*run(capsys, "dist", "((1,2):0.8,3,4,5,6);", str(two)))


def test_volume_rejects_an_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.nwk"
    empty.write_text("")
    assert_rejected(*run(capsys, "volume", str(empty), "--eps", "0.1"))


def test_parse_rejects_an_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.nwk"
    empty.write_text("\n")
    assert_rejected(*run(capsys, "parse", str(empty)))


def test_dist_leaf_mismatch(capsys):
    code, _, err = run(capsys, "dist", "(1,2,3,4,5);", "(1,2,3,4,5,6);")
    assert code == 4


def test_parse_reports_schema(capsys):
    code, out, _ = run(capsys, "parse", "(1,2,(3,(4,5):0.5):0.25);")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 5
    assert report["edges"] == [
        {"side": [1, 2], "length": 0.25},
        {"side": [4, 5], "length": 0.5},
    ]
    assert report["newick"] == "(1,2,(3,(4,5):0.5):0.25);"


def test_tree_point_json_accepted_as_input(capsys):
    code, first, _ = run(capsys, "parse", FIG_TREE)
    assert code == 0
    tree_json = json.dumps({k: v for k, v in json.loads(first).items() if k != "newick"})
    code, second, _ = run(capsys, "volume", tree_json, "--eps", "0.1")
    assert code == 0
    assert json.loads(second)["s_F"] == 1


def test_parse_dot_renders_tree(capsys, tmp_path):
    target = tmp_path / "tree.dot"
    code, _, _ = run(capsys, "parse", FIG_TREE, "--dot", str(target))
    assert code == 0
    assert target.read_text().startswith("graph internal_tree {")


@pytest.mark.parametrize(
    "tree",
    [
        '{"n":5,"edges":[{"side":[1,2],"length":1e999}]}',
        '{"n":5,"edges":[],"leaf_lengths":{"1":-1.0}}',
        '{"n":5,"edges":[],"leaf_lengths":{"1":1e999}}',
        "((1,2):1e999,3,4,5);",
    ],
)
def test_parse_rejects_infinite_and_negative_lengths(capsys, tree):
    code, out, err = run(capsys, "parse", tree)
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("leaf", ["0", "6"])
def test_parse_rejects_a_leaf_length_off_the_leaf_set(capsys, leaf):
    code, out, err = run(capsys, "parse", '{"n":5,"edges":[],"leaf_lengths":{"%s":1}}' % leaf)
    assert (code, out, err) == (5, "", f"error: leaf must be in [1, 5], got {leaf}\n")


@pytest.mark.parametrize("text", ["A;", "1;", "A:1.5;"])
def test_parse_rejects_a_one_leaf_statement(capsys, text):
    code, out, err = run(capsys, "parse", text)
    assert (code, out, err) == (5, "", "error: leaf count must be in [3, 64], got 1\n")


def test_volume_rejects_infinite_eps(capsys):
    code, out, err = run(capsys, "volume", "(1,2,3,4,5,6);", "--eps", "inf")
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "finite" in err


def test_parse_deep_nesting_is_one_error_line(capsys):
    code, out, err = run(capsys, "parse", "(" * 3000 + "1,2" + ")" * 3000 + ";")
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "nesting" in err


def test_parse_dot_matches_graph_oracle(capsys):
    from bhvkit import parse_newick
    from helpers import reconstruct_tree

    code, out, _ = run(capsys, "parse", FIG_TREE, "--dot", "-")
    assert code == 0
    dot = reconstruct_tree(parse_newick(FIG_TREE).topology).to_dot()
    assert out.startswith(dot + "\n{")


def test_count_bad_refine_json(capsys):
    code, _, err = run(capsys, "count", "6", "--refine", "[[1,2")
    assert code == 5
    assert "JSON" in err


@pytest.mark.parametrize("refine", ["5", "[5]", "[[1,2],5]", '{"a":1}'])
def test_count_refine_must_be_a_list_of_leaf_lists(capsys, refine):
    code, out, err = run(capsys, "count", "6", "--refine", refine)
    assert_rejected(code, out, err)
    assert "list of leaf lists" in err


@pytest.mark.parametrize("refine", ["[[1,2],[3,4,5]]", "[[1,2],[2,1]]", "[[3,4,5],[1,2],[1,2]]"])
def test_count_refine_rejects_a_split_named_twice(capsys, refine):
    # by either side, as a JSON tree is; a set would have merged the two
    code, out, err = run(capsys, "count", "5", "--refine", refine)
    assert_rejected(code, out, err)
    assert err == "error: Split({1,2}, n=5) is given twice\n"


@pytest.mark.parametrize("side", ["[1]", "[1,2,3,4,5]"])
def test_count_refine_error_gives_both_side_sizes(capsys, side):
    # the side given is the short one or the complement of the short one
    message = "error: a split needs >= 2 leaves on each side, got sides of 1 and 5\n"
    assert run(capsys, "count", "6", "--refine", f"[{side}]") == (5, "", message)


@pytest.mark.parametrize(
    "argv",
    [
        ("volume", "(1,2,3,4);", "--eps", "1e308"),  # the volume rounds to inf
        ("volume", "(1,2,3,4,5);", "--eps", "1e200"),  # eps**2 raises OverflowError
        ("volume", "((1,2,3):1e200,4,5,6);", "--eps", "2.47e102"),  # only the upper bound is inf
        ("dist", "((1,2):1e308,3,4,5);", "((1,3):1e308,2,4,5);"),  # no shared orthant, cone path inf
    ],
)
def test_float_overflow_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert_rejected(code, out, err)
    assert "not a finite float" in err


@pytest.mark.parametrize("tree", ["((1,2):1e308,3,4,5);", "((1,2):8.98846567431158e+307,3,4,5,6);"])
def test_dist_bound_is_the_same_orthant_distance_where_the_cone_path_overflows(capsys, tree):
    code, out, err = run(capsys, "dist", tree, tree)
    assert (code, err) == (0, "")
    assert out == '{"same_orthant":0.0,"cone_path":null,"upper_bound":0.0}\n'


def test_dist_of_finite_norms_past_the_square_overflow(capsys):
    # each 1e200 length squares past the float range, but the norms are 1e200
    code, out, err = run(capsys, "dist", "((1,2):1e200,3,4,5);", "((1,3):1e200,2,4,5);")
    assert (code, err) == (0, "")
    assert out == '{"same_orthant":null,"cone_path":2e+200,"upper_bound":2e+200}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "x"],
        ["frobnicate"],
        ["volume", "(1,2,3);"],
        ["parse"],
        ["count"],
        [],
        ["parse", "(1,2,3);", "-x\ny"],
    ],
    ids=["bad-int", "bad-command", "missing-option", "missing-tree", "missing-n", "no-command",
         "unknown-option-with-a-newline"],
)
def test_usage_error_is_rejected_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["count", "--help"]])
def test_help_exits_0_with_usage_on_stdout(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0
    assert out.startswith("usage: bhvkit")
    assert err == ""


def test_aut_refusal_is_one_error_line(capsys):
    code, out, err = run(capsys, "aut", "4")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: aut 4 refused: ")


def test_output_is_byte_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "volume", FIG_TREE, "--eps", "0.1")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_console_entry_point():
    # the child finds bhvkit where this process did, installed or not
    package_root = str(Path(bhvkit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bhvkit.cli", "count", "5"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "15"


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("(1,2,3,4,5);\n"))
    code, out, _ = run(capsys, "parse", "-")
    assert code == 0
    assert json.loads(out)["n"] == 5


THREE_TREES = ["(1,2,(3,(4,5):0.5):0.25);", FIG_TREE, "(1,2,3,4,5,6,7);"]


def test_parse_dot_holds_every_tree(capsys, tmp_path):
    from bhvkit import parse_newick

    source = tmp_path / "three.nwk"
    source.write_text("\n".join(THREE_TREES) + "\n")
    target = tmp_path / "trees.dot"
    code, out, _ = run(capsys, "parse", str(source), "--dot", str(target))
    assert code == 0
    reports = out.splitlines()
    assert len(reports) == 3
    dots = [parse_newick(t).topology.to_dot() for t in THREE_TREES]
    assert target.read_text() == "\n".join(dots) + "\n"
    # with '-' each tree's DOT precedes its report on stdout
    code, out, _ = run(capsys, "parse", str(source), "--dot", "-")
    assert code == 0
    assert out == "".join(f"{dot}\n{report}\n" for dot, report in zip(dots, reports))


@pytest.mark.parametrize(
    "argv",
    [("link", "5"), ("parse", FIG_TREE)],
    ids=["link", "parse"],
)
def test_unwritable_dot_path_is_one_error_line(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.dot"
    code, out, err = run(capsys, *argv, "--dot", str(target))
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and str(target) in err


@pytest.mark.parametrize(
    "argv",
    [("link", "5"), ("parse", FIG_TREE)],
    ids=["link", "parse"],
)
def test_empty_dot_path_is_one_error_line(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--dot", "")
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot write")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "tree",
    [
        '{"n":5}',
        '{"n":5,"edges":[1]}',
        '{"n":5,"edges":[{"side":[1,2]}]}',
        '{"n":5,"edges":null}',
        '{"n":5,"edges":[],"leaf_lengths":[1]}',
        "[]",
        '{"n":5,"edges":[{"side":[1,2],"length":true}]}',
        '{"n":5,"edges":[{"side":[1,2],"length":"0.5"}]}',
        pytest.param('{"n":5,"edges":[{"side":[1,2],"length":1' + "0" * 400 + "}]}", id="huge-int"),
        '{"n":5,"edges":[],"leaf_lengths":{"1":true}}',
        '{"n":5,"edges":[],"leaf_lengths":{"01":1}}',
        '{"n":5,"edges":[],"leaf_lengths":{" 1":1}}',
        '{"n":6,"edges":[{"side":[1,2],"length":1},{"side":[1,2],"length":2}]}',
        '{"n":6,"edges":[{"side":[1,2],"length":1},{"side":[3,4,5,6],"length":2}]}',
    ],
)
def test_malformed_json_tree_is_one_error_line(capsys, tree):
    code, out, err = run(capsys, "parse", tree)
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [["parse", '{"n":' + "[" * 100_000], ["count", "6", "--refine", "[" * 100_000]],
    ids=["parse", "count"],
)
def test_deep_json_nesting_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert_rejected(code, out, err)
    assert err.startswith("error:") and "nested too deeply" in err


def _option_strings(parser) -> list[str]:
    return sorted(s for action in parser._actions for s in action.option_strings)


def test_knob_inventory():
    """Every option and parameter the CLI, census and searches take; a new
    knob needs a deliberate edit here."""
    parser = build_parser()
    assert _option_strings(parser) == ["--help", "-h"]
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: _option_strings(p) for name, p in sub.choices.items()} == {
        "link": ["--dot", "--help", "-h"],
        "aut": ["--help", "-h"],
        "volume": ["--eps", "--help", "-h"],
        "count": ["--help", "--oracle", "--refine", "-h"],
        "dist": ["--help", "-h"],
        "parse": ["--dot", "--help", "-h"],
    }
    for fn in (
        bhvkit.enumerate_binary_topologies,
        bhvkit.enumerate_binary_refinements,
        bhvkit.brute_force_automorphisms,
        bhvkit.certify_aut,
        bhvkit.maximum_independent_sets,
    ):
        assert len(inspect.signature(fn).parameters) == 1


def test_public_api_inventory():
    """Every public name bhvkit exports; adding or removing one needs a
    deliberate edit here, recorded in CHANGES.md."""
    exported = sorted(
        name for name, value in vars(bhvkit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exported == [
        "AutomorphismGroup", "BallVolume", "BhvError", "EpsilonTooLarge", "IncompatiblePair",
        "LeafCountMismatch", "LinkGraph", "NewickSyntaxError", "Permutation", "Split",
        "TooLarge", "Topology", "TreePoint", "all_permutations", "apply_permutation",
        "are_compatible", "ball_volume", "ball_volume_bounds", "brute_force_automorphisms",
        "build_link_graph", "certify_aut", "clade_children", "count_refining_orthants",
        "degree_formula", "degree_sequence", "distance_upper_bound", "double_factorial",
        "ekr_independent_sets", "enumerate_binary_refinements", "enumerate_binary_topologies",
        "enumerate_splits", "euclidean_ball_volume", "is_binary", "is_cone_point",
        "kneser_subgraph", "make_split", "make_topology",
        "maximum_independent_sets", "parse_newick", "permutation_to_automorphism",
        "same_orthant_distance", "to_newick", "verify_degrees",
    ]


def test_every_exported_error_is_a_value_error():
    """main reports any ValueError, so every bhvkit error must be one; each class
    beside BhvError is one a caller tells apart, by exit code or attribute; a
    new class needs a deliberate edit here."""
    errors = {v for v in vars(bhvkit).values() if inspect.isclass(v) and issubclass(v, BaseException)}
    assert errors == {
        bhvkit.BhvError, bhvkit.EpsilonTooLarge, bhvkit.IncompatiblePair,
        bhvkit.LeafCountMismatch, bhvkit.NewickSyntaxError, bhvkit.TooLarge,
    }
    assert all(issubclass(e, bhvkit.BhvError) and issubclass(e, ValueError) for e in errors)


# Fuzz of main: random inline trees (text, Newick-like text, JSON tree points,
# any JSON), random bytes in a tree file or on stdin, and random counts.
TREE_FILE = "<the tree file>"  # replaced by the path of a file holding the drawn bytes
ANY_JSON = st.recursive(
    st.none() | st.booleans() | LENGTHS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
JSON_TREES = st.fixed_dictionaries(
    {
        "n": st.one_of(st.integers(-2, 12), st.booleans(), st.text(max_size=3)),
        "edges": st.lists(
            st.fixed_dictionaries(
                {"side": st.lists(st.integers(-1, 13), max_size=7), "length": LENGTHS}
            ),
            max_size=6,
        ),
    },
    optional={"leaf_lengths": st.dictionaries(st.text(max_size=3), LENGTHS, max_size=3)},
)


@st.composite
def json_tree_points(draw):
    """Valid JSON tree points on 3..12 leaves: the clades of one nested tree, each
    given as either side, positive finite lengths, and leaf lengths or none."""
    length = st.floats(0, 1e308, exclude_min=True)
    n = draw(st.integers(3, 12))
    items = [{leaf} for leaf in draw(st.permutations(range(1, n + 1)))]
    sides = []
    while len(items) > 3 and draw(st.booleans()):  # three or more top items: every clade is a split
        i = draw(st.integers(0, len(items) - 2))
        items[i : i + 2] = [items[i] | items[i + 1]]
        sides.append(sorted(set(range(1, n + 1)) - items[i] if draw(st.booleans()) else items[i]))
    edges = [{"side": side, "length": draw(length)} for side in sides]
    tree = {"n": n, "edges": edges}
    if draw(st.booleans()):
        leaves = draw(st.sets(st.integers(1, n)))
        tree["leaf_lengths"] = {str(leaf): draw(length) for leaf in sorted(leaves)}
    return tree


TREES = st.one_of(
    newick_trees(),
    st.one_of(
        st.text(max_size=40),
        st.text(alphabet="(),:;-+.e0123456789 \n", max_size=60),
        JSON_TREES.map(json.dumps),
        ANY_JSON.map(json.dumps),
        st.just(TREE_FILE),
        st.just("-"),
    ),
)


@st.composite
def cli_runs(draw):
    """(argv, bytes for TREE_FILE, text on stdin)."""
    data = draw(st.binary(max_size=200))
    command = draw(st.sampled_from(["parse", "volume", "dist", "count"]))
    if command == "parse":
        argv = ["parse", draw(TREES)]
    elif command == "volume":
        eps = draw(st.one_of(st.floats(0, 1).map(repr), st.floats().map(repr), st.text(max_size=6)))
        argv = ["volume", draw(TREES), "--eps", eps]
    elif command == "dist":
        argv = ["dist", draw(TREES), draw(TREES)]
    else:
        n = draw(st.integers(-5, 70))
        argv = ["count", str(n)]
        if draw(st.booleans()):
            # the drawn bytes as argv would carry them, or a list of leaf lists
            as_argv = st.just(data.decode("utf-8", "surrogateescape"))
            sides = st.lists(st.lists(st.integers(-1, 71), max_size=6), max_size=4).map(json.dumps)
            argv += ["--refine", draw(st.one_of(as_argv, sides))]
        if n <= 8 and draw(st.booleans()):
            argv.append("--oracle")
    return argv, data, draw(st.text(max_size=40))


@pytest.fixture(scope="module")
def tree_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "tree.nwk"


@settings(max_examples=300, deadline=None)
@given(cli_runs())
def test_fuzzed_cli_runs_give_a_documented_code_and_at_most_one_error_line(tree_file, run_case):
    argv, data, stdin = run_case
    tree_file.write_bytes(data)
    argv = [str(tree_file) if arg == TREE_FILE else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        try:
            code = main(argv)
        except SystemExit as exc:  # only --help (a tree argument such as '-h') exits
            assert exc.code == 0 and out.getvalue().startswith("usage: ")
            code = 0
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3, 4, 5)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Infinity" not in out.getvalue() and "NaN" not in out.getvalue()


def _main(*argv):
    """(exit code, stdout, stderr) of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.one_of(newick_trees(), json_tree_points().map(json.dumps)), st.sampled_from(["1e-300", "0.01"]))
def test_parse_reports_parse_back_to_themselves(tree, eps):
    # a parse report's newick, and the report without it as a JSON tree, each
    # give the same report again, and the same volume and dist reports
    code, out, _ = _main("parse", tree)
    assume(code == 0)
    event("JSON tree" if tree.startswith("{") else "Newick tree")
    report = json.loads(out)
    forms = [tree, report.pop("newick"), json.dumps(report)]
    for form in forms[1:]:
        assert _main("parse", form) == (0, out, "")
    assert len({_main("volume", form, "--eps", eps) for form in forms}) == 1
    assert len({_main("dist", form, tree) for form in forms}) == 1
