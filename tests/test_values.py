"""The seven value types: immutability, copy and pickle round trips, match
arguments and layout, and an import of the CLI that loads none of
dataclasses, fractions and typing."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import bhvkit
from bhvkit import (
    Permutation,
    Topology,
    TreePoint,
    ball_volume,
    brute_force_automorphisms,
    build_link_graph,
    kneser_subgraph,
    make_split,
    make_topology,
)

S12, S45 = make_split({1, 2}, 6), make_split({4, 5}, 6)
FACE = make_topology([S12, S45], 6)
POINT = TreePoint(FACE, {S12: 1.5, S45: 2}, {1: 0.5, 3: 0})
VALUES = {
    "Split": S12,
    "Permutation": Permutation.from_cycles(6, (1, 2, 3)),
    "Topology": FACE,
    "TreePoint": POINT,
    "TreePoint-no-leaves": TreePoint(Topology(5)),
    "BallVolume": ball_volume(POINT, 0.1),
    "LinkGraph": kneser_subgraph(build_link_graph(6), 2),
    "AutomorphismGroup": brute_force_automorphisms(build_link_graph(5)),
}
MATCH_ARGS = {
    "Split": ("n", "mask"),
    "Permutation": ("images",),
    "Topology": ("n", "splits"),
    "TreePoint": ("topology", "lengths", "leaf_lengths"),
    "BallVolume": ("value", "n", "p", "s_f", "epsilon", "coefficient"),
    "LinkGraph": ("n", "vertices", "adjacency"),
    "AutomorphismGroup": ("order", "generators", "elements"),
}


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_assigning_or_deleting_an_attribute_raises_attribute_error(value):
    # a TypeError here would get past a caller's except AttributeError
    before, field = repr(value), type(value).__match_args__[0]
    for attempt, name in [
        (lambda: setattr(value, field, 1), field),
        (lambda: delattr(value, field), field),
        (lambda: setattr(value, "x", 1), "x"),
        (lambda: delattr(value, "x"), "x"),
    ]:
        with pytest.raises(AttributeError, match=f"'{name}'"):
            attempt()
    assert repr(value) == before


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_copy_deepcopy_and_pickle_give_an_equal_value(value):
    twins = [copy.copy(value), copy.deepcopy(value)]
    twins += [pickle.loads(pickle.dumps(value, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins:
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
        assert repr(twin) == repr(value)


@pytest.mark.parametrize("name", [name for name, value in VALUES.items() if "__hash__" not in vars(type(value))])
def test_a_value_hashes_as_the_tuple_of_its_fields(name):
    # the shared hash, as a tuple of every field read at once; a one-field value keeps its one-tuple
    value = VALUES[name]
    assert hash(value) == hash(tuple(getattr(value, field) for field in type(value).__match_args__))


def test_a_pickled_topology_walks_its_tree_again():
    twin = pickle.loads(pickle.dumps(FACE))
    assert twin._tree == FACE._clades()  # rebuilt through the checked constructor


@pytest.mark.parametrize("name", MATCH_ARGS)
def test_match_arguments_are_the_constructor_fields(name):
    value, cls = VALUES[name], type(VALUES[name])
    assert cls.__match_args__ == MATCH_ARGS[name]
    match value:
        case cls(first):
            assert first == getattr(value, MATCH_ARGS[name][0])
        case _:
            pytest.fail(f"{name} did not match its class pattern")


@pytest.mark.parametrize("name", ["Split", "Topology"])
def test_the_hot_values_carry_no_instance_dict(name):
    assert not hasattr(VALUES[name], "__dict__")


def test_values_of_other_types_are_not_equal():
    assert S12 != S12.mask and FACE != (6, FACE.splits) and POINT != FACE
    assert Permutation((1, 2, 3)) != (1, 2, 3)


def test_importing_the_cli_loads_no_dataclasses_fractions_or_typing():
    # -S keeps the environment's site hooks out, so only bhvkit's own imports count
    package_root = str(Path(bhvkit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    unwanted = "{'dataclasses', 'inspect', 'fractions', 'decimal', 'typing', 'pathlib'}"
    code = f"import sys, bhvkit.cli; print(sorted({unwanted} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
