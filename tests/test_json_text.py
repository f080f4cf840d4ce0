"""The JSON writer ``json_text`` against ``json.dumps(obj, indent=2)``.

Every CLI output, game file and schema print goes through ``json_text``, so
it must reproduce the standard encoder byte for byte on what the package
writes: exact dicts with str keys, lists, tuples, strs, ints, bools and None.
Anything else must raise ``TypeError``.
"""

import inspect
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretgames import game
from regretgames.game import json_text

SRC = Path(__file__).resolve().parent.parent / "src" / "regretgames"

TEXTS = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\x00\x1f\n\t\r\x7f é€😀 ab01,:[]{}')),
)
ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**300), 2**300),
    TEXTS,
)
VALUES = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(TEXTS, inner, max_size=4),
        # grids: lists of lists of one length, the payoff tables' shape
        st.integers(1, 3).flatmap(
            lambda n: st.lists(st.lists(inner, min_size=n, max_size=n), min_size=1, max_size=3)),
    ),
    max_leaves=40,
)


def _same_as_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(VALUES)
def test_writer_equals_json_dumps(value):
    _same_as_dumps(value)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [1]], [[1], []], [[1, 2], [3]],
    [[[1, 2], [3, 4]], [[5, 6], [7, 8]]], [[["1/3", 1], [0, "7/2"]]], [(1, "a"), [True, None]],
    [[1, [2]]], [[1], [[2]]], {"payoffs": [[[1, 2]]], "next": {"k": [1]}},
    "é \"\\", 10**400, -(10**400), True, None,
    [[[1, 2]] * 2] * 2,  # one list held four times
])
def test_writer_edge_cases(value):
    _same_as_dumps(value)


def test_writer_raises_type_error_outside_its_domain():
    for value, name in (
        ([[1, 2], [3, Fraction(1, 2)]], "Fraction"),  # a stray Fraction in a grid
        ({"a": 1, "b": {"c": 0.5}, "d": object()}, "float"),  # the first one in document order
        ([1, "a", object()], "object"),
    ):
        with pytest.raises(TypeError, match=f"^Object of type {name} is not JSON serializable$"):
            json_text(value)
    for value in ({1: "a"}, {"a": [{None: []}]}):  # keys must be strs
        with pytest.raises(TypeError):
            json_text(value)


@pytest.mark.parametrize("make, levels", [
    (lambda inner: [inner], 1),
    (lambda inner: {"k": [1, inner]}, 2),
])
def test_writer_needs_no_recursion_3000_deep(make, levels):
    value = 0
    for _ in range(3000 // levels):
        value = make(value)
    text = json_text(value)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:  # the standard encoder recurses once per level
        assert text == json.dumps(value, indent=2)
    finally:
        sys.setrecursionlimit(limit)


def test_indent_is_written_only_by_the_writer():
    source, first = inspect.getsourcelines(json_text)
    writer = (Path(inspect.getsourcefile(json_text)).resolve(), range(first, first + len(source)))
    found = [
        (path.resolve(), number)
        for path in SRC.glob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"\bindent\s*=", line)
    ]
    assert found, "the writer's docstring names indent="
    assert all(path == writer[0] and number in writer[1] for path, number in found), found


def test_save_game_writes_through_the_writer(tmp_path):
    built = game.make_dense_game((2, 3), [[[1, "1/2"], [0, 3], ["-7/3", 2]],
                                          [[2, 2], ["5/4", 0], [1, 1]]],
                                 labels=[["a", "b"], ["x", "y", "é"]])
    path = tmp_path / "g.json"
    game.save_game(built, path)
    assert path.read_text() == json.dumps(game.game_to_json(built), indent=2) + "\n"
