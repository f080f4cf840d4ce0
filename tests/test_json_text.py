"""The JSON writer ``json_text`` against ``json.dumps(obj, indent=2)``.

Every CLI output, game file and schema print goes through ``json_text``, so
it must reproduce the standard encoder byte for byte, errors included.
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
    st.floats(),
)
KEYS = st.one_of(TEXTS, st.integers(-5, 5), st.booleans(), st.none(), st.floats(-2, 2))
VALUES = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
        # grids: lists of lists of one length, the payoff tables' shape
        st.integers(1, 3).flatmap(
            lambda n: st.lists(st.lists(inner, min_size=n, max_size=n), min_size=1, max_size=3)),
    ),
    max_leaves=40,
)


def _same_as_dumps(value):
    try:
        expected = json.dumps(value, indent=2)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as raised:
            json_text(value)
        assert str(raised.value) == str(exc)
    else:
        assert json_text(value) == expected


@settings(max_examples=300, derandomize=True, deadline=None)
@given(VALUES)
def test_writer_equals_json_dumps(value):
    _same_as_dumps(value)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [1]], [[1], []], [[1, 2], [3]],
    [[[1, 2], [3, 4]], [[5, 6], [7, 8]]], [[["1/3", 1], [0, "7/2"]]], [(1, "a"), [True, None]],
    [[1, [2]]], [[1], [[2]]], {"payoffs": [[[1, 2]]], "next": {"k": [1]}},
    "é \"\\", 10**400, -(10**400), 1.5, float("nan"), float("-inf"), True, None,
    {1: "a", 2.5: "b", True: "c", None: "d", "e": [False]},
])
def test_writer_edge_cases(value):
    _same_as_dumps(value)


class _Int(int):
    pass


class _Str(str):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


def test_writer_takes_subclasses_as_json_does():
    value = _Dict(a=_List([_Int(3), _Str("x"), [_Int(1), _Int(2)]]), b=[[_Str("y")]])
    _same_as_dumps(value)
    _same_as_dumps([[1, 2], _List([3, 4])])
    _same_as_dumps(_List([[1, 2], (3, 4)]))


def test_writer_raises_what_json_dumps_raises():
    for value in (
        [[1, 2], [3, Fraction(1, 2)]],  # a stray Fraction in a grid
        {"a": 1, "b": {"c": Fraction(1, 2)}, "d": object()},  # the first one in document order
        {(1, 2): 3},  # a key json cannot write
        {"a": {(1, 2): Fraction(1, 2)}},
    ):
        _same_as_dumps(value)


def test_writer_reports_containers_that_hold_themselves():
    looped_list, looped_dict, pair = [], {}, [[1]]
    looped_list.append(looped_list)
    looped_dict["a"] = [looped_dict]
    pair.append(pair)
    for value in (looped_list, looped_dict, [[looped_list]], pair):
        with pytest.raises(ValueError, match="Circular reference detected"):
            json_text(value)
    shared = [1, 2]
    _same_as_dumps([[shared, shared], [shared, shared]])  # shared, not circular


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
