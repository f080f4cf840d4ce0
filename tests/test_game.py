import itertools
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretgames import (
    Game,
    InputError,
    game_from_json,
    game_to_json,
    load_game,
    make_dense_game,
    save_game,
)
from regretgames import rational
from regretgames.game import json_text
from regretgames.rational import parse_rational, rational_column, rational_parts
from support import anchor_game


def test_dense_construction_and_reads():
    g = anchor_game()
    assert g.player_count == 2
    assert g.strategy_counts == (2, 2)
    assert g.payoff((0, 0), 0) == 4
    assert g.payoff((1, 1), 1) == 2


def test_dimension_error_names_axis():
    with pytest.raises(InputError, match="axis 1"):
        make_dense_game((2, 2), [[[4, 0], [0, 3], [9, 9]], [[3, 1], [3, 2]]])


def test_asymmetric_counts():
    table = [[[1, 0], [2, 0], [3, 0]], [[4, 0], [5, 0], [6, 0]]]
    g = make_dense_game((2, 3), table)
    assert g.payoff((1, 2), 0) == 6
    assert len(list(g.opponent_profiles(1))) == 2


def test_cell_must_list_one_payoff_per_player():
    with pytest.raises(InputError, match="cell"):
        make_dense_game((2, 2), [[[4], [0, 3]], [[3, 1], [3, 2]]])
    with pytest.raises(InputError, match="exact rational"):
        Game.from_cells((2, 2), [(0.5, 0), (0, 0), (0, 0), (0, 0)])
    with pytest.raises(InputError, match="2 scales"):
        Game((2, 2), columns=[[1, 2, 3, 4], [1, 2, 3, 4]], scales=[1])


def test_payoff_validates_ranges():
    g = anchor_game()
    with pytest.raises(InputError):
        g.payoff((2, 0), 0)
    with pytest.raises(InputError):
        g.payoff((0, 0), 5)
    with pytest.raises(InputError):
        g.payoff((0,), 0)


def test_opponent_profiles_enumeration():
    g = anchor_game()
    profiles = list(g.opponent_profiles(0))
    assert [p.choices for p in profiles] == [(0,), (1,)]

    g3 = Game.from_cells(
        (2, 2, 2), [(sum(prof),) * 3 for prof in itertools.product(range(2), repeat=3)]
    )
    profiles = list(g3.opponent_profiles(1))
    assert len(profiles) == 4
    assert [p.choices for p in profiles] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # combining restores the excluded slot
    assert profiles[2].combine(1) == (1, 1, 0)


def test_best_response_value():
    g = anchor_game()
    # independent oracle: explicit max over the two table reads
    assert g.best_response_value(0, (0,)) == max(g.payoff((0, 0), 0), g.payoff((1, 0), 0))
    assert g.best_response_value(0, (1,)) == max(g.payoff((0, 1), 0), g.payoff((1, 1), 0)) == 3


def test_best_response_singleton_player():
    g = make_dense_game((1, 2), [[[7, 0], [5, 1]]])
    assert g.best_response_value(0, (1,)) == 5


def test_affine_transform():
    g = anchor_game()
    same = g.affine_transform(0, 1, 0)
    assert all(
        same.payoff(prof, p) == g.payoff(prof, p)
        for prof in g.profiles()
        for p in (0, 1)
    )
    doubled = g.affine_transform(0, 2, 0)
    assert doubled.payoff((0, 0), 0) == 8
    assert doubled.payoff((0, 0), 1) == 0  # other players untouched
    shifted = g.affine_transform(0, 1, -4)
    assert shifted.payoff((0, 0), 0) == 0
    with pytest.raises(InputError):
        g.affine_transform(0, 0, 1)
    with pytest.raises(InputError):
        g.affine_transform(0, Fraction(-1, 2), 0)


def test_labels_validation():
    make_dense_game((2, 2), [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                    labels=[["a", "b"], ["x", "y"]])
    with pytest.raises(InputError):
        make_dense_game((2, 2), [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                        labels=[["a"], ["x", "y"]])


def test_json_round_trip_bit_exact(tmp_path):
    g = make_dense_game(
        (2, 2),
        [[["1/3", 1], [0, "7/2"]], [[2, "-5/4"], ["0", 3]]],
        labels=[["low", "high"], ["l", "r"]],
    )
    path = tmp_path / "game.json"
    save_game(g, path)
    text_once = path.read_text()
    reloaded = load_game(path)
    assert reloaded == g
    save_game(reloaded, path)
    assert path.read_text() == text_once
    # canonical emission: integral rationals serialize as ints
    obj = game_to_json(g)
    assert obj["payoffs"][0][0] == ["1/3", 1]


def test_equality_is_by_value_however_the_game_was_built():
    # player 0's numerators 2, 4, 6, 8 over 4 are 1/2, 1, 3/2, 2
    scaled = Game((2, 2), columns=[[2, 4, 6, 8], [0, 3, 6, 9]], scales=[4, 3])
    assert scaled.payoff((1, 0), 0) == Fraction(3, 2)
    assert game_from_json(game_to_json(scaled)) == scaled
    assert scaled == make_dense_game((2, 2), [[["1/2", 0], [1, 1]], [["3/2", 2], [2, 3]]])
    assert scaled != make_dense_game((2, 2), [[["1/2", 0], [1, 1]], [["3/2", 2], [2, 4]]])


@pytest.mark.parametrize("odd", [0, 255, 256, 257, 511, 599])
def test_reduction_reads_every_cell_until_the_gcd_is_one(odd):
    # numerators over 12 are multiples of 6 except one multiple of 3, so the
    # stored scale is 4 wherever that cell sits, chunk boundaries included
    column = [6 * (i % 5 - 2) for i in range(600)]
    column[odd] = 3
    game = Game((2, 300), columns=[column, [12] * 600], scales=[12, 12])
    rows, scale = game.payoff_matrix(0)
    assert scale == 4 and [v for row in rows for v in row] == [v // 3 for v in column]
    rows, scale = game.payoff_matrix(1)
    assert scale == 1 and {v for row in rows for v in row} == {1}
    column[odd] = 1  # now the gcd is 1 and nothing is divided
    assert Game((2, 300), columns=[column, column], scales=[12, 12]).payoff_matrix(0)[1] == 12


def assert_view_quotients_the_matrix(game):
    """``_opponent_classes`` against ``payoff_matrix``, for every player."""
    for player in range(game.player_count):
        view = game._opponent_classes(player)
        rows, keys, scale = view
        matrix, matrix_scale = game.payoff_matrix(player)
        assert scale == matrix_scale and len(rows) == len(matrix) and len(keys) == len(matrix[0])
        for s, row in enumerate(matrix):
            assert [rows[s][keys[q]] for q in range(len(row))] == list(row)
        columns = list(zip(*rows))
        assert len(set(columns)) == len(columns)  # distinct
        assert list(dict.fromkeys(keys)) == list(range(len(columns)))  # first-seen order
        assert game._opponent_classes(player) is view  # cached
    with pytest.raises(InputError):
        game._opponent_classes(True)


def test_opponent_classes_keep_each_distinct_column_once():
    # player 0's opponent columns are the 9 profiles of players 1 and 2; its
    # payoff depends only on player 1's choice, so 3 columns are distinct
    cells = [(s + 10 * b, b, c) for s, b, c in itertools.product(range(2), range(3), range(3))]
    game = Game.from_cells((2, 3, 3), cells)
    assert_view_quotients_the_matrix(game)
    rows, keys, _ = game._opponent_classes(0)
    assert rows == ((0, 10, 20), (1, 11, 21)) and list(keys) == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    # player 1's payoff is its own choice, so its 6 opponent columns are all (0, 1, 2)
    assert game._opponent_classes(1)[0] == ((0,), (1,), (2,))
    assert_view_quotients_the_matrix(anchor_game())


@pytest.mark.parametrize("row", [[4, 1, 4, 2, 9], [-1, -2, 5]])
def test_distinct_columns_keep_the_matrix_rows(row):
    # hash(-1) == hash(-2), so the second row's columns share a hash and are
    # told apart by comparing them
    game = Game.from_cells((1, len(row)), [(v, v) for v in row])
    assert_view_quotients_the_matrix(game)
    assert game._opponent_classes(1)[0] is game.payoff_matrix(1)[0]
    rows, _ = game.payoff_matrix(0)
    assert (game._opponent_classes(0)[0] is rows) == (len(set(row)) == len(row))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 3), min_size=n, max_size=n), st.randoms(use_true_random=False))))
def test_opponent_classes_match_the_matrix_on_random_games(case):
    counts, rng = case
    values = rng.choice([(0, 1), (-1, -2, 3), tuple(range(-9, 10))])
    cells = [tuple(rng.choice(values) for _ in counts)
             for _ in itertools.product(*map(range, counts))]
    assert_view_quotients_the_matrix(Game.from_cells(counts, cells))


def test_game_from_json_validation():
    with pytest.raises(InputError, match="missing keys"):
        game_from_json({"players": 2})
    with pytest.raises(InputError, match="players=3"):
        game_from_json({"players": 3, "strategy_counts": [2, 2], "payoffs": []})
    with pytest.raises(InputError):
        game_from_json({"players": 2, "strategy_counts": [2, 2],
                        "payoffs": [[[0.5, 0], [0, 0]], [[0, 0], [0, 0]]]})


# int() refuses digit strings past this limit (0: no limit, or an older Python)
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_PAST_THE_DIGIT_LIMIT = [
    pytest.param("1" * (_DIGIT_LIMIT + 1), id="numerator-past-the-digit-limit"),
    pytest.param("1/" + "1" * (_DIGIT_LIMIT + 1), id="denominator-past-the-digit-limit"),
] if _DIGIT_LIMIT else []


@pytest.mark.parametrize("text", [
    "0", "-0", "7", "+7", "-7", "007", "4/6", "-4/6", "+1/3", "0/5", "3/1",
    "12345678901234567890/36",
])
def test_rational_grammar_accepts_integers_and_fractions(text):
    assert parse_rational(text) == Fraction(text)
    assert rational_parts(text) == (Fraction(text).numerator, Fraction(text).denominator)
    game = make_dense_game((1, 1), [[[text, 0]]])
    assert game.payoff((0, 0), 0) == Fraction(text)


@pytest.mark.parametrize("value", [
    "1.5", ".5", "1e3", "1e-10000000", "1E2", " 3", "3 ", "3\n", "1_000", "٣",
    "3/0", "-3/0", "3/-4", "1/2/3", "", "+", "/3", "3/", "0x10", "inf", "nan",
    *_PAST_THE_DIGIT_LIMIT, 1.5, True, None,
])
def test_rational_grammar_rejects_everything_else(value):
    with pytest.raises(InputError, match="not a rational number"):
        parse_rational(value)
    with pytest.raises(InputError, match="not a rational number"):
        make_dense_game((1, 1), [[[value, 0]]])


# -- the first bad entry, in cell order ----------------------------------------

FIRST_ERRORS = [
    # a bad value is named in cell order, not column by column
    ([[["1", "y"], ["x", "1"]], [["1", "1"], ["1", "1"]]], "not a rational number: 'y'"),
    # a bad value comes before a shape error in a later cell
    ([[["z", 1], [1, 1]], [[1, 1], [1]]], "not a rational number: 'z'"),
    # a shape error comes before a bad value in a later cell
    ([[[1], [1, "x"]], [[1, 1], [1, 1]]], "cell at (0, 0) must list 2 payoffs, got [1]"),
    ([[[1, 1], [1, 1], [1, 1]], [["x", 1], [1, 1]]],
     "axis 1 (player 1) expects 2 entries, got 3 at (0,)"),
    ([[[1, 1], [1, "1/0"]], [[True, 1], [1, 1]]], "not a rational number: '1/0'"),
    ([[[1, 1], "ab"], [[1, 1], [1, 1]]], "cell at (0, 1) must list 2 payoffs, got 'ab'"),
]


@pytest.mark.parametrize("table, message", FIRST_ERRORS)
def test_the_first_bad_entry_in_cell_order_is_named(table, message):
    with pytest.raises(InputError) as raised:
        make_dense_game((2, 2), table)
    assert str(raised.value) == message


@pytest.mark.parametrize("size", [4, 40])  # below and above the bulk parse's minimum
def test_the_first_bad_value_is_named_in_long_tables_too(size):
    table = [[[f"{i}/7", i], [i, "1/2"]] for i in range(size)]
    table[1][0][1] = "bad"  # player 1's column, early in cell order
    table[size - 1][1][0] = "worse"  # player 0's column, late in cell order
    with pytest.raises(InputError, match="not a rational number: 'bad'"):
        make_dense_game((size, 2), table)


# -- games of many players -------------------------------------------------------


@pytest.mark.parametrize("players", [995, 1500])
def test_games_of_many_players_build_and_serialize_without_recursion(players):
    payoffs = [f"{2 * p + 1}/2" for p in range(players)]
    for _ in range(players):
        payoffs = [payoffs]
    obj = {"players": players, "strategy_counts": [1] * players, "payoffs": payoffs}
    built = game_from_json(obj)
    assert built.payoff((0,) * players, players - 1) == Fraction(2 * players - 1, 2)
    text = json_text(game_to_json(built))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:  # comparing nested lists and json.dumps recurse once per level
        assert game_to_json(built) == obj
        assert text == json.dumps(obj, indent=2)
    finally:
        sys.setrecursionlimit(limit)


# -- the bulk column parser against rational_parts ------------------------------


def _reference(values):
    """The column as rational_parts reads it, value by value: Fractions, or
    the error text of the first bad value."""
    try:
        return [Fraction(*rational_parts(v)) for v in values]
    except InputError as exc:
        return str(exc)


def _bulk(values):
    """The column as make_dense_game reads it: Fractions, or its error text."""
    parsed = rational_column(list(values))
    try:
        game = make_dense_game((len(values), 1), [[[v, 0]] for v in values])
    except InputError as exc:
        assert parsed is None
        return str(exc)
    if parsed is not None:
        numerators, scale = parsed
        assert [Fraction(n, scale) for n in numerators] == [
            game.payoff((i, 0), 0) for i in range(len(values))]
    return [game.payoff((i, 0), 0) for i in range(len(values))]


SPECIAL = [
    "-0", "+5", "007/014", "-006/4", "1/0", "1/00", "1//2", "1/-2", "1/+2", " 1", "1 ", "1_0",
    "١", "1\n2", "1\n", "\n-1", "1/2\n", "\n", "", "1" * 4301, "1/" + "1" * 4301, "9" * 4300, True, False, 1.5, None,
    Fraction(1, 3), 10**5000, -(10**40),
]


def _label(value):
    if isinstance(value, int) and abs(value) > 10**100:
        return f"int-of-{len(str(abs(value) // 10**4000)) + 4000}-digits"
    return repr(value)[:20]


@pytest.mark.parametrize("special", SPECIAL, ids=_label)
@pytest.mark.parametrize("length", [3, 40])  # below and above the bulk parse's minimum
def test_bulk_parse_reads_what_rational_parts_reads(special, length):
    for position in (0, length // 2, length - 1):
        values = [f"{i - 7}/{i % 5 + 1}" if i % 3 else i - 20 for i in range(length)]
        values[position] = special
        assert _bulk(values) == _reference(values)


VALID_TEXTS = st.builds(
    lambda n, d, sign, zeros, slash: (
        f"{sign}{'0' * zeros}{abs(n)}" + (f"/{'0' * zeros}{d}" if slash else "")),
    st.integers(-10**30, 10**30), st.integers(1, 10**6), st.sampled_from(["", "+", "-"]),
    st.integers(0, 2), st.booleans(),
)
COLUMN_VALUES = st.one_of(
    VALID_TEXTS, VALID_TEXTS, st.integers(-10**30, 10**30),
    st.sampled_from([s for s in SPECIAL if not (isinstance(s, str) and len(s) > 100)]),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(COLUMN_VALUES, min_size=1, max_size=40))
def test_bulk_parse_matches_rational_parts_on_random_columns(values):
    assert _bulk(values) == _reference(values)


def test_long_mixed_columns_parse_in_bulk(monkeypatch):
    values = [f"{i}/{i % 7 + 1}" if i % 4 else i for i in range(-30, 30)]
    expected = [Fraction(*rational_parts(v)) for v in values]

    def per_value(value):
        raise AssertionError("parsed value by value")

    monkeypatch.setattr(rational, "rational_parts", per_value)
    numerators, scale = rational_column(values)
    assert [Fraction(n, scale) for n in numerators] == expected
    assert rational_column([10**5000, -1, 7] * 10) == ([10**5000, -1, 7] * 10, 1)
