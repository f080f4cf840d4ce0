import itertools
import json
from fractions import Fraction

import pytest

from regretgames import (
    Game,
    InputError,
    game_from_json,
    game_to_json,
    load_game,
    make_dense_game,
    save_game,
)
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


def test_game_from_json_validation():
    with pytest.raises(InputError, match="missing keys"):
        game_from_json({"players": 2})
    with pytest.raises(InputError, match="players=3"):
        game_from_json({"players": 3, "strategy_counts": [2, 2], "payoffs": []})
    with pytest.raises(InputError):
        game_from_json({"players": 2, "strategy_counts": [2, 2],
                        "payoffs": [[[0.5, 0], [0, 0]], [[0, 0], [0, 0]]]})
