import re
from fractions import Fraction

import pytest

from regretgames import (
    PASS,
    TAKE,
    BiddingSpec,
    Game,
    GameSequence,
    InputError,
    RandomGameSpec,
    Restriction,
    SequenceAnalysis,
    SizeError,
    TradingSpec,
    TradingStrategy,
    all_player_reports,
    audit_single_agent,
    bidding_utility,
    closed_form_competitive,
    closed_form_rational,
    competitive_trading_strategy,
    decision_points,
    expand_sequence,
    folk_strategy,
    iterated_rational_sets,
    make_dense_game,
    minimal_regret_sweep,
    minimax_regret,
    random_realizations,
    reference_strategy,
    simulate,
    single_agent_threshold,
    trading_oracle,
    trading_oracle_report,
    trading_payoff,
    verify_folk_theorem,
)
from regretgames.errors import check_size
from regretgames.repeated import stage_pick


def test_size_check_at_and_past_the_cap():
    assert check_size("{} cells", 3**5, (3, 5)) == 243
    assert check_size("{} cells", 24, (2, 3), (3, 1)) == 24
    with pytest.raises(SizeError) as info:
        check_size("the sweep would score {} candidate rules", 242, (3, 5))
    assert info.value.count == 243
    assert str(info.value) == "the sweep would score 243 candidate rules (cap 242)"


def test_size_check_base_one_and_empty_product():
    assert check_size("{} cells", 1, (1, 10**100), (1, 7)) == 1
    assert check_size("{} cells", 1) == 1  # the empty product
    with pytest.raises(SizeError) as info:
        check_size("{} cells", 0, (1, 10**100))
    assert info.value.count == 1


def test_size_check_refuses_a_negative_cap():
    with pytest.raises(InputError) as info:
        check_size("{} cells", -1, (2, 3))
    assert str(info.value) == "a size cap must be non-negative, got -1"


def test_size_check_huge_exponent_reports_a_lower_bound():
    with pytest.raises(SizeError) as info:
        check_size("{} realizations", 4096, (2, 10**12))
    assert info.value.count is None
    assert str(info.value) == "at least 2**1000000000000 realizations (cap 4096)"
    # the exact product stops once it is 2 ** 64 past the cap
    with pytest.raises(SizeError) as info:
        check_size("{} strategies", 10**6, (2, 1), (2, 2), (2, 4), (2, 8), (2, 16), (2, 32),
                   (2, 64), (3, 1))
    assert info.value.count is None
    assert str(info.value) == "at least 2**127 strategies (cap 1000000)"


_STAGE = make_dense_game((2, 2), [[[10, 9], [0, 0]], [[1, 3], [2, 1]]])
_SEQUENCE = GameSequence.repeat(_STAGE, 2)
_SPEC = TradingSpec((2, 2), (6, 6), 3, 1)
#: One player's payoff rows in a 2x2 game, all zero.
_ZERO_ROWS = [[0, 0], [0, 0]]

_MODE_ENTRIES = {
    "all_player_reports": lambda mode: all_player_reports(_STAGE, mode),
    "stage_pick": lambda mode: stage_pick(_STAGE, 0, mode),
    "SequenceAnalysis.report": lambda mode: SequenceAnalysis(_SEQUENCE).report(1, 0, mode),
    "verify_folk_theorem": lambda mode: verify_folk_theorem(_SEQUENCE, mode),
    "trading_oracle": lambda mode: trading_oracle(
        _SPEC, 0, competitive_trading_strategy(_SPEC, 0), mode),
    "minimal_regret_sweep": lambda mode: minimal_regret_sweep(_SPEC, 0, mode),
    "reference_strategy": lambda mode: reference_strategy(_SPEC, 0, mode),
}


@pytest.mark.parametrize("mode", ["both", "plain"])
@pytest.mark.parametrize("entry", list(_MODE_ENTRIES))
def test_every_solve_mode_entry_rejects_unknown_modes(entry, mode):
    with pytest.raises(InputError, match=f"mode must be 'full' or 'rational', got '{mode}'"):
        _MODE_ENTRIES[entry](mode)


_AUCTION = BiddingSpec((8, 6, 3), 10, 1)

_PLAYER_SITES = {
    "bidding_utility": lambda value: bidding_utility(_AUCTION, (4, 2, 1), value),
    "closed_form_competitive": lambda value: closed_form_competitive(_AUCTION, value),
    "closed_form_rational": lambda value: closed_form_rational(_AUCTION, value),
    "decision_points": lambda value: decision_points(_SEQUENCE, value),
}

_INTEGER_SITES = {
    "Restriction": lambda value: minimax_regret(_STAGE, 0, Restriction(((0, 1), (value,)))),
    "iterated_rational_sets": lambda value: iterated_rational_sets(_STAGE, value),
    "check_size": lambda value: check_size("{} cells", value, (2, 3)),
    "expand_sequence-dense_cap": lambda value: expand_sequence(_SEQUENCE, value),
    "trading_oracle_report-enum_cap": lambda value: trading_oracle_report(
        _SPEC, 0, competitive_trading_strategy(_SPEC, 0), enum_cap=value),
    "audit_single_agent-enum_cap": lambda value: audit_single_agent(4, 1, 3, value),
    "single_agent_threshold-cap": lambda value: single_agent_threshold(value, 1),
    "single_agent_threshold-floor": lambda value: single_agent_threshold(4, value),
    **_PLAYER_SITES,
}


@pytest.mark.parametrize("value", [True, 1.0, "1"])
@pytest.mark.parametrize("site", list(_INTEGER_SITES))
def test_integer_arguments_reject_bools_floats_and_strings(site, value):
    with pytest.raises(InputError, match=f"must be an integer, got {value!r}"):
        _INTEGER_SITES[site](value)


@pytest.mark.parametrize("value", [5, -1])
@pytest.mark.parametrize("site", list(_PLAYER_SITES))
def test_player_arguments_reject_players_that_do_not_exist(site, value):
    with pytest.raises(InputError, match=f"player {value} out of range"):
        _PLAYER_SITES[site](value)


_MALFORMED_ENTRIES = {
    "Restriction": (lambda: Restriction(((0, 1), 5)),
                    "restriction of player 1 must list strategies, got 5"),
    "GameSequence": (lambda: GameSequence([_STAGE, 3]), "stage 1 must be a Game, got int"),
    "RandomGameSpec": (lambda: RandomGameSpec((_STAGE, "g"), 2),
                       "pool game 1 must be a Game, got str"),
    "TradingStrategy": (
        lambda: TradingStrategy(0, "x", [(None, False), 5, (None, False)]),
        re.escape("schedule entry 2 must be a (threshold, trigger) pair, got 5")),
    "TradingStrategy-short": (
        lambda: TradingStrategy(0, "x", [(None,)]),
        re.escape("schedule entry 1 must be a (threshold, trigger) pair, got (None,)")),
}

_PASSES = [(PASS, PASS)] * 3
_ANNOUNCED = [(2, 2)] * 3
_STRATEGIES = [competitive_trading_strategy(_SPEC, player) for player in (0, 1)]

#: Outer arguments that are not lists, each named in one line.
_MALFORMED_ARGUMENTS = {
    "Restriction": (lambda: Restriction(5),
                    "a restriction must list one strategy set per player, got 5"),
    "Restriction-None": (lambda: Restriction(None),
                         "a restriction must list one strategy set per player, got None"),
    "GameSequence": (lambda: GameSequence(3), "stages must list Games, got 3"),
    "RandomGameSpec": (lambda: RandomGameSpec(3, 2), "the game pool must list Games, got 3"),
    "make_dense_game": (lambda: make_dense_game(5, []), "strategy counts must be a list, got 5"),
    "Game": (lambda: Game(5, rows=[], scales=[]), "strategy counts must be a list, got 5"),
    "Game-rows": (lambda: Game((2, 2), rows=5, scales=[1, 1]),
                  "payoff rows must be a list, got 5"),
    "Game-scales": (lambda: Game((2, 2), rows=[_ZERO_ROWS] * 2, scales=1),
                    "payoff scales must be a list, got 1"),
    "Game-player-rows": (lambda: Game((2, 2), rows=[_ZERO_ROWS, 7], scales=[1, 1]),
                         "the payoff rows of player 1 must be a list, got 7"),
    "Game-row": (lambda: Game((2, 2), rows=[_ZERO_ROWS, [[0, 0], 7]], scales=[1, 1]),
                 "a payoff row must be a list, got 7"),
    "trading_payoff-announcements": (
        lambda: trading_payoff(_SPEC, 5, _PASSES),
        "announcements must list one pair per iteration, got 5"),
    "trading_payoff-announcement-pair": (
        lambda: trading_payoff(_SPEC, [(2, 2), 3, (2, 2)], _PASSES),
        "an announcement pair must list 2 announcements, got 3"),
    "trading_payoff-actions": (
        lambda: trading_payoff(_SPEC, _ANNOUNCED, 5),
        "actions must list one pair per iteration, got 5"),
    "trading_payoff-action-pair": (
        lambda: trading_payoff(_SPEC, _ANNOUNCED, [(PASS, PASS), 1, (PASS, PASS)]),
        f"an action pair must list 2 of {TAKE!r}/{PASS!r}, got 1"),
    "simulate-announcements": (
        lambda: simulate(_SPEC, _STRATEGIES, None),
        "announcements must list one pair per iteration, got None"),
    "simulate-announcement-pair": (
        lambda: simulate(_SPEC, _STRATEGIES, [(2, 2), (2, 2), 7]),
        "an announcement pair must list 2 announcements, got 7"),
    "simulate-strategies": (
        lambda: simulate(_SPEC, 4, _ANNOUNCED),
        "simulate needs one strategy for player 0 and one for player 1, got 4"),
    "TradingStrategy": (
        lambda: TradingStrategy(0, "x", 5),
        "a schedule must list one entry per iteration, got 5"),
}


@pytest.mark.parametrize("site", list(_MALFORMED_ENTRIES))
def test_constructors_name_the_malformed_entry(site):
    build, message = _MALFORMED_ENTRIES[site]
    with pytest.raises(InputError, match=message):
        build()


@pytest.mark.parametrize("site", list(_MALFORMED_ARGUMENTS))
def test_arguments_that_are_not_lists_are_named(site):
    build, message = _MALFORMED_ARGUMENTS[site]
    with pytest.raises(InputError) as raised:
        build()
    assert str(raised.value) == message


#: Entries of the trading game that take a player index, which must be
#: exactly the int 0 or 1: checked before the player is used as an index or
#: compared with a strategy's player.
_TRADING_PLAYER_SITES = {
    "TradingSpec.bounds": lambda value: _SPEC.bounds(value),
    "competitive_trading_strategy": lambda value: competitive_trading_strategy(_SPEC, value),
    "reference_strategy": lambda value: reference_strategy(_SPEC, value, "full"),
    "minimal_regret_sweep": lambda value: minimal_regret_sweep(_SPEC, value),
    "trading_oracle_report": lambda value: trading_oracle_report(_SPEC, value, _STRATEGIES[0]),
}


@pytest.mark.parametrize("value", [0.0, Fraction(1), "0"])
@pytest.mark.parametrize("site", list(_TRADING_PLAYER_SITES))
def test_trading_players_must_be_the_ints_0_or_1(site, value):
    with pytest.raises(InputError) as raised:
        _TRADING_PLAYER_SITES[site](value)
    assert str(raised.value) == f"player must be 0 or 1, got {value!r}"


#: Arguments of the wrong type where a strategy or a restriction belongs,
#: each named in one line.
_WRONG_TYPES = {
    "simulate": (lambda: simulate(_SPEC, [1, 2], _ANNOUNCED),
                 "a strategy must be a TradingStrategy, got 1"),
    "simulate-one": (lambda: simulate(_SPEC, [_STRATEGIES[0], None], _ANNOUNCED),
                     "a strategy must be a TradingStrategy, got None"),
    "trading_oracle_report": (lambda: trading_oracle_report(_SPEC, 0, "x"),
                              "a strategy must be a TradingStrategy, got 'x'"),
    "trading_oracle": (lambda: trading_oracle(_SPEC, 1, 5, "rational"),
                       "a strategy must be a TradingStrategy, got 5"),
    "minimax_regret-mode": (lambda: minimax_regret(_STAGE, 0, "full"),
                            "the restriction must be a Restriction or None, got 'full'"),
    "minimax_regret-int": (lambda: minimax_regret(_STAGE, 0, 5),
                           "the restriction must be a Restriction or None, got 5"),
    "TradingStrategy-float-threshold": (
        lambda: TradingStrategy(0, "x", [(None, False), (1.5, False)]),
        "schedule entry 2: threshold must be None, an int or a Fraction, got 1.5"),
    "TradingStrategy-bool-threshold": (
        lambda: TradingStrategy(0, "x", [(True, False)]),
        "schedule entry 1: threshold must be None, an int or a Fraction, got True"),
    "TradingStrategy-str-threshold": (
        lambda: TradingStrategy(0, "x", [("3", False)]),
        "schedule entry 1: threshold must be None, an int or a Fraction, got '3'"),
    "TradingStrategy-int-trigger": (
        lambda: TradingStrategy(0, "x", [(3, 1)]),
        "schedule entry 1: trigger must be True or False, got 1"),
    "TradingStrategy-None-trigger": (
        lambda: TradingStrategy(0, "x", [(Fraction(5, 2), None)]),
        "schedule entry 1: trigger must be True or False, got None"),
    "TradingStrategy-params": (
        lambda: TradingStrategy(0, "x", [(None, False)], params=5),
        "params must be None or a dict, got 5"),
    "Game-str-scale": (
        lambda: Game((2, 2), rows=[_ZERO_ROWS] * 2, scales=["1", 1]),
        "a payoff denominator must be an integer, got '1'"),
    "Game-bool-scale": (
        lambda: Game((2, 2), rows=[_ZERO_ROWS] * 2, scales=[True, 1]),
        "a payoff denominator must be an integer, got True"),
    "Game-float-scale": (
        lambda: Game((2, 2), rows=[_ZERO_ROWS] * 2, scales=[1, 2.0]),
        "a payoff denominator must be an integer, got 2.0"),
    "Game-str-numerator": (
        lambda: Game((2, 2), rows=[[["1", 2], [3, 4]], _ZERO_ROWS], scales=[1, 1]),
        "a payoff numerator must be an integer, got '1'"),
    "Game-float-numerator": (
        lambda: Game((2, 2), rows=[_ZERO_ROWS, [[2, 4], [6.0, 8]]], scales=[1, 2]),
        "a payoff numerator must be an integer, got 6.0"),
    # the first row's gcd is 1, and the second row is still read
    "Game-float-numerator-second-row": (
        lambda: Game((2, 2), rows=[[[1, 2], [3.5, 4]], _ZERO_ROWS], scales=[1, 1]),
        "a payoff numerator must be an integer, got 3.5"),
    "expand_sequence-list": (lambda: expand_sequence([_STAGE, _STAGE]),
                             "sequence must be a GameSequence, got list"),
    "expand_sequence-Game": (lambda: expand_sequence(_STAGE),
                             "sequence must be a GameSequence, got Game"),
    "SequenceAnalysis-list": (lambda: SequenceAnalysis([_STAGE]).report(1, 0, "full"),
                              "sequence must be a GameSequence, got list"),
    "folk_strategy-Game": (lambda: folk_strategy(_STAGE, 0),
                           "sequence must be a GameSequence, got Game"),
    "decision_points-list": (lambda: decision_points([_STAGE], 0),
                             "sequence must be a GameSequence, got list"),
    "random_realizations-str": (lambda: random_realizations("x"),
                                "spec must be a RandomGameSpec, got str"),
    "verify_folk_theorem-list": (lambda: verify_folk_theorem([_STAGE]),
                                 "subject must be a GameSequence or RandomGameSpec, got list"),
}


@pytest.mark.parametrize("site", list(_WRONG_TYPES))
def test_arguments_of_the_wrong_type_are_named(site):
    build, message = _WRONG_TYPES[site]
    with pytest.raises(InputError) as raised:
        build()
    assert str(raised.value) == message


#: Player 0 of a 2x3 game over two opponent classes, player 1 over one.
_CLASS_ROWS = [[[1, 2], [3, 4]], [[5], [6], [7]]]
_KEYS = [[0, 1, 0], [0, 0]]


def _keyed_game(rows=_CLASS_ROWS, keys=_KEYS):
    return Game((2, 3), rows=rows, scales=[1, 1], keys=keys)


#: Malformed class keys and class rows of a keyed game, each named in one line.
_MALFORMED_KEYS = {
    "not-a-list": (lambda: _keyed_game(keys=5), "class keys must be a list, got 5"),
    "one-list-short": (lambda: _keyed_game(keys=_KEYS[:1]),
                       "a game needs the class keys of 2 players, got 1"),
    "player-not-a-list": (lambda: _keyed_game(keys=[_KEYS[0], 0]),
                          "the class keys of player 1 must be a list, got 0"),
    "wrong-length": (lambda: _keyed_game(keys=[[0, 1], [0, 0]]),
                     "player 0 needs 3 class keys, got 2"),
    "str": (lambda: _keyed_game(keys=[[0, 1, "0"], [0, 0]]),
            "a class key must be an int, got '0'"),
    "float": (lambda: _keyed_game(keys=[[0, 1, 0], [0.0, 0]]),
              "a class key must be an int, got 0.0"),
    "bool": (lambda: _keyed_game(keys=[[0, True, 0], [0, 0]]),
             "a class key must be an int, got True"),
    "negative": (lambda: _keyed_game(keys=[[0, 1, -1], [0, 0]]),
                 "class key -1 of player 0 is outside 0..1"),
    "out-of-range": (lambda: _keyed_game(keys=[[0, 1, 0], [0, 1]]),
                     "class key 1 of player 1 is outside 0..0"),
    "unequal-widths": (lambda: _keyed_game(rows=[[[1, 2], [3]], _CLASS_ROWS[1]]),
                       "player 0 needs 2 class rows of one width"),
    "row-count": (lambda: _keyed_game(rows=[_CLASS_ROWS[0], [[5], [6]]]),
                  "player 1 needs 3 class rows of one width"),
    # an unreferenced column would enter every worst-regret maximum and
    # every dominance test
    "unreferenced-class": (lambda: _keyed_game(keys=[[1, 1, 1], [0, 0]]),
                           "no class key of player 0 refers to class column 0"),
    "numerator": (lambda: _keyed_game(rows=[[[1, 2], [3, 4.5]], _CLASS_ROWS[1]]),
                  "a payoff numerator must be an integer, got 4.5"),
    "empty-class-rows": (lambda: _keyed_game(rows=[[[], []], _CLASS_ROWS[1]],
                                             keys=[[0, 0, 0], [0, 0]]),
                         "the class rows of player 0 are empty"),
}


@pytest.mark.parametrize("site", list(_MALFORMED_KEYS))
def test_malformed_class_keys_are_named(site):
    build, message = _MALFORMED_KEYS[site]
    with pytest.raises(InputError) as raised:
        build()
    assert str(raised.value) == message


def test_the_keyed_game_the_malformed_cases_break_is_well_formed():
    assert _keyed_game() == Game((2, 3), rows=[[[1, 2, 1], [3, 4, 3]], [[5, 5], [6, 6], [7, 7]]],
                                 scales=[1, 1])
