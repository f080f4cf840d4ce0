import pytest

from regretgames import (
    BiddingSpec,
    InputError,
    make_bidding_game,
    make_dense_game,
    iterated_rational_sets,
    rational_restriction,
    rational_set,
)
from support import affine_transform, anchor_game, weakly_dominates


def rows_game(row_a, row_b):
    """2x2 game whose player-0 rows are given; player 1 payoffs irrelevant."""
    return make_dense_game(
        (2, 2),
        [[[row_a[0], 0], [row_a[1], 0]], [[row_b[0], 0], [row_b[1], 0]]],
    )


def test_weak_dominance_basic():
    g = rows_game((2, 2), (1, 2))
    assert weakly_dominates(g, 0, 0, 1)
    assert not weakly_dominates(g, 0, 1, 0)


def test_identical_rows_do_not_dominate():
    g = rows_game((2, 2), (2, 2))
    assert not weakly_dominates(g, 0, 0, 1)
    assert not weakly_dominates(g, 0, 1, 0)


def test_incomparable_rows():
    g = rows_game((3, 0), (0, 3))
    assert not weakly_dominates(g, 0, 0, 1)
    assert not weakly_dominates(g, 0, 1, 0)


def test_irreflexive():
    g = rows_game((2, 2), (1, 2))
    assert not weakly_dominates(g, 0, 0, 0)


def test_rational_set_with_witness():
    g = rows_game((2, 2), (1, 2))
    rs = rational_set(g, 0)
    assert rs.allowed == (0,)
    assert rs.eliminated == ((1, 0),)
    assert rs.to_json() == {
        "player": 0,
        "allowed": [0],
        "eliminated": [{"strategy": 1, "dominated_by": 0}],
    }


def test_all_identical_rows_survive():
    g = rows_game((2, 2), (2, 2))
    assert rational_set(g, 0).allowed == (0, 1)


def test_first_price_elimination_structure():
    # bids at or above the valuation go, bid 0 goes, everything in between stays
    spec = BiddingSpec((6, 4), 10, 1)
    game = make_bidding_game(spec)
    for player, valuation in enumerate(spec.valuations):
        rs = rational_set(game, player)
        assert rs.allowed == tuple(range(1, valuation))


def test_iterated_round_one_matches_single():
    g = anchor_game()
    once = iterated_rational_sets(g, 1)
    assert [rs.to_json() for rs in once] == [
        rational_set(g, p).to_json() for p in (0, 1)
    ]


def test_iterated_fixed_point_stability():
    g = anchor_game()
    assert [rs.allowed for rs in iterated_rational_sets(g, 2)] == [
        rs.allowed for rs in iterated_rational_sets(g, 50)
    ]


def test_iterated_second_round_shrinks():
    # player 1's columns 1,2 die in round 1; only then row 1 dominates for player 0
    table = [
        [[4, 5], [0, 0], [9, 0]],
        [[5, 5], [9, 0], [0, 0]],
        [[4, 5], [5, 0], [5, 0]],
    ]
    g = make_dense_game((3, 3), table)
    round_one = iterated_rational_sets(g, 1)
    assert round_one[0].allowed == (0, 1, 2)
    assert round_one[1].allowed == (0,)
    round_two = iterated_rational_sets(g, 2)
    assert round_two[0].allowed == (1,)
    assert round_two[1].allowed == (0,)
    # eliminations accumulate with witnesses
    assert dict(round_two[0].eliminated) == {0: 1, 2: 1}


def test_iterated_rounds_validation():
    with pytest.raises(InputError):
        iterated_rational_sets(anchor_game(), 0)


def test_rational_restriction_packaging():
    g = anchor_game()
    restriction = rational_restriction(g)
    assert restriction.label == "rational"
    assert restriction.allowed == ((0, 1), (1,))


def test_rational_restriction_full_when_no_dominance():
    g = rows_game((3, 0), (0, 3))
    assert rational_restriction(g).allowed[0] == (0, 1)


def test_affine_invariance_of_rational_set():
    g = anchor_game()
    transformed = affine_transform(g, 1, 3, -7)
    assert rational_set(g, 1).allowed == rational_set(transformed, 1).allowed


def test_rational_restriction_is_kept_per_game_object():
    game = anchor_game()
    first = rational_restriction(game)
    assert rational_restriction(game) is first
    # an equal game built separately computes its own
    again = rational_restriction(anchor_game())
    assert again == first and again is not first
