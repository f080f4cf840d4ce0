import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from regretgames import (
    AssumptionError,
    BiddingSpec,
    InputError,
    SizeError,
    all_player_reports,
    bidding_utility,
    closed_form_competitive,
    closed_form_rational,
    game_from_json,
    game_to_json,
    make_bidding_game,
    minimax_regret,
    rational_restriction,
    verify_claims,
)
from regretgames import game as game_module
from support import game_from_cells, payoffs, random_bidding_spec


def test_utility_first_price_examples():
    spec = BiddingSpec((6, 4), 10, 1)
    assert bidding_utility(spec, (5, 3), 0) == Fraction(1, 10)
    assert bidding_utility(spec, (5, 3), 1) == 0
    # tie splits the surplus: each top bidder gets half
    assert bidding_utility(spec, (4, 4), 0) == Fraction(1, 10)
    assert bidding_utility(spec, (4, 4), 1) == 0
    # the split applies to negative surplus too
    assert bidding_utility(spec, (7, 7), 0) == Fraction(-1, 20)


def test_utility_third_price_example():
    spec = BiddingSpec((8, 6, 3), 10, 2)
    assert bidding_utility(spec, (8, 6, 3), 0) == Fraction(2, 10)
    assert bidding_utility(spec, (8, 6, 3), 1) == 0
    assert bidding_utility(spec, (8, 6, 3), 2) == 0


def test_utility_support_only_top_bidders():
    spec = BiddingSpec((8, 6, 3), 10, 3)
    rng = random.Random(1)
    for _ in range(200):
        bids = tuple(rng.randint(0, 10) for _ in range(3))
        top = max(bids)
        for player in range(3):
            value = bidding_utility(spec, bids, player)
            if bids[player] != top:
                assert value == 0


def test_utility_validation():
    spec = BiddingSpec((6, 4), 10, 1)
    with pytest.raises(InputError):
        bidding_utility(spec, (11, 0), 0)
    with pytest.raises(InputError):
        bidding_utility(spec, (5,), 0)


def test_spec_invariants():
    with pytest.raises(AssumptionError, match="distinct"):
        BiddingSpec((6, 6), 10, 1)
    with pytest.raises(AssumptionError, match="valuation < grid"):
        BiddingSpec((6, 4), 3, 1)
    with pytest.raises(AssumptionError, match="grid size >= player count"):
        BiddingSpec((2, 3, 4, 5), 3, 1)
    with pytest.raises(AssumptionError, match="price rank"):
        BiddingSpec((6, 4), 10, 3)
    with pytest.raises(AssumptionError, match="2 players"):
        BiddingSpec((6,), 10, 1)


def test_game_construction_matches_utility():
    spec = BiddingSpec((6, 4), 10, 1)
    game = make_bidding_game(spec)
    assert game.strategy_counts == (11, 11)
    assert game.payoff((5, 3), 0) == bidding_utility(spec, (5, 3), 0)


# The smallest grids the spec allows (T = n + 2, so one valuation is T - 1)
# up to five players, and wider grids with longer runs of the last bid.
@pytest.mark.parametrize("valuations, grid", [
    ((3, 2), 4), ((4, 2, 3), 5), ((5, 2, 4, 3), 6), ((6, 2, 5, 3, 4), 7),
    ((2, 9), 17), ((9, 2, 5), 12),
])
def test_integer_builder_matches_utility_on_every_profile(valuations, grid):
    n = len(valuations)
    for k in range(1, n + 1):
        spec = BiddingSpec(valuations, grid, k)
        game = make_bidding_game(spec)
        profiles = list(itertools.product(*map(range, game.strategy_counts)))
        cells = [tuple(bidding_utility(spec, bids, p) for p in range(n)) for bids in profiles]
        assert [payoffs(game, bids) for bids in profiles] == cells
        assert game == game_from_cells(game.strategy_counts, cells, labels=game.strategy_labels)
        # the builder's rows must be those of its own table read back from a file
        fresh = game_from_json(game_to_json(game))
        for p in range(n):
            assert (game.payoff_matrix(p), game._opponent_classes(p)) == (
                fresh.payoff_matrix(p), fresh._opponent_classes(p))
        tied_losses = [
            bids for bids, cell in zip(profiles, cells)
            if bids.count(max(bids)) > 1 and min(cell) < 0
        ]
        assert tied_losses, (valuations, k)  # tied winners sharing a negative surplus


def _order_statistics(others, k):
    """(m, M, hi): the highest other bid, how many others bid it, and the
    (k-1)-th highest other bid (None for k = 1)."""
    ranked = sorted(others, reverse=True)
    return ranked[0], ranked.count(ranked[0]), ranked[k - 2] if k > 1 else None


def test_a_bid_pays_through_three_order_statistics_of_the_other_bids():
    # make_bidding_game gathers each payoff matrix from one column per
    # (m, M, hi); checked here on bidding_utility alone
    rng = random.Random(18)
    lows_changed = 0
    for n in range(2, 6):
        for _ in range(2):
            drawn = random_bidding_spec(rng, 1, players=(n,), max_grid=n + 4)
            grid = drawn.grid_size
            for k in range(1, n + 1):
                spec = BiddingSpec(drawn.valuations, grid, k)
                player = rng.randrange(n)

                def pays(others):
                    return [bidding_utility(spec, others[:player] + (x,) + others[player:], player)
                            for x in range(grid + 1)]

                seen = {}
                for _ in range(60):
                    others = tuple(rng.randint(0, grid) for _ in range(n - 1))
                    key = _order_statistics(others, k)
                    payoffs = pays(others)
                    assert seen.setdefault(key, payoffs) == payoffs, (spec, others)
                    # redraw the bids ranked k-th or lower that are below m,
                    # at most hi, so that m, M and hi stay
                    top, _, hi = key
                    ceiling = top - 1 if hi is None else min(hi, top - 1)
                    ranked = sorted(range(n - 1), key=lambda i: -others[i])
                    changed = list(others)
                    for i in ranked[k - 1:]:
                        if others[i] < top:
                            changed[i] = rng.randint(0, ceiling)
                    changed = tuple(changed)
                    assert _order_statistics(changed, k) == key
                    assert pays(changed) == payoffs, (spec, others, changed)
                    if k < n:
                        lows_changed += (sorted(changed, reverse=True)[k - 1]
                                         != sorted(others, reverse=True)[k - 1])
    assert lows_changed > 100  # the k-th highest other bid moved, and no payoff did


def test_builder_checks_the_cell_count_before_allocating():
    # 32 ** 4 cells, past DEFAULT_DENSE_CAP
    with pytest.raises(SizeError, match="1048576 payoff cells") as info:
        make_bidding_game(BiddingSpec((2, 3, 4, 5), 31, 1))
    assert info.value.count == 32 ** 4
    # 11 ** 6 cells; verify_claims builds through the same check
    with pytest.raises(SizeError):
        verify_claims(BiddingSpec((2, 3, 4, 5, 6, 7), 10, 1))


def test_builder_keeps_one_copy_of_the_payoffs():
    # 37 ** 3 cells: about 1.28 MB as each player's rows, 2.45 MB when a
    # flat lex-order copy was kept beside them
    tracemalloc.start()
    try:
        make_bidding_game(BiddingSpec((7, 19, 30), 36, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * 2**20


class _Unreadable:
    """Stands in for a player's stored full payoff rows; reading them fails."""

    def _read(self, *args):
        raise AssertionError("a solve read the full payoff rows of an auction")

    __getitem__ = __iter__ = __len__ = __eq__ = __hash__ = _read


def test_auction_solves_read_the_classes_the_builder_hands_the_game():
    game = make_bidding_game(BiddingSpec((7, 19, 30), 36, 1))
    fresh = game_from_json(game_to_json(game))  # its classes are hashed from the full rows
    game._rows = tuple(_Unreadable() for _ in game._rows)
    for mode in ("full", "rational"):
        assert all_player_reports(game, mode) == all_player_reports(fresh, mode)
    with pytest.raises(AssertionError, match="read the full payoff rows"):
        game == fresh


def test_a_key_list_the_players_share_is_checked_once(monkeypatch):
    calls = []  # (function name, the argument it was handed at ``position``) per call

    def spy(name, position):
        function = getattr(game_module, name)

        def wrapper(*args):
            calls.append((name, args[position]))
            return function(*args)
        monkeypatch.setattr(game_module, name, wrapper)

    spy("_check_keys", 0)
    spy("_gatherer", 0)
    spy("_classes", 2)  # the classes in the order the keys first reach them
    make_bidding_game(BiddingSpec((9, 2, 5), 12, 2))
    profiles = 13 ** 2  # a 13-bid grid, two opponents
    keyed = [name for name, keys in calls if len(keys) == profiles]
    assert keyed == ["_check_keys", "_gatherer"]
    # every player's view walks one first-reach order of the keys
    reached = [keys for name, keys in calls if name == "_classes"]
    assert len(reached) == 3 and all(order is reached[0] for order in reached)


def test_closed_forms_first_price():
    spec = BiddingSpec((6, 4), 10, 1)
    plain = closed_form_competitive(spec, 0)
    assert plain.predicted_regret == Fraction(3, 10)
    assert plain.predicted_bid is None
    rational = closed_form_rational(spec, 0)
    assert rational.predicted_regret == Fraction(1, 10)


def test_closed_forms_second_price():
    spec = BiddingSpec((6, 4), 10, 2)
    plain = closed_form_competitive(spec, 1)
    assert (plain.predicted_bid, plain.predicted_regret) == (4, 0)
    rational = closed_form_rational(spec, 1)
    assert (rational.predicted_bid, rational.predicted_regret) == (4, 0)


def test_closed_forms_third_price():
    spec = BiddingSpec((8, 6, 3), 10, 3)
    assert closed_form_competitive(spec, 1).predicted_bid == 10  # min(12, 10)
    assert closed_form_rational(spec, 0).predicted_bid == 10  # min(16-3, 10)
    assert closed_form_rational(spec, 1).predicted_bid == 9  # min(12-3, 10)
    low = closed_form_rational(spec, 2)
    assert (low.predicted_bid, low.predicted_regret) == (3, 0)


def test_no_closed_form_above_three():
    spec = BiddingSpec((2, 3, 4, 5), 10, 4)
    assert closed_form_competitive(spec, 0) is None
    assert closed_form_rational(spec, 0) is None
    with pytest.raises(InputError, match="no closed forms"):
        verify_claims(spec)


# Frozen solver values for the l=(6,4), T=10, k=1 instance, computed by
# exhaustive enumeration over all 11x11 bid profiles and checked by hand.
FIRST_PRICE_ORACLE = {
    ("full", 0): ("1/5", (2, 3)),
    ("full", 1): ("1/10", (1, 2)),
    ("rational", 0): ("1/10", (3,)),
    ("rational", 1): ("1/20", (2,)),
}


def test_first_price_oracle_anchors():
    spec = BiddingSpec((6, 4), 10, 1)
    game = make_bidding_game(spec)
    restriction = rational_restriction(game)
    for (mode, player), (value, argmin) in FIRST_PRICE_ORACLE.items():
        report = minimax_regret(game, player, restriction if mode == "rational" else None)
        assert str(report.minimax_value) == value
        assert report.argmin == argmin


def test_verify_claims_second_price_all_match():
    report = verify_claims(BiddingSpec((6, 4), 10, 2))
    assert report.all_match
    for entry in report.entries:
        assert entry.oracle_minimax == 0
        assert entry.predicted_bid in entry.oracle_argmin


def test_verify_claims_first_price_divergences_are_recorded():
    report = verify_claims(BiddingSpec((6, 4), 10, 1))
    flagged = {
        (e.mode, e.player): (str(e.predicted_regret), str(e.oracle_minimax))
        for e in report.mismatches()
    }
    assert flagged == {
        ("full", 0): ("3/10", "1/5"),
        ("full", 1): ("1/5", "1/10"),
        ("rational", 1): ("1/10", "1/20"),
    }
    # deterministic: byte-identical reports on repeat runs
    assert verify_claims(BiddingSpec((6, 4), 10, 1)).to_json() == report.to_json()


def test_verify_claims_third_price_example_matches():
    report = verify_claims(BiddingSpec((8, 6, 3), 10, 3))
    assert report.all_match


def test_divergence_text_table():
    text = verify_claims(BiddingSpec((6, 4), 10, 1)).to_text()
    lines = text.splitlines()
    assert lines[0].startswith("player")
    assert any("NO" in line for line in lines)


def test_subset_monotonicity_on_random_specs():
    rng = random.Random(5)
    for _ in range(5):
        spec = random_bidding_spec(rng, price_rank=rng.randint(1, 2), max_grid=9)
        game = make_bidding_game(spec)
        restriction = rational_restriction(game)
        for player in range(spec.player_count):
            assert (
                minimax_regret(game, player, restriction).minimax_value
                <= minimax_regret(game, player).minimax_value
            )
