"""Property suites over randomized games (hypothesis, derandomized)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from regretgames import (
    Game,
    GameSequence,
    decision_points,
    expand_sequence,
    minimax_regret,
    rational_restriction,
    rational_set,
    regret,
    weakly_dominates,
)
from support import history_strategies

COMMON = settings(max_examples=100, derandomize=True, deadline=None)


@st.composite
def dense_games(draw, max_players=3, max_strategies=4):
    n = draw(st.integers(2, max_players))
    counts = tuple(draw(st.integers(1, max_strategies)) for _ in range(n))
    total = 1
    for c in counts:
        total *= c
    cells = [
        tuple(draw(st.integers(-8, 8)) for _ in range(n)) for _ in range(total)
    ]
    return Game.from_cells(counts, cells)


@st.composite
def games_with_profiles(draw):
    game = draw(dense_games())
    profile = tuple(draw(st.integers(0, c - 1)) for c in game.strategy_counts)
    player = draw(st.integers(0, game.player_count - 1))
    return game, profile, player


@COMMON
@given(games_with_profiles())
def test_regret_non_negative(case):
    game, profile, player = case
    assert regret(game, player, profile) >= 0


@COMMON
@given(dense_games())
def test_zero_regret_best_response_exists(game):
    for player in range(game.player_count):
        for opp in game.opponent_profiles(player):
            assert any(
                regret(game, player, opp.combine(t)) == 0
                for t in range(game.strategy_counts[player])
            )


@COMMON
@given(dense_games(), st.integers(1, 5), st.integers(-6, 6))
def test_affine_argmin_invariance(game, numerator, shift):
    scale = Fraction(numerator, 2)
    for player in range(game.player_count):
        base = minimax_regret(game, player)
        transformed = minimax_regret(game.affine_transform(player, scale, shift), player)
        assert transformed.argmin == base.argmin
        assert transformed.worst_regret_per_strategy == tuple(
            scale * w for w in base.worst_regret_per_strategy
        )


@COMMON
@given(dense_games())
def test_dominance_irreflexive_antisymmetric(game):
    for player in range(game.player_count):
        count = game.strategy_counts[player]
        for s in range(count):
            assert not weakly_dominates(game, player, s, s)
            for s_prime in range(s + 1, count):
                forward = weakly_dominates(game, player, s, s_prime)
                backward = weakly_dominates(game, player, s_prime, s)
                assert not (forward and backward)


@COMMON
@given(dense_games())
def test_dominance_transitivity_spot(game):
    for player in range(game.player_count):
        count = game.strategy_counts[player]
        dominates = {
            (a, b)
            for a in range(count)
            for b in range(count)
            if a != b and weakly_dominates(game, player, a, b)
        }
        for a, b in dominates:
            for c in range(count):
                if (b, c) in dominates:
                    assert (a, c) in dominates


@COMMON
@given(dense_games())
def test_rational_sets_nonempty_and_partition(game):
    for player in range(game.player_count):
        rs = rational_set(game, player)
        assert rs.allowed
        eliminated = {s for s, _ in rs.eliminated}
        assert set(rs.allowed) | eliminated == set(range(game.strategy_counts[player]))
        assert not set(rs.allowed) & eliminated


@COMMON
@given(dense_games(max_players=2, max_strategies=3))
def test_subset_monotonicity(game):
    restriction = rational_restriction(game)
    for player in range(game.player_count):
        assert (
            minimax_regret(game, player, restriction).minimax_value
            <= minimax_regret(game, player).minimax_value
        )


@st.composite
def short_sequences(draw):
    length = draw(st.integers(1, 2))
    stages = []
    for _ in range(length):
        cells = [tuple(draw(st.integers(0, 9)) for _ in range(2)) for _ in range(4)]
        stages.append(Game.from_cells((2, 2), cells))
    return GameSequence(tuple(stages))


@COMMON
@given(short_sequences(), st.randoms(use_true_random=False))
def test_expanded_payoff_additivity(sequence, rng):
    expansion = expand_sequence(sequence)
    profile = tuple(rng.randrange(count) for count in expansion.game.strategy_counts)
    decisions = [
        dict(zip(decision_points(sequence, p), history_strategies(sequence, p)[1][profile[p]]))
        for p in range(2)
    ]
    histories = [(), ()]
    expected = [Fraction(0), Fraction(0)]
    for idx, stage in enumerate(sequence.stages, start=1):
        moves = tuple(decisions[p][(idx, histories[p])] for p in range(2))
        for p in range(2):
            expected[p] += stage.payoff(moves, p)
        histories = [histories[p] + ((moves[1 - p],),) for p in range(2)]
    assert expansion.game.payoff_cell(profile) == tuple(expected)
