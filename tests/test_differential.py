"""The integer kernels against a plain-Fraction reference (hypothesis, derandomized).

Payoffs are "p/q" rationals with unrelated prime denominators, so every
player's payoffs are stored over a scale larger than one; the reference
below works on the drawn Fractions directly and imports neither the solver
nor the dominance module.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from regretgames import (
    Game,
    GameSequence,
    expand_sequence,
    game_from_json,
    game_to_json,
    iterated_rational_sets,
    minimax_regret,
    rational_restriction,
    rational_set,
)
from support import replay

COMMON = settings(max_examples=100, derandomize=True, deadline=None)
DENOMINATORS = (1, 2, 3, 5, 7, 11, 13)


# -- reference ----------------------------------------------------------------


def ref_payoff(table, player, own, opponents):
    return table[opponents[:player] + (own,) + opponents[player:]][player]


def ref_opponents(counts, player, allowed):
    return list(itertools.product(*(allowed[j] for j in range(len(counts)) if j != player)))


def ref_worst_regrets(table, counts, player, allowed):
    """Worst regret of every own strategy over the allowed opponent profiles."""
    own = range(counts[player])
    return [
        max(max(ref_payoff(table, player, t, o) for t in own) - ref_payoff(table, player, s, o)
            for o in ref_opponents(counts, player, allowed))
        for s in own
    ]


def ref_elimination_round(table, counts, allowed):
    """Per player: (kept, [(removed, lowest dominating witness)]) for one round."""
    result = []
    for player in range(len(counts)):
        opponents = ref_opponents(counts, player, allowed)

        def dominates(a, b):
            pairs = [(ref_payoff(table, player, a, o), ref_payoff(table, player, b, o))
                     for o in opponents]
            return all(x >= y for x, y in pairs) and any(x > y for x, y in pairs)

        witness = {s: next((t for t in allowed[player] if t != s and dominates(t, s)), None)
                   for s in allowed[player]}
        result.append(([s for s, w in witness.items() if w is None],
                       [(s, w) for s, w in witness.items() if w is not None]))
    return result


# -- games ----------------------------------------------------------------------


@st.composite
def rational_games(draw, max_players=3, max_strategies=3):
    """(counts, cells) with "p/q" payoffs parsed to Fractions, lex-ordered cells."""
    n = draw(st.integers(2, max_players))
    counts = tuple(draw(st.integers(1, max_strategies)) for _ in range(n))
    payoff = st.builds(
        lambda p, q: Fraction(f"{p}/{q}"), st.integers(-12, 12), st.sampled_from(DENOMINATORS)
    )
    cells = [tuple(draw(payoff) for _ in range(n)) for _ in itertools.product(*map(range, counts))]
    return counts, cells


@COMMON
@given(rational_games())
def test_kernels_match_fraction_reference(case):
    counts, cells = case
    game = Game.from_cells(counts, cells)
    table = dict(zip(itertools.product(*map(range, counts)), cells))
    full = [list(range(c)) for c in counts]

    first_round = ref_elimination_round(table, counts, full)
    rational = [kept for kept, _ in first_round]
    restriction = rational_restriction(game)
    assert restriction.allowed == tuple(tuple(kept) for kept in rational)

    for player in range(len(counts)):
        for allowed, used in ((full, None), (rational, restriction)):
            worst = ref_worst_regrets(table, counts, player, allowed)
            report = minimax_regret(game, player, used)
            assert report.worst_regret_per_strategy == tuple(worst)
            assert report.minimax_value == min(worst)
            assert report.argmin == tuple(s for s, w in enumerate(worst) if w == min(worst))
        surviving = rational_set(game, player)
        assert (list(surviving.allowed), list(surviving.eliminated)) == first_round[player]

    allowed, eliminated = full, [[] for _ in counts]
    for _ in range(3):
        step = ref_elimination_round(table, counts, allowed)
        if [kept for kept, _ in step] == allowed:
            break
        allowed = [kept for kept, _ in step]
        for player, (_, removed) in enumerate(step):
            eliminated[player].extend(removed)
    assert [(list(s.allowed), list(s.eliminated)) for s in iterated_rational_sets(game, 3)] \
        == list(zip(allowed, eliminated))


@COMMON
@given(rational_games())
def test_payoffs_round_trip_exactly(case):
    counts, cells = case
    game = Game.from_cells(counts, cells)
    for profile, cell in zip(itertools.product(*map(range, counts)), cells):
        assert game.payoff_cell(profile) == cell
        for player, value in enumerate(cell):
            read = game.payoff(profile, player)
            assert type(read) is Fraction and read == value
    assert game_from_json(game_to_json(game)) == game
    # the same values given as ints where integral build an equal game
    as_ints = [tuple(int(v) if v.denominator == 1 else v for v in cell) for cell in cells]
    assert Game.from_cells(counts, as_ints) == game


@COMMON
@given(st.lists(rational_games(max_players=2, max_strategies=2), min_size=2, max_size=2))
def test_expansion_sums_stages_over_unrelated_scales(stages):
    sequence = GameSequence(tuple(Game.from_cells(counts, cells) for counts, cells in stages))
    expansion = expand_sequence(sequence)
    game = expansion.game
    for profile in game.profiles():
        decisions = [
            dict(zip(expansion.points[p], expansion.decisions_tuple(p, profile[p])))
            for p in range(2)
        ]
        assert game.payoff_cell(profile) == replay(sequence, decisions)
    assert game_from_json(game_to_json(game)) == game
