import math
import random
from fractions import Fraction

import pytest

from regretgames import (
    AssumptionError,
    Game,
    GameSequence,
    HistoryStrategy,
    InputError,
    RandomGameSpec,
    SizeError,
    decision_points,
    expand_sequence,
    folk_condition_holds,
    folk_strategy,
    is_competitive_in_all_subgames,
    make_dense_game,
    minimax_regret,
    payoff_extremes,
    random_realizations,
    subgames,
    verify_folk_theorem,
)
from regretgames import repeated
from regretgames.repeated import SequenceAnalysis
from support import (
    anchor_game, criterion6_subjects, folk_reference, history_strategies, random_stage_game,
    realized, replay,
)


def extremes_game(values0, values1):
    """2x2 game with the given per-player payoff values in cell order."""
    cells = [
        [[values0[0], values1[0]], [values0[1], values1[1]]],
        [[values0[2], values1[2]], [values0[3], values1[3]]],
    ]
    return make_dense_game((2, 2), cells)


# h0=10 >= 2*2 and h1=9 >= 2*3: the stage condition holds for both players
def condition_game():
    return extremes_game((10, 0, 1, 2), (9, 0, 3, 1))


def test_payoff_extremes():
    g = extremes_game((10, 1, 2, 4), (9, 0, 3, 4))
    assert (payoff_extremes(g, 0).highest, payoff_extremes(g, 0).second_highest) == (10, 4)
    assert (payoff_extremes(g, 1).highest, payoff_extremes(g, 1).second_highest) == (9, 4)


def test_payoff_extremes_rejects_constant():
    g = extremes_game((5, 5, 5, 5), (1, 2, 3, 4))
    with pytest.raises(AssumptionError):
        payoff_extremes(g, 0)


def test_folk_condition_arithmetic():
    hold = extremes_game((10, 1, 2, 4), (10, 1, 2, 4))
    assert folk_condition_holds(GameSequence((hold,)), 0)
    fail = extremes_game((7, 1, 2, 4), (10, 1, 2, 4))
    assert not folk_condition_holds(GameSequence((fail,)), 0)
    # two stages: min highest 9 >= 2 * max second-highest 4
    a = extremes_game((10, 1, 2, 4), (10, 1, 2, 4))
    b = extremes_game((9, 0, 1, 3), (9, 0, 1, 3))
    assert folk_condition_holds(GameSequence((a, b)), 0)


def test_subgames_are_suffixes():
    g = anchor_game()
    seq = GameSequence.repeat(g, 3)
    assert [len(s) for s in subgames(seq)] == [3, 2, 1]
    other = condition_game()
    mixed = GameSequence((g, other))
    assert [tuple(s.stages) for s in subgames(mixed)] == [(g, other), (other,)]


def test_expansion_counts():
    g = anchor_game()
    assert expand_sequence(GameSequence.repeat(g, 2)).game.strategy_counts == (8, 8)
    assert expand_sequence(GameSequence.repeat(g, 3)).game.strategy_counts == (128, 128)


def test_expansion_length_one_is_stage_game():
    g = anchor_game()
    expansion = expand_sequence(GameSequence.repeat(g, 1))
    assert expansion.game.strategy_counts == g.strategy_counts
    for profile in g.profiles():
        for p in (0, 1):
            assert expansion.game.payoff(profile, p) == g.payoff(profile, p)


def test_expansion_size_error_reports_count():
    g = make_dense_game((3, 3), [[[0, 0]] * 3 for _ in range(3)])
    seq = GameSequence.repeat(g, 3)
    with pytest.raises(SizeError) as info:
        expand_sequence(seq)
    assert info.value.count == 3 ** (1 + 3 + 9)


def test_expansion_payoff_additivity_by_replay():
    rng = random.Random(11)
    g = random_stage_game(rng)
    h = random_stage_game(rng)
    seq = GameSequence((g, h))
    expansion = expand_sequence(seq)
    for _ in range(25):
        profile = tuple(
            rng.randrange(expansion.game.strategy_counts[p]) for p in (0, 1)
        )
        expected = replay(
            seq,
            [
                dict(zip(decision_points(seq, p), history_strategies(seq, p)[1][profile[p]]))
                for p in (0, 1)
            ],
        )
        assert expansion.game.payoff_cell(profile) == expected


def pq_stage(rng: random.Random, counts) -> Game:
    """A stage of the given shape with p/q payoffs over unrelated denominators."""
    denominators = [rng.choice((1, 2, 3, 5, 7, 11, 13)) for _ in counts]
    cells = [tuple(Fraction(rng.randint(-9, 20), q) for q in denominators)
             for _ in range(math.prod(counts))]
    return Game.from_cells(counts, cells)


def uneven_sequence(rng: random.Random, players: int, length: int, cap: int = 400):
    """Stages of independently drawn shapes (1-3 strategies per player) with
    p/q payoffs over unrelated denominators, whose expansion fits ``cap``."""
    while True:
        sequence = GameSequence([pq_stage(rng, tuple(rng.randint(1, 3) for _ in range(players)))
                                 for _ in range(length)])
        try:
            return sequence, expand_sequence(sequence, cap)
        except SizeError:
            continue


def assert_chain_replays(sequence, expansion):
    """Every cell of every suffix on the chain equals the play-path replay,
    with the reference points and each suffix expanded on its own."""
    players, length = sequence.player_count, len(sequence)
    spaces = [history_strategies(sequence, p) for p in range(players)]
    assert [decision_points(sequence, p) for p in range(players)] \
        == [tuple(points) for points, _ in spaces]
    lookups = [[dict(zip(points, t)) for t in tuples] for points, tuples in spaces]
    for profile in expansion.game.profiles():
        expected = replay(sequence, [lookups[p][s] for p, s in enumerate(profile)])
        assert expansion.game.payoff_cell(profile) == expected
    rest = expansion
    for k in range(1, length + 1):
        assert rest == expand_sequence(sequence.suffix(k))  # sequence, game, rest
        rest = rest.rest
    assert rest is None


@pytest.mark.parametrize("players", [2, 3])
@pytest.mark.parametrize("length", [1, 2, 3])
def test_expansion_chain_on_uneven_shapes(players, length):
    rng = random.Random(100 * players + length)
    for _ in range(6):
        sequence, expansion = uneven_sequence(rng, players, length)
        assert_chain_replays(sequence, expansion)
        if length > 1 and expansion.game.profile_count > expansion.rest.game.profile_count:
            # a cap that only the whole sequence exceeds
            analysis = SequenceAnalysis(sequence, expansion.rest.game.profile_count)
            assert analysis.expansion(2).game == expansion.rest.game
            with pytest.raises(SizeError):
                analysis.expansion(1)


# The expansion fills one run per profile of the others' strategies and the
# last player's first decision, along the last player's continuations. These
# shapes give runs of one cell (one stage, or a last player with a single
# strategy in every later stage) and runs over uneven neighbours.
@pytest.mark.parametrize("shapes", [
    [(3, 2)], [(2, 2, 2)], [(1, 3)],  # one stage: every run is one cell
    [(2, 2), (3, 1)], [(3, 1), (2, 1)], [(2, 1), (2, 2)], [(2, 2), (2, 1), (2, 2)],
    [(2, 1, 3)], [(2, 1, 3), (1, 2, 2)], [(1, 2, 1), (2, 1, 3)], [(2, 2, 1), (1, 1, 2)],
])
def test_expansion_chain_on_run_edge_shapes(shapes):
    rng = random.Random(str(shapes))
    for _ in range(3):
        sequence = GameSequence([pq_stage(rng, counts) for counts in shapes])
        assert_chain_replays(sequence, expand_sequence(sequence))


def test_index_of_tuple_is_the_reference_position():
    rng = random.Random(5)
    for players, length in ((2, 1), (2, 2), (3, 2), (2, 3)):
        sequence, expansion = uneven_sequence(rng, players, length)
        for p in range(players):
            _, tuples = history_strategies(sequence, p)
            assert [expansion.index_of_tuple(p, t) for t in tuples] == list(range(len(tuples)))


@pytest.mark.parametrize("decisions", [
    (0.0, 1.0, 1.0), (0, True, 1), (0, 1), (0, 1, 1, 0), (0, 2, 1), (0, -1, 1),
])
def test_index_of_tuple_rejects_invalid_decisions(decisions):
    expansion = expand_sequence(GameSequence.repeat(anchor_game(), 2))
    assert expansion.index_of_tuple(0, (0, 1, 1)) == 3
    with pytest.raises(InputError):
        expansion.index_of_tuple(0, decisions)


def test_a_history_strategy_for_another_player_is_rejected():
    seq = GameSequence.repeat(condition_game(), 2)
    other = folk_strategy(seq, 0)
    with pytest.raises(InputError, match="strategy is for player 0, not player 1"):
        expand_sequence(seq).index_of_strategy(1, other)
    with pytest.raises(InputError, match="strategy is for player 0, not player 1"):
        is_competitive_in_all_subgames(seq, 1, other)


def test_long_horizon_chain_and_index():
    """A 1x1 stage repeated 300 times: one strategy per player, one decision
    point per iteration, and a rest chain with a link per suffix."""
    expansion = expand_sequence(GameSequence.repeat(make_dense_game((1, 1), [[[1, 2]]]), 300))
    links, rest = 0, expansion
    while rest is not None:
        links, rest = links + 1, rest.rest
    assert links == 300
    assert expansion.index_of_tuple(0, (0,) * 300) == 0
    with pytest.raises(InputError, match="not a valid strategy of player 0"):
        expansion.index_of_tuple(0, (0,) * 299)


@pytest.mark.parametrize("times", [2.0, True, "2"])
def test_repeat_rejects_non_integer_counts(times):
    with pytest.raises(InputError, match="repetition count must be an integer"):
        GameSequence.repeat(anchor_game(), times)


@pytest.mark.parametrize("start", [1.5, True, "1"])
def test_suffix_rejects_non_integer_starts(start):
    with pytest.raises(InputError, match="suffix start must be an integer"):
        GameSequence.repeat(anchor_game(), 2).suffix(start)


def test_folk_verifier_expands_each_suffix_once(monkeypatch):
    expand, lengths = repeated.expand_sequence, []

    def counted(sequence, *args):
        lengths.append(len(sequence))
        return expand(sequence, *args)

    monkeypatch.setattr(repeated, "expand_sequence", counted)
    verify_folk_theorem(GameSequence.repeat(condition_game(), 3))
    assert lengths == [3]


def test_suffix_consistency():
    g = condition_game()
    seq = GameSequence.repeat(g, 2)
    whole = expand_sequence(seq)
    first_suffix = expand_sequence(seq.suffix(1))
    assert whole.game == first_suffix.game


def test_history_strategy_totality_error():
    g = anchor_game()
    seq = GameSequence.repeat(g, 2)
    partial = HistoryStrategy(0, {(1, ()): 0})
    with pytest.raises(InputError, match="not total"):
        is_competitive_in_all_subgames(seq, 0, partial, "full")


def test_folk_strategy_structure():
    seq = GameSequence.repeat(condition_game(), 3)
    folk = folk_strategy(seq, 0)
    assert folk.is_history_independent()
    assert len(folk.decisions) == 1 + 2 + 4
    single = folk_strategy(GameSequence.repeat(condition_game(), 1), 0)
    assert len(single.decisions) == 1


def test_folk_strategy_condition_error_names_pair():
    bad = extremes_game((7, 1, 2, 4), (10, 1, 2, 4))
    with pytest.raises(AssumptionError, match="stage 0 .* player 0"):
        folk_strategy(GameSequence.repeat(bad, 2), 0)


def test_stage_condition_error_names_the_first_failing_pair():
    # the reference scans every (player, game k, game l) triple in order
    rng = random.Random(8)
    named = set()
    for _ in range(200):
        pool = [extremes_game(rng.sample(range(30), 4), rng.sample(range(30), 4))
                for _ in range(rng.randint(1, 4))]
        extremes = [[payoff_extremes(g, p) for p in (0, 1)] for g in pool]
        first = next(((p, k, l) for p in (0, 1) for k in range(len(pool))
                      for l in range(len(pool))
                      if extremes[k][p].highest < 2 * extremes[l][p].second_highest), None)
        spec = RandomGameSpec(pool, 1, "exhaustive")
        if first is None:
            verify_folk_theorem(spec)
            continue
        p, k, l = first
        with pytest.raises(AssumptionError, match=rf"game {k} is below twice the second "
                                                  rf"highest of game {l} for player {p}$"):
            verify_folk_theorem(spec)
        named.add(k != l)
    assert named == {False, True}


def test_folk_assumption_validation():
    negative = extremes_game((10, -1, 2, 4), (10, 1, 2, 4))
    with pytest.raises(AssumptionError, match="negative"):
        folk_strategy(GameSequence.repeat(negative, 2), 0)
    repeated_values = extremes_game((10, 2, 2, 4), (10, 1, 2, 4))
    with pytest.raises(AssumptionError, match="distinct"):
        folk_strategy(GameSequence.repeat(repeated_values, 2), 0)


def test_competitive_check_single_stage():
    g = condition_game()
    seq = GameSequence.repeat(g, 1)
    pick = minimax_regret(g, 0).canonical_pick
    strategy = HistoryStrategy(0, {(1, ()): pick})
    assert is_competitive_in_all_subgames(seq, 0, strategy, "full")


def test_competitive_check_rejects_bad_last_stage():
    g = condition_game()
    seq = GameSequence.repeat(g, 2)
    folk = folk_strategy(seq, 0)
    assert is_competitive_in_all_subgames(seq, 0, folk, "rational")
    worse = dict(folk.decisions)
    # stage argmin under rational opponents is {0}; play 1 at one last-stage history
    worse[(2, ((1,),))] = 1
    assert not is_competitive_in_all_subgames(
        seq, 0, HistoryStrategy(0, worse), "rational"
    )


def test_folk_passes_on_condition_instance_l2():
    report = verify_folk_theorem(GameSequence.repeat(condition_game(), 2))
    assert report.all_pass
    assert {e.player for e in report.entries} == {0, 1}
    for entry in report.entries:
        for detail in entry.details:
            assert detail.member


def test_reactive_strategies_can_beat_folk_at_l3():
    """Documented divergence: with three iterations the folk construction
    fails the subgame check on the whole game even though the stage
    condition holds. The cause is the opponent's reaction to the player's
    earlier moves, not any gain from reacting: the history-independent picks
    0,1,0 reach the minimax value 11. Frozen counterexample, confirmed by the
    play-path reference; see docs/DECISIONS.md."""
    report = verify_folk_theorem(GameSequence.repeat(condition_game(), 3))
    failing = {(e.player, e.passed) for e in report.entries}
    assert failing == {(0, False), (1, True)}
    # the whole-game subgame is the one that fails, by exactly one regret unit
    seq = GameSequence.repeat(condition_game(), 3)
    analysis = SequenceAnalysis(seq)
    expansion = analysis.expansion(1)
    folk_index = expansion.index_of_strategy(0, folk_strategy(seq, 0))
    report_whole = analysis.report(1, 0, "rational")
    assert report_whole.minimax_value == 11
    assert report_whole.worst_regret_per_strategy[folk_index] == 12
    assert folk_index not in report_whole.argmin
    reference = folk_reference(seq, 0)
    assert (reference.failing_start, reference.minimax, reference.folk_regret) == (1, 11, 12)
    assert reference.witness_picks == (0, 1, 0)
    assert folk_reference(seq, 1).passed


@pytest.mark.parametrize("player", [2, -1])
def test_sequence_analysis_report_rejects_players_out_of_range(player):
    analysis = SequenceAnalysis(GameSequence.repeat(condition_game(), 2))
    with pytest.raises(InputError, match=f"player {player} out of range"):
        analysis.report(1, player, "full")


def test_random_realizations_exhaustive_lex():
    a, b = condition_game(), anchor_game()
    spec = RandomGameSpec((a, b), 2, "exhaustive")
    pairs = random_realizations(spec)
    assert [tuple(s.stages) for _, s in pairs] == [(a, a), (a, b), (b, a), (b, b)]
    assert [draw for draw, _ in pairs] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_random_realizations_singleton_pool():
    a = condition_game()
    assert len(random_realizations(RandomGameSpec((a,), 3, "exhaustive"))) == 1


def test_random_realizations_sampled_reproducible():
    a, b = condition_game(), anchor_game()
    spec = RandomGameSpec((a, b), 4, "sampled", seed=99, samples=3)
    first = [(draw, tuple(id(g) for g in s.stages)) for draw, s in random_realizations(spec)]
    second = [(draw, tuple(id(g) for g in s.stages)) for draw, s in random_realizations(spec)]
    assert first == second
    assert all(s.stages == tuple(spec.pool[i] for i in draw)
               for draw, s in random_realizations(spec))


def test_sampled_requires_seed():
    spec = RandomGameSpec((condition_game(),), 2, "sampled")
    with pytest.raises(InputError, match="seed"):
        random_realizations(spec)


def test_realization_cap():
    spec = RandomGameSpec((condition_game(), anchor_game()), 10, "exhaustive")
    with pytest.raises(SizeError):
        random_realizations(spec, realization_cap=100)
    sampled = RandomGameSpec((condition_game(),), 2, "sampled", seed=1, samples=11)
    assert len(random_realizations(sampled, realization_cap=11)) == 11
    with pytest.raises(SizeError, match="needs 11 realizations") as info:
        random_realizations(sampled, realization_cap=10)
    assert info.value.count == 11


def test_pinned_realization():
    a, b = condition_game(), anchor_game()
    spec = RandomGameSpec((a, b), 2, realization=(1, 0))
    pairs = random_realizations(spec)
    assert len(pairs) == 1 and pairs[0][0] == (1, 0) and tuple(pairs[0][1].stages) == (b, a)


def test_verify_folk_theorem_pool():
    a = condition_game()
    b = extremes_game((12, 1, 0, 3), (11, 0, 2, 4))
    spec = RandomGameSpec((a, b), 2, "exhaustive")
    report = verify_folk_theorem(spec)
    assert len(report.entries) == 8  # 4 realizations x 2 players
    assert report.all_pass
    assert report.to_json()["all_pass"] is True


def test_folk_details_index_each_suffix_own_folk_strategy():
    """The verifier builds the folk strategy once and reads each suffix's
    strategy off its picks; that must be the suffix's own folk strategy."""
    # the stage picks differ: a gives (1, 1) full and (0, 1) rational for the
    # two players, b gives (0, 0) full and (1, 0) rational
    a = make_dense_game((2, 2), [[[0, 2], [9, 5]], [[25, 3], [4, 27]]])
    b = make_dense_game((2, 2), [[[1, 13], [22, 4]], [[2, 28], [4, 3]]])
    for sequence in (GameSequence((a, b)), GameSequence((b, a))):
        for entry in verify_folk_theorem(sequence).entries:
            for detail in entry.details:
                suffix = sequence.suffix(detail.start_iteration)
                own = folk_strategy(suffix, entry.player)
                assert detail.strategy_index == \
                    expand_sequence(suffix).index_of_strategy(entry.player, own)


def test_verify_folk_theorem_condition_violation_is_an_error():
    bad = extremes_game((7, 1, 2, 4), (10, 1, 2, 4))
    with pytest.raises(AssumptionError):
        verify_folk_theorem(RandomGameSpec((bad,), 2, "exhaustive"))


@pytest.mark.parametrize("mode", ["full", "rational"])
def test_folk_verdicts_match_the_all_histories_check(mode):
    """A verdict read off the folk picks, one history per suffix, is the
    check over every opponent history."""
    pool = RandomGameSpec((condition_game(), extremes_game((12, 1, 0, 3), (11, 0, 2, 4))),
                          2, "exhaustive")
    subjects = [subject for _, _, subject in criterion6_subjects()] + [pool]
    for subject in subjects:
        for entry in verify_folk_theorem(subject, mode).entries:
            sequence = realized(subject, entry.realization)
            strategy = folk_strategy(sequence, entry.player)
            assert entry.passed == is_competitive_in_all_subgames(
                sequence, entry.player, strategy, mode
            ), (entry.realization, entry.player)

