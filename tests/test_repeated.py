import itertools
import math
import random
from fractions import Fraction

import pytest

from regretgames import (
    AssumptionError,
    Game,
    GameSequence,
    InputError,
    RandomGameSpec,
    SizeError,
    decision_points,
    expand_sequence,
    folk_strategy,
    make_dense_game,
    minimax_regret,
    random_realizations,
    rational_restriction,
    verify_folk_theorem,
)
from regretgames import dominance, repeated, solver
from regretgames.repeated import SequenceAnalysis, stage_pick
from regretgames.solver import mode_restriction
from support import (
    anchor_game, criterion6_subjects, folk_condition_holds, folk_reference, game_from_cells,
    history_strategies, payoffs, random_stage_game, rational_step_reference, realized, replay,
    stage_extremes, three_player_stage_game,
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


def folk_index_in(expansion, player):
    """The index in ``expansion`` of the player's folk strategy: its stage
    pick at each decision point's iteration."""
    picks = folk_strategy(expansion.sequence, player)
    return expansion.index_of_tuple(player, tuple(
        picks[idx - 1] for idx, _ in decision_points(expansion.sequence, player)))


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
    assert [len(seq.suffix(q)) for q in (1, 2, 3)] == [3, 2, 1]
    other = condition_game()
    mixed = GameSequence((g, other))
    assert [mixed.suffix(q).stages for q in (1, 2)] == [(g, other), (other,)]


def test_expansion_counts():
    g = anchor_game()
    assert expand_sequence(GameSequence.repeat(g, 2)).game.strategy_counts == (8, 8)
    assert expand_sequence(GameSequence.repeat(g, 3)).game.strategy_counts == (128, 128)


def test_expansion_length_one_is_stage_game():
    g = anchor_game()
    expansion = expand_sequence(GameSequence.repeat(g, 1))
    assert expansion.game.strategy_counts == g.strategy_counts
    for profile in itertools.product(range(2), repeat=2):
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
        assert payoffs(expansion.game, profile) == expected


def pq_stage(rng: random.Random, counts) -> Game:
    """A stage of the given shape with p/q payoffs over unrelated denominators."""
    denominators = [rng.choice((1, 2, 3, 5, 7, 11, 13)) for _ in counts]
    cells = [tuple(Fraction(rng.randint(-9, 20), q) for q in denominators)
             for _ in range(math.prod(counts))]
    return game_from_cells(counts, cells)


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
    for profile in itertools.product(*map(range, expansion.game.strategy_counts)):
        expected = replay(sequence, [lookups[p][s] for p, s in enumerate(profile)])
        assert payoffs(expansion.game, profile) == expected
    rest = expansion
    for k in range(1, length + 1):
        alone = expand_sequence(sequence.suffix(k))
        assert rest == alone and rest.game == alone.game  # sequence and rest, then game
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


def tied_stage(rng: random.Random, counts) -> Game:
    """A stage of the given shape whose payoffs, three values from -4..4 over
    one scale of 1, 2, 3 or 7, tie often and go negative."""
    scale = rng.choice((1, 2, 3, 7))
    values = [Fraction(v, scale) for v in rng.sample(range(-4, 5), 3)]
    return game_from_cells(counts, [tuple(rng.choice(values) for _ in counts)
                                    for _ in range(math.prod(counts))])


def assert_rational_sets_derived(expansion) -> int:
    """Every suffix on the rest chain carries the rational restriction that
    the pairwise scan of its own matrix finds; returns the suffixes checked."""
    checked = 0
    while expansion is not None:
        game = expansion.game
        assert game._rational_restriction is None  # the expansion writes nothing into its game
        assert expansion.rational == rational_restriction(game)  # the scan, kept on the game
        expansion, checked = expansion.rest, checked + 1
    return checked


@pytest.mark.parametrize("players", [2, 3])
@pytest.mark.parametrize("length", [1, 2, 3])
def test_expansion_derives_the_rational_set_of_every_suffix(players, length):
    rng, checked = random.Random(f"rational-{players}-{length}"), 0
    while checked < 40:
        counts = [tuple(rng.randint(1, 3) for _ in range(players)) for _ in range(length)]
        try:
            expansion = expand_sequence(
                GameSequence([tied_stage(rng, shape) for shape in counts]), 2000)
        except SizeError:
            continue
        checked += assert_rational_sets_derived(expansion)


def criterion6_sequences():
    """Every sequence the criterion-6 instances verify, pool draws included."""
    for _, _, subject in criterion6_subjects():
        if isinstance(subject, GameSequence):
            yield subject
        else:
            yield from (sequence for _, sequence in random_realizations(subject))


def test_expansion_derives_the_rational_sets_of_criterion_6():
    for sequence in criterion6_sequences():
        assert assert_rational_sets_derived(expand_sequence(sequence)) == len(sequence)


def assert_full_regrets_derived(expansion) -> int:
    """Every suffix on the rest chain carries, per player, the full-mode
    worst regrets that solving its own matrix gives; returns the suffixes."""
    checked = 0
    while expansion is not None:
        game = expansion.game
        for player in range(game.player_count):
            worst, scale = expansion.full_regrets[player]  # derived, not solved
            assert tuple(Fraction(w, scale) for w in worst) \
                == minimax_regret(game, player).worst_regret_per_strategy
        expansion, checked = expansion.rest, checked + 1
    return checked


@pytest.mark.parametrize("players", [2, 3])
@pytest.mark.parametrize("length", [1, 2, 3])
def test_expansion_derives_the_full_worst_regrets_of_every_suffix(players, length):
    rng, checked = random.Random(f"full-{players}-{length}"), 0
    while checked < 40:
        counts = [tuple(rng.randint(1, 3) for _ in range(players)) for _ in range(length)]
        try:
            expansion = expand_sequence(
                GameSequence([tied_stage(rng, shape) for shape in counts]), 2000)
        except SizeError:
            continue
        checked += assert_full_regrets_derived(expansion)


def test_expansion_derives_the_full_worst_regrets_of_criterion_6():
    for sequence in criterion6_sequences():
        assert assert_full_regrets_derived(expand_sequence(sequence)) == len(sequence)


def tied_sequences(rng: random.Random, count: int):
    """``count`` seeded tie-heavy sequences of 2-3 players, 1-3 stages and
    1-3 strategies per player, so some stages give a player one choice."""
    for _ in range(count):
        players, length = rng.randint(2, 3), rng.randint(1, 3)
        yield GameSequence([tied_stage(rng, tuple(rng.randint(1, 3) for _ in range(players)))
                            for _ in range(length)])


def test_one_walk_rational_step_equals_the_three_walk_reference(monkeypatch):
    """Every ``_rational_step`` call made expanding seeded tie-heavy sequences
    and the criterion-6 ones gives what the three-walk reference gives."""
    calls, step = [], repeated._rational_step
    monkeypatch.setattr(repeated, "_rational_step",
                        lambda *args: calls.append(args) or step(*args))
    for sequence in itertools.chain(tied_sequences(random.Random("one-walk"), 300),
                                    criterion6_sequences()):
        try:
            expand_sequence(sequence, 2000)
        except SizeError:
            pass
    for args in calls:
        assert step(*args) == rational_step_reference(*args)
    # both branches of the regret table: a player with one stage choice, and with rivals
    assert {len(gains) > 1 for gains, *_ in calls} == {False, True}
    assert any(len(continuations) > 1 for _, continuations, *_ in calls)


def assert_rational_regrets_gathered(sequence) -> int:
    """At every suffix on the rest chain, each player's rational worst
    regrets, solved before anything reads the suffix's ``game``, equal the
    solver's on that game against the rational sets the dominance scan finds;
    returns the (suffix, player) cases whose opponents' rational sets leave
    out a strategy, where the rows against rational opponents are gathered."""
    analysis, narrowed = SequenceAnalysis(sequence), 0
    for start in range(1, len(sequence) + 1):
        expansion = analysis.expansion(start)
        reports = [analysis.report(start, player, "rational")
                   for player in range(sequence.player_count)]
        assert "game" not in vars(expansion)
        game = expansion.game
        for player, report in enumerate(reports):
            expected = minimax_regret(game, player, rational_restriction(game))
            assert report.worst_regret_per_strategy == expected.worst_regret_per_strategy
            narrowed += expansion._narrowed(player)
    return narrowed


@pytest.mark.parametrize("players", [2, 3])
@pytest.mark.parametrize("length", [1, 2, 3])
def test_rational_worst_regrets_of_every_suffix_equal_the_scan(players, length):
    rng, checked, narrowed = random.Random(f"gather-{players}-{length}"), 0, 0
    while checked < 20:
        counts = [tuple(rng.randint(1, 3) for _ in range(players)) for _ in range(length)]
        sequence = GameSequence([tied_stage(rng, shape) for shape in counts])
        try:
            expand_sequence(sequence, 2000)
        except SizeError:
            continue
        narrowed += assert_rational_regrets_gathered(sequence)
        checked += 1
    assert narrowed > 0


def test_rational_worst_regrets_of_criterion_6_equal_the_scan():
    assert sum(map(assert_rational_regrets_gathered, criterion6_sequences())) > 0


def assert_rational_rows_replay(expansion, rng: random.Random, samples: int) -> None:
    """Sampled entries of each player's rows against the rational opponents
    are the play-path replay of the two strategies' decisions."""
    sequence, players = expansion.sequence, expansion.sequence.player_count
    lookups = [[dict(zip(points, t)) for t in tuples]
               for points, tuples in (history_strategies(sequence, p) for p in range(players))]
    for player in range(players):
        columns, (_, scale) = repeated._gather(expansion, player, True), \
            expansion.full_regrets[player]
        opponents = list(itertools.product(*(allowed for j, allowed in
                                             enumerate(expansion.rational.allowed)
                                             if j != player)))
        assert len(columns) == len(opponents)
        assert {len(column) for column in columns} == {len(lookups[player])}
        for _ in range(samples):
            q, s = rng.randrange(len(columns)), rng.randrange(len(lookups[player]))
            profile = (*opponents[q][:player], s, *opponents[q][player:])
            expected = replay(sequence, [lookups[p][c] for p, c in enumerate(profile)])
            assert Fraction(columns[q][s], scale) == expected[player]


def test_rational_rows_equal_the_play_path_replay():
    rng = random.Random(29)
    sequences = [*criterion6_sequences(),
                 *(uneven_sequence(rng, players, length)[0]
                   for players, length in ((2, 2), (3, 2), (2, 3), (3, 3)) for _ in range(3))]
    for sequence in sequences:
        expansion = expand_sequence(sequence)
        while expansion is not None:
            assert_rational_rows_replay(expansion, rng, 30)
            expansion = expansion.rest


def test_sequence_reports_equal_the_solver_on_the_expansion():
    """The derived ints sit on the unreduced lcm scale of the stages, the
    expansion's payoffs on its gcd-reduced one: the reports must not differ."""
    rng = random.Random(9)
    sequences = [uneven_sequence(rng, players, length)[0]
                 for players, length in ((2, 2), (3, 2), (2, 3))]
    for sequence in [*criterion6_sequences(), *sequences]:
        analysis = SequenceAnalysis(sequence)
        for start in range(1, len(sequence) + 1):
            game = analysis.expansion(start).game
            for player in range(sequence.player_count):
                for mode in ("full", "rational"):
                    expected = minimax_regret(game, player, mode_restriction(game, mode))
                    assert analysis.report(start, player, mode).to_json() == expected.to_json()


def test_index_of_tuple_is_the_reference_position():
    rng = random.Random(5)
    for players, length in ((2, 1), (2, 2), (3, 2), (2, 3)):
        sequence, expansion = uneven_sequence(rng, players, length)
        for p in range(players):
            _, tuples = history_strategies(sequence, p)
            assert [expansion.index_of_tuple(p, t) for t in tuples] == list(range(len(tuples)))


def test_fixed_index_is_the_index_of_the_repeated_picks():
    """A strategy playing one pick per iteration after every history has the
    index that ``index_of_tuple`` gives its decisions at ``decision_points``."""
    rng = random.Random(5)
    for players, length in ((2, 1), (2, 2), (3, 2), (2, 3)):
        sequence, expansion = uneven_sequence(rng, players, length)
        for p in range(players):
            counts = [stage.strategy_counts[p] for stage in sequence.stages]
            for picks in itertools.product(*map(range, counts)):
                decisions = tuple(picks[idx - 1] for idx, _ in decision_points(sequence, p))
                assert repeated._fixed_index(sequence, p, picks) \
                    == expansion.index_of_tuple(p, decisions)


@pytest.mark.parametrize("decisions", [
    (0.0, 1.0, 1.0), (0, True, 1), (0, 1), (0, 1, 1, 0), (0, 2, 1), (0, -1, 1),
])
def test_index_of_tuple_rejects_invalid_decisions(decisions):
    expansion = expand_sequence(GameSequence.repeat(anchor_game(), 2))
    assert expansion.index_of_tuple(0, (0, 1, 1)) == 3
    with pytest.raises(InputError):
        expansion.index_of_tuple(0, decisions)
    assert "game" not in vars(expansion)  # the index needs no payoff matrix


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
    # the payoff matrix is gathered along the chain without recursing per link
    longer = expand_sequence(GameSequence.repeat(make_dense_game((1, 1), [[[1, 2]]]), 2000))
    assert payoffs(longer.game, (0, 0)) == (2000, 4000)
    # ``==`` and ``repr`` read the sequence, which fixes the chain, not each link
    assert longer == expand_sequence(GameSequence.repeat(make_dense_game((1, 1), [[[1, 2]]]),
                                                         2000))
    assert repr(longer) == f"ExpandedGame(sequence={longer.sequence!r})"


def test_expansion_checks_no_stage_of_its_suffixes(monkeypatch):
    """``expand_sequence`` takes one suffix per stage; checking each suffix's
    stages again would cost a number of stage checks quadratic in the length."""
    check, checked = GameSequence.__post_init__, []

    def counted(sequence):
        check(sequence)
        checked.append(len(sequence.stages))

    stage = make_dense_game((1, 1), [[[3, 1]]])
    counts = []
    for length in (50, 400):
        sequence = GameSequence.repeat(stage, length)
        monkeypatch.setattr(GameSequence, "__post_init__", counted)
        checked.clear()
        expansion = expand_sequence(sequence)
        monkeypatch.undo()
        counts.append(sum(checked))
        assert expansion.rest.sequence == GameSequence(sequence.stages[1:])
    assert counts[0] == counts[1]


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


@pytest.mark.parametrize("mode", ["full", "rational"])
def test_folk_verifier_builds_no_expanded_payoff_matrix(monkeypatch, mode):
    analyses = []

    class Recorded(SequenceAnalysis):
        def __init__(self, *args):
            super().__init__(*args)
            analyses.append(self)

    monkeypatch.setattr(repeated, "SequenceAnalysis", Recorded)
    stage0 = next(iter(criterion6_sequences())).stages[0]
    for stage in (condition_game(), stage0):
        verify_folk_theorem(GameSequence.repeat(stage, 3), mode)
    assert len(analyses) == 2
    for analysis in analyses:
        assert sorted(analysis._expansions) == [1, 2, 3]
        assert all("game" not in vars(e) for e in analysis._expansions.values())


def test_folk_verifier_scans_stage_games_only_for_rational_sets(monkeypatch):
    scan, games = dominance.rational_set, []

    def counted(game, player):
        games.append(game)
        return scan(game, player)

    monkeypatch.setattr(dominance, "rational_set", counted)
    stage = condition_game()
    verify_folk_theorem(GameSequence.repeat(stage, 3))
    # identity, not equality: the one-stage expansion equals the stage game
    assert len(games) == 2 and all(game is stage for game in games)


def test_folk_verifier_solves_no_expansion_in_full_mode(monkeypatch):
    """Full-mode worst regrets of an expansion are derived with it, and
    rational ones are solved on gathered rows: the only solves of the
    solver's kernel are the stage picks', on the stage games themselves."""
    kernel, solved = solver._worst_regrets, []

    def counted(game, player, restriction):
        solved.append((game, restriction))
        return kernel(game, player, restriction)

    monkeypatch.setattr(solver, "_worst_regrets", counted)
    stage = condition_game()
    for mode in ("full", "rational"):
        solved.clear()
        verify_folk_theorem(GameSequence.repeat(stage, 3), mode)
        # identity, not equality: the one-stage expansion equals the stage game
        assert solved and all(game is stage for game, _ in solved)


def test_suffix_consistency():
    g = condition_game()
    seq = GameSequence.repeat(g, 2)
    whole = expand_sequence(seq)
    first_suffix = expand_sequence(seq.suffix(1))
    assert whole.game == first_suffix.game


def test_folk_strategy_structure():
    """One stage pick per iteration: competitive early, rationally competitive last."""
    g = condition_game()
    full, rational = stage_pick(g, 0, "full"), stage_pick(g, 0, "rational")
    assert folk_strategy(GameSequence.repeat(g, 3), 0) == (full, full, rational)
    assert folk_strategy(GameSequence.repeat(g, 1), 0) == (rational,)


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
        extremes = [[stage_extremes(g, p) for p in (0, 1)] for g in pool]
        first = next(((p, k, l) for p in (0, 1) for k in range(len(pool))
                      for l in range(len(pool))
                      if extremes[k][p][0] < 2 * extremes[l][p][1]), None)
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


def test_stage_condition_reads_each_distinct_game_once(monkeypatch):
    """A game at several positions is read once, and an error names its first
    position, and the first (k, l) pair, as a read of every position would."""
    read, payoff_matrix = [], Game.payoff_matrix

    def counted(game, player):
        read.append((id(game), player))
        return payoff_matrix(game, player)

    monkeypatch.setattr(Game, "payoff_matrix", counted)
    good = condition_game()
    negative = extremes_game((10, -1, 2, 4), (9, 0, 3, 1))
    with pytest.raises(AssumptionError) as info:
        verify_folk_theorem(GameSequence((good, negative, good, negative)))
    assert str(info.value) == "stage 1 has a negative payoff for player 0"
    # highest 7 is below twice the second highest 4 of itself and 6 of ``high``
    low = extremes_game((7, 1, 2, 4), (9, 0, 3, 1))
    high = extremes_game((20, 1, 2, 6), (9, 0, 3, 1))
    read.clear()
    with pytest.raises(AssumptionError) as info:
        verify_folk_theorem(GameSequence((high, low, high, low)))
    assert str(info.value) == ("stage condition fails: highest payoff of game 1 is below "
                               "twice the second highest of game 0 for player 0")
    assert sorted(read) == sorted((id(g), p) for g in (high, low) for p in (0, 1))
    with pytest.raises(AssumptionError, match="of stage 1 is below twice the second highest "
                                              "of stage 0 for player 0$"):
        folk_strategy(GameSequence((high, low, low, high)), 1)


def test_stage_condition_compares_stages_on_unrelated_scales():
    """Player 0's highest payoff 22/11 in one stage is exactly twice the second
    highest 7/7 of a stage over sevenths, so the condition holds; one eleventh
    less, 21/11, breaks it, and the error names the pair in order."""
    elevenths = extremes_game(("1/11", "2/11", "3/11", "22/11"), (0, 1, 2, 9))
    sevenths = extremes_game(("1/7", "2/7", "7/7", "16/7"), (0, 1, 2, 9))
    below = extremes_game(("1/11", "2/11", "3/11", "21/11"), (0, 1, 2, 9))
    assert [g.payoff_matrix(0)[1] for g in (elevenths, sevenths, below)] == [11, 7, 11]
    for stages in ((elevenths, sevenths), (sevenths, elevenths)):
        verify_folk_theorem(GameSequence(stages))
        assert len(folk_strategy(GameSequence(stages), 0)) == 2
    for stages, (k, l) in (((below, sevenths), (0, 1)), ((sevenths, below), (1, 0))):
        for noun, check in (("game", verify_folk_theorem),
                            ("stage", lambda sequence: folk_strategy(sequence, 1))):
            with pytest.raises(AssumptionError) as info:
                check(GameSequence(stages))
            assert str(info.value) == (
                f"stage condition fails: highest payoff of {noun} {k} is below "
                f"twice the second highest of {noun} {l} for player 0")


def test_folk_assumption_validation():
    negative = extremes_game((10, -1, 2, 4), (10, 1, 2, 4))
    with pytest.raises(AssumptionError, match="negative"):
        folk_strategy(GameSequence.repeat(negative, 2), 0)
    repeated_values = extremes_game((10, 2, 2, 4), (10, 1, 2, 4))
    with pytest.raises(AssumptionError, match="distinct"):
        folk_strategy(GameSequence.repeat(repeated_values, 2), 0)
    # a one-cell stage names itself, which in a pool is the game to mend
    single = make_dense_game((1, 1), [[[1, 2]]])
    with pytest.raises(AssumptionError) as info:
        verify_folk_theorem(RandomGameSpec((condition_game(), single), 1))
    assert str(info.value) == "stage 1 has fewer than 2 distinct payoffs for player 0"


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
    folk_index = folk_index_in(expansion, 0)
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


@pytest.mark.parametrize("player, mode, message", [
    (0, "bogus", "mode must be 'full' or 'rational', got 'bogus'"),
    (5, "full", "player 5 out of range 0..1"),
    (True, "full", "player index must be an integer, got True"),
])
def test_sequence_analysis_report_checks_arguments_before_expanding(player, mode, message):
    # the expansion of four repetitions would need 2**30 payoff cells
    analysis = SequenceAnalysis(GameSequence.repeat(condition_game(), 4))
    with pytest.raises(InputError) as info:
        analysis.report(1, player, mode)
    assert str(info.value) == message


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
                assert detail.strategy_index == \
                    folk_index_in(expand_sequence(suffix), entry.player)


def test_verify_folk_theorem_condition_violation_is_an_error():
    bad = extremes_game((7, 1, 2, 4), (10, 1, 2, 4))
    with pytest.raises(AssumptionError):
        verify_folk_theorem(RandomGameSpec((bad,), 2, "exhaustive"))


@pytest.mark.parametrize("mode", ["full", "rational"])
def test_folk_verdicts_match_the_all_histories_check(mode):
    """A verdict read off the folk picks, one history per suffix, is the
    play-path reference's, which scores the folk strategy against every
    opponent strategy in the mode, and so after every opponent history.
    Criterion 6 already checks the rational verdicts of its subjects against
    the same reference, so rational mode runs on the pool alone."""
    pool = RandomGameSpec((condition_game(), extremes_game((12, 1, 0, 3), (11, 0, 2, 4))),
                          2, "exhaustive")
    subjects = [pool]
    if mode == "full":
        subjects += [subject for _, _, subject in criterion6_subjects()]
    for subject in subjects:
        for entry in verify_folk_theorem(subject, mode).entries:
            reference = folk_reference(realized(subject, entry.realization), entry.player, mode)
            assert entry.passed == reference.passed, (entry.realization, entry.player)


def test_folk_verdicts_with_three_players_match_the_reference():
    """Criterion 6 has two players only; here two opponents' rational sets
    meet in one block. The seed gives a failing and two passing players."""
    sequence = GameSequence.repeat(three_player_stage_game(random.Random(0)), 2)
    assert all(folk_condition_holds(sequence, player) for player in range(3))
    entries = verify_folk_theorem(sequence, "rational").entries
    assert [entry.passed for entry in entries] == [False, True, True]
    for entry in entries:
        reference = folk_reference(sequence, entry.player)
        assert entry.passed == reference.passed, entry.player
        if not entry.passed:
            detail = next(d for d in entry.details if not d.member)
            assert detail.start_iteration == reference.failing_start
            assert reference.worst[detail.rational_argmin[0]] == reference.minimax
