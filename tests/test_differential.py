"""The integer kernels against a plain-Fraction reference (hypothesis, derandomized).

Payoffs are "p/q" rationals with unrelated prime denominators, so every
player's payoffs are stored over a scale larger than one; the reference
below works on the drawn Fractions directly and imports neither the solver
nor the dominance module. The trading oracle is checked against the
stop-time reference in ``support``, which scores explicit stop times with
``trading_payoff`` only, its reachability kernel, sweep and audit against
the enumerating references there, and the stated schedules' take tables and
``simulate`` against the stated rules kept there as closures; the kernel's
closed-form tail after the rule's own take is checked against a brute-force
maximum below, and its per-row ``advance`` and its inline walk in
``witness`` against the per-edge loops they replaced. Kernel tests run on the
library's steps and on the full grid of ``support.grid_steps``.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretgames import (
    TAKE,
    BiddingSpec,
    GameSequence,
    TradingSpec,
    TradingStrategy,
    Restriction,
    audit_single_agent,
    bidding_utility,
    competitive_trading_strategy,
    minimal_regret_sweep,
    decision_points,
    expand_sequence,
    game_from_json,
    game_to_json,
    iterated_rational_sets,
    minimax_regret,
    rational_restriction,
    rational_set,
    rational_trading_strategy,
    reference_strategy,
    simulate,
    trading_oracle,
    trading_oracle_report,
    trading_payoff,
)
from regretgames.rational import format_rational, parse_rational
from regretgames.trading import _Reach, _steps, _take_row
from support import (
    _records,
    _worst_regret,
    advance_reference,
    audit_reference,
    game_from_cells,
    grid_steps,
    history_strategies,
    opponent_stops,
    payoffs,
    reference_rule,
    replay,
    rule_takes,
    stop_regret,
    strategy_stop,
    sweep_reference,
    trading_grid,
    trading_reference,
    witness_reference,
)

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


PAYOFFS = st.builds(
    lambda p, q: Fraction(f"{p}/{q}"), st.integers(-12, 12), st.sampled_from(DENOMINATORS)
)


@st.composite
def rational_games(draw, max_players=3, max_strategies=3):
    """(counts, cells) with "p/q" payoffs parsed to Fractions, lex-ordered cells."""
    n = draw(st.integers(2, max_players))
    counts = tuple(draw(st.integers(1, max_strategies)) for _ in range(n))
    cells = [tuple(draw(PAYOFFS) for _ in range(n)) for _ in itertools.product(*map(range, counts))]
    return counts, cells


@st.composite
def repeated_column_games(draw):
    """(counts, cells) whose opponent columns repeat: every payoff drawn from
    2-3 values, or one player's strategy a copy of another of its strategies,
    which repeats the columns of every other player."""
    counts, cells = draw(rational_games(max_strategies=4))
    n = len(counts)
    profiles = list(itertools.product(*map(range, counts)))
    copyable = [j for j, c in enumerate(counts) if c > 1]
    if not copyable or draw(st.booleans()):
        values = draw(st.lists(PAYOFFS, min_size=2, max_size=3, unique=True))
        return counts, [tuple(draw(st.sampled_from(values)) for _ in range(n)) for _ in profiles]
    j = draw(st.sampled_from(copyable))
    source, target = draw(st.lists(st.integers(0, counts[j] - 1), min_size=2, max_size=2,
                                   unique=True))
    table = dict(zip(profiles, cells))
    for profile in profiles:
        if profile[j] == target:
            table[profile] = table[profile[:j] + (source,) + profile[j + 1:]]
    return counts, [table[profile] for profile in profiles]


@st.composite
def subsets(draw, counts):
    """One non-empty strategy subset per player, for a custom restriction."""
    return [sorted(draw(st.sets(st.integers(0, c - 1), min_size=1))) for c in counts]


def assert_kernels_match_reference(counts, cells, custom):
    """``minimax_regret`` in full mode, rational mode and under the ``custom``
    restriction, then the dominance kernels, against the reference."""
    game = game_from_cells(counts, cells)
    table = dict(zip(itertools.product(*map(range, counts)), cells))
    full = [list(range(c)) for c in counts]

    first_round = ref_elimination_round(table, counts, full)
    rational = [kept for kept, _ in first_round]
    restriction = rational_restriction(game)
    assert restriction.allowed == tuple(tuple(kept) for kept in rational)

    for player in range(len(counts)):
        for allowed, used in ((full, None), (rational, restriction),
                              (custom, Restriction(tuple(map(tuple, custom))))):
            worst = ref_worst_regrets(table, counts, player, allowed)
            report = minimax_regret(game, player, used)
            assert report.worst_regret_per_strategy == tuple(worst)
            assert report.minimax_value == min(worst)
            assert report.argmin == tuple(s for s, w in enumerate(worst) if w == min(worst))
    assert_dominance_matches_reference(counts, cells)


@COMMON
@given(st.data())
def test_kernels_match_fraction_reference(data):
    counts, cells = data.draw(rational_games())
    assert_kernels_match_reference(counts, cells, data.draw(subsets(counts)))


@COMMON
@given(st.data())
def test_kernels_match_reference_on_repeated_columns(data):
    counts, cells = data.draw(repeated_column_games())
    assert_kernels_match_reference(counts, cells, data.draw(subsets(counts)))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.data())
def test_kernels_match_reference_on_auctions(data):
    """3-player k-th price auctions with T <= 6, k = 1..3, cells from
    ``bidding_utility``: few distinct opponent columns per player."""
    grid = data.draw(st.integers(5, 6))
    valuations = data.draw(st.lists(st.integers(2, grid - 1), min_size=3, max_size=3,
                                    unique=True))
    spec = BiddingSpec(tuple(valuations), grid, data.draw(st.integers(1, 3)))
    counts = (grid + 1,) * 3
    cells = [tuple(bidding_utility(spec, bids, p) for p in range(3))
             for bids in itertools.product(range(grid + 1), repeat=3)]
    assert_kernels_match_reference(counts, cells, data.draw(subsets(counts)))


def assert_dominance_matches_reference(counts, cells):
    """``rational_set`` and one and three rounds of ``iterated_rational_sets``
    against the reference elimination."""
    game = game_from_cells(counts, cells)
    table = dict(zip(itertools.product(*map(range, counts)), cells))
    full = [list(range(c)) for c in counts]
    first_round = ref_elimination_round(table, counts, full)
    for player in range(len(counts)):
        surviving = rational_set(game, player)
        assert (list(surviving.allowed), list(surviving.eliminated)) == first_round[player]
    assert [(list(s.allowed), list(s.eliminated)) for s in iterated_rational_sets(game, 1)] \
        == first_round

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


# Rows that a test on row sums alone would get wrong: duplicates, equal sums
# that differ, negative p/q values, and a dominator that is not the first row
# with a larger sum. Player 0's rows are ``own``, player 1's are ``other`` (both
# indexed [player 0's strategy][player 1's strategy]).
@pytest.mark.parametrize("own, other", [
    # duplicates, of which neither dominates the other
    ([[1, 2, 0], [1, 2, 0], [0, 1, 0]], [[1, 1, 0], [1, 1, 0], [1, 1, 0]]),
    # rows 0 and 1 cross, and become duplicates once player 1 drops strategies 2 and 3
    ([[2, 0, 5, 0], [2, 0, 1, 3], [1, 0, 0, 0]], [[2, 2, 0, 0]] * 3),
    # equal sums that differ; row 3 falls to row 2, the third row of larger sum
    ([[3, 0], [0, 3], [2, 1], [1, 1]], [[0, 1], [1, 0], [2, 2], [0, 0]]),
    ([["1/2", "1/3"], ["1/3", "1/2"], ["5/6", 0], [0, "5/6"]], [["1/2", "1/3"]] * 4),
    # negative p/q payoffs over unrelated denominators, with a duplicate row
    ([["-1/2", "-1/3"], ["-1/3", "-1/3"], ["-5/7", "1/11"], ["-1/2", "-1/3"]],
     [["-1/13", "-2/13"], ["-2/3", "-1/5"], ["-7/11", "-7/11"], ["1/2", "-3/7"]]),
    # rows 0 and 2 have larger sums than row 1, but only row 3 dominates it
    ([[9, -1], [0, 0], [5, "-1/2"], [1, 0], [1, 1]], [[1, 0], [0, 1], [1, 1], [0, 0], [2, 1]]),
])
def test_dominance_matches_reference_on_prefilter_edge_rows(own, other):
    counts = (len(own), len(own[0]))
    cells = [(Fraction(str(own[s][o])), Fraction(str(other[s][o])))
             for s in range(counts[0]) for o in range(counts[1])]
    assert_dominance_matches_reference(counts, cells)


@COMMON
@given(rational_games())
def test_payoffs_round_trip_exactly(case):
    counts, cells = case
    game = game_from_cells(counts, cells)
    for profile, cell in zip(itertools.product(*map(range, counts)), cells):
        for player, value in enumerate(cell):
            read = game.payoff(profile, player)
            assert type(read) is Fraction and read == value
    assert game_from_json(game_to_json(game)) == game
    # the same values given as ints where integral build an equal game
    as_ints = [tuple(int(v) if v.denominator == 1 else v for v in cell) for cell in cells]
    assert game_from_cells(counts, as_ints) == game


@COMMON
@given(st.lists(rational_games(max_players=2, max_strategies=2), min_size=2, max_size=2))
def test_expansion_sums_stages_over_unrelated_scales(stages):
    sequence = GameSequence(tuple(game_from_cells(counts, cells) for counts, cells in stages))
    expansion = expand_sequence(sequence)
    game = expansion.game
    for profile in itertools.product(*map(range, game.strategy_counts)):
        decisions = [
            dict(zip(decision_points(sequence, p), history_strategies(sequence, p)[1][profile[p]]))
            for p in range(2)
        ]
        assert payoffs(game, profile) == replay(sequence, decisions)
    assert game_from_json(game_to_json(game)) == game


# -- trading oracle against the stop-time reference -----------------------------


def threshold_strategy(player, thresholds, triggers):
    """Take at iteration j when the own announcement reaches thresholds[j - 1]
    (None: never) or, if triggers[j - 1], when the other agent is at its cap."""
    return TradingStrategy(player, "random-thresholds", tuple(zip(thresholds, triggers)))


@st.composite
def trading_cases(draw):
    """Bands of width 1-3 on the unit grid, or of width 1 on the half grid,
    with at most 9 announcement pairs to keep the reference fast; t = 3; a
    built-in or a random per-iteration threshold strategy."""
    step = Fraction(1, 2) if draw(st.integers(0, 3)) == 3 else 1
    first = draw(st.integers(1, 3 if step == 1 else 1))
    widths = [first, draw(st.integers(1, 3 // first if step == 1 else 1))]
    if draw(st.booleans()):
        widths.reverse()
    floors = [draw(st.integers(1, 3)) for _ in range(2)]
    spec = TradingSpec(tuple(floors), tuple(f + w for f, w in zip(floors, widths)), 3,
                       draw(st.integers(1, 2)))
    player = draw(st.integers(0, 1))
    mode = draw(st.sampled_from(("full", "rational")))
    kind = draw(st.sampled_from(("competitive", "rational", "thresholds")))
    if kind == "competitive":
        strategy = competitive_trading_strategy(spec, player)
    elif kind == "rational":
        strategy = rational_trading_strategy(spec, player)
    else:
        grid = trading_grid(floors[player], spec.price_caps[player], step)
        thresholds = [draw(st.sampled_from([None] + grid)) for _ in range(3)]
        triggers = [draw(st.booleans()) for _ in range(3)]
        strategy = threshold_strategy(player, thresholds, triggers)
    return spec, player, strategy, mode, step


def assert_witness_replays(spec, player, strategy, mode, step, report):
    """The report's witness replays to its stated regret through the public
    payoff rule: grid announcements, the strategy's own stop, an admissible
    opponent stop."""
    value = Fraction(report["worst_case_regret"])
    witness = report["witness"]
    if value == 0:
        assert witness is None
        return
    announcements = [tuple(parse_rational(v) for v in pair) for pair in witness["announcements"]]
    for pair in announcements:
        for i, v in enumerate(pair):
            assert v in trading_grid(spec.price_floors[i], spec.price_caps[i], step)
    own_stop = witness["strategy_take_iteration"]
    opponent_stop = witness["opponent_take_iteration"]
    assert own_stop == strategy_stop(spec, strategy, announcements)
    assert opponent_stop in opponent_stops(spec, player, announcements, mode)
    assert stop_regret(spec, player, announcements, own_stop, opponent_stop) \
        == Fraction(witness["regret"]) == value


@settings(max_examples=40, derandomize=True, deadline=None)
@given(trading_cases())
def test_trading_oracle_matches_stop_time_reference(case):
    spec, player, strategy, mode, step = case
    report = trading_oracle_report(spec, player, strategy, mode, grid_step=step)
    assert Fraction(report["worst_case_regret"]) \
        == trading_reference(spec, player, strategy, mode, step)
    assert_witness_replays(spec, player, strategy, mode, step, report)


@pytest.mark.parametrize("mode", ("full", "rational"))
def test_trading_witnesses_replay_on_fixed_bands(mode):
    """Every witness kind, including opponents that stop only at the last
    iteration and strategies that never take."""
    for floors, caps in (((2, 2), (3, 3)), ((1, 1), (3, 4)), ((1, 2), (4, 3))):
        spec = TradingSpec(floors, caps, 3, 2)
        for player in (0, 1):
            for strategy in (competitive_trading_strategy(spec, player),
                             rational_trading_strategy(spec, player),
                             threshold_strategy(player, [None] * 3, [False] * 3)):
                report = trading_oracle_report(spec, player, strategy, mode)
                assert_witness_replays(spec, player, strategy, mode, 1, report)


def test_sweep_agrees_with_the_full_grid_oracle():
    """Every candidate the sweep reports as beating the reference, and a
    seeded sample of the others, played as an ordinary strategy, has the
    regret the sweep implies on the full grid."""
    rng = random.Random(7)
    for spec in (TradingSpec((1, 1), (4, 2), 3, 1), TradingSpec((1, 2), (4, 3), 3, 2)):
        result = minimal_regret_sweep(spec, 0, "rational")
        found = {(v.thresholds, v.peak_triggers): v.worst_regret for v in result.violations}
        assert found
        options = [(threshold, trigger)
                   for threshold in trading_grid(1, spec.price_caps[0], 1) + [None]
                   for trigger in (False, True)]
        sample = [tuple(zip(*(rng.choice(options) for _ in range(3)))) for _ in range(60)]
        for thresholds, triggers in list(found) + sample:
            strategy = threshold_strategy(0, thresholds, triggers)
            value = trading_oracle(spec, 0, strategy, "rational")
            if (thresholds, triggers) in found:
                assert value == found[thresholds, triggers] < result.reference_regret
            else:
                assert value >= result.reference_regret


# -- the stated schedules against the closures they replaced ------------------

#: One agent's (floor, cap): every floor 1-3 with every cap up to 7.
_SIDES = [(floor, cap) for floor in (1, 2, 3) for cap in range(floor + 1, 8)]
#: Bands (floors, caps) in which each side above is agent 0's twice and
#: agent 1's twice, each time against another side.
SCHEDULE_BANDS = [tuple(zip(*pair)) for pair in
                  [*zip(_SIDES, _SIDES[::-1]), *zip(_SIDES, _SIDES[5:] + _SIDES[:5])]]


def test_stated_take_tables_match_the_closures():
    """The take table the oracle and the sweep build from a stated schedule
    equals the stated closure's, on the full grid and the signature
    steps, in both modes, for both players, at t = 3-6 and grid steps 1
    and 1/2."""
    cases = itertools.product(SCHEDULE_BANDS, range(3, 7), (1, Fraction(1, 2)), (False, True))
    for (floors, caps), t, step, signature in cases:
        spec = TradingSpec(floors, caps, t, 1)
        for player, mode in itertools.product((0, 1), ("full", "rational")):
            steps = _steps(spec, player, step, 10**20) if signature \
                else grid_steps(spec, player, step)
            schedule = reference_strategy(spec, player, mode).schedule
            assert tuple(_take_row(entry, steps) for entry in schedule) \
                == rule_takes(reference_rule(spec, player, mode), steps, t)


def test_simulate_replays_the_stated_closures():
    """``simulate`` on seeded announcements, off-grid Fractions included,
    acts as the stated closures replayed iteration by iteration, in both
    modes, and scores their actions as ``trading_payoff`` does."""
    rng = random.Random(11)
    seen = {"full": set(), "rational": set()}
    for _ in range(400):
        floors = (rng.randint(1, 3), rng.randint(1, 3))
        spec = TradingSpec(floors, tuple(f + rng.randint(1, 6) for f in floors),
                           rng.randint(3, 6), rng.randint(1, 2))
        mode = rng.choice(("full", "rational"))
        announcements = []
        for _ in range(spec.iterations):
            q = rng.choice((0, 1, 2, 4, 7))  # 0: the floor
            announcements.append(tuple(
                floor + Fraction(rng.randint(0, (cap - floor) * q), q) if q > 1
                else rng.randint(floor, cap) if q else floor
                for floor, cap in zip(spec.price_floors, spec.price_caps)))
        rules = [reference_rule(spec, player, mode) for player in (0, 1)]
        actions, taken = [], False
        for j, pair in enumerate(announcements, start=1):
            actions.append(tuple(rule(j, pair, taken) for rule in rules))
            taken = taken or TAKE in actions[-1]
        strategies = [reference_strategy(spec, player, mode) for player in (1, 0)]
        outcome, trace = simulate(spec, strategies, announcements)
        assert [tuple(row["actions"]) for row in trace] == actions
        assert outcome == trading_payoff(spec, announcements, actions)
        for player, stop in enumerate(outcome.take_iterations):
            early = strategies[1 - player].params["early_threshold"]
            if stop == spec.iterations:
                seen[mode].add("last")
            elif stop is not None:
                own = announcements[stop - 1][player]
                seen[mode].add("early" if own >= early else "below early")
    # takes at the last iteration and at the early threshold in both modes,
    # and below it before the last only in rational mode (at t - 1 or a peak)
    assert seen == {"full": {"early", "last"}, "rational": {"early", "below early", "last"}}


# -- the reachability kernel against the enumerating reference -----------------


@st.composite
def take_tables(draw):
    """t = 3-4; bands of width 1-3 on the unit grid, or of width 1 on the
    half grid; the full grid or the signature steps; a random take table.
    At t = 4 the full grid keeps at most 9 pairs, so the reference
    enumerates at most 6,561 sequences."""
    t = draw(st.integers(3, 4))
    step = Fraction(1, 2) if draw(st.integers(0, 3)) == 3 else 1
    signature = draw(st.booleans())
    limit = 3 if step == 1 else 1
    first = draw(st.integers(1, limit))
    second = draw(st.integers(1, limit if t == 3 or signature else 9 // (first + 1) - 1))
    floors = [draw(st.integers(1, 3)) for _ in range(2)]
    spec = TradingSpec(tuple(floors), (floors[0] + first, floors[1] + second), t, 1)
    player = draw(st.integers(0, 1))
    mode = draw(st.sampled_from(("full", "rational")))
    steps = _steps(spec, player, step, 10**6) if signature else grid_steps(spec, player, step)
    density = draw(st.sampled_from((0.1, 0.3, 0.6)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    takes = tuple(tuple(rng.random() < density for _ in steps) for _ in range(t))
    return steps, t, mode, takes


@settings(max_examples=80, derandomize=True, deadline=None)
@given(take_tables())
def test_kernel_matches_the_enumerating_reference(case):
    steps, t, mode, takes = case
    expected, witness = _worst_regret(_records(steps, t, mode, 10**6), takes)
    reach = _Reach(steps, t, mode)
    worst = reach.worst(takes)
    assert worst == expected
    if witness is None:
        assert worst == 0
    else:
        (indices, _, _), stop, tau = witness
        indices_found, stop_found, tau_found = reach.witness(takes, worst)
        assert (tuple(indices_found), stop_found, tau_found) == (indices, stop, tau)


def test_oracle_report_matches_a_walk_over_the_full_grid():
    """The oracle walks one step per (own value, other at cap); its worst
    regret, witness announcements and both stops are those of the same walk
    over every announcement pair of the grid. Both players, both modes, grid
    steps 1 and 1/2, the stated schedule and seeded random ones, t = 3-5."""
    rng = random.Random(36)
    witnesses = 0
    cases = itertools.product((0, 1), ("full", "rational"), (1, Fraction(1, 2)), (False, True))
    for player, mode, step, stated in cases:
        for _ in range(12):
            floors = (rng.randint(1, 3), rng.randint(1, 3))
            widths = [rng.randint(1, 4 if step == 1 else 2) for _ in floors]
            spec = TradingSpec(floors, (floors[0] + widths[0], floors[1] + widths[1]),
                               rng.randint(3, 5), rng.randint(1, 2))
            t = spec.iterations
            if stated:
                strategy = reference_strategy(spec, player, mode)
            else:
                floor, cap = spec.bounds(player)
                thresholds = [None, *(Fraction(k, 4) for k in range(4 * floor, 4 * cap + 1))]
                strategy = TradingStrategy(player, "random", [
                    (rng.choice(thresholds), rng.random() < 0.3) for _ in range(t)])
            report = trading_oracle_report(spec, player, strategy, mode, step, 10**9)
            steps = grid_steps(spec, player, step)
            reach = _Reach(steps, t, mode)
            takes = [_take_row(entry, steps) for entry in strategy.schedule]
            worst = reach.worst(takes)
            assert report["worst_case_regret"] == str(spec.half_supply * worst)
            if worst == 0:
                assert report["witness"] is None
                continue
            indices, stop, tau = reach.witness(takes, worst)
            witness = report["witness"]
            assert witness["announcements"] == [
                [format_rational(v.numerator, v.denominator) for v in steps[s][2]]
                for s in indices]
            assert witness["strategy_take_iteration"] == (None if stop > t else stop)
            assert witness["opponent_take_iteration"] == (None if tau > t else tau)
            witnesses += 1
    assert witnesses > 120


@st.composite
def witness_cases(draw):
    """t = 3-5; grids of up to 5 x 5 pairs, on the unit grid or the half
    grid; the full grid or the signature steps, in builder order or
    shuffled (the builder puts a peak step after the other steps of its own
    value, the shuffle also before them); every mode; take rows drawn at
    random, or taking on every step, or on none."""
    t = draw(st.integers(3, 5))
    step = draw(st.sampled_from((1, Fraction(1, 2))))
    limit = 4 if step == 1 else 2
    floors = [draw(st.integers(1, 3)) for _ in range(2)]
    caps = [floor + draw(st.integers(1, limit)) for floor in floors]
    spec = TradingSpec(tuple(floors), tuple(caps), t, 1)
    # the walks are polynomial in t, so the enumeration cap does not apply
    player = draw(st.integers(0, 1))
    steps = _steps(spec, player, step, 10**8) if draw(st.booleans()) \
        else grid_steps(spec, player, step)
    mode = draw(st.sampled_from(("full", "rational", "single")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        rng.shuffle(steps)
    rows = [draw(st.sampled_from(("all", "none", 0.1, 0.3, 0.6))) for _ in range(t)]
    takes = tuple(
        tuple(row == "all" or (row != "none" and rng.random() < row) for _ in steps)
        for row in rows)
    return steps, t, mode, takes


@settings(max_examples=150, derandomize=True, deadline=None)
@given(witness_cases())
def test_witness_matches_the_per_edge_walk(case):
    """The inline walk picks the witness the per-edge walk picks: the same
    sequence, rule stop and opponent stop."""
    steps, t, mode, takes = case
    reach = _Reach(steps, t, mode)
    worst = reach.worst(takes)
    if worst == 0:  # no scenario has positive regret, so there is no witness
        return
    assert reach.witness(takes, worst) == witness_reference(reach, takes, worst)


def stopped_reference(steps, t: int, mode: str, j: int, high, stop):
    """The worst regret, once the rule has taken at ``stop``, over every step
    sequence for iterations j..t from the running max ``high``, against every
    opponent stop at j or later: any iteration or never ("full"), any
    iteration up to the first with the other agent at its cap before the
    last, or the last ("rational"), only never ("single")."""
    worst = 0
    for sequence in itertools.product(steps, repeat=t - j + 1):
        running = high
        for at, (value, peak, _) in enumerate(sequence, start=j):
            if mode != "single":
                worst = max(worst, max(2 * running, value) - 2 * stop)
            running = max(running, value)
            if mode == "rational" and peak and at < t:
                break
        else:
            if mode != "rational":
                worst = max(worst, 2 * running - 2 * stop)
    return worst


@pytest.mark.parametrize("spec, player, step", [
    (TradingSpec((1, 2), (5, 4), 3, 1), 0, 1),
    (TradingSpec((1, 1), (6, 3), 3, 1), 0, 1),
    (TradingSpec((2, 1), (5, 3), 4, 1), 0, 1),
    (TradingSpec((1, 2), (3, 6), 4, 1), 1, 1),
    (TradingSpec((1, 1), (3, 2), 3, 1), 0, Fraction(1, 2)),
    (TradingSpec((1, 2), (2, 3), 4, 1), 0, Fraction(1, 2)),
], ids=["unit-t3", "wide-t3", "unit-t4", "unit-t4-p1", "half-t3", "half-t4"])
def test_stopped_tail_is_the_maximum_over_every_later_sequence(spec, player, step):
    """The closed-form tail after the rule's own take, at every iteration
    j >= 2, running max and stop value up to it, in every mode, on the full
    grid and on the signature steps."""
    t = spec.iterations
    values = trading_grid(*spec.bounds(player), step)
    for mode, signature in itertools.product(("full", "rational", "single"), (False, True)):
        steps = _steps(spec, player, step, 10**6) if signature \
            else grid_steps(spec, player, step)
        reach = _Reach(steps, t, mode)
        for j in range(2, t + 1):
            for high in values:
                for stop in (v for v in values if v <= high):
                    assert reach.stopped(j, high, stop) \
                        == stopped_reference(steps, t, mode, j, high, stop), \
                        (mode, signature, j, high, stop)


@pytest.mark.parametrize("spec, player, step", [
    (TradingSpec((1, 1), (4, 2), 3, 1), 0, 1),
    (TradingSpec((2, 1), (7, 3), 4, 1), 0, 1),
    (TradingSpec((1, 3), (3, 5), 5, 1), 1, 1),
    (TradingSpec((1, 1), (3, 2), 3, 1), 0, Fraction(1, 2)),
], ids=["4-2", "7-3", "3-5-p1", "half"])
@pytest.mark.parametrize("mode", ("full", "rational", "single"))
def test_advance_matches_the_per_edge_loop(spec, player, step, mode):
    """Every iteration, the last and the one before it included; rows that
    take on every step, on none, and at random; none, one or several
    running maxima, from 0 up to the cap; the full grid and the signature
    steps, both with peak steps (the other agent at its cap)."""
    rng = random.Random(f"{spec}-{player}-{mode}")
    t = spec.iterations
    values = [0, *trading_grid(*spec.bounds(player), step)]
    for signature in (False, True):
        steps = _steps(spec, player, step, 10**6) if signature \
            else grid_steps(spec, player, step)
        assert any(peak for _, peak, _ in steps) and not all(peak for _, peak, _ in steps)
        reach = _Reach(steps, t, mode)
        rows = [(True,) * len(steps), (False,) * len(steps)] + [
            tuple(rng.random() < density for _ in steps)
            for density in (0.2, 0.5, 0.8) for _ in range(4)]
        for j, row in itertools.product(range(1, t + 1), rows):
            for size in range(min(4, len(values)) + 1):
                highs = frozenset(rng.sample(values, size))
                assert reach.advance(j, highs, row) \
                    == advance_reference(reach, j, highs, row), (signature, j, highs, row)


@pytest.mark.parametrize("spec, player, step", [
    (TradingSpec((1, 1), (4, 2), 3, 1), 0, 1),
    (TradingSpec((1, 2), (4, 3), 3, 2), 0, 1),
    (TradingSpec((1, 1), (4, 4), 3, 1), 1, 1),
    (TradingSpec((2, 2), (4, 4), 3, 1), 0, 1),
    (TradingSpec((1, 1), (2, 2), 3, 1), 0, Fraction(1, 2)),
    (TradingSpec((1, 1), (2, 3), 4, 1), 0, 1),
    (TradingSpec((2, 1), (3, 2), 4, 3), 1, 1),
], ids=["4-2", "4-3", "4-4-p1", "2-4", "half", "t4", "t4-p1"])
@pytest.mark.parametrize("mode", ("full", "rational"))
def test_sweep_matches_a_full_scan(spec, player, step, mode):
    """The pruned search reports every candidate that beats the reference,
    in product order with exact values, as scoring each one in full does."""
    assert minimal_regret_sweep(spec, player, mode, step) \
        == sweep_reference(spec, player, mode, step)


def test_audit_matches_the_sequence_scan():
    """Caps 3-10 at t = 2-4, every floor where the reference scans at most
    about 200,000 (sequence, profile) pairs."""
    checked = 0
    for cap in range(3, 11):
        for t in (2, 3, 4):
            for floor in range(1, cap):
                n = cap - floor + 1
                if n ** t * (n + 1) ** (t - 1) <= 200_000:
                    assert audit_single_agent(cap, floor, t).to_json() \
                        == audit_reference(cap, floor, t).to_json()
                    checked += 1
    assert checked > 100
