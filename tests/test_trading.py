import itertools
import random
import re
from fractions import Fraction

import pytest

from regretgames import (
    PASS,
    TAKE,
    ContractError,
    InputError,
    SizeError,
    TradingSpec,
    TradingStrategy,
    audit_single_agent,
    competitive_trading_strategy,
    minimal_regret_sweep,
    rational_trading_strategy,
    reference_strategy,
    simulate,
    single_agent_threshold,
    trading_oracle,
    trading_oracle_report,
    trading_payoff,
)
from regretgames.trading import _steps, _take_row
from support import _records, _worst_regret, grid_steps


def spec26(t=3, k=1):
    return TradingSpec((2, 2), (6, 6), t, k)


def test_spec_validation():
    with pytest.raises(InputError):
        TradingSpec((0, 2), (6, 6), 3, 1)
    with pytest.raises(InputError):
        TradingSpec((2, 2), (2, 6), 3, 1)
    with pytest.raises(InputError):
        TradingSpec((2, 2), (6, 6), 2, 1)
    with pytest.raises(InputError):
        TradingSpec((2, 2), (6, 6), 3, 0)


@pytest.mark.parametrize("args, fragment", [
    (((1.9, 1), (4, 4), 3, 1), "price floor must be an integer, got 1.9"),
    (((1, 1), (4, True), 3, 1), "price cap must be an integer, got True"),
    (((1, 1), (4, 4), 3.0, 1), "iterations must be an integer, got 3.0"),
    (((1, 1), (4, 4), 3, True), "half supply must be an integer, got True"),
    (((1, 1), 4, 3, 1), "exactly two agents"),
], ids=["float-floor", "bool-cap", "float-iterations", "bool-supply", "scalar-caps"])
def test_spec_rejects_non_integers(args, fragment):
    # int() would have read (1.9, 1) as floors (1, 1)
    with pytest.raises(InputError, match=re.escape(fragment)):
        TradingSpec(*args)


def test_payoff_solo_take():
    out = trading_payoff(
        spec26(),
        [(3, 2), (5, 6), (4, 3)],
        [(PASS, PASS), (TAKE, PASS), (PASS, PASS)],
    )
    assert out.take_iterations == (2, None)
    assert out.payoffs == (Fraction(10), Fraction(0))


def test_payoff_simultaneous_take():
    out = trading_payoff(
        spec26(),
        [(3, 2), (5, 6), (4, 3)],
        [(PASS, PASS), (TAKE, TAKE), (PASS, PASS)],
    )
    assert out.payoffs == (Fraction(5), Fraction(6))
    # simultaneous take pays exactly half of a solo take there
    solo = trading_payoff(
        spec26(), [(3, 2), (5, 6), (4, 3)], [(PASS, PASS), (TAKE, PASS), (PASS, PASS)]
    )
    assert out.payoffs[0] * 2 == solo.payoffs[0]


def test_payoff_all_pass():
    out = trading_payoff(spec26(), [(3, 2), (5, 6), (4, 3)], [(PASS, PASS)] * 3)
    assert out.payoffs == (0, 0)
    assert out.take_iterations == (None, None)


def test_forced_pass_violation():
    with pytest.raises(ContractError, match="after the take"):
        trading_payoff(
            spec26(),
            [(3, 2), (5, 6), (4, 3)],
            [(PASS, TAKE), (TAKE, PASS), (PASS, PASS)],
        )


def test_announcement_bounds():
    with pytest.raises(InputError, match="outside"):
        trading_payoff(spec26(), [(3, 2), (7, 6), (4, 3)], [(PASS, PASS)] * 3)


def takes(spec, strategy, iteration, pair) -> bool:
    """Whether ``strategy`` takes at ``iteration`` on ``pair`` while nobody
    has taken, read off its schedule entry."""
    player = strategy.player
    step = (pair[player], pair[1 - player] == spec.price_caps[1 - player], pair)
    return _take_row(strategy.schedule[iteration - 1], [step]) == (True,)


def test_competitive_strategy_rules():
    spec = spec26()
    s = competitive_trading_strategy(spec, 0)
    assert s.params["early_threshold"] == Fraction(7, 2)
    assert s.schedule == ((Fraction(7, 2), False), (Fraction(7, 2), False), (2, False))
    assert takes(spec, s, 1, (4, 2))
    assert not takes(spec, s, 1, (3, 2))
    assert takes(spec, s, 3, (2, 2))
    # after a take at iteration 1 the strategy passes, even at (6, 6)
    pair = (s, competitive_trading_strategy(spec, 1))
    _, trace = simulate(spec, pair, [(6, 6)] * 3)
    assert [row["actions"] for row in trace] == [[TAKE, TAKE], [PASS, PASS], [PASS, PASS]]


def test_rational_strategy_rules():
    spec = spec26()
    s = rational_trading_strategy(spec, 0)
    assert s.schedule == ((Fraction(7, 2), True), (2, True), (2, True))
    # rule 1: the other agent's announcement at its cap forces a grab
    assert takes(spec, s, 1, (2, 6))
    # rule 3: laxer threshold (6+2)/4 = 2 at the second-to-last iteration
    assert takes(spec, s, 2, (2, 5))
    # rule 2: ordinary threshold earlier
    assert not takes(spec, s, 1, (3, 5))
    assert takes(spec, s, 3, (2, 2))


def test_reference_strategy_is_the_stated_rule_of_each_mode():
    assert reference_strategy(spec26(), 0, "full").kind == "competitive-threshold"
    assert reference_strategy(spec26(), 1, "rational").kind == "rational-threshold"


def test_threshold_ordering_and_take_set_containment():
    spec = spec26()
    early = Fraction(2 * 6 + 2, 4)
    late = Fraction(6 + 2, 4)
    assert late < early
    s = rational_trading_strategy(spec, 0)
    for a in range(2, 7):
        if takes(spec, s, 1, (a, 5)):
            assert takes(spec, s, 2, (a, 5))


def test_simulate_competitive_pair():
    spec = spec26()
    pair = (competitive_trading_strategy(spec, 0), competitive_trading_strategy(spec, 1))
    outcome, trace = simulate(spec, pair, [(3, 2), (5, 6), (4, 3)])
    assert outcome.take_iterations == (2, 2)
    assert outcome.payoffs == (Fraction(5), Fraction(6))
    assert [row["actions"] for row in trace] == [
        [PASS, PASS], [TAKE, TAKE], [PASS, PASS]
    ]
    assert trace[1]["cumulative_payoffs"] == ["5", "6"]


def test_simulate_all_minimum_waits_for_last():
    spec = spec26()
    pair = (competitive_trading_strategy(spec, 0), competitive_trading_strategy(spec, 1))
    outcome, trace = simulate(spec, pair, [(2, 2)] * 3)
    assert outcome.take_iterations == (3, 3)
    # forced pass: nothing but passes after the first take anywhere
    taken = False
    for row in trace:
        if taken:
            assert row["actions"] == [PASS, PASS]
        taken = taken or TAKE in row["actions"]


def test_simulate_rational_rule_one_fires():
    spec = spec26()
    pair = (rational_trading_strategy(spec, 0), rational_trading_strategy(spec, 1))
    outcome, _ = simulate(spec, pair, [(2, 6), (5, 5), (4, 3)])
    # agent 0 grabs the split because agent 1's price peaked (and agent 1 takes)
    assert outcome.take_iterations == (1, 1)


@pytest.mark.parametrize("built, played", [(4, 3), (3, 4)], ids=["longer", "shorter"])
def test_a_strategy_for_another_horizon_is_rejected(built, played):
    """A t = 4 schedule in a t = 3 game would never take at the last
    iteration; a t = 3 schedule in a t = 4 game has no entry for the last."""
    spec = TradingSpec((1, 1), (4, 4), played, 1)
    other = TradingSpec((1, 1), (4, 4), built, 1)
    message = (f"the strategy's schedule has {built} entries, "
               f"but the game has {played} iterations")
    for build in (competitive_trading_strategy, rational_trading_strategy):
        with pytest.raises(InputError) as raised:
            trading_oracle_report(spec, 0, build(other, 0))
        assert str(raised.value) == message
        with pytest.raises(InputError) as raised:
            simulate(spec, (build(other, 0), build(spec, 1)), [(1, 1)] * played)
        assert str(raised.value) == message


def test_single_agent_threshold_values():
    assert single_agent_threshold(10, 2) == 4
    assert single_agent_threshold(5, 4) == Fraction(1, 2)
    with pytest.raises(InputError):
        single_agent_threshold(2, 2)


def test_single_agent_audit_frozen():
    audit = audit_single_agent(10, 2, 3)
    assert audit.closed_form_threshold == 4
    assert audit.closed_form_regret == 6
    assert audit.best_stationary_thresholds == (6, 7)
    assert audit.best_stationary_regret == 4
    assert audit.best_profile_regret == 4
    # deterministic end to end
    assert audit_single_agent(10, 2, 3).to_json() == audit.to_json()


def test_oracle_small_grid_values():
    spec = TradingSpec((1, 1), (4, 4), 3, 1)
    assert trading_oracle(spec, 0, competitive_trading_strategy(spec, 0), "full") == 4
    assert trading_oracle(spec, 0, rational_trading_strategy(spec, 0), "rational") == 4
    # a fixed strategy can only do weakly better against rational opponents
    c = competitive_trading_strategy(spec, 0)
    assert trading_oracle(spec, 0, c, "rational") <= trading_oracle(spec, 0, c, "full")


def test_oracle_scales_with_supply():
    small = TradingSpec((1, 1), (4, 4), 3, 1)
    big = TradingSpec((1, 1), (4, 4), 3, 5)
    w1 = trading_oracle(small, 0, competitive_trading_strategy(small, 0), "full")
    w5 = trading_oracle(big, 0, competitive_trading_strategy(big, 0), "full")
    assert w5 == 5 * w1


def test_oracle_passive_strategy_is_weakly_worse():
    spec = TradingSpec((1, 1), (4, 4), 3, 1)
    passive = TradingStrategy(0, "always-pass", ((None, False),) * 3)
    active = competitive_trading_strategy(spec, 0)
    for mode in ("full", "rational"):
        assert trading_oracle(spec, 0, passive, mode) >= trading_oracle(spec, 0, active, mode)


def test_oracle_degenerate_grid_terminates():
    spec = TradingSpec((3, 5), (4, 6), 3, 1)
    value = trading_oracle(spec, 0, competitive_trading_strategy(spec, 0), "full")
    assert value >= 0


def test_oracle_enum_cap():
    spec = spec26()
    with pytest.raises(SizeError) as info:
        trading_oracle(spec, 0, competitive_trading_strategy(spec, 0), "full", enum_cap=10)
    assert info.value.count == (5 * 5) ** 3


def test_sweep_checks_records_then_candidates_against_the_cap():
    with pytest.raises(SizeError) as info:
        minimal_regret_sweep(TradingSpec((1, 1), (4, 4), 3, 1), 0, enum_cap=1)
    assert info.value.count == (4 * 2) ** 3  # signature records
    spec = TradingSpec((1, 1), (4, 2), 3, 1)
    with pytest.raises(SizeError, match="candidate") as info:
        minimal_regret_sweep(spec, 0, "full", enum_cap=600)
    assert info.value.count == (2 * 4 + 2) ** 3
    assert minimal_regret_sweep(spec, 0, "full", enum_cap=1000).candidate_count == 1000


def test_audit_checks_sequences_and_profiles_against_the_cap():
    with pytest.raises(SizeError) as info:
        audit_single_agent(10, 2, 3, enum_cap=700)
    assert info.value.count == 9 ** 3
    # two values over six iterations: 64 sequences but 3 ** 5 profiles
    with pytest.raises(SizeError, match="profiles") as info:
        audit_single_agent(2, 1, 6, enum_cap=100)
    assert info.value.count == 3 ** 5
    assert audit_single_agent(10, 2, 3, enum_cap=729).best_profile_regret == 4


@pytest.mark.parametrize("args, fragment", [
    ((10, 2, 3.0), "iterations must be an integer, got 3.0"),
    ((10.0, 2, 3), "price cap must be an integer, got 10.0"),
    ((10, 2, "3"), "iterations must be an integer, got '3'"),
], ids=["float-iterations", "float-cap", "string-iterations"])
def test_audit_rejects_non_integers(args, fragment):
    with pytest.raises(InputError, match=re.escape(fragment)):
        audit_single_agent(*args)


def test_oracle_rejects_the_other_players_strategy():
    spec = TradingSpec((1, 2), (4, 6), 3, 1)
    with pytest.raises(InputError, match="strategy is for player 0, not player 1"):
        trading_oracle_report(spec, 1, competitive_trading_strategy(spec, 0))
    with pytest.raises(InputError, match="strategy is for player 1, not player 0"):
        trading_oracle(spec, 0, rational_trading_strategy(spec, 1), "rational")


def test_player_must_be_an_int_not_a_bool():
    spec = TradingSpec((1, 2), (4, 6), 3, 1)
    with pytest.raises(InputError, match="player must be 0 or 1, got True"):
        spec.bounds(True)
    strategy = competitive_trading_strategy(spec, 1)
    with pytest.raises(InputError, match="player must be 0 or 1, got True"):
        trading_oracle_report(spec, True, strategy)
    assert trading_oracle_report(spec, 1, strategy)["player"] == 1


@pytest.mark.parametrize("player", [True, 1.0, 2], ids=["bool", "float", "out-of-range"])
def test_strategy_player_must_be_an_exact_int_0_or_1(player):
    with pytest.raises(InputError, match=re.escape(f"player must be 0 or 1, got {player!r}")):
        TradingStrategy(player, "always-pass", ((None, False),) * 3)


def test_oracle_report_witness():
    spec = TradingSpec((1, 1), (4, 4), 3, 1)
    report = trading_oracle_report(spec, 0, competitive_trading_strategy(spec, 0), "full")
    assert report["worst_case_regret"] == "4"
    witness = report["witness"]
    assert len(witness["announcements"]) == 3
    assert witness["regret"] == "4"


def test_grid_step_validation():
    spec = spec26()
    with pytest.raises(InputError, match="does not divide"):
        trading_oracle(spec, 0, competitive_trading_strategy(spec, 0), "full",
                       grid_step=Fraction(3, 7))
    value = trading_oracle(spec, 0, competitive_trading_strategy(spec, 0), "full",
                           grid_step=2)
    assert value > 0


def test_grid_step_must_divide_both_bands():
    """The sweep, like the oracle, refuses a grid step that divides the own
    band but not the other agent's, with the same one line."""
    spec = TradingSpec((2, 1), (4, 4), 3, 1)
    for search in (lambda: minimal_regret_sweep(spec, 0, grid_step=2),
                   lambda: trading_oracle(spec, 0, competitive_trading_strategy(spec, 0),
                                          grid_step=2)):
        with pytest.raises(InputError) as info:
            search()
        assert str(info.value) == "grid step 2 does not divide the band [1, 4] evenly"


def test_steps_keep_the_first_grid_pair_of_each_signature():
    """``_steps`` keeps, in grid order, the first pair of the full grid with
    each (own value, other at cap): the other agent at its floor or its cap."""
    for floors, widths in itertools.product(itertools.product((1, 2, 3), repeat=2),
                                            itertools.product((1, 2, 4), repeat=2)):
        spec = TradingSpec(floors, tuple(f + w for f, w in zip(floors, widths)), 3, 1)
        for player, step in itertools.product((0, 1), (1, Fraction(1, 2))):
            first = {}
            for value, peak, pair in grid_steps(spec, player, step):
                first.setdefault((value, peak), (value, peak, pair))
            steps = _steps(spec, player, step, 10**6)
            assert steps == list(first.values())
            assert {pair[1 - player] for _, _, pair in steps} == set(spec.bounds(1 - player))


def test_monotone_in_announcement():
    spec = spec26()
    for build in (competitive_trading_strategy, rational_trading_strategy):
        s = build(spec, 0)
        for j in (1, 2, 3):
            for other in (2, 6):
                previous = False
                for a in range(2, 7):
                    action = takes(spec, s, j, (a, other))
                    if previous:
                        assert action
                    previous = action


def test_sweep_full_mode_optimal_small():
    spec = TradingSpec((2, 2), (4, 4), 3, 1)
    result = minimal_regret_sweep(spec, 0, "full")
    assert result.reference_optimal
    assert result.best_regret == result.reference_regret


def test_sweep_finds_known_rational_grid_divergence():
    """On the unit-floor grid the stated second-to-last threshold lands
    between grid points and taking everything there is strictly better; the
    sweep must find and report that, exactly."""
    spec = TradingSpec((1, 1), (4, 4), 3, 1)
    result = minimal_regret_sweep(spec, 0, "rational")
    assert not result.reference_optimal
    assert (result.reference_regret, result.best_regret) == (4, 3)
    assert all(v.thresholds[0] == 3 and v.thresholds[1] == 1 for v in result.violations)


def test_collapsed_records_agree_with_full_enumeration():
    spec = TradingSpec((1, 2), (3, 4), 3, 1)
    for mode in ("full", "rational"):
        strategy = rational_trading_strategy(spec, 0)
        values = []
        for steps in (grid_steps(spec, 0, 1), _steps(spec, 0, 1, 10**6)):
            records = _records(steps, 3, mode, 10**6)
            value, _ = _worst_regret(records, [_take_row(e, steps) for e in strategy.schedule])
            values.append(value)
        value_full, value_collapsed = values
        assert value_full == value_collapsed


def test_sweep_matches_full_markov_enumeration_tiny():
    """The per-iteration threshold/trigger class attains the same minimum as
    the full space of (iteration, own value, other-at-cap) -> action rules."""
    spec = TradingSpec((1, 1), (2, 2), 3, 1)
    steps = _steps(spec, 0, 1, 10**6)
    never = 4
    own_values = (1, 2)
    states = [
        (j, v, peak)
        for j in (1, 2, 3)
        for v in own_values
        for peak in (False, True)
    ]
    for mode in ("full", "rational"):
        records = _records(steps, 3, mode, 10**6)
        best = None
        for bits in itertools.product((0, 1), repeat=len(states)):
            rule = dict(zip(states, bits))
            worst = 0
            for indices, own, taus in records:
                pairs = [steps[s][2] for s in indices]
                stop = never
                for j in range(3):
                    if rule[(j + 1, own[j], pairs[j][1] == 2)]:
                        stop = j + 1
                        break
                for tau, h in taus:
                    if stop == never or tau < stop:
                        r = h
                    elif stop < tau:
                        r = h - 2 * own[stop - 1]
                    else:
                        r = h - own[stop - 1]
                    if r > worst:
                        worst = r
                if best is not None and worst > best:
                    break
            if best is None or worst < best:
                best = worst
        sweep = minimal_regret_sweep(spec, 0, mode)
        assert sweep.best_regret == best


def play_stop_times(spec, my_stop, opp_stop, own_values):
    """Payoff of player 1 (the opponent) under stopping times; test-local."""
    if opp_stop is None or (my_stop is not None and my_stop < opp_stop):
        return 0
    if my_stop == opp_stop:
        return own_values[opp_stop - 1] * spec.half_supply
    return own_values[opp_stop - 1] * spec.full_supply


def test_forced_take_state_flip_dominates():
    """Literal weak dominance in the induced tiny game: a rule passing at a
    forced state (own cap before the end, or the final iteration) is weakly
    dominated by the same rule flipped to take there."""
    spec = TradingSpec((1, 1), (2, 2), 3, 1)
    t = spec.iterations
    states = [(j, v, pk) for j in (1, 2, 3) for v in (1, 2) for pk in (False, True)]
    pairs = list(itertools.product((1, 2), (1, 2)))
    sequences = list(itertools.product(pairs, repeat=t))

    def stop_of(rule, seq, player):
        other = 1 - player
        mine = [p[player] for p in seq]
        for j in range(t):
            if rule[(j + 1, mine[j], seq[j][other] == spec.price_caps[other])]:
                return j + 1
        return None

    def opp_payoff(my_rule, opp_rule, seq):
        mine = stop_of(my_rule, seq, 0)
        theirs = stop_of(opp_rule, seq, 1)
        return play_stop_times(spec, mine, theirs, [p[1] for p in seq])

    rng = random.Random(3)
    my_rules = [
        dict(zip(states, (rng.randint(0, 1) for _ in states))) for _ in range(40)
    ]
    # opponent rule passing at a forced state: own announcement 2 = cap at j=1
    base = {s: 0 for s in states}
    flipped = dict(base)
    flipped[(1, 2, False)] = 1
    flipped[(1, 2, True)] = 1
    better_somewhere = False
    for seq in sequences:
        for my_rule in my_rules:
            a = opp_payoff(my_rule, flipped, seq)
            b = opp_payoff(my_rule, base, seq)
            assert a >= b
            better_somewhere = better_somewhere or a > b
    assert better_somewhere
