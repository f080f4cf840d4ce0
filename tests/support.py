"""Shared generators and fixtures for the test suite (seeded, deterministic)."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from regretgames import (
    PASS,
    TAKE,
    BiddingSpec,
    Game,
    GameSequence,
    InputError,
    RandomGameSpec,
    SingleAgentAudit,
    SizeError,
    SweepResult,
    TradingSpec,
    competitive_trading_strategy,
    make_dense_game,
    minimal_regret_sweep,
    rational_trading_strategy,
    single_agent_threshold,
    trading_payoff,
)
from regretgames.trading import SweepViolation, _steps, _strategy_takes


def anchor_game() -> Game:
    """The running 2x2 example: minimax regret 1 at strategy 1 for player 0."""
    return make_dense_game((2, 2), [[[4, 0], [0, 3]], [[3, 1], [3, 2]]])


def random_dense_game(rng: random.Random, max_players=3, max_strategies=5,
                      low=-9, high=9) -> Game:
    n = rng.randint(2, max_players)
    counts = tuple(rng.randint(1, max_strategies) for _ in range(n))
    cells = []
    total = 1
    for c in counts:
        total *= c
    for _ in range(total):
        cells.append(tuple(rng.randint(low, high) for _ in range(n)))
    return Game.from_cells(counts, cells)


def random_bidding_spec(rng: random.Random, price_rank: int, players=(2, 3),
                        max_grid=15) -> BiddingSpec:
    n = rng.choice(players)
    grid = rng.randint(max(4, n + 2), max_grid)
    valuations = tuple(rng.sample(range(2, grid), n))
    return BiddingSpec(valuations, grid, price_rank)


def random_stage_game(rng: random.Random, high=29) -> Game:
    """2x2 stage game: distinct non-negative payoffs per player, with the
    highest at least twice the second highest for both players."""
    while True:
        per_player = []
        for _ in range(2):
            values = rng.sample(range(0, high + 1), 4)
            ranked = sorted(values, reverse=True)
            if ranked[0] < 2 * ranked[1]:
                break
            per_player.append(values)
        if len(per_player) == 2:
            v0, v1 = per_player
            cells = [
                [[v0[0], v1[0]], [v0[1], v1[1]]],
                [[v0[2], v1[2]], [v0[3], v1[3]]],
            ]
            return make_dense_game((2, 2), cells)


def random_stage_pair(rng: random.Random) -> tuple[Game, Game]:
    """Two stage games jointly satisfying the cross-stage payoff condition."""
    while True:
        a, b = random_stage_game(rng), random_stage_game(rng)
        seq = GameSequence((a, b))
        from regretgames import folk_condition_holds

        if all(folk_condition_holds(seq, p) for p in (0, 1)):
            return a, b


def criterion6_subjects() -> list[tuple]:
    """The criterion-6 instances as (tag, stage-game index or None, subject),
    drawn from Random(606): ten stage games each repeated twice, the first
    repeated three times, a mixed two-stage sequence and a two-game pool."""
    rng = random.Random(606)
    games = [random_stage_game(rng) for _ in range(10)]
    subjects = [("repeated-l2", i, GameSequence.repeat(g, 2)) for i, g in enumerate(games)]
    subjects.append(("repeated-l3", 0, GameSequence.repeat(games[0], 3)))
    subjects.append(("mixed-sequence", None, GameSequence(random_stage_pair(rng))))
    subjects.append(("pool", None, RandomGameSpec(random_stage_pair(rng), 2, "exhaustive")))
    return subjects


def realized(subject, realization) -> GameSequence:
    """The stage sequence behind one folk entry: the subject itself, or the
    pool games drawn in ``realization``."""
    if realization is None:
        return subject
    return GameSequence(tuple(subject.pool[i] for i in realization))


def folk_failure_row(tag, index, realization, player, check) -> dict:
    """One record of tests/data/criterion6_failures.json."""
    return {
        "tag": tag,
        "index": index,
        "realization": None if realization is None else list(realization),
        "player": player,
        "failing_start": check.failing_start,
        "folk_worst_regret": str(check.folk_regret),
        "minimax": str(check.minimax),
        "witness_picks": list(check.witness_picks),
    }


# -- play-path reference for repeated games ------------------------------------
#
# Built only from stage payoffs, without the library's expansion, solver or
# dominance code: history strategies are replayed along the play path, the
# opponents keep what survives one round of weak dominance in the replayed
# game, and regrets are exact.


def replay(sequence: GameSequence, decisions) -> tuple:
    """Stage-payoff totals along the play path; ``decisions[p]`` maps
    (iteration, the other players' past choices) to player p's choice."""
    n = sequence.player_count
    histories = [()] * n
    totals = [Fraction(0)] * n
    for idx, stage in enumerate(sequence.stages, start=1):
        moves = tuple(decisions[p][(idx, histories[p])] for p in range(n))
        cell = stage.payoff_cell(moves)
        totals = [total + value for total, value in zip(totals, cell)]
        histories = [histories[p] + (moves[:p] + moves[p + 1:],) for p in range(n)]
    return tuple(totals)


def history_strategies(sequence: GameSequence, player: int):
    """Decision points, iteration-major with the other players' histories in
    lex order, and every decision tuple over them in lex order."""
    points, histories = [], [()]
    for idx, stage in enumerate(sequence.stages, start=1):
        points.extend((idx, history) for history in histories)
        others = list(itertools.product(
            *(range(c) for j, c in enumerate(stage.strategy_counts) if j != player)
        ))
        histories = [history + (o,) for history in histories for o in others]
    choices = [range(sequence.stages[idx - 1].strategy_counts[player]) for idx, _ in points]
    return points, list(itertools.product(*choices))


def _weakly_dominates(row, other) -> bool:
    return row != other and all(a >= b for a, b in zip(row, other))


def worst_regrets(sequence: GameSequence, player: int, rational: bool = True):
    """The player's decision points and strategies, and the worst-case regret
    of each strategy against every opponent strategy (``rational=False``) or
    only those no other strategy of the same opponent weakly dominates."""
    n = sequence.player_count
    spaces = [history_strategies(sequence, p) for p in range(n)]
    lookups = [[dict(zip(points, t)) for t in tuples] for points, tuples in spaces]
    ranges = [range(len(tuples)) for _, tuples in spaces]
    payoff = {
        profile: replay(sequence, [lookups[p][profile[p]] for p in range(n)])
        for profile in itertools.product(*ranges)
    }

    def rows(p, allowed):
        others = list(itertools.product(*(r for j, r in enumerate(allowed) if j != p)))
        return [[payoff[o[:p] + (s,) + o[p:]][p] for o in others] for s in ranges[p]]

    allowed = list(ranges)
    if rational:
        for p in range(n):
            if p != player:
                table = rows(p, ranges)
                allowed[p] = [
                    s for s in ranges[p]
                    if not any(_weakly_dominates(row, table[s]) for row in table)
                ]
    table = rows(player, allowed)
    best = [max(column) for column in zip(*table)]
    worst = [max(b - u for b, u in zip(best, row)) for row in table]
    return spaces[player], worst


@dataclass(frozen=True)
class FolkCheck:
    """Reference verdict on one player's folk strategy.

    ``failing_start`` is the first suffix start where the folk strategy is
    not a minimizer against rational opponents, or None if there is none.
    The other fields describe that suffix game: the worst-case regret of
    every strategy (expanded-game index order), the folk strategy's, and the
    stage picks of the lowest-index history-independent minimizer.
    """

    failing_start: int | None = None
    worst: tuple = ()
    folk_regret: Fraction | None = None
    witness_picks: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.failing_start is None

    @property
    def minimax(self):
        return min(self.worst)


def folk_reference(sequence: GameSequence, player: int) -> FolkCheck:
    """Check the folk construction (lowest-index competitive stage picks,
    rationally competitive at the last stage) at every suffix."""
    m = len(sequence)
    picks = []
    for idx, stage in enumerate(sequence.stages, start=1):
        _, worst = worst_regrets(GameSequence((stage,)), player, rational=idx == m)
        picks.append(worst.index(min(worst)))
    for start in range(1, m + 1):
        suffix = sequence.suffix(start)
        (points, strategies), worst = worst_regrets(suffix, player)

        def regret_of(stage_picks):
            return worst[strategies.index(tuple(stage_picks[idx - 1] for idx, _ in points))]

        folk_regret = regret_of(picks[start - 1:])
        if folk_regret != min(worst):
            counts = [stage.strategy_counts[player] for stage in suffix.stages]
            witness = next(
                (c for c in itertools.product(*map(range, counts))
                 if regret_of(c) == min(worst)),
                None,
            )
            return FolkCheck(start, tuple(worst), folk_regret, witness)
    return FolkCheck()


# -- stop-time reference for two-agent trading ---------------------------------
#
# Built only from the public payoff rule: every announcement sequence on the
# grid is played out with explicit stop times through ``trading_payoff``,
# without the library's record builder, hindsight tables or regret evaluator.


def trading_grid(floor: int, cap: int, step) -> list:
    values = (floor + k * Fraction(step) for k in range(int((cap - floor) / step) + 1))
    return [int(v) if v.denominator == 1 else v for v in values]


def strategy_stop(strategy, announcements):
    """The first iteration at which ``strategy`` takes while nobody has
    taken, or None."""
    return next(
        (j for j, pair in enumerate(announcements, start=1)
         if strategy.action(j, pair, False) == TAKE),
        None,
    )


def opponent_stops(spec, player: int, announcements, mode: str) -> list:
    """Admissible opponent stop times: any iteration or never in full mode;
    in rational mode any iteration up to its first forced take (its
    announcement at its cap before the last iteration, or the last one)."""
    t = spec.iterations
    if mode == "full":
        return list(range(1, t + 1)) + [None]
    other = 1 - player
    forced = next(
        (j for j, pair in enumerate(announcements[:-1], start=1)
         if pair[other] == spec.price_caps[other]),
        t,
    )
    return list(range(1, forced + 1))


def stop_payoff(spec, player: int, announcements, own_stop, opponent_stop) -> Fraction:
    """``player``'s payoff when it stops at ``own_stop`` and the other agent
    at ``opponent_stop`` (None: never), scored by ``trading_payoff``."""
    stops = {player: own_stop, 1 - player: opponent_stop}
    first = min((s for s in stops.values() if s is not None), default=None)
    actions = [
        tuple(TAKE if j == first and stops[i] == j else PASS for i in (0, 1))
        for j in range(1, spec.iterations + 1)
    ]
    return trading_payoff(spec, announcements, actions).payoffs[player]


def stop_regret(spec, player: int, announcements, own_stop, opponent_stop) -> Fraction:
    """Best own stop in hindsight against ``opponent_stop`` minus the payoff
    of stopping at ``own_stop``."""
    payoffs = {
        s: stop_payoff(spec, player, announcements, s, opponent_stop)
        for s in list(range(1, spec.iterations + 1)) + [None]
    }
    return max(payoffs.values()) - payoffs[own_stop]


def trading_reference(spec, player: int, strategy, mode: str, grid_step) -> Fraction:
    """Worst-case regret of ``strategy`` over every announcement sequence on
    the grid and every admissible opponent stop time."""
    pairs = list(itertools.product(
        *(trading_grid(spec.price_floors[i], spec.price_caps[i], grid_step) for i in (0, 1))
    ))
    worst = Fraction(0)
    for announcements in itertools.product(pairs, repeat=spec.iterations):
        own_stop = strategy_stop(strategy, announcements)
        for opponent_stop in opponent_stops(spec, player, announcements, mode):
            worst = max(worst, stop_regret(spec, player, announcements, own_stop, opponent_stop))
    return worst


# -- criterion 7 ----------------------------------------------------------------

#: The criterion-7 bands (m1, M1, m2, M2): floors 1-2, caps 4-6.
CRITERION7_BANDS = tuple(itertools.product((1, 2), (4, 5, 6), (1, 2), (4, 5, 6)))


def criterion7_horizon_rows(horizons=(4, 5), enum_cap=10**6) -> list[dict]:
    """tests/data/criterion7_horizon.json: the sweep's verdict for player 0
    on every criterion-7 band and mode at each horizon. At t = 5 the sweep
    has 14 ** 5 candidates, past the default cap, hence ``enum_cap``."""
    rows = []
    for t in horizons:
        for m1, cap1, m2, cap2 in CRITERION7_BANDS:
            spec = TradingSpec((m1, m2), (cap1, cap2), t, 1)
            for mode in ("full", "rational"):
                result = minimal_regret_sweep(spec, 0, mode, enum_cap=enum_cap)
                rows.append({
                    "m1": m1,
                    "M1": cap1,
                    "m2": m2,
                    "M2": cap2,
                    "t": t,
                    "mode": mode,
                    "reference_regret": str(result.reference_regret),
                    "best_regret": str(result.best_regret),
                    "violations": len(result.violations),
                })
    return rows


# -- criterion 8 ----------------------------------------------------------------


def single_agent_prediction(cap: int, floor: int) -> tuple:
    """The single-agent audit on the integer grid [floor, cap] in closed
    form, for any horizon of at least 2 iterations: the stationary table,
    the best stationary thresholds and the optimal regret.

    A stationary threshold x accepts the first early announcement >= x.
    Never accepting loses cap - floor (the cap goes by, the forced last
    announcement is the floor), and so does x = floor (the floor is accepted
    at once, then the cap comes). For floor < x <= cap the two worst cases
    are accepting x before the cap (cap - x) and passing x - 1 before a
    forced floor (x - 1 - floor). The optimum of their maximum is
    r = ceil((cap - floor - 1) / 2), reached at x from max(cap - r, floor + 1)
    to min(floor + 1 + r, cap); per-iteration profiles do no better.
    """
    def worst(x):
        return cap - floor if x is None or x == floor else max(cap - x, x - 1 - floor)

    best = -(-(cap - floor - 1) // 2)
    table = tuple((x, Fraction(worst(x))) for x in [None] + list(range(floor, cap + 1)))
    thresholds = tuple(range(max(cap - best, floor + 1), min(floor + 1 + best, cap) + 1))
    return table, thresholds, Fraction(best)


# -- enumerating references for the trading kernel -----------------------------
#
# The record builder and regret evaluator the library used before its
# reachability recurrence: one record per announcement sequence, scanned in
# lex order. Exponential in the horizon, so only for small bands.


def _records(steps, t: int, mode: str, enum_cap: int) -> list:
    """One record per length-``t`` sequence of steps ``(own value, other at
    cap, pair)``, checked against ``enum_cap`` before anything is built.

    A record is ``(indices, own, taus)``: the step index and own value at each
    iteration, and one ``(tau, hindsight)`` per admissible opponent stop, the
    hindsight value in half-supply units (``tau = t + 1`` means never). In
    rational mode the opponent stops at the latest at its first forced take:
    the other announcement at its cap before the last iteration, or the last
    iteration itself.
    """
    if mode not in ("full", "rational"):
        raise InputError(f"mode must be 'full' or 'rational', got {mode!r}")
    count = len(steps) ** t
    if count > enum_cap:
        raise SizeError(
            f"the oracle would enumerate {count} announcement sequences (cap {enum_cap})",
            count=count,
        )
    rational = mode == "rational"
    records = []
    for indices in itertools.product(range(len(steps)), repeat=t):
        own = tuple(steps[s][0] for s in indices)
        taus = []
        prefix = 0
        for j, value in enumerate(own, start=1):
            taus.append((j, max(2 * prefix, value)))
            if rational and j < t and steps[indices[j - 1]][1]:
                break
            prefix = max(prefix, value)
        if not rational:
            taus.append((t + 1, 2 * prefix))
        records.append((indices, own, tuple(taus)))
    return records


def _worst_regret(records, takes, bound=None):
    """Worst regret, in half-supply units, of the rule that takes at
    iteration j on step s iff ``takes[j - 1][s]``.

    Returns the worst value and ``(record, own stop, opponent stop)`` for
    the first scenario reaching it (``None`` while no regret is positive);
    stop ``t + 1`` means never. With a ``bound``, returns as soon as the
    worst reaches it.
    """
    never = len(takes) + 1
    worst = 0
    witness = None
    for record in records:
        indices, own, taus = record
        stop = never
        for j, s in enumerate(indices):
            if takes[j][s]:
                stop = j + 1
                break
        for tau, hindsight in taus:
            if stop == never or tau < stop:
                regret = hindsight
            elif stop < tau:
                regret = hindsight - 2 * own[stop - 1]
            else:
                regret = hindsight - own[stop - 1]
            if regret > worst:
                worst = regret
                witness = (record, stop, tau)
        if bound is not None and worst >= bound:
            break
    return worst, witness


def sweep_reference(spec, player: int, mode: str = "full", grid_step=1) -> SweepResult:
    """The optimality sweep as a plain loop: every candidate rule, in
    product order, scored in full over every signature record."""
    reference = (
        competitive_trading_strategy(spec, player)
        if mode == "full"
        else rational_trading_strategy(spec, player)
    )
    steps = _steps(spec, player, grid_step, signature=True, enum_cap=10**6)
    t = spec.iterations
    records = _records(steps, t, mode, float("inf"))
    reference_worst, _ = _worst_regret(records, _strategy_takes(reference, steps, t))
    options = [
        (threshold, trigger)
        for threshold in trading_grid(*spec.bounds(player), grid_step) + [None]
        for trigger in (False, True)
    ]
    half = spec.half_supply
    violations = []
    for candidate in itertools.product(options, repeat=t):
        takes = tuple(
            tuple((trigger and peak) or (threshold is not None and value >= threshold)
                  for value, peak, _ in steps)
            for threshold, trigger in candidate
        )
        worst, _ = _worst_regret(records, takes)
        if worst < reference_worst:
            violations.append(SweepViolation(
                tuple(c[0] for c in candidate), tuple(c[1] for c in candidate),
                half * Fraction(worst)))
    reference_regret = half * Fraction(reference_worst)
    return SweepResult(
        player=player,
        mode=mode,
        reference_kind=reference.kind,
        reference_regret=reference_regret,
        candidate_count=len(options) ** t,
        best_regret=min([reference_regret] + [v.worst_regret for v in violations]),
        violations=tuple(violations),
    )


def audit_reference(cap: int, floor: int, iterations: int) -> SingleAgentAudit:
    """The single-agent audit by scoring every threshold profile against
    every announcement sequence."""
    closed_form = single_agent_threshold(cap, floor)
    values = list(range(floor, cap + 1))
    options = [None] + values
    sequences = [
        (seq, max(seq)) for seq in itertools.product(values, repeat=iterations)
    ]

    def worst_regret(profile) -> Fraction:
        worst = Fraction(0)
        for seq, best in sequences:
            realized = None
            for j, threshold in enumerate(profile):
                if threshold is not None and seq[j] >= threshold:
                    realized = seq[j]
                    break
            if realized is None:
                realized = seq[-1]
            regret = best - realized
            if regret > worst:
                worst = Fraction(regret)
        return worst

    early = iterations - 1
    stationary = tuple(
        (threshold, worst_regret((threshold,) * early)) for threshold in options
    )
    best_stationary = min(r for _, r in stationary)
    best_stationary_thresholds = tuple(t for t, r in stationary if r == best_stationary)

    best_profile_regret = None
    best_profiles = []
    for profile in itertools.product(options, repeat=early):
        value = worst_regret(profile)
        if best_profile_regret is None or value < best_profile_regret:
            best_profile_regret = value
            best_profiles = [profile]
        elif value == best_profile_regret:
            best_profiles.append(profile)

    return SingleAgentAudit(
        floor=floor,
        cap=cap,
        iterations=iterations,
        closed_form_threshold=closed_form,
        closed_form_regret=worst_regret((closed_form,) * early),
        stationary_table=stationary,
        best_stationary_regret=best_stationary,
        best_stationary_thresholds=best_stationary_thresholds,
        best_profile_regret=best_profile_regret,
        best_profile_count=len(best_profiles),
        best_profiles_sample=tuple(best_profiles[:8]),
    )
