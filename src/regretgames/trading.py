"""Two-supplier take-or-pass trading over per-iteration price announcements.

Each iteration announces one price per agent inside that agent's band. Taking
is irreversible for everyone: after the first take, all later actions are
forced passes and pay nothing. A lone taker at iteration j earns its
announcement times the full supply; simultaneous takers split the supply and
each earns announcement times half of it.

The oracle measures regret against the best own stopping rule in hindsight,
with the opponent's stop held fixed, over every announcement sequence on a
grid and every admissible opponent stop. In RATIONAL mode the opponent
universe drops weakly dominated behavior: an agent must take whenever its own
announcement sits at its cap (before the last iteration) and must take at the
last iteration. Everything else stays admissible.

The maximum is exact but enumerates no sequence. Every rule is a schedule
of one (threshold, trigger) entry per iteration, so it reads only the
iteration, its own announcement and whether the other agent is at its cap,
and the regret of a scenario depends on the sequence only through the
running own maximum, the own stop value and, in rational mode, whether the
other agent has peaked. So the worst case is a forward walk over those
reachable states, one iteration at a time and with no recursion
(``_Reach``); the optimality sweep and the single-agent audit are searches
over rules on the same walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_ENUM_CAP, ContractError, InputError, check_mode, check_size
from .rational import coerce_rational, format_rational, strict_int, strict_list

TAKE = "take"
PASS = "pass"


@dataclass(frozen=True)
class TradingSpec:
    """Bands, horizon and supply for the two-agent trading game.

    ``price_floors[i] <= announcement_i <= price_caps[i]`` at every iteration;
    the horizon has at least 3 iterations; the total supply is ``2 *
    half_supply`` units, so it splits evenly when both agents take at once.
    """

    price_floors: tuple[int, int]
    price_caps: tuple[int, int]
    iterations: int
    half_supply: int

    def __post_init__(self):
        for name, what in (("price_floors", "price floor"), ("price_caps", "price cap")):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or len(values) != 2:
                raise InputError("exactly two agents are supported")
            object.__setattr__(self, name, tuple(strict_int(v, what) for v in values))
        strict_int(self.iterations, "iterations")
        strict_int(self.half_supply, "half supply")
        for i in range(2):
            if self.price_floors[i] <= 0:
                raise InputError(f"price floor of agent {i} must be positive")
            if self.price_caps[i] <= self.price_floors[i]:
                raise InputError(
                    f"price cap of agent {i} must exceed its floor "
                    f"({self.price_caps[i]} <= {self.price_floors[i]})"
                )
        if self.iterations < 3:
            raise InputError(f"at least 3 iterations required, got {self.iterations}")
        if self.half_supply < 1:
            raise InputError(f"half supply must be a positive integer, got {self.half_supply}")

    @property
    def full_supply(self) -> int:
        return 2 * self.half_supply

    def bounds(self, player: int) -> tuple[int, int]:
        player = _check_player(player)
        return self.price_floors[player], self.price_caps[player]

    def to_json(self) -> dict:
        return {
            "m1": self.price_floors[0],
            "M1": self.price_caps[0],
            "m2": self.price_floors[1],
            "M2": self.price_caps[1],
            "t": self.iterations,
            "K": self.half_supply,
        }


@dataclass(frozen=True)
class TradingOutcome:
    take_iterations: tuple[int | None, int | None]
    payoffs: tuple[Fraction, Fraction]

    def to_json(self) -> dict:
        return {
            "take_iterations": list(self.take_iterations),
            "payoffs": [str(p) for p in self.payoffs],
        }


@dataclass(frozen=True)
class TradingStrategy:
    """A per-iteration threshold rule for one agent.

    ``schedule`` holds one ``(threshold, trigger)`` entry per iteration.
    While nobody has taken, the agent takes at iteration j when its own
    announcement is at least ``threshold`` (None: never), or when
    ``trigger`` holds and the other agent's announcement is at that agent's
    cap in the spec the strategy is played in. After a take it passes.
    """

    player: int
    kind: str
    schedule: tuple
    params: dict | None = None

    def __post_init__(self):
        _check_player(self.player)
        entries = strict_list(self.schedule, "a schedule must list one entry per iteration")
        for j, entry in enumerate(entries, start=1):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise InputError(
                    f"schedule entry {j} must be a (threshold, trigger) pair, got {entry!r}")
            threshold, trigger = entry
            if threshold is not None and (
                    isinstance(threshold, bool) or not isinstance(threshold, (int, Fraction))):
                raise InputError(f"schedule entry {j}: threshold must be None, an int or a "
                                 f"Fraction, got {threshold!r}")
            if type(trigger) is not bool:
                raise InputError(f"schedule entry {j}: trigger must be True or False, "
                                 f"got {trigger!r}")
        object.__setattr__(self, "schedule", tuple(map(tuple, entries)))
        if self.params is not None and not isinstance(self.params, dict):
            raise InputError(f"params must be None or a dict, got {self.params!r}")

    def describe(self) -> dict:
        out = {"player": self.player, "kind": self.kind}
        if self.params:
            out["params"] = {
                k: str(v) if isinstance(v, Fraction) else v for k, v in self.params.items()
            }
        return out


def competitive_trading_strategy(spec: TradingSpec, player: int) -> TradingStrategy:
    """Threshold rule: take early iff the own announcement reaches
    (2*cap + floor) / 4; always take at the last iteration, where the
    threshold is the floor, which every announcement reaches."""
    floor, cap = spec.bounds(player)
    early = Fraction(2 * cap + floor, 4)
    schedule = [(early, False)] * (spec.iterations - 1) + [(floor, False)]
    return TradingStrategy(player, "competitive-threshold", schedule, {"early_threshold": early})


def rational_trading_strategy(spec: TradingSpec, player: int) -> TradingStrategy:
    """Against non-dominated opponents: grab the split when the other agent's
    announcement hits its cap (it will take), use the usual threshold up to
    t-2, a laxer (cap + floor) / 4 threshold at t-1, and take at t."""
    floor, cap = spec.bounds(player)
    early = Fraction(2 * cap + floor, 4)
    late = Fraction(cap + floor, 4)
    schedule = [(early, True)] * (spec.iterations - 2) + [(late, True), (floor, True)]
    return TradingStrategy(
        player,
        "rational-threshold",
        schedule,
        {"early_threshold": early, "final_threshold": late,
         "opponent_peak": spec.price_caps[1 - player]},
    )


def reference_strategy(spec: TradingSpec, player: int, mode: str) -> TradingStrategy:
    """The stated strategy of a solve mode: the competitive threshold rule
    in "full" mode, the rational threshold rule in "rational" mode."""
    check_mode(mode)
    if mode == "full":
        return competitive_trading_strategy(spec, player)
    return rational_trading_strategy(spec, player)


def _check_player(player) -> int:
    if type(player) is not int or player not in (0, 1):
        raise InputError(f"player must be 0 or 1, got {player!r}")
    return player


def _check_strategy(strategy, spec: TradingSpec) -> TradingStrategy:
    if not isinstance(strategy, TradingStrategy):
        raise InputError(f"a strategy must be a TradingStrategy, got {strategy!r}")
    if len(strategy.schedule) != spec.iterations:
        raise InputError(f"the strategy's schedule has {len(strategy.schedule)} entries, "
                         f"but the game has {spec.iterations} iterations")
    return strategy


def _step(spec: TradingSpec, player: int, pair) -> tuple:
    """The step ``(own value, other at cap, pair)`` of ``player`` on an
    announcement pair."""
    return pair[player], pair[1 - player] == spec.price_caps[1 - player], pair


def _take_row(entry, steps) -> tuple:
    """The take row of the schedule entry ``(threshold, trigger)`` over
    ``steps``: whether the rule takes on each step while nobody has taken."""
    threshold, trigger = entry
    return tuple((trigger and peak) or (threshold is not None and value >= threshold)
                 for value, peak, _ in steps)


def _validate_announcements(spec: TradingSpec, announcements) -> list[tuple]:
    announcements = strict_list(announcements, "announcements must list one pair per iteration")
    rows = [strict_list(pair, "an announcement pair must list 2 announcements")
            for pair in announcements]
    if len(rows) != spec.iterations:
        raise InputError(
            f"expected {spec.iterations} announcement pairs, got {len(rows)}"
        )
    for j, pair in enumerate(rows, start=1):
        if len(pair) != 2:
            raise InputError(f"iteration {j}: announcement pair must have 2 entries")
        for i, value in enumerate(pair):
            value = coerce_rational(value, f"announcement of agent {i} at iteration {j}")
            floor, cap = spec.bounds(i)
            if not floor <= value <= cap:
                raise InputError(
                    f"iteration {j}: announcement {value} of agent {i} "
                    f"outside [{floor}, {cap}]"
                )
    return rows


def trading_payoff(spec: TradingSpec, announcements, actions) -> TradingOutcome:
    """Score explicit per-iteration actions under the forced-pass rule.

    A passing iteration pays 0. The first iteration with any take settles the
    game: a lone taker earns announcement * full supply, simultaneous takers
    each earn announcement * half supply, and any non-pass action afterwards
    is a contract violation.
    """
    rows = _validate_announcements(spec, announcements)
    acts = [strict_list(pair, f"an action pair must list 2 of {TAKE!r}/{PASS!r}")
            for pair in strict_list(actions, "actions must list one pair per iteration")]
    if len(acts) != spec.iterations:
        raise InputError(f"expected {spec.iterations} action pairs, got {len(acts)}")
    for j, pair in enumerate(acts, start=1):
        if len(pair) != 2 or any(a not in (TAKE, PASS) for a in pair):
            raise InputError(f"iteration {j}: actions must be pairs of {TAKE!r}/{PASS!r}")
    first_take = next(
        (j for j, pair in enumerate(acts, start=1) if TAKE in pair), None
    )
    if first_take is not None:
        for j in range(first_take, spec.iterations):
            if acts[j] != (PASS, PASS):
                raise ContractError(
                    f"iteration {j + 1}: only passes are allowed after the take "
                    f"at iteration {first_take}"
                )
    takes = tuple(
        first_take if first_take is not None and acts[first_take - 1][i] == TAKE else None
        for i in range(2)
    )
    payoffs = []
    for i in range(2):
        if takes[i] is None:
            payoffs.append(Fraction(0))
            continue
        price = Fraction(rows[takes[i] - 1][i])
        units = spec.half_supply if takes[1 - i] == takes[i] else spec.full_supply
        payoffs.append(price * units)
    return TradingOutcome(takes, tuple(payoffs))


def simulate(spec: TradingSpec, strategies, announcements):
    """Play a strategy pair against a fixed announcement sequence.

    Returns ``(outcome, trace)`` where the trace lists one record per
    iteration. Each announcement pair is one step of each strategy's take
    row; after the first take both agents pass.
    """
    needs = "simulate needs one strategy for player 0 and one for player 1"
    strategies = [_check_strategy(s, spec) for s in strict_list(strategies, needs)]
    if len(strategies) != 2 or {s.player for s in strategies} != {0, 1}:
        raise InputError(needs)
    by_player = sorted(strategies, key=lambda s: s.player)
    rows = _validate_announcements(spec, announcements)
    taken = False
    actions = []
    for j, pair in enumerate(rows):
        current = tuple(
            TAKE if not taken and _take_row(s.schedule[j], [_step(spec, s.player, pair)])[0]
            else PASS
            for s in by_player
        )
        actions.append(current)
        taken = taken or TAKE in current
    outcome = trading_payoff(spec, rows, actions)
    trace = []
    running = [Fraction(0), Fraction(0)]
    for j, (pair, current) in enumerate(zip(rows, actions), start=1):
        earned = [payoff if at == j else Fraction(0)
                  for payoff, at in zip(outcome.payoffs, outcome.take_iterations)]
        running = [running[i] + earned[i] for i in range(2)]
        trace.append({
            "iteration": j,
            "announcements": [str(Fraction(v)) for v in pair],
            "actions": list(current),
            "iteration_payoffs": [str(v) for v in earned],
            "cumulative_payoffs": [str(v) for v in running],
        })
    return outcome, trace


# -- the single-agent problem --------------------------------------------------


def single_agent_threshold(cap: int, floor: int) -> Fraction:
    """The stated closed-form acceptance threshold (cap - floor) / 2.

    Reported verbatim; the exact audit may disagree, and reports print
    the two side by side without taking a side.
    """
    cap, floor = strict_int(cap, "price cap"), strict_int(floor, "price floor")
    if not floor > 0 or not cap > floor:
        raise InputError(f"need cap > floor > 0, got cap={cap}, floor={floor}")
    return Fraction(cap - floor, 2)


@dataclass(frozen=True)
class SingleAgentAudit:
    """Exact audit of every single-agent threshold rule on an integer grid.

    Regrets are in announcement units (supply scale cancels). ``None`` as a
    threshold means "never accept before the forced final acceptance".
    """

    floor: int
    cap: int
    iterations: int
    closed_form_threshold: Fraction
    closed_form_regret: Fraction
    stationary_table: tuple
    best_stationary_regret: Fraction
    best_stationary_thresholds: tuple
    best_profile_regret: Fraction
    best_profile_count: int
    best_profiles_sample: tuple

    def to_json(self) -> dict:
        def label(threshold):
            return "never" if threshold is None else str(threshold)

        return {
            "floor": self.floor,
            "cap": self.cap,
            "iterations": self.iterations,
            "closed_form_threshold": str(self.closed_form_threshold),
            "closed_form_regret": str(self.closed_form_regret),
            "stationary_table": [
                {"threshold": label(t), "worst_regret": str(r)}
                for t, r in self.stationary_table
            ],
            "best_stationary_regret": str(self.best_stationary_regret),
            "best_stationary_thresholds": [label(t) for t in self.best_stationary_thresholds],
            "best_profile_regret": str(self.best_profile_regret),
            "best_profile_count": self.best_profile_count,
            "best_profiles_sample": [
                [label(t) for t in profile] for profile in self.best_profiles_sample
            ],
        }


def audit_single_agent(
    cap: int, floor: int, iterations: int, enum_cap: int = DEFAULT_ENUM_CAP
) -> SingleAgentAudit:
    """Score every deterministic threshold rule on the grid, exactly.

    A rule accepts at the first early iteration whose announcement reaches
    that iteration's threshold and is forced to accept at the last iteration.
    Scores both stationary thresholds and per-iteration threshold profiles,
    each as the two-agent recurrence with no opponent stop; the profile
    search cuts every prefix already worse than the best profile so far.
    The sequence and profile counts are still checked against ``enum_cap``.
    """
    for value, what in ((cap, "price cap"), (floor, "price floor"), (iterations, "iterations")):
        strict_int(value, what)
    if iterations < 2:
        raise InputError(f"need at least 2 iterations, got {iterations}")
    closed_form = single_agent_threshold(cap, floor)
    values = range(floor, cap + 1)
    check_size("the audit would enumerate {} announcement sequences", enum_cap,
               (len(values), iterations))
    check_size("the audit would enumerate {} threshold profiles", enum_cap,
               (len(values) + 1, iterations - 1))
    options = [None, *values]
    steps = [(value, False, None) for value in values]
    reach = _Reach(steps, iterations, "single")
    forced = _take_row((floor, False), steps)  # every announcement reaches the floor

    def worst_regret(profile) -> Fraction:
        # the recurrence counts regret twice, as in half-supply units
        takes = [_take_row((x, False), steps) for x in profile]
        return Fraction(reach.worst(takes + [forced]), 2)

    early = iterations - 1
    stationary = tuple(
        (threshold, worst_regret((threshold,) * early)) for threshold in options
    )
    best_stationary = min(r for _, r in stationary)
    best_stationary_thresholds = tuple(t for t, r in stationary if r == best_stationary)

    best = None
    best_profiles = []
    rows = [[_take_row((x, False), steps) for x in options]] * early + [[forced]]
    for choice, worst in reach.search(rows, lambda worst: best is None or worst <= best):
        profile = tuple(options[k] for k in choice[:early])
        if best is None or worst < best:
            best = worst
            best_profiles = [profile]
        else:
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
        best_profile_regret=Fraction(best, 2),
        best_profile_count=len(best_profiles),
        best_profiles_sample=tuple(best_profiles[:8]),
    )


# -- the two-agent oracle --------------------------------------------------------


def _grid(floor: int, cap: int, step) -> tuple:
    """The size of the grid ``floor, floor + step, ..., cap`` and a lazy iterator over it."""
    step = coerce_rational(step, "grid step")
    if step <= 0:
        raise InputError(f"grid step must be positive, got {step}")
    p, q = step.numerator, step.denominator
    count, rest = divmod((cap - floor) * q, p)
    if rest:
        raise InputError(
            f"grid step {step} does not divide the band [{floor}, {cap}] evenly"
        )
    return count + 1, (floor + k * p // q if k * p % q == 0 else floor + Fraction(k * p, q)
                       for k in range(count + 1))


def _steps(spec: TradingSpec, player: int, grid_step, signature: bool, enum_cap: int) -> list:
    """Builder steps ``(own value, other at cap, pair)``: one per announcement
    pair on the grid, or, for the ``signature`` quotient, with the other
    agent only at its floor or its cap. The ``len(steps) ** t`` announcement
    sequences they stand for are checked against ``enum_cap`` first.

    Regret is measurable with respect to (own value, other at cap), and so
    is every schedule's take row, so maxima over the quotient equal maxima
    over the full grid; a witness names the representative pairs.
    """
    other = 1 - player
    grids = [None, None]
    grids[player] = _grid(*spec.bounds(player), grid_step)
    grids[other] = (2, spec.bounds(other)) if signature else _grid(*spec.bounds(other), grid_step)
    check_size("the oracle would enumerate {} announcement sequences", enum_cap,
               (grids[0][0] * grids[1][0], spec.iterations))
    return [_step(spec, player, pair)
            for pair in itertools.product(*(values for _, values in grids))]


class _Reach:
    """Worst-case regret by reachability, in half-supply units, over the
    states ``(running own max, own stop value or None)`` before each
    iteration, walked forward one iteration at a time over the steps ``(own
    value, other at cap, pair)``.

    A rule is a take table: ``takes[j - 1][s]`` says whether it takes at
    iteration j on step s while nobody has taken. Against an opponent stop
    at tau the hindsight value is ``max(2 * running max before tau, own value
    at tau)`` (``2 * overall max`` if it never stops), and the rule earns
    twice its stop value if it stopped before tau, its stop value if at tau,
    and nothing if later. The admissible opponent stops are set by ``mode``:
    every iteration or never ("full"); every iteration up to the first forced
    take, the other agent at its cap before the last iteration or the last
    iteration itself ("rational"); or only never ("single", the one-agent
    problem). Stop ``t + 1`` means never.

    :meth:`witness` walks one step per kind. :meth:`advance` settles an
    iteration for a whole set of running maxima at once, from four numbers
    of the take row (:meth:`summary`, kept per distinct row in
    ``summaries``; rows are tuples of booleans).
    """

    def __init__(self, steps, t: int, mode: str):
        self.steps, self.t, self.mode = steps, t, mode
        self.cap = max(value for value, _, _ in steps)
        self.summaries = {}

    def stopped(self, j, high, stop_value) -> int:
        """The worst regret over the opponent stops at iteration j or later,
        from ``(high, stop_value)`` before j. No hindsight value exceeds
        ``2 * cap`` (the largest own value), and as every band has floor <
        cap, a step with the own value at its cap and the other agent below
        its cap exists: announced at j, it reaches ``2 * cap`` at the next
        stop. In rational mode at the last iteration no stop comes after j."""
        if self.mode == "rational" and j == self.t:
            return max(2 * high, self.cap) - 2 * stop_value
        return 2 * self.cap - 2 * stop_value

    def worst(self, takes) -> int:
        return next(self.search([[row] for row in takes], lambda worst: True))[1]

    def witness(self, takes, worst) -> tuple:
        """The first step sequence in lex order with a scenario of regret
        ``worst`` (> 0), the rule's stop on it and the first opponent stop
        reaching ``worst``. Each state keeps the first prefix reaching it,
        its smallest, as parents go in that order and steps ascending; a
        prefix whose step reaches ``worst`` ends there, padded with step 0,
        and the smallest of those wins, the earlier stop on a tie.

        Steps of one kind ``(own value, peak, take)`` give the same regrets
        and next state, so each iteration walks the first step of each kind
        only, in step order. Stop values are positive, so ``or 0`` reads
        None as no stop."""
        t, rational, single = self.t, self.mode == "rational", self.mode == "single"
        found = None
        prefixes = {(0, None): ()}
        for j in range(1, t + 1):
            kinds = {}
            for s, ((value, peak, _), take) in enumerate(zip(self.steps, takes[j - 1])):
                kinds.setdefault((value, peak, take), s)
            reached, first = {}, None
            for (high, stop_value), prefix in prefixes.items():
                for (value, peak, take), s in kinds.items():
                    if stop_value is None and take:
                        stop, paid = value, value
                    else:
                        stop, paid = stop_value, 2 * (stop_value or 0)
                    top = max(high, value)
                    if first is None:
                        if not single and max(2 * high, value) - paid == worst:
                            first = prefix + (s,) + (0,) * (t - j), j
                        elif j == t and not rational and 2 * (top - (stop or 0)) == worst:
                            first = prefix + (s,), t + 1
                    if j < t and not (peak and rational) and (top, stop) not in reached:
                        reached[top, stop] = prefix + (s,)
            if first is not None:
                found = first if found is None else min(found, first)
            prefixes = reached
        indices, tau = found
        stop = next((j for j, s in enumerate(indices, start=1) if takes[j - 1][s]), t + 1)
        return list(indices), stop, tau

    def summary(self, row) -> tuple:
        """The four numbers of a take row that :meth:`advance` reads: the
        largest value it passes on, the smallest it takes on, the smallest it
        takes on where the path goes on, and the sorted distinct values it
        passes on where the path goes on (None or empty where there is none).
        A path goes on from a step unless it is a peak in rational mode."""
        found = self.summaries.get(row)
        if found is None:
            passes, takes, going_passes, going_takes = [], [], [], []
            for (value, peak, _), take in zip(self.steps, row):
                (takes if take else passes).append(value)
                if not (peak and self.mode == "rational"):
                    (going_takes if take else going_passes).append(value)
            found = self.summaries[row] = (
                max(passes, default=None), min(takes, default=None),
                min(going_takes, default=None), tuple(sorted(set(going_passes))))
        return found

    def advance(self, j, highs, row) -> tuple:
        """From the running maxima ``highs`` of the paths on which the rule
        has not taken before iteration j, taking at j on the steps ``row``
        marks: the worst regret that iteration settles (every later stop
        included on the paths that take) and the running maxima passed on.

        With no stop value yet, every regret decided at j rises with the
        running max and with a passed value and falls with a taken one,
        so the worst is read at ``max(highs)`` from the row's
        :meth:`summary`; from running max h a step passed on with value v
        goes on at ``max(h, v)``."""
        if not highs:
            return 0, frozenset()
        passed_max, taken_min, going_taken_min, going_passes = self.summary(row)
        high, worst = max(highs), 0
        if self.mode != "single":
            if passed_max is not None:
                worst = max(worst, 2 * high, passed_max)
            if taken_min is not None:
                worst = max(worst, 2 * high - taken_min)
        if j == self.t:
            if self.mode != "rational":
                if passed_max is not None:
                    worst = max(worst, 2 * max(high, passed_max))
                if taken_min is not None:
                    worst = max(worst, 2 * (high - taken_min))
            return worst, frozenset()
        if going_taken_min is not None:
            worst = max(worst, self.stopped(j + 1, max(high, going_taken_min), going_taken_min))
        if not going_passes:
            return worst, frozenset()
        # max(h, v) is h where some v <= h, and v where some h <= v
        lowest = min(highs)
        return worst, frozenset([h for h in highs if going_passes[0] <= h]
                                + [v for v in going_passes if lowest < v])

    def search(self, rows, keep):
        """``(choice, worst)`` for each rule built from one take row per
        iteration, ``choice[j - 1]`` indexing ``rows[j - 1]``, in product
        order, depth first. A prefix is cut with all its completions once its
        regret so far fails ``keep`` when popped, after its earlier siblings'
        completions; ``keep`` must fail on every value above one it fails on."""
        moves, stack = {}, [((), frozenset((0,)), 0)]
        while stack:
            choice, highs, worst = stack.pop()
            if not keep(worst):
                continue
            j = len(choice) + 1
            if j > self.t:
                yield choice, worst
                continue
            for k in reversed(range(len(rows[j - 1]))):
                if (j, highs, k) not in moves:
                    moves[j, highs, k] = self.advance(j, highs, rows[j - 1][k])
                now, after = moves[j, highs, k]
                stack.append((choice + (k,), after, max(worst, now)))


def trading_oracle(
    spec: TradingSpec,
    player: int,
    strategy: TradingStrategy,
    mode: str = "full",
    grid_step=1,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> Fraction:
    """Worst-case regret of ``strategy``: the value of :func:`trading_oracle_report`."""
    return Fraction(trading_oracle_report(
        spec, player, strategy, mode, grid_step, enum_cap)["worst_case_regret"])


def trading_oracle_report(
    spec: TradingSpec,
    player: int,
    strategy: TradingStrategy,
    mode: str = "full",
    grid_step=1,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> dict:
    """Worst-case regret of ``strategy``, with a worst-case witness
    scenario, JSON-ready.

    Maximizes, over every announcement sequence on the grid and every
    admissible opponent stopping behavior, the hindsight-best own payoff
    (against that same opponent behavior) minus the realized payoff. The
    maximum comes from the reachability recurrence; the witness is the first
    sequence in lex order that reaches it, with its first maximizing
    opponent stop.
    """
    spec.bounds(player)
    if _check_strategy(strategy, spec).player != player:
        raise InputError(f"the strategy is for player {strategy.player}, not player {player}")
    check_mode(mode)
    steps = _steps(spec, player, grid_step, signature=False, enum_cap=enum_cap)
    t = spec.iterations
    reach = _Reach(steps, t, mode)
    takes = [_take_row(entry, steps) for entry in strategy.schedule]
    worst = reach.worst(takes)
    value = spec.half_supply * Fraction(worst)
    witness = None
    if worst > 0:
        indices, stop, tau = reach.witness(takes, worst)
        witness = {
            "announcements": [
                [format_rational(v.numerator, v.denominator) for v in steps[s][2]]
                for s in indices
            ],
            "strategy_take_iteration": None if stop > t else stop,
            "opponent_take_iteration": None if tau > t else tau,
            "regret": str(value),
        }
    return {
        "player": player,
        "mode": mode,
        "strategy": strategy.describe(),
        "worst_case_regret": str(value),
        "witness": witness,
    }


@dataclass(frozen=True)
class SweepViolation:
    thresholds: tuple
    peak_triggers: tuple[bool, ...]
    worst_regret: Fraction

    def to_json(self) -> dict:
        return {
            "thresholds": ["never" if v is None else str(v) for v in self.thresholds],
            "peak_triggers": list(self.peak_triggers),
            "worst_regret": str(self.worst_regret),
        }


@dataclass(frozen=True)
class SweepResult:
    """Outcome of minimizing worst-case regret over the reduced rule space.

    Candidate rules pick, per iteration, an own-announcement threshold (or
    never) plus an optional take-when-the-other-peaks trigger. ``violations``
    lists any candidate that strictly beat the reference strategy; an empty
    list certifies the reference as minimal over the space.
    """

    player: int
    mode: str
    reference_kind: str
    reference_regret: Fraction
    candidate_count: int
    best_regret: Fraction
    violations: tuple[SweepViolation, ...]

    @property
    def reference_optimal(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "player": self.player,
            "mode": self.mode,
            "reference_kind": self.reference_kind,
            "reference_regret": str(self.reference_regret),
            "candidate_count": self.candidate_count,
            "best_regret": str(self.best_regret),
            "reference_optimal": self.reference_optimal,
            "violations": [v.to_json() for v in self.violations],
        }


def minimal_regret_sweep(
    spec: TradingSpec,
    player: int,
    mode: str = "full",
    grid_step=1,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> SweepResult:
    """Check the closed-form strategy against every reduced deterministic rule.

    The rules run over the signature quotient of the sequence space (own
    announcement plus opponent-at-cap flags), which is exact for every
    schedule. Candidates are built iteration by iteration on the
    reachability recurrence, and a prefix is dropped with all its
    completions once its regret so far reaches the reference's worst case,
    so only rules that beat the reference are scored in full. The sequence
    and candidate counts are still checked against ``enum_cap``.
    """
    reference = reference_strategy(spec, player, mode)
    steps = _steps(spec, player, grid_step, signature=True, enum_cap=enum_cap)
    t = spec.iterations
    reach = _Reach(steps, t, mode)
    reference_worst = reach.worst([_take_row(entry, steps) for entry in reference.schedule])

    options = [
        (threshold, trigger)
        for threshold in [*_grid(*spec.bounds(player), grid_step)[1], None]
        for trigger in (False, True)
    ]
    candidate_count = check_size(
        "the sweep would score {} candidate rules", enum_cap, (len(options), t)
    )
    rows = [_take_row(option, steps) for option in options]

    half = spec.half_supply
    violations = [
        SweepViolation(
            tuple(options[k][0] for k in choice),
            tuple(options[k][1] for k in choice),
            half * Fraction(worst),
        )
        for choice, worst in reach.search([rows] * t, lambda worst: worst < reference_worst)
    ]
    reference_regret = half * Fraction(reference_worst)
    return SweepResult(
        player=player,
        mode=mode,
        reference_kind=reference.kind,
        reference_regret=reference_regret,
        candidate_count=candidate_count,
        best_regret=min([reference_regret] + [v.worst_regret for v in violations]),
        violations=tuple(violations),
    )
