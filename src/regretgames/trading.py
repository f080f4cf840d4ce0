"""Two-supplier take-or-pass trading over per-iteration price announcements.

Each iteration announces one price per agent inside that agent's band. Taking
is irreversible for everyone: after the first take, all later actions are
forced passes and pay nothing. A lone taker at iteration j earns its
announcement times the full supply; simultaneous takers split the supply and
each earns announcement times half of it.

The oracle enumerates every announcement sequence on a grid together with
every admissible opponent stopping behavior, and measures regret against the
best own stopping rule in hindsight with the opponent's strategy held fixed.
In RATIONAL mode the opponent universe drops weakly dominated behavior: an
agent must take whenever its own announcement sits at its cap (before the
last iteration) and must take at the last iteration. Everything else stays
admissible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import ContractError, InputError, SizeError
from .rational import coerce_rational, format_rational, strict_int

TAKE = "take"
PASS = "pass"

#: Cap on every trading enumeration: oracle and sweep records, sweep
#: candidates, and the single-agent audit's sequences and profiles.
DEFAULT_ENUM_CAP = 250_000


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
        if player not in (0, 1):
            raise InputError(f"player must be 0 or 1, got {player}")
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


@dataclass
class TradingStrategy:
    """A per-iteration take/pass rule for one agent.

    ``rule(iteration, (a_0, a_1), taken)`` must return TAKE or PASS; once any
    agent has taken, PASS is the only legal answer.
    """

    player: int
    kind: str
    rule: Callable[[int, tuple, bool], str]
    params: dict | None = None

    def action(self, iteration: int, pair, taken: bool) -> str:
        result = self.rule(iteration, tuple(pair), taken)
        if result not in (TAKE, PASS):
            raise ContractError(
                f"strategy {self.kind!r} returned {result!r}; must be {TAKE!r} or {PASS!r}"
            )
        return result

    def describe(self) -> dict:
        out = {"player": self.player, "kind": self.kind}
        if self.params:
            out["params"] = {
                k: str(v) if isinstance(v, Fraction) else v for k, v in self.params.items()
            }
        return out


def competitive_trading_strategy(spec: TradingSpec, player: int) -> TradingStrategy:
    """Threshold rule: take early iff the own announcement reaches
    (2*cap + floor) / 4; always take at the last iteration."""
    floor, cap = spec.bounds(player)
    threshold = Fraction(2 * cap + floor, 4)
    last = spec.iterations

    def rule(iteration, pair, taken):
        _check_iteration(iteration, last)
        if taken:
            return PASS
        if iteration == last:
            return TAKE
        return TAKE if pair[player] >= threshold else PASS

    return TradingStrategy(player, "competitive-threshold", rule, {"early_threshold": threshold})


def rational_trading_strategy(spec: TradingSpec, player: int) -> TradingStrategy:
    """Against non-dominated opponents: grab the split when the other agent's
    announcement hits its cap (it will take), use the usual threshold up to
    t-2, a laxer (cap + floor) / 4 threshold at t-1, and take at t."""
    floor, cap = spec.bounds(player)
    other = 1 - player
    other_cap = spec.price_caps[other]
    early = Fraction(2 * cap + floor, 4)
    late = Fraction(cap + floor, 4)
    last = spec.iterations

    def rule(iteration, pair, taken):
        _check_iteration(iteration, last)
        if taken:
            return PASS
        if iteration == last:
            return TAKE
        if pair[other] == other_cap:
            return TAKE
        threshold = late if iteration == last - 1 else early
        return TAKE if pair[player] >= threshold else PASS

    return TradingStrategy(
        player,
        "rational-threshold",
        rule,
        {"early_threshold": early, "final_threshold": late, "opponent_peak": other_cap},
    )


def _check_iteration(iteration, last):
    if not isinstance(iteration, int) or not 1 <= iteration <= last:
        raise InputError(f"iteration {iteration!r} outside 1..{last}")


def _validate_announcements(spec: TradingSpec, announcements) -> list[tuple]:
    rows = [tuple(pair) for pair in announcements]
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
    acts = [tuple(pair) for pair in actions]
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
    iteration. Strategies are consulted even after a take so that contract
    violations (anything but PASS) surface as errors.
    """
    strategies = tuple(strategies)
    if len(strategies) != 2 or {s.player for s in strategies} != {0, 1}:
        raise InputError("simulate needs one strategy for player 0 and one for player 1")
    by_player = sorted(strategies, key=lambda s: s.player)
    rows = _validate_announcements(spec, announcements)
    taken = False
    actions = []
    for j, pair in enumerate(rows, start=1):
        current = tuple(by_player[i].action(j, pair, taken) for i in range(2))
        if taken and current != (PASS, PASS):
            raise ContractError(
                f"iteration {j}: strategy produced {current} after an earlier take"
            )
        actions.append(current)
        if TAKE in current:
            taken = True
    outcome = trading_payoff(spec, rows, actions)
    trace = []
    running = [Fraction(0), Fraction(0)]
    for j, (pair, current) in enumerate(zip(rows, actions), start=1):
        earned = [
            outcome.payoffs[i]
            if outcome.take_iterations[i] == j
            else Fraction(0)
            for i in range(2)
        ]
        running = [running[i] + earned[i] for i in range(2)]
        trace.append(
            {
                "iteration": j,
                "announcements": [str(Fraction(v)) for v in pair],
                "actions": list(current),
                "iteration_payoffs": [str(v) for v in earned],
                "cumulative_payoffs": [str(v) for v in running],
            }
        )
    return outcome, trace


# -- the single-agent problem --------------------------------------------------


def single_agent_threshold(cap: int, floor: int) -> Fraction:
    """The stated closed-form acceptance threshold (cap - floor) / 2.

    Reported verbatim; the brute-force audit may disagree, and reports print
    the two side by side without taking a side.
    """
    if not floor > 0 or not cap > floor:
        raise InputError(f"need cap > floor > 0, got cap={cap}, floor={floor}")
    return Fraction(cap - floor, 2)


@dataclass(frozen=True)
class SingleAgentAudit:
    """Brute-force audit of single-agent thresholds on an integer grid.

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
    """Exhaustively score every deterministic threshold rule on the grid.

    A rule accepts at the first early iteration whose announcement reaches
    that iteration's threshold and is forced to accept at the last iteration.
    Scores both stationary thresholds and per-iteration threshold profiles;
    both the sequences and the profiles are checked against ``enum_cap``.
    """
    if iterations < 2:
        raise InputError(f"need at least 2 iterations, got {iterations}")
    closed_form = single_agent_threshold(cap, floor)
    values = list(range(floor, cap + 1))
    options = [None] + values
    for what, count in (
        ("announcement sequences", len(values) ** iterations),
        ("threshold profiles", len(options) ** (iterations - 1)),
    ):
        if count > enum_cap:
            raise SizeError(
                f"the audit would enumerate {count} {what} (cap {enum_cap})", count=count
            )
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


# -- the two-agent oracle --------------------------------------------------------


def _grid(floor: int, cap: int, step) -> list:
    step = coerce_rational(step, "grid step")
    if step <= 0:
        raise InputError(f"grid step must be positive, got {step}")
    span = Fraction(cap - floor)
    if span % step != 0:
        raise InputError(
            f"grid step {step} does not divide the band [{floor}, {cap}] evenly"
        )
    count = int(span / step) + 1
    values = [floor + k * step for k in range(count)]
    return [int(v) if Fraction(v).denominator == 1 else Fraction(v) for v in values]


def _steps(spec: TradingSpec, player: int, grid_step, signature: bool) -> list:
    """Builder steps ``(own value, other at cap, pair)``: one per announcement
    pair on the grid, or, for the ``signature`` quotient, with the other
    agent only at its floor or its cap.

    Regret is measurable with respect to (own value, other at cap) for any
    rule that reads only those, so maxima over the quotient equal maxima over
    the full grid for such rules; the representative pairs keep the ordinary
    (iteration, pair) interface.
    """
    other = 1 - player
    grids = [None, None]
    grids[player] = _grid(*spec.bounds(player), grid_step)
    grids[other] = list(spec.bounds(other)) if signature else _grid(*spec.bounds(other), grid_step)
    other_cap = spec.price_caps[other]
    return [(pair[player], pair[other] == other_cap, pair) for pair in itertools.product(*grids)]


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


def _strategy_takes(strategy: TradingStrategy, steps, t: int) -> tuple:
    """The stop rule of ``strategy`` as a take table: row j - 1, column s
    says whether it takes at iteration j on step s when nobody has taken."""
    return tuple(
        tuple(strategy.action(j, pair, False) == TAKE for _, _, pair in steps)
        for j in range(1, t + 1)
    )


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
    """Worst-case regret of ``strategy`` by exhaustive enumeration, with a
    worst-case witness scenario, JSON-ready.

    Maximizes, over every announcement sequence on the grid and every
    admissible opponent stopping behavior, the hindsight-best own payoff
    (against that same opponent behavior) minus the realized payoff.
    """
    steps = _steps(spec, player, grid_step, signature=False)
    t = spec.iterations
    worst, witness = _worst_regret(
        _records(steps, t, mode, enum_cap), _strategy_takes(strategy, steps, t)
    )
    value = spec.half_supply * Fraction(worst)
    if witness is not None:
        (indices, _, _), stop, tau = witness
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

    The enumeration runs over the signature quotient of the sequence space
    (own announcement plus opponent-at-cap flags), which is exact for every
    candidate and for the built-in reference strategies. Both the records
    and the candidates are checked against ``enum_cap``. Candidates are
    scanned worst-scenario-first and dismissed as soon as they match the
    reference's worst case, so only genuinely better rules reach a full
    evaluation.
    """
    reference = (
        competitive_trading_strategy(spec, player)
        if mode == "full"
        else rational_trading_strategy(spec, player)
    )
    steps = _steps(spec, player, grid_step, signature=True)
    t = spec.iterations
    # worst scenarios first makes suboptimal candidates fail fast
    records = sorted(
        _records(steps, t, mode, enum_cap), key=lambda r: -max(h for _, h in r[2])
    )
    reference_worst, _ = _worst_regret(records, _strategy_takes(reference, steps, t))

    options = [
        (threshold, trigger)
        for threshold in _grid(*spec.bounds(player), grid_step) + [None]
        for trigger in (False, True)
    ]
    candidate_count = len(options) ** t
    if candidate_count > enum_cap:
        raise SizeError(
            f"the sweep would score {candidate_count} candidate rules (cap {enum_cap})",
            count=candidate_count,
        )
    # the take row of each per-iteration option; None never reaches
    rows = {
        (threshold, trigger): tuple(
            (trigger and peak) or (threshold is not None and value >= threshold)
            for value, peak, _ in steps
        )
        for threshold, trigger in options
    }

    half = spec.half_supply
    violations = []
    for candidate in itertools.product(options, repeat=t):
        worst, _ = _worst_regret(records, tuple(rows[c] for c in candidate), reference_worst)
        if worst < reference_worst:
            violations.append(
                SweepViolation(
                    tuple(c[0] for c in candidate),
                    tuple(c[1] for c in candidate),
                    half * Fraction(worst),
                )
            )
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
