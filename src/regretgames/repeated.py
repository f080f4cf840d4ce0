"""Multi-stage play: repeated games, fixed sequences, and random pools.

A history strategy picks a stage action from what the OTHER players did in
earlier iterations; the player's own past moves are deliberately not part of
the domain. Expanding a sequence turns history strategies into a plain
normal-form game whose payoff is the stage-payoff sum along the unique play
path, after which the one-shot solver and dominance machinery apply verbatim.
The expansion is built from the last stage back: each suffix's payoff is its
first stage's plus the next suffix's at the continuation strategies, so one
expansion carries every suffix's on its ``rest`` chain.

Being competitive "at each subgame" quantifies over every suffix of the
sequence and every opponent history reaching it, whether or not the history
is consistent with the strategy under test; that is the strictest reading.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import AssumptionError, InputError, check_mode, check_size
from .game import DEFAULT_DENSE_CAP, Game
from .rational import strict_int
from .solver import RegretReport, all_player_reports, minimax_regret, mode_restriction

#: Cap on how many pool realizations exhaustive verification will enumerate.
DEFAULT_REALIZATION_CAP = 4096

@dataclass(frozen=True)
class GameSequence:
    """Stage games played in order; a repeated game is the all-equal case."""

    stages: tuple[Game, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise InputError("a game sequence needs at least one stage")
        n = self.stages[0].player_count
        for i, g in enumerate(self.stages):
            if g.player_count != n:
                raise InputError(
                    f"stage {i} has {g.player_count} players, stage 0 has {n}"
                )

    @classmethod
    def repeat(cls, game: Game, times: int) -> "GameSequence":
        if strict_int(times, "repetition count") < 1:
            raise InputError(f"repetition count must be >= 1, got {times}")
        return cls((game,) * times)

    @property
    def player_count(self) -> int:
        return self.stages[0].player_count

    def __len__(self) -> int:
        return len(self.stages)

    def suffix(self, start: int) -> "GameSequence":
        """The subgame starting at iteration ``start`` (1-based)."""
        if not 1 <= strict_int(start, "suffix start") <= len(self.stages):
            raise InputError(f"suffix start {start} outside 1..{len(self.stages)}")
        return GameSequence(self.stages[start - 1:])


def subgames(sequence: GameSequence) -> list[GameSequence]:
    """All suffixes, longest first: lengths m, m-1, ..., 1."""
    return [sequence.suffix(q) for q in range(1, len(sequence) + 1)]


@dataclass
class HistoryStrategy:
    """A stage choice for every (iteration, opponents' past choices) pair."""

    player: int
    decisions: dict

    def decision(self, iteration: int, history) -> int:
        key = (iteration, tuple(history))
        try:
            return self.decisions[key]
        except KeyError:
            raise InputError(
                f"history strategy for player {self.player} is not total: "
                f"no decision at iteration {iteration} for history {history}"
            ) from None

    def check_player(self, player: int) -> None:
        if self.player != player:
            raise InputError(f"the strategy is for player {self.player}, not player {player}")

    def is_history_independent(self) -> bool:
        per_iteration: dict[int, set] = {}
        for (iteration, _), choice in self.decisions.items():
            per_iteration.setdefault(iteration, set()).add(choice)
        return all(len(choices) == 1 for choices in per_iteration.values())


def others_choice_tuples(stage: Game, player: int) -> tuple[tuple[int, ...], ...]:
    """Every combination the other players can play in one stage, lex order."""
    ranges = [range(c) for i, c in enumerate(stage.strategy_counts) if i != player]
    return tuple(itertools.product(*ranges))


def opponent_histories(sequence: GameSequence, player: int, length: int):
    """All opponent histories covering iterations 1..length (lex order)."""
    return itertools.product(*(others_choice_tuples(stage, player)
                               for stage in sequence.stages[:length]))


def decision_points(sequence: GameSequence, player: int) -> tuple[tuple[int, tuple], ...]:
    """A history strategy's ``(iteration, others' history)`` keys: iteration-major, history lex."""
    return tuple((idx, history) for idx in range(1, len(sequence) + 1)
                 for history in opponent_histories(sequence, player, idx - 1))


def _strategy_factors(sequence: GameSequence, player: int) -> list[tuple[int, int]]:
    """``(stage strategies, opponent histories)`` per iteration: the player's
    history strategies number the product of ``strategies ** histories``."""
    factors, histories = [], 1
    for stage in sequence.stages:
        factors.append((stage.strategy_counts[player], histories))
        histories *= len(others_choice_tuples(stage, player))
    return factors


@dataclass
class ExpandedGame:
    """A sequence flattened to normal form; ``rest`` is the expansion from its
    second stage (None for one stage). A strategy's index reads its decisions
    at :func:`decision_points` as a mixed-radix number, first point most significant."""

    sequence: GameSequence
    game: Game
    rest: ExpandedGame | None

    def index_of_tuple(self, player: int, decisions: tuple[int, ...]) -> int:
        player, decisions, index = self.game._validate_player(player), tuple(decisions), 0
        counts = [count for count, histories in _strategy_factors(self.sequence, player)
                  for _ in range(histories)]
        if len(decisions) != len(counts) or not all(
                0 <= strict_int(d, "a decision") < c for d, c in zip(decisions, counts)):
            raise InputError(
                f"decision tuple {decisions} is not a valid strategy of player {player}")
        for d, c in zip(decisions, counts):
            index = index * c + d
        return index

    def index_of_strategy(self, player: int, strategy: HistoryStrategy) -> int:
        strategy.check_player(player)
        decisions = tuple(strategy.decision(idx, history)
                          for idx, history in decision_points(self.sequence, player))
        return self.index_of_tuple(player, decisions)


def expand_sequence(sequence: GameSequence, dense_cap: int = DEFAULT_DENSE_CAP) -> ExpandedGame:
    """Build the normal-form game over history strategies, putting one stage
    at a time, from the last, in front of the expansion of the stages after it.

    Payoff of a strategy tuple is the stage payoff at the first decisions plus
    the rest's payoff at the continuations: after the others' first-stage
    choice ``o``, a strategy plays its ``o``-th block of decisions in each later
    iteration, that iteration's share of the rest's decision points. In lex
    order the last player's strategies are the fastest axis, so cells come in
    runs, one per profile of the others' strategies and the last player's
    first decision, in which only the last player's continuation moves; each
    run is gathered from the rest's columns at once.
    Raises :class:`SizeError` before allocating when a player's strategy space
    or the joint profile space exceeds the cap.
    """
    n = sequence.player_count
    factors = [_strategy_factors(sequence, player) for player in range(n)]
    for player, powers in enumerate(factors):
        check_size(f"player {player} would have {{}} history strategies", dense_cap, *powers)
    check_size("expansion would need {} payoff cells", dense_cap, *itertools.chain(*factors))
    # one denominator per player for all stages; the unreduced ``columns`` stay over it
    scales = [math.lcm(*(stage._column(player)[1] for stage in sequence.stages))
              for player in range(n)]

    # the empty suffix: one strategy per player, no decision points, payoff 0
    columns, expansion = [[0]] * n, None
    game = Game((1,) * n, columns=columns, scales=[1] * n)
    for start in range(len(sequence), 0, -1):
        stage = sequence.stages[start - 1]
        strategies, seen, heads = [], [], []
        for player in range(n):
            others = others_choice_tuples(stage, player)
            # the rest's strategy index after each first-stage choice of the
            # others; a later iteration has ``histories // before`` of its points
            before = factors[player][start - 1][1] * len(others)
            continuations = [(0,) * len(others)]
            for count, histories in factors[player][start:]:
                size = count ** (histories // before)
                continuations = [
                    tuple(c * size + d for c, d in zip(continuation, block))
                    for continuation in continuations
                    for block in itertools.product(range(size), repeat=len(others))
                ]
            count, stride, after = stage.strategy_counts[player], stage._strides[player], \
                game._strides[player]
            strategies.append([(choice * stride, tuple(c * after for c in continuation))
                               for choice in range(count) for continuation in continuations])
            # the index in ``others`` of what the others play at each stage profile
            seen.append([f // (count * stride) * stride + f % stride
                         for f in range(stage.profile_count)])
            head, scale = stage._column(player)
            heads.append([v * (scales[player] // scale) for v in head])

        # along a run the stage profile ``at`` and the others' share ``base`` of
        # the rest's index stay fixed; ``offsets[o]`` lists the last player's
        # share after the others' first-stage choice ``o``, in run order
        run = len(strategies[-1]) // stage.strategy_counts[-1]
        offsets = list(zip(*(c for _, c in strategies[-1][:run])))
        seen_at, tails, columns = list(zip(*seen)), columns, [[] for _ in range(n)]
        for *combo, choice in itertools.product(*strategies[:-1],
                                                range(stage.strategy_counts[-1])):
            at = sum(first for first, _ in combo) + choice
            base = sum(c[o] for (_, c), o in zip(combo, seen_at[at]))
            gather = operator.itemgetter(*map(base.__add__, offsets[seen_at[at][-1]]))
            for column, head, tail in zip(columns, heads, tails):
                values = gather(tail)  # one index gives the item, not a 1-tuple
                column.extend(map(head[at].__add__, values if run > 1 else (values,)))
        game = Game(tuple(map(len, strategies)), columns=columns, scales=scales)
        expansion = ExpandedGame(sequence.suffix(start), game, expansion)
    return expansion


# -- payoff extremes and the stage condition ---------------------------------


@dataclass(frozen=True)
class PayoffExtremes:
    """The two largest distinct payoff values a player can see in one game."""

    player: int
    highest: Fraction
    second_highest: Fraction


def payoff_extremes(game: Game, player: int) -> PayoffExtremes:
    rows, scale = game.payoff_matrix(player)
    values = sorted(set(itertools.chain.from_iterable(rows)), reverse=True)
    if len(values) < 2:
        raise AssumptionError(
            f"player {player} has fewer than 2 distinct payoffs; "
            "the distinctness assumption is violated"
        )
    # exact Fractions: stages compared with each other have different scales
    return PayoffExtremes(player, Fraction(values[0], scale), Fraction(values[1], scale))


def folk_condition_holds(sequence: GameSequence, player: int) -> bool:
    """Worst highest payoff across stages at least twice the best second-highest."""
    extremes = [payoff_extremes(stage, player) for stage in sequence.stages]
    return min(e.highest for e in extremes) >= 2 * max(e.second_highest for e in extremes)


def _check_stage_condition(games, n: int, noun: str) -> None:
    """Non-negative payoffs, all distinct per player, in every stage game, and
    the stage condition; a violation of it names the games by ``noun``."""
    for stage_index, game in enumerate(games):
        for player in range(n):
            rows, _ = game.payoff_matrix(player)
            values = list(itertools.chain.from_iterable(rows))
            if any(v < 0 for v in values):
                raise AssumptionError(
                    f"stage {stage_index} has a negative payoff for player {player}"
                )
            if len(set(values)) != len(values):
                raise AssumptionError(
                    f"stage {stage_index} payoffs are not all distinct for player {player}"
                )
    extremes = [
        [payoff_extremes(game, player) for player in range(n)] for game in games
    ]
    for player in range(n):
        seconds = [row[player].second_highest for row in extremes]
        bound = 2 * max(seconds)
        for k, row_k in enumerate(extremes):
            # below the bound is below twice some game's second highest: name the first
            if row_k[player].highest < bound:
                l = next(l for l, second in enumerate(seconds)
                         if row_k[player].highest < 2 * second)
                raise AssumptionError(
                    f"stage condition fails: highest payoff of {noun} {k} is below "
                    f"twice the second highest of {noun} {l} for player {player}"
                )


# -- the folk construction ----------------------------------------------------


def stage_pick(game: Game, player: int, mode: str) -> int:
    """Canonical (lowest-index) minimizer of the stage game in the given mode."""
    return minimax_regret(game, player, mode_restriction(game, mode)).canonical_pick


def folk_strategy(sequence: GameSequence, player: int) -> HistoryStrategy:
    """History-independent strategy: stage competitive picks, then the
    rationally competitive pick of the last stage.

    Requires the stage condition for every player; the error names the first
    violating (stage, stage, player) triple.
    """
    _check_stage_condition(sequence.stages, sequence.player_count, "stage")
    m = len(sequence)
    picks = {}
    for idx in range(1, m + 1):
        mode = "rational" if idx == m else "full"
        picks[idx] = stage_pick(sequence.stages[idx - 1], player, mode)
    decisions = {
        (idx, history): picks[idx]
        for idx, history in decision_points(sequence, player)
    }
    return HistoryStrategy(player, decisions)


class SequenceAnalysis:
    """Caches suffix expansions and solved reports across subgame checks."""

    def __init__(self, sequence: GameSequence, dense_cap: int = DEFAULT_DENSE_CAP):
        self.sequence = sequence
        self.dense_cap = dense_cap
        self._expansions: dict[int, ExpandedGame] = {}
        self._reports: dict[tuple, list[RegretReport]] = {}

    def expansion(self, start: int) -> ExpandedGame:
        """The suffix from ``start``; building it caches every later suffix too."""
        if start not in self._expansions:
            chain = expand_sequence(self.sequence.suffix(start), self.dense_cap)
            for later in range(start, len(self.sequence) + 1):
                self._expansions[later], chain = chain, chain.rest
        return self._expansions[start]

    def report(self, start: int, player: int, mode: str) -> RegretReport:
        """``player``'s report on the suffix from ``start``, solved under
        ``mode``; every player's report is solved and kept at once."""
        game = self.expansion(start).game
        player = game._validate_player(player)
        if (start, mode) not in self._reports:
            self._reports[start, mode] = all_player_reports(game, mode)
        return self._reports[start, mode][player]


def is_competitive_in_all_subgames(
    sequence: GameSequence,
    player: int,
    strategy: HistoryStrategy,
    mode: str = "full",
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> bool:
    """Check the strategy's continuation at every suffix and opponent history.

    The continuation after history ``h`` must land in the argmin set of the
    expanded suffix game solved under ``mode``. This is the reference for the
    verdicts of :func:`verify_folk_theorem`, which reads them off the folk
    strategy's picks alone.
    """
    check_mode(mode)
    strategy.check_player(player)
    analysis = SequenceAnalysis(sequence, dense_cap)
    m = len(sequence)
    for start in range(1, m + 1):
        expansion = analysis.expansion(start)
        admissible = set(analysis.report(start, player, mode).argmin)
        points = decision_points(expansion.sequence, player)
        for prefix in opponent_histories(sequence, player, start - 1):
            continuation = tuple(
                strategy.decision(start - 1 + idx, prefix + history)
                for idx, history in points
            )
            if expansion.index_of_tuple(player, continuation) not in admissible:
                return False
    return True


# -- random pools --------------------------------------------------------------


@dataclass(frozen=True)
class RandomGameSpec:
    """A pool of stage games to be played in a drawn order.

    ``realization`` pins a specific draw; otherwise ``mode`` selects either
    exhaustive enumeration of all draws or seeded sampling.
    """

    pool: tuple[Game, ...]
    length: int
    mode: str = "exhaustive"
    seed: int | None = None
    samples: int = 1
    realization: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "pool", tuple(self.pool))
        if not self.pool:
            raise InputError("the game pool must not be empty")
        n = self.pool[0].player_count
        for i, g in enumerate(self.pool):
            if g.player_count != n:
                raise InputError(f"pool game {i} has {g.player_count} players, game 0 has {n}")
        strict_int(self.length, "length")
        strict_int(self.samples, "samples")
        if self.seed is not None:
            strict_int(self.seed, "seed")
        if self.length < 1:
            raise InputError(f"length must be >= 1, got {self.length}")
        if self.mode not in ("exhaustive", "sampled"):
            raise InputError(f"mode must be 'exhaustive' or 'sampled', got {self.mode!r}")
        if self.samples < 1:
            raise InputError(f"samples must be >= 1, got {self.samples}")
        if self.realization is not None:
            if not isinstance(self.realization, (list, tuple)):
                raise InputError(f"realization must be a list, got {self.realization!r}")
            realization = tuple(strict_int(i, "realization index") for i in self.realization)
            object.__setattr__(self, "realization", realization)
            if len(realization) != self.length:
                raise InputError(
                    f"realization length {len(realization)} != spec length {self.length}"
                )
            for idx in realization:
                if not 0 <= idx < len(self.pool):
                    raise InputError(f"realization index {idx} outside the pool")

    @property
    def player_count(self) -> int:
        return self.pool[0].player_count


def random_realizations(
    spec: RandomGameSpec, realization_cap: int = DEFAULT_REALIZATION_CAP
) -> list[tuple[tuple[int, ...], GameSequence]]:
    """``(draw, GameSequence)`` pairs, ``draw`` being the pool index of each stage:
    the pinned realization, all draws in lex order, or seeded samples."""
    if spec.realization is not None:
        draws = [spec.realization]
    elif spec.mode == "exhaustive":
        check_size("exhaustive enumeration needs {} realizations", realization_cap,
                   (len(spec.pool), spec.length))
        draws = list(itertools.product(range(len(spec.pool)), repeat=spec.length))
    else:
        if spec.seed is None:
            raise InputError("sampled mode requires a seed for reproducibility")
        check_size("sampled verification needs {} realizations", realization_cap,
                   (spec.samples, 1))
        rng = random.Random(spec.seed)
        draws = [
            tuple(rng.randrange(len(spec.pool)) for _ in range(spec.length))
            for _ in range(spec.samples)
        ]
    return [
        (draw, GameSequence(tuple(spec.pool[i] for i in draw))) for draw in draws
    ]


# -- folk verification ----------------------------------------------------------


@dataclass(frozen=True)
class SubgameDetail:
    """Solver context for one suffix: both argmin sets and the checked index."""

    start_iteration: int
    strategy_index: int
    full_argmin: tuple[int, ...]
    rational_argmin: tuple[int, ...]
    member: bool

    def to_json(self) -> dict:
        return {
            "start_iteration": self.start_iteration,
            "strategy_index": self.strategy_index,
            "full_argmin": list(self.full_argmin),
            "rational_argmin": list(self.rational_argmin),
            "member": self.member,
        }


@dataclass(frozen=True)
class FolkEntry:
    realization: tuple[int, ...] | None
    player: int
    passed: bool
    details: tuple[SubgameDetail, ...]

    def to_json(self) -> dict:
        return {
            "realization": None if self.realization is None else list(self.realization),
            "player": self.player,
            "passed": self.passed,
            "subgames": [d.to_json() for d in self.details],
        }


@dataclass(frozen=True)
class FolkReport:
    mode: str
    entries: tuple[FolkEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "all_pass": self.all_pass,
            "entries": [e.to_json() for e in self.entries],
        }


def verify_folk_theorem(
    subject,
    mode: str = "rational",
    dense_cap: int = DEFAULT_DENSE_CAP,
    realization_cap: int = DEFAULT_REALIZATION_CAP,
) -> FolkReport:
    """Build the folk strategy per player and check it at every subgame.

    ``subject`` is a :class:`GameSequence` or a :class:`RandomGameSpec`; for
    pools each realization is verified separately, with stage picks taken
    from the realized game of each iteration. The stage condition is a
    precondition: a violating pool raises instead of producing a verdict.
    Details record the argmin sets of both modes so their relationship can be
    audited; the verdict is that every detail is a member under ``mode``.

    The order is: the stage condition, then the size, then the draws. A pool
    is sized before any realization is drawn: each of its games passing the
    stage condition has two profiles or more, and an expansion has at least
    the product of its stages' profile counts, so the smallest pool profile
    count to the power ``length`` bounds every realization's expansion from
    below. The folk strategy is built once per realization and player, after
    the largest expansion has passed its size check: its picks do not depend
    on history, and a suffix's last stage is the sequence's last stage, so
    the suffix's own folk strategy is the sequence's picks from the suffix
    start on, after every history alike.
    """
    check_mode(mode)
    if not isinstance(subject, (GameSequence, RandomGameSpec)):
        raise InputError(
            f"subject must be a GameSequence or RandomGameSpec, got {type(subject).__name__}"
        )
    pool = isinstance(subject, RandomGameSpec)
    n = subject.player_count
    _check_stage_condition(subject.pool if pool else subject.stages, n, "game")
    if pool:
        check_size(f"the expansion of a pool sequence of length {subject.length} has a "
                   "lower bound of {} payoff cells", dense_cap,
                   (min(game.profile_count for game in subject.pool), subject.length))
        realizations = random_realizations(subject, realization_cap)
    else:
        realizations = [(None, subject)]

    entries = []
    for tag, sequence in realizations:
        analysis = SequenceAnalysis(sequence, dense_cap)
        analysis.expansion(1)
        for player in range(n):
            strategy = folk_strategy(sequence, player)
            picks = {idx: choice for (idx, _), choice in strategy.decisions.items()}
            details = []
            for start in range(1, len(sequence) + 1):
                expansion = analysis.expansion(start)
                index = expansion.index_of_tuple(player, tuple(
                    picks[start - 1 + idx]
                    for idx, _ in decision_points(expansion.sequence, player)))
                rational = analysis.report(start, player, "rational").argmin
                full = analysis.report(start, player, "full").argmin
                member = index in analysis.report(start, player, mode).argmin
                details.append(SubgameDetail(start, index, full, rational, member))
            entries.append(FolkEntry(tag, player, all(d.member for d in details),
                                     tuple(details)))
    return FolkReport(mode, tuple(entries))
