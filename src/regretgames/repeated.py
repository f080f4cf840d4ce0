"""Multi-stage play: repeated games, fixed sequences, and random pools.

A history strategy picks a stage action from what the OTHER players did in
earlier iterations; the player's own past moves are deliberately not part of
the domain. Expanding a sequence turns history strategies into a plain
normal-form game whose payoff is the stage-payoff sum along the unique play
path, after which the one-shot solver and dominance machinery apply verbatim.

Being competitive "at each subgame" quantifies over every suffix of the
sequence and every opponent history reaching it, whether or not the history
is consistent with the strategy under test; that is the strictest reading.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import AssumptionError, InputError, check_mode, check_size
from .game import DEFAULT_DENSE_CAP, Game
from .rational import strict_int
from .solver import RegretReport, all_player_reports, minimax_regret, mode_restriction

#: Cap on how many pool realizations exhaustive verification will enumerate.
DEFAULT_REALIZATION_CAP = 4096

HistoryKey = tuple  # (iteration index 1-based, tuple of per-iteration opponent choice tuples)


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
        if times < 1:
            raise InputError(f"repetition count must be >= 1, got {times}")
        return cls((game,) * times)

    @property
    def player_count(self) -> int:
        return self.stages[0].player_count

    def __len__(self) -> int:
        return len(self.stages)

    def suffix(self, start: int) -> "GameSequence":
        """The subgame starting at iteration ``start`` (1-based)."""
        if not 1 <= start <= len(self.stages):
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
    alphabets = [
        others_choice_tuples(sequence.stages[j], player) for j in range(length)
    ]
    return itertools.product(*alphabets)


def decision_points(sequence: GameSequence, player: int) -> tuple[HistoryKey, ...]:
    """Ordered domain of a history strategy: iteration-major, history lex."""
    points = []
    for idx in range(1, len(sequence) + 1):
        for history in opponent_histories(sequence, player, idx - 1):
            points.append((idx, history))
    return tuple(points)


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
    """A sequence flattened to normal form, with index <-> strategy maps."""

    sequence: GameSequence
    game: Game
    points: tuple[tuple[HistoryKey, ...], ...]
    _tuples: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)
    _index: tuple[dict, ...] = field(repr=False)

    def decisions_tuple(self, player: int, index: int) -> tuple[int, ...]:
        return self._tuples[player][index]

    def index_of_tuple(self, player: int, decisions: tuple[int, ...]) -> int:
        try:
            return self._index[player][tuple(decisions)]
        except KeyError:
            raise InputError(
                f"decision tuple {decisions} is not a valid strategy of player {player}"
            ) from None

    def index_of_strategy(self, player: int, strategy: HistoryStrategy) -> int:
        decisions = tuple(
            strategy.decision(idx, history) for idx, history in self.points[player]
        )
        return self.index_of_tuple(player, decisions)


def expand_sequence(sequence: GameSequence, dense_cap: int = DEFAULT_DENSE_CAP) -> ExpandedGame:
    """Build the normal-form game over history strategies.

    Payoff of a strategy tuple is the sum of stage payoffs along the induced
    play path. Raises :class:`SizeError` before allocating when a player's
    strategy space or the joint profile space exceeds the cap.
    """
    n = sequence.player_count
    m = len(sequence)
    factors = [_strategy_factors(sequence, player) for player in range(n)]
    counts = tuple(
        check_size(f"player {player} would have {{}} history strategies", dense_cap,
                   *factors[player])
        for player in range(n)
    )
    check_size("expansion would need {} payoff cells", dense_cap, *itertools.chain(*factors))

    all_points = tuple(decision_points(sequence, player) for player in range(n))
    point_counts = tuple(
        tuple(sequence.stages[idx - 1].strategy_counts[player] for idx, _ in all_points[player])
        for player in range(n)
    )
    tuples = tuple(
        tuple(itertools.product(*(range(c) for c in point_counts[player])))
        for player in range(n)
    )
    index = tuple({t: i for i, t in enumerate(tuples[player])} for player in range(n))
    # dict-per-strategy lookup tables keep the replay loop simple
    lookups = [
        [dict(zip(all_points[player], t)) for t in tuples[player]] for player in range(n)
    ]

    # Every stage's payoffs as numerators over one denominator per player,
    # shared by all stages, so the payoff of a play path is a sum of ints.
    stage_columns = [[stage._column(player) for player in range(n)] for stage in sequence.stages]
    scales = [math.lcm(*(per_stage[player][1] for per_stage in stage_columns))
              for player in range(n)]
    stage_tables = []  # per stage: moves -> per-player numerators over ``scales``
    for stage, per_stage in zip(sequence.stages, stage_columns):
        scaled = [
            [v * (scales[player] // scale) for v in column]
            for player, (column, scale) in enumerate(per_stage)
        ]
        stage_tables.append(dict(zip(stage.profiles(), zip(*scaled))))

    others = [[j for j in range(n) if j != player] for player in range(n)]
    columns = [[] for _ in range(n)]
    for combo in itertools.product(*(range(c) for c in counts)):
        decide = [lookups[player][combo[player]] for player in range(n)]
        histories = [() for _ in range(n)]
        totals = [0] * n
        for idx, table in enumerate(stage_tables, start=1):
            moves = tuple([decide[player][(idx, histories[player])] for player in range(n)])
            totals = list(map(operator.add, totals, table[moves]))
            if idx < m:
                histories = [
                    history + (tuple([moves[j] for j in others[player]]),)
                    for player, history in enumerate(histories)
                ]
        for column, total in zip(columns, totals):
            column.append(total)

    game = Game(counts, columns=columns, scales=scales)
    return ExpandedGame(sequence, game, all_points, tuples, index)


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
        for k, row_k in enumerate(extremes):
            for l, row_l in enumerate(extremes):
                if row_k[player].highest < 2 * row_l[player].second_highest:
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
        if start not in self._expansions:
            self._expansions[start] = expand_sequence(
                self.sequence.suffix(start), self.dense_cap
            )
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
    analysis = SequenceAnalysis(sequence, dense_cap)
    m = len(sequence)
    for start in range(1, m + 1):
        expansion = analysis.expansion(start)
        admissible = set(analysis.report(start, player, mode).argmin)
        for prefix in opponent_histories(sequence, player, start - 1):
            continuation = tuple(
                strategy.decision(start - 1 + idx, prefix + history)
                for idx, history in expansion.points[player]
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
                    picks[start - 1 + idx] for idx, _ in expansion.points[player]
                ))
                rational = analysis.report(start, player, "rational").argmin
                full = analysis.report(start, player, "full").argmin
                member = index in analysis.report(start, player, mode).argmin
                details.append(SubgameDetail(start, index, full, rational, member))
            entries.append(FolkEntry(tag, player, all(d.member for d in details),
                                     tuple(details)))
    return FolkReport(mode, tuple(entries))
