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

import bisect
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (DEFAULT_DENSE_CAP, DEFAULT_REALIZATION_CAP, AssumptionError, InputError,
                     check_mode, check_size)
from .game import Game, Restriction
from .rational import strict_int, strict_list
from .solver import (RegretReport, _argmin, _regrets, _report, minimax_regret,
                     mode_restriction)


def _checked(value, types: tuple, what: str):
    """``value`` if it is one of ``types``; else one :class:`InputError` line naming ``what``."""
    if not isinstance(value, types):
        raise InputError(f"{what} must be a {' or '.join(t.__name__ for t in types)}, "
                         f"got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class GameSequence:
    """Stage games played in order; a repeated game is the all-equal case."""

    stages: tuple[Game, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", strict_list(self.stages, "stages must list Games"))
        if not self.stages:
            raise InputError("a game sequence needs at least one stage")
        for i, g in enumerate(self.stages):
            if not isinstance(g, Game):
                raise InputError(f"stage {i} must be a Game, got {type(g).__name__}")
            if g.player_count != self.stages[0].player_count:
                raise InputError(f"stage {i} has {g.player_count} players, "
                                 f"stage 0 has {self.stages[0].player_count}")

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
        """The subgame starting at iteration ``start`` (1-based). Its stages
        were checked with this sequence's and are not checked again, so
        taking every suffix costs no check per stage."""
        if not 1 <= strict_int(start, "suffix start") <= len(self.stages):
            raise InputError(f"suffix start {start} outside 1..{len(self.stages)}")
        suffix = object.__new__(GameSequence)
        object.__setattr__(suffix, "stages", self.stages[start - 1:])
        return suffix


def opponent_histories(sequence: GameSequence, player: int, length: int):
    """All opponent histories covering iterations 1..length (lex order): per
    iteration, a combination the other players can play in its stage."""
    return itertools.product(*(
        itertools.product(*(range(c) for j, c in enumerate(stage.strategy_counts) if j != player))
        for stage in sequence.stages[:length]))


def decision_points(sequence: GameSequence, player: int) -> tuple[tuple[int, tuple], ...]:
    """A history strategy's ``(iteration, others' history)`` keys: iteration-major, history lex."""
    player = _checked(sequence, (GameSequence,), "sequence").stages[0]._validate_player(player)
    return tuple((idx, history) for idx in range(1, len(sequence) + 1)
                 for history in opponent_histories(sequence, player, idx - 1))


def _strategy_factors(sequence: GameSequence, player: int) -> list[tuple[int, int]]:
    """``(stage strategies, opponent histories)`` per iteration: the player's
    history strategies number the product of ``strategies ** histories``."""
    factors, histories = [], 1
    for stage in sequence.stages:
        factors.append((stage.strategy_counts[player], histories))
        histories *= stage.profile_count // stage.strategy_counts[player]
    return factors


def _fixed_index(sequence: GameSequence, player: int, picks) -> int:
    """The index of the history strategy that plays ``picks[k]`` at every
    decision point of iteration ``k + 1``, whatever the history: per
    iteration, one digit per history, all equal to the pick."""
    index = 0
    for (count, histories), pick in zip(_strategy_factors(sequence, player), picks):
        size = count ** histories
        # the digit ``pick`` repeated ``histories`` times in base ``count``
        index = index * size + (pick * (size - 1) // (count - 1) if pick else 0)
    return index


@dataclass
class ExpandedGame:
    """A sequence flattened to normal form; ``rest`` is the expansion from its
    second stage (None for one stage). A strategy's index reads its decisions
    at :func:`decision_points` as a mixed-radix number, first point most significant.
    ``rational`` and ``full_regrets``, the game's rational restriction and each
    player's full-mode (worst regrets, scale), are derived from the rest's.
    ``==`` and ``repr`` read ``sequence`` only: it fixes the whole chain, and
    a suffix on a chain holds its derived lists on the whole sequence's scale.
    Player ``p``'s strategy ``a * len(_continuations[p]) + k`` plays the stage
    choice ``a`` and then ``_continuations[p][k][o]`` of the rest after the
    others' stage choices ``o``; ``_heads[p][a][o]`` is p's stage payoff there,
    on the scale of ``full_regrets``. The payoff ``game`` is built on first read."""

    sequence: GameSequence
    rest: ExpandedGame | None = field(compare=False, repr=False)
    rational: Restriction = field(compare=False, repr=False)
    full_regrets: list[tuple[list[int], int]] = field(compare=False, repr=False)
    _continuations: list[list[tuple[int, ...]]] = field(compare=False, repr=False)
    _heads: list[tuple[tuple[int, ...], ...]] = field(compare=False, repr=False)
    _gathered: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @functools.cached_property
    def game(self) -> Game:
        """The expanded payoff matrices, gathered by :func:`_gather` against
        every opponent profile."""
        rows = [list(zip(*_gather(self, player, False)))
                for player in range(self.sequence.player_count)]
        return Game(tuple(map(len, rows)), rows=rows,
                    scales=[scale for _, scale in self.full_regrets])

    def _allowed(self, rational: bool):
        """Each player's rational set, or all its strategies."""
        return self.rational.allowed if rational else \
            [range(len(worst)) for worst, _ in self.full_regrets]

    def _narrowed(self, player: int) -> bool:
        """Whether the rational set of some opponent of ``player`` leaves out a strategy."""
        return any(len(rational) < len(every) for j, (rational, every) in
                   enumerate(zip(self.rational.allowed, self._allowed(False))) if j != player)

    def index_of_tuple(self, player: int, decisions: tuple[int, ...]) -> int:
        player = self.sequence.stages[0]._validate_player(player)
        decisions, index = tuple(decisions), 0
        counts = [count for count, histories in _strategy_factors(self.sequence, player)
                  for _ in range(histories)]
        if len(decisions) != len(counts) or not all(
                0 <= strict_int(d, "a decision") < c for d, c in zip(decisions, counts)):
            raise InputError(
                f"decision tuple {decisions} is not a valid strategy of player {player}")
        for d, c in zip(decisions, counts):
            index = index * c + d
        return index


def expand_sequence(sequence: GameSequence, dense_cap: int = DEFAULT_DENSE_CAP) -> ExpandedGame:
    """Expand a sequence over history strategies, putting one stage at a
    time, from the last, in front of the expansion of the stages after it.

    A strategy is a first decision and, after the others' first-stage
    choice ``o``, its ``o``-th block of decisions in each later iteration,
    that iteration's share of the rest's decision points: the continuation
    the expansion keeps per strategy. Each suffix's rational restriction and
    full-mode worst regrets are derived from the rest's at the same step by
    :func:`_rational_step`, so no weak-dominance scan and no full-mode solve
    runs on it, and no payoff cell is filled until ``game`` is read.
    Raises :class:`SizeError` before allocating when a player's strategy space
    or the joint profile space exceeds the cap.
    """
    n = _checked(sequence, (GameSequence,), "sequence").player_count
    factors = [_strategy_factors(sequence, player) for player in range(n)]
    for player, powers in enumerate(factors):
        check_size(f"player {player} would have {{}} history strategies", dense_cap, *powers)
    check_size("expansion would need {} payoff cells", dense_cap, *itertools.chain(*factors))
    # one denominator per player for all stages; the unreduced ``heads`` stay over it
    scales = [math.lcm(*(stage.payoff_matrix(player)[1] for stage in sequence.stages))
              for player in range(n)]

    # the empty suffix: one strategy per player, no decision points, payoff 0
    expansion = None
    # per player: the rest's rational set, highs, lows and worst regrets
    derived = [((0,), [0], [0], [0])] * n
    for start in range(len(sequence), 0, -1):
        stage = sequence.stages[start - 1]
        strategies, heads = [], []
        for player in range(n):
            # the rest's strategy index after each of the others' ``blocks`` stage
            # choices; a later iteration has ``histories // before`` of its points
            blocks = stage.profile_count // stage.strategy_counts[player]
            before = factors[player][start - 1][1] * blocks
            continuations = [(0,) * blocks]
            for count, histories in factors[player][start:]:
                size = count ** (histories // before)
                if size == 1:  # one block of zeros leaves every index as it is
                    continue
                continuations = [
                    tuple(c * size + d for c, d in zip(continuation, block))
                    for continuation in continuations
                    for block in itertools.product(range(size), repeat=blocks)
                ]
            strategies.append(continuations)
            rows, scale = stage.payoff_matrix(player)
            factor = scales[player] // scale
            heads.append(tuple(tuple(v * factor for v in row) for row in rows))
            derived[player] = _rational_step(heads[-1], continuations, *derived[player])
        expansion = ExpandedGame(sequence.suffix(start), expansion,
                                 Restriction(tuple(step[0] for step in derived), "rational"),
                                 [(step[3], scale) for step, scale in zip(derived, scales)],
                                 strategies, heads)
    return expansion


def _gather(expansion: ExpandedGame, player: int, rational: bool) -> list[tuple[int, ...]]:
    """``player``'s payoffs in ``expansion`` against every opponent profile,
    or against every profile of rational opponents when ``rational``: its
    rows over all own strategies, kept column by column, one column per
    allowed opponent profile in lex order, on the scale of ``full_regrets``.

    Each suffix's columns come from the rest's of the same kind, so the
    chain is walked down for the kind of each suffix and built back up.
    Rows against rational opponents who leave out no strategy are the full
    ones, and so are the rest's below them. Memoized per (expansion, player,
    kind) and built on first use.
    """
    chain = []
    while expansion is not None:
        rational = rational and expansion._narrowed(player)
        chain.append((expansion, rational))
        expansion = expansion.rest
    columns = [(0,)]  # the empty suffix: one strategy per player, payoff 0
    for expansion, rational in reversed(chain):
        if (player, rational) not in expansion._gathered:
            expansion._gathered[player, rational] = _gather_step(expansion, player, rational,
                                                                 columns)
        columns = expansion._gathered[player, rational]
    return columns


def _gather_step(expansion: ExpandedGame, player: int, rational: bool, rest_columns):
    """The columns of :func:`_gather` from ``rest_columns``, the rest's of the same kind.

    Against a profile in which the others play the stage choices ``o`` and
    each opponent ``j`` plays the continuation ``q_j`` after the stage
    choices of j's others, the strategy (a, r) earns its stage payoff plus
    the rest's payoff of ``r_o`` against the ``q_j``. Every continuation of
    a rational strategy is rational in the rest (``docs/DECISIONS.md``), so
    that payoff is an entry of the rest's columns against rational opponents.
    """
    stage, rest = expansion.sequence.stages[0], expansion.rest
    others = [j for j in range(stage.player_count) if j != player]
    rest_sets = [(0,)] * stage.player_count if rest is None else rest._allowed(rational)
    # the stride of each opponent's rest strategy in the rest's column index
    strides, stride = {}, 1
    for j in reversed(others):
        strides[j], stride = stride, stride * len(rest_sets[j])
    # the index of each opponent's others' stage choices, per stage profile
    seen = [[f // (count * step) * step + f % step for f in range(stage.profile_count)]
            for count, step in ((stage.strategy_counts[j], stage._strides[j]) for j in others)]
    # per opponent and allowed strategy: its stage choice's share of the
    # stage profile index, and its continuations' shares of the rest's column
    entries, allowed = [], expansion._allowed(rational)
    for j in others:
        blocks = expansion._continuations[j]
        position = {r: i * strides[j] for i, r in enumerate(rest_sets[j])}
        entries.append([(s // len(blocks) * stage._strides[j],
                         [position[r] for r in blocks[s % len(blocks)]]) for s in allowed[j]])
    # the own continuation after each of the others' stage choices, in strategy order
    picks = list(zip(*expansion._continuations[player]))
    heads, step = expansion._heads[player], stage._strides[player]
    columns = []
    for combo in itertools.product(*entries):
        base, column = sum(first for first, _ in combo), []
        o = base // (len(heads) * step) * step + base % step  # the same for each own choice
        for row, at in zip(heads, range(base, base + len(heads) * step, step)):
            rest_column = rest_columns[sum(shares[seen_j[at]] for (_, shares), seen_j
                                           in zip(combo, seen))]
            column += map(row[o].__add__, map(rest_column.__getitem__, picks[o]))
        columns.append(tuple(column))
    return columns


def _rational_step(gains, continuations, allowed, highs, lows, regrets):
    """One player's rational set in an expansion, derived from the rest's, and
    each strategy's highest and lowest payoff and full-mode worst regret.

    ``gains[a][o]`` is the stage payoff of choice ``a`` against the others'
    choice ``o``. A strategy is a choice ``a`` and, after each ``o``, a rest
    strategy ``continuation[o]``; the strategies are the choices times
    ``continuations``, in index order. ``allowed``, ``highs``, ``lows`` and
    ``regrets`` are the rest's rational set and the highest and lowest payoff
    and worst regret of each rest strategy, on the scale of ``gains``. The
    others pick their continuation apart after each first-stage choice of the
    player and of each of them, so a strategy survives one round of weak
    dominance exactly when every continuation is rational in the rest, and no
    other choice ``b`` with the best continuations after it is never worse and
    somewhere better. For the same reason a strategy's worst regret at block
    ``o`` is its continuation's worst regret in the rest, or, if some ``b``
    gains more, ``b``'s stage gain over ``a`` plus the rest's largest payoff
    less the continuation's lowest; the proofs are in ``docs/DECISIONS.md``.
    """
    choices, blocks, size = range(len(gains)), range(len(gains[0])), len(continuations)
    # rest strategies by lowest payoff, and the largest highest payoff from each on
    order = sorted(range(len(lows)), key=lows.__getitem__)
    floors = [lows[r] for r in order]
    tops = list(itertools.accumulate((highs[r] for r in reversed(order)), max))[::-1]

    def verdict(a, b, o, r):
        # None when no continuation after b reaches r's highest after a at
        # block o; else whether the highest such continuation beats r's lowest
        k = bisect.bisect_left(floors, gains[a][o] + highs[r] - gains[b][o])
        return None if k == len(floors) else gains[b][o] + tops[k] > gains[a][o] + lows[r]

    top, members, kept, maxima, minima, worst = max(highs), set(allowed), [], [], [], []
    for a in choices:
        tables = [[{r: verdict(a, b, o, r) for r in allowed} for o in blocks]
                  for b in choices if b != a]
        # per block, each rest strategy's highest and lowest payoff and worst regret
        # after ``a``: the regret is its own in the rest, or the best rival choice's
        # stage gain over ``a`` with the rest's top payoff after it, less its lowest
        ups = [[gain + high for high in highs] for gain in gains[a]]
        downs = [[gain + low for low in lows] for gain in gains[a]]
        rivals = [max((gains[b][o] for b in choices if b != a), default=None) for o in blocks]
        regret_tables = [regrets if rival is None else [
            max(regret, rival - gain + top - low) for regret, low in zip(regrets, lows)]
            for gain, rival in zip(gains[a], rivals)]
        for index, continuation in enumerate(continuations, a * size):
            if members.issuperset(continuation) and not any(
                    None not in codes and True in codes
                    for codes in (list(map(dict.__getitem__, table, continuation))
                                  for table in tables)):
                kept.append(index)
            maxima.append(max(map(operator.getitem, ups, continuation)))
            minima.append(min(map(operator.getitem, downs, continuation)))
            worst.append(max(map(operator.getitem, regret_tables, continuation)))
    return tuple(kept), maxima, minima, worst


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


def _check_stage_condition(games, n: int, noun: str) -> None:
    """Non-negative payoffs, all distinct per player, in every stage game, and
    the stage condition; a violation of it names the games by ``noun``.

    Stages read from one file share a ``Game``: each distinct one is read
    once, at its first position, which is the position any error names.
    """
    firsts = {}
    for index, game in enumerate(games):
        firsts.setdefault(id(game), (index, game))
    for stage_index, game in firsts.values():
        for player in range(n):
            values = list(itertools.chain.from_iterable(game.payoff_matrix(player)[0]))
            if any(v < 0 for v in values):
                raise AssumptionError(
                    f"stage {stage_index} has a negative payoff for player {player}"
                )
            if len(set(values)) != len(values):
                raise AssumptionError(
                    f"stage {stage_index} payoffs are not all distinct for player {player}"
                )
            if len(values) < 2:
                raise AssumptionError(
                    f"stage {stage_index} has fewer than 2 distinct payoffs for player {player}"
                )
    read = {key: [payoff_extremes(game, player) for player in range(n)]
            for key, (_, game) in firsts.items()}
    extremes = [read[id(game)] for game in games]
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


def folk_strategy(sequence: GameSequence, player: int) -> tuple[int, ...]:
    """The folk strategy's stage pick per iteration, played after every
    history alike: the stage competitive pick, then the rationally
    competitive pick of the last stage.

    Requires the stage condition for every player; the error names the first
    violating (stage, stage, player) triple.
    """
    _check_stage_condition(_checked(sequence, (GameSequence,), "sequence").stages,
                           sequence.player_count, "stage")
    m = len(sequence)
    return tuple(stage_pick(stage, player, "rational" if idx == m else "full")
                 for idx, stage in enumerate(sequence.stages, start=1))


class SequenceAnalysis:
    """Caches suffix expansions across subgame checks."""

    def __init__(self, sequence: GameSequence, dense_cap: int = DEFAULT_DENSE_CAP):
        self.sequence = _checked(sequence, (GameSequence,), "sequence")
        self.dense_cap = dense_cap
        self._expansions: dict[int, ExpandedGame] = {}

    def expansion(self, start: int) -> ExpandedGame:
        """The suffix from ``start``; building it caches every later suffix too."""
        if start not in self._expansions:
            chain = expand_sequence(self.sequence.suffix(start), self.dense_cap)
            for later in range(start, len(self.sequence) + 1):
                self._expansions[later], chain = chain, chain.rest
        return self._expansions[start]

    def _worst(self, start: int, player: int, mode: str) -> tuple[list[int], int]:
        """``player``'s int worst regrets on the suffix from ``start`` under
        ``mode``, with their scale: full mode, and rational mode when every
        opponent's rational set is its whole set, reads those the expansion
        derived; rational mode otherwise solves the player's rows against the
        rational opponents, which :func:`_gather` builds."""
        expansion = self.expansion(start)
        worst, scale = expansion.full_regrets[player]
        if mode == "full" or not expansion._narrowed(player):
            return worst, scale
        return _regrets(list(zip(*_gather(expansion, player, True)))), scale

    def report(self, start: int, player: int, mode: str) -> RegretReport:
        """``player``'s report on the suffix from ``start``, solved under ``mode``."""
        player = self.sequence.stages[0]._validate_player(player)
        check_mode(mode)
        return _report(player, mode, *self._worst(start, player, mode))


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
        object.__setattr__(self, "pool", strict_list(self.pool, "the game pool must list Games"))
        if not self.pool:
            raise InputError("the game pool must not be empty")
        for i, g in enumerate(self.pool):
            if not isinstance(g, Game):
                raise InputError(f"pool game {i} must be a Game, got {type(g).__name__}")
            if g.player_count != self.pool[0].player_count:
                raise InputError(f"pool game {i} has {g.player_count} players, "
                                 f"game 0 has {self.pool[0].player_count}")
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
    if _checked(spec, (RandomGameSpec,), "spec").realization is not None:
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
    below. The folk picks are built once per realization and player, after
    the largest expansion has passed its size check: a suffix's last stage is
    the sequence's last stage, so the suffix's own folk strategy plays the
    sequence's picks from the suffix start on.
    """
    check_mode(mode)
    _checked(subject, (GameSequence, RandomGameSpec), "subject")
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
            picks = folk_strategy(sequence, player)
            details = []
            for start in range(1, len(sequence) + 1):
                index = _fixed_index(analysis.expansion(start).sequence, player,
                                     picks[start - 1:])
                full, rational = (_argmin(analysis._worst(start, player, m)[0])
                                  for m in ("full", "rational"))
                member = index in (full if mode == "full" else rational)
                details.append(SubgameDetail(start, index, full, rational, member))
            entries.append(FolkEntry(tag, player, all(d.member for d in details),
                                     tuple(details)))
    return FolkReport(mode, tuple(entries))
