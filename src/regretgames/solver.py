"""Worst-case additive regret and the strategies that minimize it.

The regret of a profile for a player is the best-response payoff against the
profile's opponents minus the payoff actually achieved. A strategy minimizing
the worst-case regret over a set of opponent behaviors is reported together
with the full per-strategy worst cases, so callers can check membership
rather than rely on tie-breaking.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .dominance import rational_restriction
from .errors import InputError, check_mode
from .game import Game, OpponentProfile, Restriction


@dataclass(frozen=True)
class RegretReport:
    """Per-player summary: worst-case regret by strategy plus the minimizers.

    Every member of ``argmin`` attains ``minimax_value``; every non-member
    strictly exceeds it. ``restriction`` names the opponent universe used.
    """

    player: int
    restriction: str
    minimax_value: Fraction
    argmin: tuple[int, ...]
    worst_regret_per_strategy: tuple[Fraction, ...]

    @property
    def canonical_pick(self) -> int:
        """Lowest-index minimizer, used where a single strategy is needed."""
        return self.argmin[0]

    def to_json(self) -> dict:
        return {
            "player": self.player,
            "restriction": self.restriction,
            "minimax_regret": str(self.minimax_value),
            "argmin": list(self.argmin),
            "worst_regret_per_strategy": [str(v) for v in self.worst_regret_per_strategy],
        }


def regret(game: Game, player: int, profile) -> Fraction:
    """Best-response payoff against the profile's opponents minus the achieved payoff."""
    achieved = game.payoff(profile, player)
    opponents = tuple(c for i, c in enumerate(profile) if i != player)
    return game.best_response_value(player, OpponentProfile(player, opponents)) - achieved


def _worst_regrets(game: Game, player: int, restriction: Restriction | None):
    """Worst-case regret of every own strategy, times the payoff scale, and the scale."""
    rows, _, scale = game._opponent_classes(player)
    if restriction is not None:
        restriction.validate_for(game)
        columns = game._class_columns(player, restriction.allowed)
        rows = [[row[c] for c in columns] for row in rows]
    best = list(map(max, zip(*rows)))
    return [max(map(operator.sub, best, row)) for row in rows], scale


def worst_case_regret(
    game: Game, player: int, own_strategy: int, restriction: Restriction | None = None
) -> Fraction:
    """Max regret of one strategy over all restricted opponent profiles.

    The inner best response always ranges over the player's full strategy
    set; only the opponents are restricted.
    """
    worst, scale = _worst_regrets(game, player, restriction)
    if not 0 <= own_strategy < len(worst):
        raise InputError(f"strategy {own_strategy} out of range for player {player}")
    return Fraction(worst[own_strategy], scale)


def minimax_regret(
    game: Game, player: int, restriction: Restriction | None = None
) -> RegretReport:
    """Solve one player: per-strategy worst regrets and the argmin set.

    Candidate strategies range over the player's full set regardless of any
    restriction; best-response values are computed once per distinct
    opponent column, since opponent profiles with equal payoff columns give
    equal regrets, and reused across candidates. The scan runs on the game's
    scaled int payoffs; only the report divides by the scale.
    """
    worst, scale = _worst_regrets(game, player, restriction)
    minimax = min(worst)
    argmin = tuple(s for s, w in enumerate(worst) if w == minimax)
    label = "full" if restriction is None else restriction.label
    return RegretReport(
        player, label, Fraction(minimax, scale), argmin,
        tuple(Fraction(w, scale) for w in worst),
    )


def mode_restriction(game: Game, mode: str) -> Restriction | None:
    """The opponents a ``mode`` solve ranges over: all of them (None) in
    "full" mode, every player's rational set in "rational" mode."""
    check_mode(mode)
    return None if mode == "full" else rational_restriction(game)


def all_player_reports(game: Game, mode: str = "full") -> list[RegretReport]:
    """One report per player, FULL or RATIONAL opponents."""
    restriction = mode_restriction(game, mode)
    return [minimax_regret(game, player, restriction) for player in range(game.player_count)]
