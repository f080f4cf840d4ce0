"""Weak dominance between pure strategies and the surviving strategy sets."""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import InputError
from .game import Game, Restriction


@dataclass(frozen=True)
class RationalSet:
    """Strategies of one player that no other strategy weakly dominates.

    ``eliminated`` pairs each removed strategy with its lowest-index
    dominating witness, so reports stay auditable.
    """

    player: int
    allowed: tuple[int, ...]
    eliminated: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "player": self.player,
            "allowed": list(self.allowed),
            "eliminated": [
                {"strategy": s, "dominated_by": w} for s, w in self.eliminated
            ],
        }


def _dominates(row_s, row_p) -> bool:
    # s weakly dominates s_prime: never worse, strictly better somewhere.
    return row_s != row_p and all(map(operator.ge, row_s, row_p))


def weakly_dominates(game: Game, player: int, s: int, s_prime: int) -> bool:
    """True iff strategy ``s`` weakly dominates ``s_prime`` for ``player``."""
    rows, _ = game.payoff_matrix(player)
    for idx in (s, s_prime):
        if not 0 <= idx < len(rows):
            raise InputError(f"strategy {idx} out of range for player {player}")
    return _dominates(rows[s], rows[s_prime])


def _surviving(rows, candidates):
    """Split candidates into (allowed, eliminated-with-witness) by pairwise scan."""
    # The rows hold each distinct opponent column once, which leaves dominance
    # unchanged. Over those columns, a row never worse and somewhere better has
    # a strictly larger int sum, and a row never worse with a larger sum differs
    # somewhere: so s_prime weakly dominates s exactly when its sum is larger
    # and no entry is smaller.
    totals = [(s, sum(rows[s])) for s in candidates]
    allowed = []
    eliminated = []
    for s, total in totals:
        row_s, witness = rows[s], None
        for s_prime, total_prime in totals:
            if total_prime > total and all(map(operator.ge, rows[s_prime], row_s)):
                witness = s_prime
                break  # candidates scan ascending, so the first hit is the lowest index
        if witness is None:
            allowed.append(s)
        else:
            eliminated.append((s, witness))
    return allowed, eliminated


def rational_set(game: Game, player: int) -> RationalSet:
    """Single elimination round against the opponents' full profile space."""
    rows = game._opponent_classes(player)[0]
    allowed, eliminated = _surviving(rows, range(len(rows)))
    return RationalSet(player, tuple(allowed), tuple(eliminated))


def iterated_rational_sets(game: Game, rounds: int) -> list[RationalSet]:
    """Re-run elimination on the surviving strategies, up to ``rounds`` times.

    All players update simultaneously each round; round 1 equals
    :func:`rational_set` exactly. Stops early at a fixed point. This is an
    opt-in extension; single-round elimination is the default everywhere else.
    """
    if not isinstance(rounds, int) or rounds < 1:
        raise InputError(f"rounds must be a positive integer, got {rounds!r}")
    n = game.player_count
    allowed = [list(range(c)) for c in game.strategy_counts]
    eliminated: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for _ in range(rounds):
        new_allowed = []
        new_eliminated = []
        for player in range(n):
            rows = game._opponent_classes(player)[0]
            columns = game._class_columns(player, allowed)
            kept, removed = _surviving(
                [[row[c] for c in columns] for row in rows], allowed[player]
            )
            new_allowed.append(kept)
            new_eliminated.append(removed)
        if new_allowed == allowed:
            break
        allowed = new_allowed
        for player in range(n):
            eliminated[player].extend(new_eliminated[player])
    return [
        RationalSet(player, tuple(allowed[player]), tuple(eliminated[player]))
        for player in range(n)
    ]


def rational_restriction(game: Game) -> Restriction:
    """Package every player's surviving set for the solver's RATIONAL mode."""
    return Restriction(
        tuple(rational_set(game, player).allowed for player in range(game.player_count)),
        "rational",
    )
