"""Finite normal-form games with exact rational payoffs.

Games are immutable once built and hold a dense payoff table. Nothing ever
rounds. The API takes and returns exact rationals (ints or
:class:`fractions.Fraction`); inside, a game keeps each player's
payoffs as Python ``int`` numerators over one positive common denominator per
player, its *scale*. Regret and dominance only subtract and compare one
player's payoffs, so the solver and the dominance scans work on those
numerators and divide by the scale once, when they report.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

from .errors import InputError
from .rational import coerce_rational, format_rational, rational_parts, strict_int

#: Cap on the payoff cells of the games the package builds: the auction of
#: ``make_bidding_game`` and the expansion of ``expand_sequence``, which also
#: holds each player's history strategies to it. Both raise ``SizeError``
#: above it before allocating.
DEFAULT_DENSE_CAP = 10**6


@dataclass(frozen=True)
class OpponentProfile:
    """Strategy choices for everyone except ``player``, in ascending player order."""

    player: int
    choices: tuple[int, ...]

    def combine(self, own_choice: int) -> tuple[int, ...]:
        """Insert ``own_choice`` at the excluded player's slot, giving a full profile."""
        full = list(self.choices)
        full.insert(self.player, own_choice)
        return tuple(full)


@dataclass(frozen=True)
class Restriction:
    """Allowed strategy index sets per player.

    Restrictions describe the universe of opponent behavior a worst case is
    taken over. ``label`` tags where the sets came from ("full", "rational",
    or "custom") and is echoed in reports.
    """

    allowed: tuple[tuple[int, ...], ...]
    label: str = "custom"

    def __post_init__(self):
        normalized = tuple(tuple(sorted(set(s))) for s in self.allowed)
        object.__setattr__(self, "allowed", normalized)

    def validate_for(self, game: "Game") -> None:
        if len(self.allowed) != game.player_count:
            raise InputError(
                f"restriction covers {len(self.allowed)} players, game has {game.player_count}"
            )
        for player, strategies in enumerate(self.allowed):
            if not strategies:
                raise InputError(f"restriction allows no strategies for player {player}")
            for s in strategies:
                if not 0 <= s < game.strategy_counts[player]:
                    raise InputError(
                        f"restriction lists strategy {s} for player {player}, "
                        f"valid range is 0..{game.strategy_counts[player] - 1}"
                    )


def _checked_counts(strategy_counts) -> tuple[int, ...]:
    counts = tuple(strict_int(c, "strategy count") for c in strategy_counts)
    if len(counts) < 2:
        raise InputError(f"a game needs at least 2 players, got {len(counts)}")
    if any(c < 1 for c in counts):
        raise InputError(f"every player needs at least one strategy, got {counts}")
    return counts


def _scaled(values) -> tuple[list[int], int]:
    """Exact rationals as (int numerators, their least common denominator)."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise InputError(f"payoff {v!r} is not an exact rational (int or Fraction)")
    return _over_lcm([v.numerator for v in values], [v.denominator for v in values])


def _over_lcm(numerators, denominators) -> tuple[list[int], int]:
    """The fractions ``n / d`` as int numerators over their least common denominator."""
    scale = math.lcm(*set(denominators))
    return [n * (scale // d) for n, d in zip(numerators, denominators)], scale


#: Cells per ``math.gcd`` call in :func:`_reduced`, which stops at gcd 1.
_GCD_CHUNK = 256


def _reduced(column, scale: int) -> tuple[list[int], int]:
    """Numerators and their denominator divided by their gcd."""
    if scale < 1:
        raise InputError(f"payoff denominators must be positive, got {scale}")
    divisor = scale
    for start in range(0, len(column), _GCD_CHUNK):
        divisor = math.gcd(divisor, *column[start:start + _GCD_CHUNK])
        if divisor == 1:  # no later cell can raise it again
            return column, scale
    return [v // divisor for v in column], scale // divisor


class Game:
    """An n-player finite game (n >= 2) with exact rational utilities.

    A game is built from ``columns`` and ``scales``: ``columns[p]`` lists
    player ``p``'s int numerators over all profiles in lexicographic order and
    ``scales[p]`` is their positive denominator. Each pair is stored reduced
    by its gcd, so equal games have equal numerators however they were built.
    """

    def __init__(self, strategy_counts: Sequence[int], *, columns, scales, labels=None):
        counts = _checked_counts(strategy_counts)
        self._counts = counts
        self._labels = self._check_labels(labels, counts)
        # strides for flattening profiles in lexicographic order
        strides = [1] * len(counts)
        for i in range(len(counts) - 2, -1, -1):
            strides[i] = strides[i + 1] * counts[i + 1]
        self._strides = tuple(strides)
        if len(columns) != len(counts) or len(scales) != len(counts) or any(
            len(column) != self.profile_count for column in columns
        ):
            raise InputError(
                f"a game needs {len(counts)} payoff columns of {self.profile_count} entries "
                f"and {len(counts)} scales"
            )
        self._columns, self._scales = zip(*map(_reduced, columns, scales))
        self._matrix_cache: dict[int, tuple] = {}

    @staticmethod
    def _check_labels(labels, counts):
        if labels is None:
            return None
        if not isinstance(labels, (list, tuple)) or len(labels) != len(counts):
            raise InputError("labels must list one label set per player")
        out = []
        for i, per_player in enumerate(labels):
            if not isinstance(per_player, (list, tuple)) or not all(
                isinstance(x, str) for x in per_player
            ):
                raise InputError(f"labels of player {i} must be a list of strings")
            per_player = tuple(per_player)
            if len(per_player) != counts[i]:
                raise InputError(
                    f"player {i} has {counts[i]} strategies but {len(per_player)} labels"
                )
            out.append(per_player)
        return tuple(out)

    @classmethod
    def from_cells(cls, strategy_counts, cells, labels=None) -> "Game":
        """Build a dense game from a flat lex-ordered list of payoff tuples.

        Payoffs are ints or Fractions; each player's are stored as numerators
        over the least common denominator of that player's payoffs.
        """
        counts = _checked_counts(strategy_counts)
        cells = list(cells)
        expected = math.prod(counts)
        if len(cells) != expected:
            raise InputError(f"expected {expected} cells, got {len(cells)}")
        n = len(counts)
        if any(len(cell) != n for cell in cells):
            raise InputError(f"every payoff cell must list {n} payoffs")
        columns, scales = zip(*(_scaled(values) for values in zip(*cells)))
        return cls(counts, columns=columns, scales=scales, labels=labels)

    # -- basic shape -------------------------------------------------------

    @property
    def player_count(self) -> int:
        return len(self._counts)

    @property
    def strategy_counts(self) -> tuple[int, ...]:
        return self._counts

    @property
    def strategy_labels(self):
        return self._labels

    @property
    def profile_count(self) -> int:
        return math.prod(self._counts)

    def profiles(self) -> Iterator[tuple[int, ...]]:
        """All strategy profiles in lexicographic order."""
        return itertools.product(*(range(c) for c in self._counts))

    def _flat_index(self, profile) -> int:
        return sum(c * s for c, s in zip(profile, self._strides))

    def validate_profile(self, profile) -> tuple[int, ...]:
        profile = tuple(profile)
        if len(profile) != self.player_count:
            raise InputError(
                f"profile length {len(profile)} does not match {self.player_count} players"
            )
        for i, choice in enumerate(profile):
            if not isinstance(choice, int) or isinstance(choice, bool):
                raise InputError(f"profile entry for player {i} is not an integer: {choice!r}")
            if not 0 <= choice < self._counts[i]:
                raise InputError(
                    f"strategy {choice} out of range 0..{self._counts[i] - 1} for player {i}"
                )
        return profile

    def _validate_player(self, player) -> int:
        if not isinstance(player, int) or isinstance(player, bool):
            raise InputError(f"player index must be an integer, got {player!r}")
        if not 0 <= player < self.player_count:
            raise InputError(f"player {player} out of range 0..{self.player_count - 1}")
        return player

    # -- payoff access -----------------------------------------------------

    def payoff(self, profile, player: int) -> Fraction:
        """Utility of ``player`` at ``profile``."""
        profile = self.validate_profile(profile)
        player = self._validate_player(player)
        return Fraction(self._columns[player][self._flat_index(profile)], self._scales[player])

    def payoff_cell(self, profile) -> tuple[Fraction, ...]:
        """All players' utilities at ``profile``."""
        index = self._flat_index(self.validate_profile(profile))
        return tuple(
            Fraction(column[index], scale) for column, scale in zip(self._columns, self._scales)
        )

    # -- enumeration and best responses -------------------------------------

    def opponent_profiles(self, player: int) -> Iterator[OpponentProfile]:
        """Everyone-but-``player`` choice combinations, lexicographic in player order."""
        player = self._validate_player(player)
        others = [c for i, c in enumerate(self._counts) if i != player]
        for choices in itertools.product(*(range(c) for c in others)):
            yield OpponentProfile(player, choices)

    def best_response_value(self, player: int, opponents) -> Fraction:
        """Highest utility ``player`` can get against fixed opponent choices."""
        player = self._validate_player(player)
        if isinstance(opponents, OpponentProfile):
            if opponents.player != player:
                raise InputError(
                    f"opponent profile excludes player {opponents.player}, not {player}"
                )
            choices = opponents.choices
        else:
            choices = tuple(opponents)
        opp = OpponentProfile(player, choices)
        return max(self.payoff(opp.combine(t), player) for t in range(self._counts[player]))

    def payoff_matrix(self, player: int):
        """``player``'s payoffs as int rows over one denominator.

        Returns ``(rows, scale)``: ``rows[s][q] / scale`` is the payoff of own
        strategy ``s`` against the ``q``-th opponent profile in lexicographic
        order, and ``scale`` is a positive int. Regrets and dominance read off
        the rows equal the true ones times ``scale``. The rows are built once
        per player and cached; games are immutable so the cache never
        invalidates.
        """
        player = self._validate_player(player)
        cached = self._matrix_cache.get(player)
        if cached is None:
            column, scale = self._column(player)
            cached = self._matrix_cache[player] = (self._split_rows(column, player), scale)
        return cached

    def _column(self, player: int) -> tuple[list[int], int]:
        """``player``'s numerators over all profiles in lex order, and their scale."""
        return self._columns[player], self._scales[player]

    def _split_rows(self, column, player: int) -> tuple[tuple, ...]:
        # In lex order a profile's index is outer * block + s * stride + inner,
        # and its opponent index is outer * stride + inner.
        count, stride = self._counts[player], self._strides[player]
        if stride == 1:
            return tuple(tuple(column[s::count]) for s in range(count))
        block = count * stride
        return tuple(
            tuple(itertools.chain.from_iterable(
                column[outer + s * stride: outer + (s + 1) * stride]
                for outer in range(0, len(column), block)
            ))
            for s in range(count)
        )

    def _opponent_indices(self, player: int, allowed) -> list[int]:
        """Positions, in ``player``'s lexicographic opponent enumeration, of the
        opponent profiles whose choices lie in ``allowed`` (one set per player)."""
        others = [j for j in range(self.player_count) if j != player]
        strides = [1] * len(others)
        for i in range(len(others) - 2, -1, -1):
            strides[i] = strides[i + 1] * self._counts[others[i + 1]]
        return [
            sum(choice * stride for choice, stride in zip(combo, strides))
            for combo in itertools.product(*(allowed[j] for j in others))
        ]

    # -- transforms ----------------------------------------------------------

    def affine_transform(self, player: int, scale, shift) -> "Game":
        """New game with this player's utilities mapped to ``scale*u + shift``."""
        player = self._validate_player(player)
        scale = coerce_rational(scale, "scale")
        shift = coerce_rational(shift, "shift")
        if scale <= 0:
            raise InputError(f"scale must be positive, got {scale}")
        # (a/b) * (v/s) + c/d = (a*d*v + c*b*s) / (b*d*s)
        own = self._scales[player]
        factor = scale.numerator * shift.denominator
        offset = shift.numerator * scale.denominator * own
        columns, scales = list(self._columns), list(self._scales)
        columns[player] = [factor * v + offset for v in columns[player]]
        scales[player] = scale.denominator * shift.denominator * own
        return Game(self._counts, columns=columns, scales=scales, labels=self._labels)

    # -- equality ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return (
            self._counts == other._counts
            and self._labels == other._labels
            and self._scales == other._scales
            and self._columns == other._columns
        )

    def __repr__(self):
        return f"Game(players={self.player_count}, strategies={self._counts})"


def make_dense_game(strategy_counts, payoff_table, labels=None) -> Game:
    """Build a game from a nested payoff table.

    The table nests one level per player in player order; the innermost lists
    hold one exact rational per player ("p/q" strings or integers). Dimension
    errors name the offending axis.
    """
    counts = _checked_counts(strategy_counts)
    n = len(counts)
    parts: list[tuple[int, int]] = []  # (numerator, denominator), cell by cell

    def walk(node, depth, path):
        if depth == n:
            if not isinstance(node, (list, tuple)) or len(node) != n:
                raise InputError(
                    f"cell at {path} must list {n} payoffs, got {node!r}"
                )
            parts.extend(map(rational_parts, node))
            return
        if not isinstance(node, (list, tuple)) or len(node) != counts[depth]:
            have = len(node) if isinstance(node, (list, tuple)) else node
            raise InputError(
                f"axis {depth} (player {depth}) expects {counts[depth]} entries, "
                f"got {have!r} at {path}"
            )
        for i, child in enumerate(node):
            walk(child, depth + 1, path + (i,))

    walk(payoff_table, 0, ())
    columns, scales = zip(*(_over_lcm(*zip(*parts[p::n])) for p in range(n)))
    return Game(counts, columns=columns, scales=scales, labels=labels)


# -- JSON interface ----------------------------------------------------------


def game_to_json(game: Game) -> dict:
    """Serialize a game to the dense JSON form (bit-exact round trip)."""
    counts = game.strategy_counts
    texts = []
    for player in range(game.player_count):
        column, scale = game._column(player)
        texts.append([format_rational(v, scale) for v in column])
    # cells in lex order, grouped into nested lists from the last axis out
    payoffs = [list(cell) for cell in zip(*texts)]
    for count in reversed(counts):
        payoffs = [payoffs[i:i + count] for i in range(0, len(payoffs), count)]

    obj = {
        "players": game.player_count,
        "strategy_counts": list(counts),
    }
    if game.strategy_labels is not None:
        obj["labels"] = [list(ls) for ls in game.strategy_labels]
    obj["payoffs"] = payoffs[0]
    return obj


def game_from_json(obj) -> Game:
    if not isinstance(obj, dict):
        raise InputError(f"game JSON must be an object, got {type(obj).__name__}")
    missing = {"players", "strategy_counts", "payoffs"} - set(obj)
    if missing:
        raise InputError(f"game JSON is missing keys: {sorted(missing)}")
    counts = obj["strategy_counts"]
    if not isinstance(counts, list):
        raise InputError("strategy_counts must be a list")
    if strict_int(obj["players"], "players") != len(counts):
        raise InputError(
            f"players={obj['players']} but strategy_counts lists {len(counts)} players"
        )
    return make_dense_game(counts, obj["payoffs"], labels=obj.get("labels"))


def save_game(game: Game, path) -> None:
    Path(path).write_text(json.dumps(game_to_json(game), indent=2) + "\n", encoding="utf-8")


def read_json(path):
    """The parsed JSON of a file; :class:`InputError` if it cannot be read or parsed."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} is not valid JSON: nested too deeply") from exc


def load_game(path) -> Game:
    return game_from_json(read_json(path))
