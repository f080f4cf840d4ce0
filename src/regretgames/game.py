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

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

from .errors import InputError
from .rational import (coerce_rational, format_rational, over_lcm, rational_column,
                       rational_parts, strict_int)

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
    return over_lcm([v.numerator for v in values], [v.denominator for v in values])


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
        self._class_cache: dict[int, tuple] = {}

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

    def _opponent_classes(self, player: int):
        """``player``'s payoff rows over the distinct columns of :meth:`payoff_matrix`.

        Returns ``(rows, keys, scale)``: ``rows[s][c]`` is own strategy
        ``s``'s payoff against the ``c``-th distinct opponent column, in
        first-seen order, and ``keys[q]`` is the class of the ``q``-th opponent
        profile, so ``rows[s][keys[q]]`` is ``payoff_matrix(player)[0][s][q]``.
        Worst regrets are maxima over columns and weak dominance compares every
        column, so a repeated column changes neither. When every column is
        distinct, ``rows`` are ``payoff_matrix``'s own. Cached per player, like
        the matrix.
        """
        player = self._validate_player(player)
        cached = self._class_cache.get(player)
        if cached is None:
            rows, scale = self.payoff_matrix(player)
            keys = range(len(rows[0]))
            # distinct hashes prove distinct columns without holding them all
            if len(set(map(hash, zip(*rows)))) < len(keys):
                classes: dict[tuple, int] = {}
                keys = [classes.setdefault(column, len(classes)) for column in zip(*rows)]
                if len(classes) < len(keys):
                    rows = tuple(zip(*classes))
            cached = self._class_cache[player] = (rows, keys, scale)
        return cached

    def _class_columns(self, player: int, allowed) -> list[int]:
        """The classes of :meth:`_opponent_classes` that the opponent profiles
        with choices in ``allowed`` (one set per player) fall in, ascending."""
        keys = self._opponent_classes(player)[1]
        positions = [0]  # in player's lexicographic opponent enumeration
        for j, count in enumerate(self._counts):
            if j != player:
                positions = [p * count + c for p in positions for c in allowed[j]]
        return sorted(set(map(keys.__getitem__, positions)))

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


#: The types that payoff tables nest and that JSON writes as arrays.
_SEQUENCES = {list, tuple}


def make_dense_game(strategy_counts, payoff_table, labels=None) -> Game:
    """Build a game from a nested payoff table.

    The table nests one level per player in player order; the innermost lists
    hold one exact rational per player ("p/q" strings or integers). Dimension
    errors name the offending axis.

    The cells are collected one level at a time and each player's column is
    parsed at once by :func:`rational_column`. Only when that fails is the
    table read again cell by cell, so that the first bad entry in cell order
    is the one an error names.
    """
    counts = _checked_counts(strategy_counts)
    cells = _cells(counts, payoff_table)
    parsed = []
    for player in range(len(counts)) if cells is not None else ():
        column = rational_column(list(map(operator.itemgetter(player), cells)))
        if column is None:
            break
        parsed.append(column)
    if len(parsed) != len(counts):
        parsed = _parsed_in_cell_order(counts, payoff_table)
    columns, scales = zip(*parsed)
    return Game(counts, columns=columns, scales=scales, labels=labels)


def _cells(counts, table):
    """The cells of a payoff table in lex order; ``None`` if any list is not a
    list or tuple of the length its axis needs."""
    level = [table]
    for count in counts:
        if not _lists_of(level, count):
            return None
        level = list(itertools.chain.from_iterable(level))
    return level if _lists_of(level, len(counts)) else None


def _lists_of(nodes, length: int) -> bool:
    return _SEQUENCES.issuperset(map(type, nodes)) and set(map(len, nodes)) == {length}


def _parsed_in_cell_order(counts, table) -> list[tuple[list[int], int]]:
    """Each player's numerators and scale, read cell by cell in lex order with
    :func:`rational_parts`; :class:`InputError` names the first bad entry."""
    n = len(counts)
    parts: list[tuple[int, int]] = []  # (numerator, denominator), cell by cell
    stack = [(table, ())]
    while stack:
        node, path = stack.pop()
        depth = len(path)
        if depth == n:
            if not isinstance(node, (list, tuple)) or len(node) != n:
                raise InputError(
                    f"cell at {path} must list {n} payoffs, got {node!r}"
                )
            parts.extend(map(rational_parts, node))
            continue
        if not isinstance(node, (list, tuple)) or len(node) != counts[depth]:
            have = len(node) if isinstance(node, (list, tuple)) else node
            raise InputError(
                f"axis {depth} (player {depth}) expects {counts[depth]} entries, "
                f"got {have!r} at {path}"
            )
        stack.extend((node[i], path + (i,)) for i in range(len(node) - 1, -1, -1))
    return [over_lcm(*zip(*parts[p::n])) for p in range(n)]


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
    Path(path).write_text(json_text(game_to_json(game)) + "\n", encoding="utf-8")


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


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, built without recursion.

    With ``indent`` the standard library writes JSON through one Python
    generator per nesting level, which is slow on payoff grids and fails past
    the recursion limit. Here dicts and lists are walked in document order on
    an explicit stack. The containers that need no stack frame, dicts of atoms
    and lists nested only in lists down to atoms, are written at once by
    :func:`_flat_dict` and :func:`_nested_lists`. Values of any other type
    go to ``json.dumps``, so they fail as they do there.
    """
    out: list[str] = []
    stack = []  # (entries, is_dict, separator, closing text, id) per open container
    open_ids = set()  # json.dumps's check for a container that holds itself
    value, depth = obj, 0
    while True:
        if _write_inline(value, depth, out):
            prefix = None  # the next entry takes its container's separator
        else:
            if id(value) in open_ids:
                raise ValueError("Circular reference detected")
            open_ids.add(id(value))
            is_dict = isinstance(value, dict)
            newline = _newline(depth + 1)
            prefix = ("{" if is_dict else "[") + newline
            stack.append((iter(value.items() if is_dict else value), is_dict, "," + newline,
                          _newline(depth) + ("}" if is_dict else "]"), id(value)))
            depth += 1
        while stack:
            entries, is_dict, separator, closing, marker = stack[-1]
            entry = next(entries, _END)
            if entry is not _END:
                break
            out.append(closing)
            stack.pop()
            open_ids.remove(marker)
            depth, prefix = depth - 1, None
        else:
            return "".join(out)
        if prefix is None:
            prefix = separator
        if is_dict:
            key, entry = entry
            prefix = f"{prefix}{_ESCAPE(key) if type(key) is str else _key(key)}: "
        out.append(prefix)
        value = entry


_END = object()
_ESCAPE = json.encoder.encode_basestring_ascii
#: How json writes each atom type; subclasses take the slower :func:`_scalar`.
_ATOMS = {
    str: _ESCAPE,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}

#: Lists nested deeper than this are left to the stack walk of
#: :func:`json_text`, because :func:`_nested_lists` copies the text once per
#: level. A grid of 10**6 cells has at most 20 levels of two or more entries.
_MAX_LEVELS = 32


@functools.lru_cache(maxsize=64)
def _newline(depth: int) -> str:
    return "\n" + "  " * depth


def _write_inline(value, depth: int, out: list) -> bool:
    """Append the JSON text of ``value`` at ``depth`` to ``out`` if it needs no
    stack frame: an atom, an empty container, a list of lists of atoms, or a
    dict whose values are all of those. Returns whether it did."""
    kind = type(value)
    if kind in _ATOMS:
        out.append(_ATOMS[kind](value))
    elif isinstance(value, (list, tuple)):
        if value:
            return _nested_lists(value, depth, out)
        out.append("[]")
    elif isinstance(value, dict):
        if value:
            return _flat_dict(value, depth, out)
        out.append("{}")
    else:
        out.append(_scalar(value))
    return True


def _scalar(value) -> str:
    """JSON text of a value that is not an atom of an exact type, a list, a
    tuple or a dict, as json writes it."""
    if isinstance(value, str):
        return _ESCAPE(value)
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)  # floats; any other type raises json's TypeError


def _key(key) -> str:
    """A dict key as json writes it: a str, or a number, bool or None as text."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
        key = json.dumps(key)
    return _ESCAPE(key)


def _flat_dict(obj: dict, depth: int, out: list) -> bool:
    """Append the JSON text of a dict whose values are atoms or lists of lists
    of atoms to ``out``; append nothing and return False for any other dict."""
    start = len(out)
    newline = _newline(depth + 1)
    prefix, separator = "{" + newline, "," + newline
    for key, value in obj.items():
        out.append(f"{prefix}{_ESCAPE(key) if type(key) is str else _key(key)}: ")
        prefix = separator
        kind = type(value)
        if kind in _ATOMS:
            out.append(_ATOMS[kind](value))
        elif (isinstance(value, dict) and value) or not _write_inline(value, depth + 1, out):
            del out[start:]
            return False
    out.append(_newline(depth) + "}")
    return True


def _nested_lists(root, depth: int, out: list) -> bool:
    """Append the JSON text of a list nested only in non-empty lists, down to
    atoms, to ``out``; append nothing and return False for any other list.

    The lists are flattened one level at a time with ``itertools.chain``, the
    atoms are written in one pass, and then each level, from the deepest up,
    is one join per list of its slice of the level below.
    """
    if type(root[0]) in _ATOMS:  # a flat list, the most common case
        texts = _atom_texts(root)
        if texts is None:
            return False
        newline = _newline(depth + 1)
        out.append(f"[{newline}{(',' + newline).join(texts)}{_newline(depth)}]")
        return True
    lists = list(root)
    sizes = [[len(lists)]]  # per level, the entry count of each list on it
    parents, held = {id(root)}, 1  # lists that hold lists; one met twice is left to the walk
    while True:
        if not set(map(type, lists)) <= _SEQUENCES:
            return False
        counts = list(map(len, lists))
        if 0 in counts or len(sizes) == _MAX_LEVELS:
            return False
        sizes.append(counts)
        entries = list(itertools.chain.from_iterable(lists))
        if type(entries[0]) in _ATOMS:
            break
        parents.update(map(id, lists))
        held += len(lists)
        if len(parents) != held:
            return False
        lists = entries
    texts = _atom_texts(entries)
    if texts is None:
        return False
    del entries, lists
    # A list's text is the openings of its first descendants, its core, and
    # the closings of its last ones. Moving the inner openings and closings
    # into the separator of each level makes a level one join per list.
    openings = ["[" + _newline(depth + level + 1) for level in range(len(sizes))]
    closings = [_newline(depth + level) + "]" for level in range(len(sizes))][::-1]
    for level in range(len(sizes) - 1, -1, -1):
        separator = "".join((*closings[:-level - 1], ",", _newline(depth + level + 1),
                             *openings[level + 1:]))
        counts = sizes[level]
        if counts.count(counts[0]) == len(counts):  # a grid: lists of one length
            groups = zip(*[iter(texts)] * counts[0])
        else:
            groups = map(itertools.islice, itertools.repeat(iter(texts)), counts)
        texts = list(map(separator.join, groups))
    out += ("".join(openings), texts[0], "".join(closings))
    return True


def _atom_texts(atoms):
    """The JSON texts of a list of atoms; ``None`` if it holds anything else."""
    if type(atoms[0]) is str:
        try:
            return list(map(_ESCAPE, atoms))
        except TypeError:  # not all strs
            pass
    escape, write = _ESCAPE, _ATOMS.__getitem__
    try:
        return [escape(v) if type(v) is str else write(type(v))(v) for v in atoms]
    except KeyError:
        return None


def load_game(path) -> Game:
    return game_from_json(read_json(path))
