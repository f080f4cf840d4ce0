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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .errors import DEFAULT_DENSE_CAP, InputError
from .rational import format_rational, parse_rational, rational_column, strict_int, strict_list


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
        allowed = strict_list(self.allowed, "a restriction must list one strategy set per player")
        allowed = [strict_list(s, f"restriction of player {player} must list strategies")
                   for player, s in enumerate(allowed)]
        normalized = tuple(tuple(sorted({strict_int(i, "a restricted strategy") for i in s}))
                           for s in allowed)
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
    counts = tuple(strict_int(c, "strategy count")
                   for c in strict_list(strategy_counts, "strategy counts must be a list"))
    if len(counts) < 2:
        raise InputError(f"a game needs at least 2 players, got {len(counts)}")
    if any(c < 1 for c in counts):
        raise InputError(f"every player needs at least one strategy, got {counts}")
    return counts


def _check_listed(value, what: str) -> None:
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{what} must be a list, got {value!r}")


#: Cells per ``math.gcd`` call in :func:`_reduced`, which stops at gcd 1.
_GCD_CHUNK = 256


def _reduced(column, scale: int) -> tuple[list[int], int]:
    """Numerators and their denominator divided by their gcd."""
    if strict_int(scale, "a payoff denominator") < 1:
        raise InputError(f"payoff denominators must be positive, got {scale}")
    divisor = scale
    for start in range(0, len(column), _GCD_CHUNK):
        chunk = column[start:start + _GCD_CHUNK]
        try:
            divisor = math.gcd(divisor, *chunk)
        except TypeError:
            bad = next(v for v in chunk if not isinstance(v, int))
            raise InputError(f"a payoff numerator must be an integer, got {bad!r}") from None
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
        _check_listed(columns, "payoff columns")
        _check_listed(scales, "payoff scales")
        for column in columns:
            _check_listed(column, "a payoff column")
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
        # filled by rational_restriction on first use
        self._rational_restriction: Restriction | None = None

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
            classes: dict[tuple, int] = {}
            keys = [classes.setdefault(column, len(classes)) for column in zip(*rows)]
            if len(classes) < len(keys):
                rows = tuple(zip(*classes))
            cached = self._class_cache[player] = (rows, keys, scale)
        return cached

    def _class_rows(self, player: int, allowed):
        """The rows of :meth:`_opponent_classes` cut to the classes that the
        opponent profiles with choices in ``allowed`` (one set per player)
        fall in, ascending; the cached rows themselves when that is every class."""
        rows, keys, _ = self._opponent_classes(player)
        positions = [0]  # in player's lexicographic opponent enumeration
        for j, count in enumerate(self._counts):
            if j != player:
                positions = [p * count + c for p in positions for c in allowed[j]]
        columns = sorted(set(map(keys.__getitem__, positions)))
        return rows if len(columns) == len(rows[0]) else [[row[c] for c in columns] for row in rows]

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

    @classmethod
    def _from_rows(cls, strategy_counts, rows, scales, labels=None) -> "Game":
        """The game whose :meth:`payoff_matrix` of player ``p`` is ``rows[p]``
        over ``scales[p]``; the inverse of :meth:`_split_rows`.

        The columns are filled from the rows by slice assignments and go
        through the constructor. The rows, divided as the constructor divided
        the column, are then kept as the matrix cache.
        """
        counts = _checked_counts(strategy_counts)
        total = math.prod(counts)
        columns, stride = [], total
        for player, (count, player_rows) in enumerate(zip(counts, rows)):
            if len(player_rows) != count or {len(row) for row in player_rows} != {total // count}:
                raise InputError(
                    f"player {player} needs {count} payoff rows of {total // count} entries"
                )
            stride //= count
            block = count * stride
            column = [0] * total
            for s, row in enumerate(player_rows):
                if stride == 1:
                    column[s::count] = row
                    continue
                starts = range(s * stride, total, block)
                for start, outer in zip(starts, range(0, len(row), stride)):
                    column[start:start + stride] = row[outer:outer + stride]
            columns.append(column)
        game = cls(counts, columns=columns, scales=scales, labels=labels)
        for player, (player_rows, scale) in enumerate(zip(rows, scales)):
            divisor = scale // game._scales[player]
            if divisor > 1:
                player_rows = [[v // divisor for v in row] for row in player_rows]
            game._matrix_cache[player] = (tuple(map(tuple, player_rows)), game._scales[player])
        return game

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

    The table nests one level per player in player order, in lists or
    tuples; the innermost lists hold one exact rational per player (ints,
    Fractions or "p/q" strings). Dimension errors name the offending axis.

    The cells are collected one level at a time and the whole table is
    parsed at once by :func:`rational_column`, in cell order, over one
    denominator; :class:`Game` then reduces each player's column to its own.
    When either step fails, :func:`_raise_first_error` names the first bad
    entry in cell order.
    """
    counts = _checked_counts(strategy_counts)
    cells = _cells(counts, payoff_table)
    parsed = None if cells is None else rational_column(list(itertools.chain.from_iterable(cells)))
    if parsed is None:
        _raise_first_error(counts, payoff_table)
    flat, scale = parsed
    n = len(counts)
    return Game(counts, columns=[flat[p::n] for p in range(n)], scales=[scale] * n, labels=labels)


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


def _raise_first_error(counts, table) -> None:
    """Walk a payoff table cell by cell in lex order and raise the
    :class:`InputError` of its first bad entry.

    Its tests are those of :func:`_cells` and :func:`rational_column`, so it
    raises whenever either of them fails.
    """
    n = len(counts)
    stack = [(table, ())]
    while stack:
        node, path = stack.pop()
        depth = len(path)
        is_list = type(node) in _SEQUENCES
        if depth == n:
            if not is_list or len(node) != n:
                raise InputError(f"cell at {path} must list {n} payoffs, got {node!r}")
            for value in node:
                parse_rational(value)
        elif not is_list or len(node) != counts[depth]:
            raise InputError(
                f"axis {depth} (player {depth}) expects {counts[depth]} entries, "
                f"got {len(node) if is_list else node!r} at {path}"
            )
        else:
            stack.extend((node[i], path + (i,)) for i in range(len(node) - 1, -1, -1))


# -- JSON interface ----------------------------------------------------------


def game_to_json(game: Game) -> dict:
    """Serialize a game to the dense JSON form (bit-exact round trip).

    Each distinct numerator of a scale is formatted once, into that scale's
    memo, and every cell is read from the memo; players on different scales
    never share one.
    """
    counts = game.strategy_counts
    texts, memos = [], {}
    for player in range(game.player_count):
        column, scale = game._column(player)
        memo = memos.setdefault(scale, {})
        unseen = set(column).difference(memo)
        memo.update(zip(unseen, map(format_rational, unseen, itertools.repeat(scale))))
        texts.append(list(map(memo.__getitem__, column)))
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
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} is not valid JSON: nested too deeply") from exc


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, built without recursion.

    The domain is what the package writes: dicts with str keys, lists,
    tuples, strs, ints, bools and None, each of exactly that type. Any other
    value raises json's ``TypeError``, and so does a key that is not a str.
    With ``indent`` the standard library writes JSON through one Python
    generator per nesting level, which is slow on payoff grids and fails past
    the recursion limit. Here dicts and lists are walked in document order on
    an explicit stack, and lists nested only in lists down to atoms are
    written at once by :func:`_nested_lists`.
    """
    out: list[str] = []
    stack = []  # (entries, is_dict, separator, closing text) per open container
    value, depth = obj, 0
    while True:
        kind, prefix = type(value), None  # None: the next entry takes its container's separator
        if kind in _ATOMS:
            out.append(_ATOMS[kind](value))
        elif kind not in _BRACKETS:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        elif not value:
            out.append(_BRACKETS[kind])
        elif kind is dict or not _nested_lists(value, depth, out):
            is_dict = kind is dict
            newline = _newline(depth + 1)
            prefix = _BRACKETS[kind][0] + newline
            stack.append((iter(value.items() if is_dict else value), is_dict, "," + newline,
                          _newline(depth) + _BRACKETS[kind][1]))
            depth += 1
        while stack:
            entries, is_dict, separator, closing = stack[-1]
            entry = next(entries, _END)
            if entry is not _END:
                break
            out.append(closing)
            stack.pop()
            depth, prefix = depth - 1, None
        else:
            return "".join(out)
        if prefix is None:
            prefix = separator
        if is_dict:
            key, entry = entry
            prefix = f"{prefix}{_ESCAPE(key)}: "  # a TypeError unless key is a str
        out.append(prefix)
        value = entry


_END = object()
_ESCAPE = json.encoder.encode_basestring_ascii
#: How json writes each atom type.
_ATOMS = {
    str: _ESCAPE,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
#: The containers' brackets, which are also their empty texts.
_BRACKETS = {list: "[]", tuple: "[]", dict: "{}"}

#: Lists nested deeper than this are left to the stack walk of
#: :func:`json_text`, because :func:`_nested_lists` copies the text once per
#: level. A grid of 10**6 cells has at most 20 levels of two or more entries.
_MAX_LEVELS = 32


@functools.lru_cache(maxsize=64)
def _newline(depth: int) -> str:
    return "\n" + "  " * depth


def _nested_lists(root, depth: int, out: list) -> bool:
    """Append the JSON text of a list nested only in non-empty lists, down to
    atoms, to ``out``; append nothing and return False for any other list.

    The lists are flattened one level at a time with ``itertools.chain``, the
    atoms are written in one pass, and then each level, from the deepest up,
    is one join per list of its slice of the level below.
    """
    entries, sizes = root, [[len(root)]]  # per level, the entry count of each list on it
    while type(entries[0]) not in _ATOMS:
        if not _SEQUENCES.issuperset(map(type, entries)):
            return False
        counts = list(map(len, entries))
        if 0 in counts or len(sizes) == _MAX_LEVELS:
            return False
        sizes.append(counts)
        entries = list(itertools.chain.from_iterable(entries))
    try:
        texts = list(map(_ESCAPE, entries))
    except TypeError:  # not all strs
        try:
            texts = [_ATOMS[type(v)](v) for v in entries]
        except KeyError:
            return False
    del entries
    if len(sizes) == 1:  # a flat list, the most common case
        newline = _newline(depth + 1)
        out.append(f"[{newline}{(',' + newline).join(texts)}{_newline(depth)}]")
        return True
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


def load_game(path) -> Game:
    return game_from_json(read_json(path))
