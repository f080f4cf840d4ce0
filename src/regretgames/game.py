"""Finite normal-form games with exact rational payoffs.

Games are immutable once built and hold a dense payoff table. Nothing ever
rounds. The API takes and returns exact rationals (ints or
:class:`fractions.Fraction`); inside, a game keeps each player's
payoffs as Python ``int`` numerators, one row per own strategy over the
others' profiles, over one positive common denominator per player, its
*scale*. Regret and dominance only subtract and compare one
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


def _lex_strides(counts) -> tuple[int, ...]:
    """Each player's stride in the lex profile index: the product of the later counts."""
    return tuple(itertools.accumulate(counts[:0:-1], operator.mul, initial=1))[::-1]


def _check_listed(value, what: str) -> None:
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{what} must be a list, got {value!r}")


def _reduced(rows, scale: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows of numerators, as tuples, and their denominator divided by their
    gcd. The gcd reads every cell, and is what checks that each is an int."""
    if strict_int(scale, "a payoff denominator") < 1:
        raise InputError(f"payoff denominators must be positive, got {scale}")
    rows = tuple(map(tuple, rows))  # a tuple row is kept as it is
    divisor = scale
    for row in rows:
        try:
            divisor = math.gcd(divisor, *row)
        except TypeError:
            bad = next(v for v in row if not isinstance(v, int))
            raise InputError(f"a payoff numerator must be an integer, got {bad!r}") from None
    if divisor > 1:
        rows = tuple(tuple(v // divisor for v in row) for row in rows)
    return rows, scale // divisor


def _check_keys(keys, profiles: int, classes: int) -> None:
    """Check that ``keys`` gives each of ``profiles`` opponent profiles one of
    ``classes`` classes, and that every class is some profile's."""
    _check_listed(keys, "class keys")
    if not classes:
        raise InputError("the class rows are empty")
    if len(keys) != profiles:
        raise InputError(f"a keyed game needs {profiles} class keys, got {len(keys)}")
    if not {int}.issuperset(map(type, keys)):
        bad = next(key for key in keys if type(key) is not int)
        raise InputError(f"a class key must be an int, got {bad!r}")
    used = set(keys)
    if min(used) < 0 or max(used) >= classes:
        bad = min(used) if min(used) < 0 else max(used)
        raise InputError(f"class key {bad} is outside 0..{classes - 1}")
    if len(used) < classes:
        unused = min(set(range(classes)) - used)
        raise InputError(f"no class key refers to class column {unused}")


def _classes(rows, keys, reached):
    """The :meth:`Game._opponent_classes` ``(rows, keys)`` of ``rows`` over
    classes, the class ``keys[q]`` of each opponent profile and the classes
    in the order the keys first reach them, ``reached`` (plain rows have
    ``keys = reached = range(width)``): the distinct class columns in that
    order, as the ``rows`` given when that is every column in order."""
    columns = list(zip(*rows))
    numbers: dict[tuple, int] = {}  # each distinct column's class in the view
    renumbered, picked = {}, []  # picked: each class's first key
    for key in reached:
        renumbered[key] = number = numbers.setdefault(columns[key], len(numbers))
        if number == len(picked):
            picked.append(key)
    if picked != list(range(len(columns))):
        rows = tuple(map(_gatherer(picked), rows))
    return rows, list(map(renumbered.__getitem__, keys))


def _gatherer(keys):
    """A function from a class row to the full row that ``keys`` selects, as a tuple."""
    if len(keys) == 1:  # an itemgetter of one index returns the item, not a tuple
        return lambda row, key=keys[0]: (row[key],)
    return operator.itemgetter(*keys)


class Game:
    """An n-player finite game (n >= 2) with exact rational utilities.

    A game is built from ``rows`` and ``scales``, the layout of
    :meth:`payoff_matrix`: ``rows[p][s][q]`` is player ``p``'s int numerator
    for own strategy ``s`` against the ``q``-th profile of the others in
    lexicographic order, and ``scales[p]`` is their positive denominator.
    Each player's rows are stored reduced by their gcd, so equal games have
    equal numerators however they were built.

    With ``keys``, ``rows[p][s][c]`` is instead the numerator against the
    opponent *class* ``c``, and ``keys[q]`` is the class of every player's
    ``q``-th opponent profile; every class must be the class of some profile.
    A keyed game gives every player one strategy count and class rows of one
    width, so one key list serves every player. The class rows are reduced
    and the full rows gathered from them are stored. The constructor derives
    every :meth:`_opponent_classes` view from the rows it is given, so no
    solve of a keyed game hashes its full rows.
    """

    def __init__(self, strategy_counts: Sequence[int], *, rows, scales, labels=None,
                 keys=None):
        counts = _checked_counts(strategy_counts)
        self._counts = counts
        self._labels = self._check_labels(labels, counts)
        self._strides = _lex_strides(counts)
        _check_listed(rows, "payoff rows")
        _check_listed(scales, "payoff scales")
        if len(rows) != len(counts) or len(scales) != len(counts):
            raise InputError(f"a game needs the payoff rows of {len(counts)} players "
                             f"and {len(counts)} scales")
        total = self.profile_count
        for player, (count, player_rows) in enumerate(zip(counts, rows)):
            _check_listed(player_rows, f"the payoff rows of player {player}")
            for row in player_rows:
                _check_listed(row, "a payoff row")
            if keys is None:
                width = total // count
                if len(player_rows) != count or any(len(row) != width for row in player_rows):
                    raise InputError(
                        f"player {player} needs {count} payoff rows of {width} entries")
            elif len(player_rows) != count:
                raise InputError(f"player {player} needs {count} class rows")
        if keys is not None:
            widths = sorted({len(row) for player_rows in rows for row in player_rows})
            if len(set(counts)) > 1 or len(widths) > 1:
                raise InputError(f"a keyed game needs one strategy count and one class row "
                                 f"width, got counts {list(counts)} and widths {widths}")
            _check_keys(keys, total // counts[0], widths[0])
        reduced, self._scales = zip(*map(_reduced, rows, scales))
        if keys is None:
            self._rows = reduced
            player_keys = [(range(total // count),) * 2 for count in counts]
        else:
            gather = _gatherer(keys)
            self._rows = tuple(tuple(map(gather, class_rows)) for class_rows in reduced)
            player_keys = [(keys, dict.fromkeys(keys))] * len(counts)
        self._class_views = tuple(
            (*_classes(class_rows, *keyed), scale)
            for class_rows, keyed, scale in zip(reduced, player_keys, self._scales))
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
        # In lex order a profile's index is outer * block + s * stride + inner,
        # and its opponent index is outer * stride + inner.
        flat, stride = self._flat_index(profile), self._strides[player]
        opponents = flat // (self._counts[player] * stride) * stride + flat % stride
        return Fraction(self._rows[player][profile[player]][opponents], self._scales[player])

    def payoff_matrix(self, player: int):
        """``player``'s payoffs as int rows over one denominator.

        Returns ``(rows, scale)``: ``rows[s][q] / scale`` is the payoff of own
        strategy ``s`` against the ``q``-th opponent profile in lexicographic
        order, and ``scale`` is a positive int. Regrets and dominance read off
        the rows equal the true ones times ``scale``. These are the rows the
        game stores.
        """
        player = self._validate_player(player)
        return self._rows[player], self._scales[player]

    def _opponent_classes(self, player: int):
        """``player``'s payoff rows over the distinct columns of :meth:`payoff_matrix`.

        Returns ``(rows, keys, scale)``: ``rows[s][c]`` is own strategy
        ``s``'s payoff against the ``c``-th distinct opponent column, in
        first-seen order, and ``keys[q]`` is the class of the ``q``-th opponent
        profile, so ``rows[s][keys[q]]`` is ``payoff_matrix(player)[0][s][q]``.
        Worst regrets are maxima over columns and weak dominance compares every
        column, so a repeated column changes neither. Derived once, at build,
        by :func:`_classes`; ``rows`` are the game's rows as given, reduced,
        when their columns are distinct and in first-seen order.
        """
        self.payoff_matrix(player)  # checks player; bench/ counts each view read by this call
        return self._class_views[player]

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

    # -- equality ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return (
            self._counts == other._counts
            and self._labels == other._labels
            and self._scales == other._scales
            and self._rows == other._rows
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
    denominator. Each player's numerators are split into its rows by
    :func:`_split_rows`, and :class:`Game` reduces them to the player's own
    denominator. When either step fails, :func:`_raise_first_error` names
    the first bad entry in cell order.
    """
    counts = _checked_counts(strategy_counts)
    cells = _cells(counts, payoff_table)
    parsed = None if cells is None else rational_column(list(itertools.chain.from_iterable(cells)))
    if parsed is None:
        _raise_first_error(counts, payoff_table)
    flat, scale = parsed
    n = len(counts)
    rows = [_split_rows(flat[p::n], count, stride)
            for p, (count, stride) in enumerate(zip(counts, _lex_strides(counts)))]
    return Game(counts, rows=rows, scales=[scale] * n, labels=labels)


def _split_rows(column, count: int, stride: int) -> tuple[tuple, ...]:
    """The rows of a player with ``count`` strategies and lex stride ``stride``
    from its numerators over all profiles in lex order; the inverse of
    :func:`_joined_rows`.

    In lex order the profiles come in runs of ``stride`` that differ only in
    the later players' choices, and the player's own choice steps through
    ``0..count-1`` from one run to the next; row ``s`` joins every
    ``count``-th run from the ``s``-th.
    """
    if stride == 1:
        return tuple(tuple(column[s::count]) for s in range(count))
    runs = list(zip(*[iter(column)] * stride))
    return tuple(tuple(itertools.chain.from_iterable(runs[s::count])) for s in range(count))


def _joined_rows(rows, stride: int) -> list:
    """A player's numerators over all profiles in lex order from its rows and
    lex stride; the inverse of :func:`_split_rows`."""
    if stride == 1:
        return list(itertools.chain.from_iterable(zip(*rows)))
    runs = [zip(*[iter(row)] * stride) for row in rows]
    return list(itertools.chain.from_iterable(itertools.chain.from_iterable(zip(*runs))))


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
    for rows, scale, stride in zip(game._rows, game._scales, game._strides):
        column = _joined_rows(rows, stride)
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
