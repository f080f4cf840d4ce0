"""Parsing and formatting of exact rationals for the JSON interfaces."""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Iterable

from .errors import InputError


#: Rational strings, each followed by a newline, which none contains: ASCII
#: ``[+-]digits`` or ``[+-]digits/digits``; no spaces, underscores, decimals
#: or exponents.
_RATIONAL_LINES = re.compile(r"(?:[+-]?[0-9]+(?:/[0-9]+)?\n)*")


def rational_column(values) -> tuple[list[int], int] | None:
    """Exact rationals as int numerators over one positive common denominator.

    The values are ints, Fractions and strings of ASCII ``[+-]digits`` or
    ``[+-]digits/digits`` with a nonzero denominator and no more digits than
    Python converts to an int, each of exactly that type (``type()``, not
    ``isinstance``). Neither the values nor the result are reduced;
    :class:`~.game.Game` reduces each column by its gcd. Returns ``None``
    when some value is of another type or not in the grammar, without saying
    which: :func:`parse_rational` names a bad value.

    Each distinct value is parsed once and its numerator read back for every
    repeat. Equal keys such as ``1`` and ``Fraction(1)`` are equal rationals
    with the same denominator as written, so the result is the one a parse of
    every value gives.
    """
    kinds = set(map(type, values))
    if kinds <= {int}:
        return list(values), 1
    if not kinds <= {int, str, Fraction}:
        return None
    distinct = list(dict.fromkeys(values))
    if kinds == {str}:
        texts = distinct
        parts = map(str.partition, distinct, itertools.repeat("/"))
    else:
        texts = [v for v in distinct if type(v) is str]
        parts = [v.partition("/") if type(v) is str
                 else (v, "", "") if type(v) is int else (v.numerator, "/", v.denominator)
                 for v in distinct]
    joined = "\n".join(texts) + "\n"  # "\n" for no texts: one line too many
    if texts and (joined.count("\n") != len(texts) or not _RATIONAL_LINES.fullmatch(joined)):
        return None
    heads, _, tails = zip(*parts)
    keys = set(tails)
    keys.discard("")  # the tail of an integer
    try:  # int() refuses strings past Python's int-string digit limit
        numerators = list(map(int, heads))
        denominators = list(map(int, keys))
    except ValueError:
        return None
    if 0 in denominators:
        return None
    scale = math.lcm(*denominators)
    factors = dict(zip(keys, map(scale.__floordiv__, denominators)))
    factors[""] = scale
    numerators = list(map(operator.mul, numerators, map(factors.__getitem__, tails)))
    if len(distinct) < len(values):
        numerators = list(map(dict(zip(distinct, numerators)).__getitem__, values))
    return numerators, scale


def parse_rational(value) -> Fraction:
    """One value of the domain of :func:`rational_column` as a Fraction.

    Everything else, floats included, raises :class:`InputError`, so the
    size of a parsed number is bounded by the length of its text.
    """
    parsed = rational_column([value])
    if parsed is None:
        inexact = "" if isinstance(value, (str, bool)) else " (floats are not accepted)"
        raise InputError(f"not a rational number: {value!r}{inexact}")
    (numerator,), denominator = parsed
    return Fraction(numerator, denominator)


def format_rational(numerator: int, denominator: int):
    """Render ``numerator / denominator`` (denominator > 0) in lowest terms for
    a game file: an int when integral, else "p/q"."""
    divisor = math.gcd(numerator, denominator)
    if divisor == denominator:
        return numerator // divisor
    return f"{numerator // divisor}/{denominator // divisor}"


def strict_list(value, what: str) -> tuple:
    """The entries of ``value`` as a tuple. If it is not iterable,
    :class:`InputError` says ``what``, for example "stages must list Games",
    and what it got."""
    if not isinstance(value, Iterable):
        raise InputError(f"{what}, got {value!r}")
    return tuple(value)


def strict_int(value, what: str) -> int:
    """Accept an int; reject bool, float, str and everything else."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def coerce_rational(value, what: str) -> Fraction:
    """Accept an int or Fraction, reject anything inexact."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InputError(f"{what} must be an exact rational (int or Fraction), got {value!r}")
    return Fraction(value)
