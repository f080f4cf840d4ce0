"""Parsing and formatting of exact rationals for the JSON interfaces."""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction

from .errors import InputError


#: The one string form of an exact rational: ASCII ``[+-]digits`` or
#: ``[+-]digits/digits``; no spaces, underscores, decimals or exponents.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

#: Rationals of that form, each followed by a newline, which none contains.
_RATIONAL_LINES = re.compile(f"(?:{_RATIONAL.pattern}\n)*")


def rational_parts(value) -> tuple[int, int]:
    """``value`` as ``(numerator, denominator)`` in lowest terms, denominator > 0.

    Accepts an int, a Fraction, or a string matching ``_RATIONAL`` with a
    nonzero denominator and no more digits than Python converts to an int.
    Everything else, floats included, raises :class:`InputError`, so the
    size of a parsed number is bounded by the length of its text.
    """
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value):
            numerator, _, denominator = value.partition("/")
            try:  # int() refuses strings past Python's int-string digit limit
                numerator, denominator = int(numerator), int(denominator or 1)
            except ValueError:
                denominator = 0
            if denominator:
                divisor = math.gcd(numerator, denominator)
                return numerator // divisor, denominator // divisor
        raise InputError(f"not a rational number: {value!r}")
    if isinstance(value, bool):
        raise InputError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise InputError(f"not a rational number: {value!r} (floats are not accepted)")


#: Columns shorter than this are parsed value by value, which is faster
#: there than the dozen calls of the bulk parse.
_BULK_MIN = 16


def over_lcm(numerators, denominators) -> tuple[list[int], int]:
    """The fractions ``n / d`` as int numerators over their least common denominator."""
    scale = math.lcm(*set(denominators))
    return [n * (scale // d) for n, d in zip(numerators, denominators)], scale


def rational_column(values) -> tuple[list[int], int] | None:
    """Ints and strings of the grammar of :func:`rational_parts` as int
    numerators over one positive common denominator, parsed in bulk.

    Neither the values nor the result are reduced; :class:`~.game.Game`
    reduces each column by its gcd. Returns ``None`` when some value is of
    another type or not in the grammar, without saying which: the caller asks
    :func:`rational_parts` value by value.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        return list(values), 1
    if not kinds <= {int, str}:
        return None
    if len(values) < _BULK_MIN:
        try:
            return over_lcm(*zip(*map(rational_parts, values)))
        except InputError:
            return None
    if kinds == {str}:
        texts = values
        parts = map(str.partition, values, itertools.repeat("/"))
    else:
        texts = [v for v in values if type(v) is str]
        parts = [v.partition("/") if type(v) is str else (v, "", "") for v in values]
    joined = "\n".join(texts) + "\n"
    if joined.count("\n") != len(texts) or not _RATIONAL_LINES.fullmatch(joined):
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
    return list(map(operator.mul, numerators, map(factors.__getitem__, tails))), scale


def parse_rational(value) -> Fraction:
    """Parse an int, a Fraction or a ``"p"`` / ``"p/q"`` string into a Fraction,
    by the grammar of :func:`rational_parts`.

    Floats are rejected: every number in this package is exact.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(*rational_parts(value))


def format_rational(numerator: int, denominator: int):
    """Render ``numerator / denominator`` (denominator > 0) in lowest terms for
    a game file: an int when integral, else "p/q"."""
    divisor = math.gcd(numerator, denominator)
    if divisor == denominator:
        return numerator // divisor
    return f"{numerator // divisor}/{denominator // divisor}"


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
