"""Parsing and formatting of exact rationals for the JSON interfaces."""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InputError


#: The one string form of an exact rational: ASCII ``[+-]digits`` or
#: ``[+-]digits/digits``; no spaces, underscores, decimals or exponents.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rational_parts(value) -> tuple[int, int]:
    """``value`` as ``(numerator, denominator)`` in lowest terms, denominator > 0.

    Accepts an int, a Fraction, or a string matching ``_RATIONAL`` with a
    nonzero denominator and no more digits than Python converts to an int.
    Everything else, floats included, raises :class:`InputError`, so the
    size of a parsed number is bounded by the length of its text.
    """
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is not None:
            try:  # int() refuses strings past Python's int-string digit limit
                numerator, denominator = map(int, match.groups("1"))
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
