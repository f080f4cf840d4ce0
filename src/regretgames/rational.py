"""Parsing and formatting of exact rationals for the JSON interfaces."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError


def parse_rational(value) -> Fraction:
    """Parse an integer or a "p/q" string into a Fraction.

    Floats are rejected: every number in this package is exact.
    """
    if isinstance(value, bool):
        raise InputError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational number: {value!r}") from exc
    raise InputError(f"not a rational number: {value!r} (floats are not accepted)")


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
