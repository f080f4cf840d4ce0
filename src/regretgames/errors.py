"""Exception types shared across the package, the one size and mode checks,
and the default caps those size checks are run against."""

#: Cap on the payoff cells of the games the package builds: the auction of
#: ``make_bidding_game`` and the expansion of ``expand_sequence``, which also
#: holds each player's history strategies to it. Both raise ``SizeError``
#: above it before allocating.
DEFAULT_DENSE_CAP = 10**6

#: Cap on how many pool realizations exhaustive verification will enumerate.
DEFAULT_REALIZATION_CAP = 4096

#: Cap on the size of every trading search, counted as the enumeration the
#: recurrence replaces: the oracle's announcement sequences on the full grid,
#: the sweep's on its own value and the other agent's floor or cap, the
#: single-agent audit's, the sweep's candidates and the audit's profiles.
#: Each count is checked before any work; one far past the cap, such as the
#: sequences of a long horizon, is reported as a power-of-two lower bound.
DEFAULT_ENUM_CAP = 250_000

#: How far past its cap a count is multiplied out before only a power-of-two
#: lower bound on it is kept, so that no check builds or prints a huge number.
_MARGIN_BITS = 64


class RegretGamesError(Exception):
    """Base class for every error raised by this package."""


class InputError(RegretGamesError):
    """Invalid input: malformed files, out-of-range indices, broken preconditions."""


class AssumptionError(InputError):
    """A modeling assumption the requested analysis relies on does not hold."""


class ContractError(InputError):
    """A strategy (or caller) violated a behavioral contract during evaluation."""


class SizeError(RegretGamesError):
    """An enumeration would exceed its size cap.

    ``count`` is the exact size when it was computed, and ``None`` when the
    size is so far past the cap that the message names only a lower bound.
    """

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


def check_size(what: str, cap: int, *powers) -> int:
    """The product of ``base ** exponent`` over ``powers`` (positive bases),
    if it is at most ``cap``; else :class:`SizeError` with the message
    ``what.format(count) + " (cap N)"``.

    Once the partial product passes the cap by ``2 ** _MARGIN_BITS`` it stops:
    the message then names ``at least 2**k`` and ``count`` is ``None``, so a
    huge exponent costs no time or memory. A cap other than a non-negative
    int raises :class:`InputError`; so does a bool.
    """
    if isinstance(cap, bool) or not isinstance(cap, int):
        raise InputError(f"a size cap must be an integer, got {cap!r}")
    if cap < 0:
        raise InputError(f"a size cap must be non-negative, got {cap}")
    limit = max(cap, 1) << _MARGIN_BITS
    count = 1
    for base, exponent in powers:
        bits = count.bit_length() - 1 + exponent * (base.bit_length() - 1)
        if bits <= limit.bit_length():  # else count * base ** exponent >= 2 ** bits
            count *= base**exponent
            if count <= limit:
                continue
            bits = count.bit_length() - 1
        raise SizeError(f"{what.format(f'at least 2**{bits}')} (cap {cap})")
    if count > cap:
        raise SizeError(f"{what.format(count)} (cap {cap})", count=count)
    return count


def check_mode(mode: str) -> None:
    """:class:`InputError` unless ``mode`` names a solve mode.

    A solve ranges over arbitrary opponents ("full") or over opponents who
    play no weakly dominated strategy ("rational").
    """
    if mode not in ("full", "rational"):
        raise InputError(f"mode must be 'full' or 'rational', got {mode!r}")
