"""Sealed-bid auction games on an integer bid grid, k-th highest price.

The highest bid wins; the winner pays the k-th highest bid, and ties split
the (possibly negative) surplus evenly among the top bidders. Closed-form
competitive and rationally competitive strategies exist for k in {1, 2, 3};
``verify_claims`` checks them against the brute-force solver and records any
divergence instead of aborting, since the solver is the ground truth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_DENSE_CAP, AssumptionError, InputError, check_size
from .game import Game
from .rational import strict_int
from .solver import RegretReport, all_player_reports

CLAIM_SOURCES = {
    (1, "full"): "first-price-competitive",
    (2, "full"): "second-price-competitive",
    (3, "full"): "third-price-competitive",
    (1, "rational"): "first-price-rational",
    (2, "rational"): "second-price-rational",
    (3, "rational"): "third-price-rational",
}


@dataclass(frozen=True)
class BiddingSpec:
    """Auction parameters: integer valuations on a grid of size ``grid_size``.

    Player i values the good at ``valuations[i] / grid_size``; bids are the
    integers 0..grid_size. Standing assumptions: at least 2 players,
    2 <= valuation < grid_size, pairwise distinct valuations, and
    grid_size >= number of players.
    """

    valuations: tuple[int, ...]
    grid_size: int
    price_rank: int

    def __post_init__(self):
        if not isinstance(self.valuations, (list, tuple)):
            raise InputError(f"valuations (l) must be a list, got {self.valuations!r}")
        object.__setattr__(
            self, "valuations", tuple(strict_int(v, "valuation (l)") for v in self.valuations)
        )
        strict_int(self.grid_size, "grid size (T)")
        strict_int(self.price_rank, "price rank (k)")
        n = len(self.valuations)
        if n < 2:
            raise AssumptionError(f"at least 2 players required, got {n}")
        if self.grid_size < n:
            raise AssumptionError(
                f"grid size >= player count required (grid_size={self.grid_size}, n={n})"
            )
        for i, v in enumerate(self.valuations):
            if not 2 <= v < self.grid_size:
                raise AssumptionError(
                    f"2 <= valuation < grid size violated "
                    f"(valuations[{i}]={v}, grid_size={self.grid_size})"
                )
        if len(set(self.valuations)) != n:
            raise AssumptionError(
                f"valuations must be pairwise distinct, got {self.valuations}"
            )
        if not 1 <= self.price_rank <= n:
            raise AssumptionError(
                f"price rank must lie in 1..{n}, got {self.price_rank}"
            )

    @property
    def player_count(self) -> int:
        return len(self.valuations)

    def _validate_player(self, player) -> int:
        if not 0 <= strict_int(player, "player index") < self.player_count:
            raise InputError(f"player {player} out of range 0..{self.player_count - 1}")
        return player

    def to_json(self) -> dict:
        return {
            "l": list(self.valuations),
            "T": self.grid_size,
            "k": self.price_rank,
        }


def bidding_utility(spec: BiddingSpec, bids, player: int) -> Fraction:
    """Utility under the k-th price rule, implemented literally.

    Only top bidders earn anything; each of the M tied winners gets
    (valuation - k-th highest bid) / (M * grid_size), even when negative.
    """
    bids = tuple(bids)
    n = spec.player_count
    if len(bids) != n:
        raise InputError(f"expected {n} bids, got {len(bids)}")
    for i, b in enumerate(bids):
        if not isinstance(b, int) or isinstance(b, bool) or not 0 <= b <= spec.grid_size:
            raise InputError(
                f"bid {b!r} of player {i} outside the grid 0..{spec.grid_size}"
            )
    player = spec._validate_player(player)
    by_size = sorted(bids, reverse=True)
    top = by_size[0]
    if bids[player] != top:
        return Fraction(0)
    kth = by_size[spec.price_rank - 1]
    winners = bids.count(top)
    return Fraction(spec.valuations[player] - kth, winners * spec.grid_size)


def make_bidding_game(spec: BiddingSpec) -> Game:
    """The auction as a normal-form game; strategy index == bid value.

    The payoffs are integers over the common denominator ``lcm(1..n) *
    grid_size``, with the same values as :func:`bidding_utility`: a winner
    tied with M others gets ``(valuation - kth) * (lcm(1..n) / (M + 1))``.
    Raises :class:`SizeError` before allocating when the ``(grid_size + 1) **
    n`` cells exceed ``DEFAULT_DENSE_CAP``.

    A bid x pays its player through three statistics of the others' bids P
    only: m = max(P), the number M of others bidding m, and hi, the (k-1)-th
    highest bid of P (none for k = 1). The player loses for x < m. At x = m
    the M + 1 tied winners pay min(hi, m). For x > m the player wins alone
    and pays hi, or x itself for k = 1. The k-th highest bid of P never sets
    the price, because a winner bids at least m. Every player's opponents are
    n - 1 bidders on one grid, so the opponent profiles, in lex order, map to
    one key list that every player shares. Each player gets one payoff
    column over x per key. The game is handed each player's rows over those
    key columns and that one key list: it gathers and stores the full rows,
    and takes the keys as the opponent classes its solves read, so no solve
    hashes the columns of a full auction matrix.
    """
    n, grid, k = spec.player_count, spec.grid_size, spec.price_rank
    bids = grid + 1
    check_size("the auction would need {} payoff cells", DEFAULT_DENSE_CAP, (bids, n))
    common = math.lcm(*range(1, n + 1))
    keys, key_of = _order_statistic_keys(n - 1, bids, k)
    rows = []
    for v in spec.valuations:
        ladder = [(v - price) * common for price in range(bids)]
        columns = [
            [0] * top + [(v - price) * (common // (tied + 1))]
            + (ladder[top + 1:] if k == 1 else [ladder[price]] * (grid - top))
            for top, tied, price in keys
        ]
        rows.append(tuple(zip(*columns)))
    labels = [[str(b) for b in range(bids)]] * n
    return Game((bids,) * n, rows=rows, scales=[common * grid] * n, labels=labels, keys=key_of)


def _order_statistic_keys(others: int, bids: int, k: int):
    """The distinct keys ``(m, M, price at a tie)`` of the ``others``-bidder
    profiles on ``0..bids-1``, and the index in that list of the key of each
    profile in lex order.

    The price at a tie is min(hi, m): m for k = 1, and hi, which is at most
    m, for k >= 2. Profiles with one multiset of bids share a key, so the
    keys are found once per distinct multiset.
    """
    profiles = list(map(tuple, map(sorted, itertools.product(range(bids), repeat=others))))
    keys: dict[tuple, int] = {}
    index = {}
    for multiset in dict.fromkeys(profiles):
        top = multiset[-1]
        price = multiset[-(k - 1)] if k > 1 else top
        index[multiset] = keys.setdefault((top, multiset.count(top), price), len(keys))
    return list(keys), list(map(index.__getitem__, profiles))


@dataclass(frozen=True)
class ClaimPrediction:
    """A closed-form prediction: a bid, an exact regret value, or both."""

    player: int
    source: str
    predicted_bid: int | None = None
    predicted_regret: Fraction | None = None

    def to_json(self) -> dict:
        return {
            "player": self.player,
            "source": self.source,
            "predicted_bid": self.predicted_bid,
            "predicted_regret": None
            if self.predicted_regret is None
            else str(self.predicted_regret),
        }


def closed_form_competitive(spec: BiddingSpec, player: int) -> ClaimPrediction | None:
    """Closed form with unrestricted opponents; None when no form is known (k > 3)."""
    k = spec.price_rank
    value = spec.valuations[spec._validate_player(player)]
    if k == 1:
        numerator = math.ceil(Fraction(value - 1, 2))
        return ClaimPrediction(
            player, CLAIM_SOURCES[(1, "full")],
            predicted_regret=Fraction(numerator, spec.grid_size),
        )
    if k == 2:
        return ClaimPrediction(
            player, CLAIM_SOURCES[(2, "full")],
            predicted_bid=value, predicted_regret=Fraction(0),
        )
    if k == 3:
        return ClaimPrediction(
            player, CLAIM_SOURCES[(3, "full")],
            predicted_bid=min(2 * value, spec.grid_size),
        )
    return None


def closed_form_rational(spec: BiddingSpec, player: int) -> ClaimPrediction | None:
    """Closed form against non-dominated opponents; None when k > 3."""
    k = spec.price_rank
    value = spec.valuations[spec._validate_player(player)]
    if k == 1:
        highest_other = max(v for i, v in enumerate(spec.valuations) if i != player)
        numerator = math.ceil(Fraction(min(value, highest_other) - 2, 2))
        return ClaimPrediction(
            player, CLAIM_SOURCES[(1, "rational")],
            predicted_regret=Fraction(numerator, spec.grid_size),
        )
    if k == 2:
        return ClaimPrediction(
            player, CLAIM_SOURCES[(2, "rational")],
            predicted_bid=value, predicted_regret=Fraction(0),
        )
    if k == 3:
        # Rank players by valuation (all distinct); the two highest shade by
        # the third-highest valuation, everyone else bids truthfully.
        ranked = sorted(range(spec.player_count), key=lambda j: -spec.valuations[j])
        third_highest = spec.valuations[ranked[2]]
        if player in ranked[:2]:
            return ClaimPrediction(
                player, CLAIM_SOURCES[(3, "rational")],
                predicted_bid=min(2 * value - third_highest, spec.grid_size),
            )
        return ClaimPrediction(
            player, CLAIM_SOURCES[(3, "rational")],
            predicted_bid=value, predicted_regret=Fraction(0),
        )
    return None


@dataclass(frozen=True)
class DivergenceEntry:
    """One prediction compared against the solver for one player and mode."""

    player: int
    mode: str
    source: str
    predicted_bid: int | None
    predicted_regret: Fraction | None
    oracle_minimax: Fraction
    oracle_argmin: tuple[int, ...]
    match: bool

    def to_json(self) -> dict:
        return {
            "player": self.player,
            "mode": self.mode,
            "source": self.source,
            "predicted_bid": self.predicted_bid,
            "predicted_regret": None
            if self.predicted_regret is None
            else str(self.predicted_regret),
            "oracle_minimax": str(self.oracle_minimax),
            "oracle_argmin": list(self.oracle_argmin),
            "match": self.match,
        }


@dataclass(frozen=True)
class DivergenceReport:
    """All predictions for a spec checked against brute force, both modes."""

    spec: BiddingSpec
    entries: tuple[DivergenceEntry, ...]

    @property
    def all_match(self) -> bool:
        return all(e.match for e in self.entries)

    def mismatches(self) -> tuple[DivergenceEntry, ...]:
        return tuple(e for e in self.entries if not e.match)

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "all_match": self.all_match,
            "entries": [e.to_json() for e in self.entries],
        }

    def to_text(self) -> str:
        headers = (
            "player", "mode", "source", "pred_bid", "pred_regret",
            "oracle_minimax", "oracle_argmin", "match",
        )
        rows = [
            (
                str(e.player),
                e.mode,
                e.source,
                "-" if e.predicted_bid is None else str(e.predicted_bid),
                "-" if e.predicted_regret is None else str(e.predicted_regret),
                str(e.oracle_minimax),
                ",".join(str(s) for s in e.oracle_argmin),
                "yes" if e.match else "NO",
            )
            for e in self.entries
        ]
        widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows)
        return "\n".join(lines)


def _entry_matches(prediction: ClaimPrediction, report: RegretReport) -> bool:
    ok = True
    if prediction.predicted_regret is not None:
        ok = ok and prediction.predicted_regret == report.minimax_value
    if prediction.predicted_bid is not None:
        ok = ok and prediction.predicted_bid in report.argmin
    return ok


def verify_claims(spec: BiddingSpec) -> DivergenceReport:
    """Compare every closed-form prediction with the exact solver.

    Divergences do not raise; they are recorded entry by entry. The report is
    deterministic for a given spec.
    """
    if spec.price_rank not in (1, 2, 3):
        raise InputError(
            f"no closed forms exist for price rank {spec.price_rank}; "
            "run the solver directly instead"
        )
    game = make_bidding_game(spec)
    entries = []
    for mode, closed_form in (
        ("full", closed_form_competitive),
        ("rational", closed_form_rational),
    ):
        reports = all_player_reports(game, mode)
        for player in range(spec.player_count):
            prediction = closed_form(spec, player)
            report = reports[player]
            entries.append(
                DivergenceEntry(
                    player=player,
                    mode=mode,
                    source=prediction.source,
                    predicted_bid=prediction.predicted_bid,
                    predicted_regret=prediction.predicted_regret,
                    oracle_minimax=report.minimax_value,
                    oracle_argmin=report.argmin,
                    match=_entry_matches(prediction, report),
                )
            )
    return DivergenceReport(spec, tuple(entries))
