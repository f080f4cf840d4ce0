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
    if not 0 <= player < n:
        raise InputError(f"player {player} out of range 0..{n - 1}")
    by_size = sorted(bids, reverse=True)
    top = by_size[0]
    if bids[player] != top:
        return Fraction(0)
    kth = by_size[spec.price_rank - 1]
    winners = bids.count(top)
    return Fraction(spec.valuations[player] - kth, winners * spec.grid_size)


def make_bidding_game(spec: BiddingSpec) -> Game:
    """The auction as a normal-form game; strategy index == bid value.

    The payoff table is built in integers over the common denominator
    ``lcm(1..n) * grid_size``, with the same values as :func:`bidding_utility`:
    a winner tied with M-1 others gets ``(valuation - kth) * (lcm(1..n) / M)``.
    Raises :class:`SizeError` before allocating when the ``(grid_size + 1) **
    n`` cells exceed ``DEFAULT_DENSE_CAP``.

    The table is filled one run at a time. In lex order the last player's bid
    x is the fastest axis, so each bid profile P of the others owns one run
    of ``grid_size + 1`` cells. With m = max(P), the players of P bidding m
    win for x < m, they and the last player tie at x = m, and the last player
    wins alone for x > m. The k-th highest bid of P plus x is the clamp
    ``min(hi, max(x, lo))``, hi and lo being the (k-1)-th and k-th highest
    bids of P (``grid_size + 1`` and -1 where there is none). So along a run
    each winner's payoff is a constant, a slice of its payoffs at price x, and
    another constant: three slice assignments, whatever the grid. Losers keep
    their zeros.
    """
    n = spec.player_count
    cells_needed = check_size(
        "the auction would need {} payoff cells", DEFAULT_DENSE_CAP, (spec.grid_size + 1, n)
    )
    bids = spec.grid_size + 1
    counts = (bids,) * n
    labels = [[str(b) for b in range(bids)]] * n
    common = math.lcm(*range(1, n + 1))
    k = spec.price_rank
    last = n - 1
    # ladders[p][m][price]: player p's payoff as one of m tied winners; the
    # prices run to grid_size + 1 so that hi indexes a ladder even for k = 1
    ladders = [
        [None] + [[(v - price) * (common // m) for price in range(bids + 1)]
                  for m in range(1, n + 1)]
        for v in spec.valuations
    ]
    columns = [[0] * cells_needed for _ in range(n)]
    prefixes = itertools.product(range(bids), repeat=last)
    for start, prefix in zip(range(0, cells_needed, bids), prefixes):
        ranked = sorted(prefix, reverse=True)
        top = ranked[0]
        hi = ranked[k - 2] if k > 1 else bids
        lo = ranked[k - 1] if k < n else -1
        tied = prefix.count(top)
        tie = start + top
        tie_price = min(hi, top)
        # x < top: price lo below lo, then x up to hi, then hi
        from_x = max(lo, 0)
        from_hi = max(min(hi + 1, top), from_x)
        for player, bid in enumerate(prefix):
            if bid == top:
                column, ladder = columns[player], ladders[player][tied]
                column[start:start + from_x] = [ladder[lo]] * from_x
                column[start + from_x:start + from_hi] = ladder[from_x:from_hi]
                column[start + from_hi:tie] = [ladder[hi]] * (top - from_hi)
                column[tie] = ladders[player][tied + 1][tie_price]
        column, ladder = columns[last], ladders[last][1]
        column[tie] = ladders[last][tied + 1][tie_price]
        # x > top >= lo: price x up to hi, then hi
        from_hi = max(min(hi + 1, bids), top + 1)
        column[tie + 1:start + from_hi] = ladder[top + 1:from_hi]
        column[start + from_hi:start + bids] = [ladder[hi]] * (bids - from_hi)
    scale = common * spec.grid_size
    return Game(counts, columns=columns, scales=[scale] * n, labels=labels)


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
    value = spec.valuations[player]
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
    value = spec.valuations[player]
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
