"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure). Divergences between closed
forms and the brute-force solvers are pinned in ``tests/data/`` golden files:
a pass for criteria 2, 3 and 7 means every entry either matches the solver or
reproduces its committed divergence exactly. Criterion 6 checks every folk
verdict against an independent play-path reference and pins the instances
where the stated construction fails; docs/DECISIONS.md gives the reading of
the claim and works one failure by hand.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from regretgames import (
    GameSequence,
    TradingSpec,
    audit_single_agent,
    decision_points,
    expand_sequence,
    make_bidding_game,
    minimal_regret_sweep,
    minimax_regret,
    rational_restriction,
    rational_set,
    regret,
    verify_claims,
    verify_folk_theorem,
    weakly_dominates,
)
from support import (
    criterion6_subjects,
    criterion7_horizon_rows,
    folk_failure_row,
    folk_reference,
    history_strategies,
    random_bidding_spec,
    random_dense_game,
    realized,
    replay,
    single_agent_prediction,
)

DATA = Path(__file__).parent / "data"


def _load_golden(name: str):
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def _report(number: int, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}{tail}")


def _bidding_mismatch_rows(seed: int, count: int, price_rank: int, **kwargs):
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        spec = random_bidding_spec(rng, price_rank=price_rank, **kwargs)
        for entry in verify_claims(spec).mismatches():
            rows.append(
                {
                    "l": list(spec.valuations),
                    "T": spec.grid_size,
                    "player": entry.player,
                    "mode": entry.mode,
                    "predicted_bid": entry.predicted_bid,
                    "predicted_regret": None
                    if entry.predicted_regret is None
                    else str(entry.predicted_regret),
                    "oracle_minimax": str(entry.oracle_minimax),
                    "oracle_argmin": list(entry.oracle_argmin),
                }
            )
    return rows


def test_criterion_1_second_price_zero_regret():
    started = time.monotonic()
    rng = random.Random(101)
    for _ in range(25):
        spec = random_bidding_spec(rng, price_rank=2)
        game = make_bidding_game(spec)
        restrictions = {"full": None, "rational": rational_restriction(game)}
        for mode, restriction in restrictions.items():
            for player, valuation in enumerate(spec.valuations):
                report = minimax_regret(game, player, restriction)
                assert report.minimax_value == 0, (spec, mode, player)
                assert valuation in report.argmin, (spec, mode, player)
    elapsed = time.monotonic() - started
    _report(1, True, f"25 specs, {elapsed:.1f}s")
    assert elapsed < 5


def test_criterion_2_first_price_formulas_or_pinned_divergence():
    started = time.monotonic()
    rows = _bidding_mismatch_rows(202, 20, 1)
    golden = _load_golden("criterion2_divergences.json")
    ok = rows == golden
    elapsed = time.monotonic() - started
    _report(2, ok, f"{len(rows)} pinned divergences, {elapsed:.1f}s")
    assert ok, "first-price divergences changed; see tests/data/criterion2_divergences.json"
    assert elapsed < 10


def test_criterion_3_third_price_memberships_or_pinned_divergence():
    started = time.monotonic()
    rows = _bidding_mismatch_rows(303, 15, 3, players=(3,), max_grid=12)
    golden = _load_golden("criterion3_divergences.json")
    ok = rows == golden

    # the lowest-valuation player's zero-regret claim, checked directly
    rng = random.Random(303)
    low_value_clean = True
    for _ in range(15):
        spec = random_bidding_spec(rng, price_rank=3, players=(3,), max_grid=12)
        game = make_bidding_game(spec)
        restriction = rational_restriction(game)
        ranked = sorted(range(3), key=lambda j: -spec.valuations[j])
        low = ranked[2]
        report = minimax_regret(game, low, restriction)
        pinned = any(
            row["l"] == list(spec.valuations) and row["player"] == low
            and row["mode"] == "rational"
            for row in golden
        )
        if report.minimax_value != 0 and not pinned:
            low_value_clean = False
    elapsed = time.monotonic() - started
    _report(3, ok and low_value_clean, f"{len(rows)} pinned divergences, {elapsed:.1f}s")
    assert ok, "third-price divergences changed; see tests/data/criterion3_divergences.json"
    assert low_value_clean
    assert elapsed < 20


def test_criterion_4_first_price_elimination_structure():
    started = time.monotonic()
    rng = random.Random(404)
    for _ in range(20):
        spec = random_bidding_spec(rng, price_rank=1)
        game = make_bidding_game(spec)
        for player, valuation in enumerate(spec.valuations):
            allowed = rational_set(game, player).allowed
            assert allowed == tuple(range(1, valuation)), (spec, player, allowed)
    elapsed = time.monotonic() - started
    _report(4, True, f"20 specs, {elapsed:.1f}s")


def test_criterion_5_subset_monotonicity():
    started = time.monotonic()
    rng = random.Random(505)
    for _ in range(100):
        game = random_dense_game(rng, max_players=3, max_strategies=5)
        restriction = rational_restriction(game)
        for player in range(game.player_count):
            rational = minimax_regret(game, player, restriction).minimax_value
            full = minimax_regret(game, player).minimax_value
            assert rational <= full
    elapsed = time.monotonic() - started
    _report(5, True, f"100 games, {elapsed:.1f}s")
    assert elapsed < 5


def test_criterion_6_folk_construction_at_desk_scale():
    """Checks every folk verdict (RATIONAL mode, every suffix) on the seeded
    instances against the play-path reference in ``support``. The claim
    fails on some condition-satisfying instances, on the whole sequence:
    the opponent reacts in stage 2 to the player's stage-1 move, and a
    history-independent strategy with different later picks does strictly
    better. Those failures are pinned in
    ``tests/data/criterion6_failures.json`` and worked in docs/DECISIONS.md.
    """
    started = time.monotonic()
    rows = []
    checks = 0
    for tag, index, subject in criterion6_subjects():
        report = verify_folk_theorem(subject, mode="rational")
        for entry in report.entries:
            checks += 1
            where = (tag, index, entry.realization, entry.player)
            reference = folk_reference(realized(subject, entry.realization), entry.player)
            assert entry.passed == reference.passed, where
            if entry.passed:
                continue
            detail = next(d for d in entry.details if not d.member)
            assert detail.start_iteration == reference.failing_start == 1, where
            witness = reference.worst[detail.rational_argmin[0]]
            assert witness == reference.minimax < reference.folk_regret, where
            rows.append(folk_failure_row(*where, reference))
    golden = _load_golden("criterion6_failures.json")
    ok = rows == golden
    elapsed = time.monotonic() - started
    _report(6, ok, f"{checks} checks, {len(rows)} pinned failures, {elapsed:.1f}s")
    assert ok, "folk failures changed; see tests/data/criterion6_failures.json"
    assert elapsed < 60


def test_criterion_7_trading_threshold_optimality_or_pinned_divergence():
    started = time.monotonic()
    rows = []
    for m1, cap1, m2, cap2 in itertools.product((1, 2), (4, 5, 6), (1, 2), (4, 5, 6)):
        spec = TradingSpec((m1, m2), (cap1, cap2), 3, 1)
        for mode in ("full", "rational"):
            result = minimal_regret_sweep(spec, 0, mode)
            if not result.reference_optimal:
                rows.append(
                    {
                        "m1": m1,
                        "M1": cap1,
                        "m2": m2,
                        "M2": cap2,
                        "mode": mode,
                        "reference_regret": str(result.reference_regret),
                        "best_regret": str(result.best_regret),
                    }
                )
    golden = _load_golden("criterion7_divergences.json")
    ok = rows == golden
    elapsed = time.monotonic() - started
    _report(7, ok, f"{len(rows)} pinned divergences, {elapsed:.1f}s")
    assert ok, "trading divergences changed; see tests/data/criterion7_divergences.json"
    assert elapsed < 120


def test_criterion_7_horizon_study():
    """The criterion-7 grid at t = 4 and t = 5, pinned in full: the
    reference's regret, the best regret and the number of rules beating it."""
    started = time.monotonic()
    rows = criterion7_horizon_rows(horizons=(4, 5), enum_cap=10**6)
    ok = rows == _load_golden("criterion7_horizon.json")
    elapsed = time.monotonic() - started
    beaten = sum(1 for row in rows if row["violations"])
    _report(7, ok, f"t = 4-5: {len(rows)} verdicts, reference beaten in {beaten}, {elapsed:.1f}s")
    assert ok, "trading horizon verdicts changed; see tests/data/criterion7_horizon.json"


def test_criterion_8_single_agent_threshold_audit():
    started = time.monotonic()
    first = audit_single_agent(10, 2, 3)
    second = audit_single_agent(10, 2, 3)
    assert first.to_json() == second.to_json()
    # recorded verdict: the stated closed form and the brute-force optimum disagree
    assert first.closed_form_threshold == 4
    assert first.closed_form_regret == 6
    assert first.best_stationary_thresholds == (6, 7)
    assert first.best_stationary_regret == 4
    assert first.best_profile_regret == 4
    elapsed = time.monotonic() - started
    _report(
        8,
        True,
        "closed form (M-m)/2=4 yields regret 6; audited optimum 6..7 yields 4; "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_audit_matches_the_grid_formula():
    """The audit against ``single_agent_prediction`` for caps 3-12, every
    floor and t = 2-4 (at most 13 ** 3 threshold profiles): the stationary
    table, the best thresholds and the best profile regret. The stated
    (cap - floor) / 2 is the optimal regret on a continuum, not the optimal
    threshold; docs/DECISIONS.md works (10, 2, 3) by hand."""
    checked = 0
    for cap in range(3, 13):
        for floor in range(1, cap):
            table, thresholds, best = single_agent_prediction(cap, floor)
            for t in (2, 3, 4):
                audit = audit_single_agent(cap, floor, t)
                assert audit.stationary_table == table, (cap, floor, t)
                assert audit.best_stationary_thresholds == thresholds, (cap, floor, t)
                assert audit.best_stationary_regret == audit.best_profile_regret == best
                checked += 1
    assert checked == 195


def test_criterion_9_property_suites():
    started = time.monotonic()
    rng = random.Random(909)

    # regret non-negativity
    for _ in range(100):
        game = random_dense_game(rng)
        profile = tuple(rng.randrange(c) for c in game.strategy_counts)
        player = rng.randrange(game.player_count)
        assert regret(game, player, profile) >= 0

    # zero-regret best response against every opponent profile
    for _ in range(100):
        game = random_dense_game(rng, max_strategies=4)
        player = rng.randrange(game.player_count)
        for opp in game.opponent_profiles(player):
            assert any(
                regret(game, player, opp.combine(t)) == 0
                for t in range(game.strategy_counts[player])
            )

    # affine argmin invariance
    for _ in range(100):
        game = random_dense_game(rng)
        player = rng.randrange(game.player_count)
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        shift = Fraction(rng.randint(-8, 8))
        base = minimax_regret(game, player)
        moved = minimax_regret(game.affine_transform(player, scale, shift), player)
        assert moved.argmin == base.argmin
        assert moved.worst_regret_per_strategy == tuple(
            scale * w for w in base.worst_regret_per_strategy
        )

    # dominance irreflexivity and antisymmetry
    for _ in range(100):
        game = random_dense_game(rng, max_strategies=4)
        player = rng.randrange(game.player_count)
        count = game.strategy_counts[player]
        for s in range(count):
            assert not weakly_dominates(game, player, s, s)
            for s_prime in range(s + 1, count):
                assert not (
                    weakly_dominates(game, player, s, s_prime)
                    and weakly_dominates(game, player, s_prime, s)
                )

    # surviving sets are never empty
    for _ in range(100):
        game = random_dense_game(rng)
        for player in range(game.player_count):
            assert rational_set(game, player).allowed

    # expanded payoffs are the stage sums along the play path
    for _ in range(100):
        stages = tuple(random_dense_game(rng, max_players=2, max_strategies=2)
                       for _ in range(rng.randint(1, 2)))
        sequence = GameSequence(stages)
        expansion = expand_sequence(sequence)
        profile = tuple(rng.randrange(c) for c in expansion.game.strategy_counts)
        decisions = [
            dict(zip(decision_points(sequence, p), history_strategies(sequence, p)[1][profile[p]]))
            for p in (0, 1)
        ]
        assert expansion.game.payoff_cell(profile) == replay(sequence, decisions)

    elapsed = time.monotonic() - started
    _report(9, True, f"6 suites x 100 instances, {elapsed:.1f}s")
