import json
from fractions import Fraction

import pytest

from regretgames import (
    InputError,
    Restriction,
    all_player_reports,
    minimax_regret,
    rational_restriction,
)
from support import affine_transform, anchor_game


def test_regret_values():
    # pinned to one opponent choice, a strategy's worst regret is its regret there
    g = anchor_game()
    by_opponent = [minimax_regret(g, 0, Restriction(((0, 1), (o,)))) for o in (0, 1)]
    assert by_opponent[0].worst_regret_per_strategy == (0, 1)
    assert by_opponent[1].worst_regret_per_strategy == (3, 0)


def test_worst_case_regret_full():
    g = anchor_game()
    assert minimax_regret(g, 0).worst_regret_per_strategy == (3, 1)
    assert minimax_regret(g, 1).worst_regret_per_strategy == (3, 0)


def test_worst_case_regret_custom_restriction():
    g = anchor_game()
    pinned = Restriction(((0, 1), (0,)))
    assert minimax_regret(g, 0, pinned).worst_regret_per_strategy[1] == 1
    with pytest.raises(InputError, match="no strategies"):
        minimax_regret(g, 0, Restriction(((0, 1), ())))


def test_minimax_report_full():
    g = anchor_game()
    report = minimax_regret(g, 0)
    assert report.minimax_value == 1
    assert report.argmin == (1,)
    assert report.canonical_pick == 1
    assert report.worst_regret_per_strategy == (Fraction(3), Fraction(1))
    assert report.restriction == "full"

    other = minimax_regret(g, 1)
    assert other.minimax_value == 0
    assert other.argmin == (1,)


def test_report_invariants():
    g = anchor_game()
    for player in (0, 1):
        report = minimax_regret(g, player)
        assert report.argmin
        for s, w in enumerate(report.worst_regret_per_strategy):
            assert w >= 0
            if s in report.argmin:
                assert w == report.minimax_value
            else:
                assert w > report.minimax_value


def test_rational_mode_and_consistency():
    g = anchor_game()
    from_mode = all_player_reports(g, "rational")
    explicit = [
        minimax_regret(g, p, Restriction(((0, 1), (1,)), "rational")) for p in (0, 1)
    ]
    assert [r.to_json() for r in from_mode] == [r.to_json() for r in explicit]
    assert from_mode[0].minimax_value == 0
    assert from_mode[0].argmin == (1,)


def test_subset_monotonicity_on_anchor():
    g = anchor_game()
    restriction = rational_restriction(g)
    for p in (0, 1):
        assert (
            minimax_regret(g, p, restriction).minimax_value
            <= minimax_regret(g, p).minimax_value
        )


def test_report_json_shape():
    g = anchor_game()
    obj = minimax_regret(g, 0).to_json()
    assert obj == {
        "player": 0,
        "restriction": "full",
        "minimax_regret": "1",
        "argmin": [1],
        "worst_regret_per_strategy": ["3", "1"],
    }


def test_all_player_reports_arity_and_modes():
    g = anchor_game()
    assert len(all_player_reports(g, "full")) == 2
    with pytest.raises(InputError):
        all_player_reports(g, "plain")


def test_determinism_byte_identical():
    g = anchor_game()
    first = json.dumps([r.to_json() for r in all_player_reports(g, "full")])
    second = json.dumps([r.to_json() for r in all_player_reports(g, "full")])
    assert first == second


def test_affine_argmin_invariance_anchor():
    g = anchor_game()
    base = minimax_regret(g, 0)
    scaled = minimax_regret(affine_transform(g, 0, Fraction(7, 2), -3), 0)
    assert scaled.argmin == base.argmin
    assert scaled.worst_regret_per_strategy == tuple(
        Fraction(7, 2) * w for w in base.worst_regret_per_strategy
    )
