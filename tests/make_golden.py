"""Regenerate the golden divergence files under tests/data/.

Run from the repository root:  python tests/make_golden.py [--check]

The files pin the exact divergences between the closed-form bidding/trading
strategies and the brute-force solvers on the seeded acceptance instances, so
the acceptance suite can assert they reproduce deterministically. The
criterion-6 file is computed by the play-path reference in ``support``
alone, not by the library's solver. The criterion-7 horizon file holds the
trading sweep's verdict on every criterion-7 band at t = 4 and t = 5.

With ``--check`` every file is regenerated in memory and compared with the
committed one; nothing is written, and the exit code is 1 if any differs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

from regretgames import RandomGameSpec, TradingSpec, minimal_regret_sweep, verify_claims
from support import (
    CRITERION7_BANDS,
    criterion6_subjects,
    criterion7_horizon_rows,
    folk_failure_row,
    folk_reference,
    random_bidding_spec,
    realized,
)

DATA = Path(__file__).parent / "data"


def bidding_divergences(seed: int, count: int, price_rank: int, **kwargs) -> list[dict]:
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


def trading_divergences() -> list[dict]:
    rows = []
    for m1, cap1, m2, cap2 in CRITERION7_BANDS:
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
    return rows


def folk_failures() -> list[dict]:
    rows = []
    for tag, index, subject in criterion6_subjects():
        if isinstance(subject, RandomGameSpec):
            draws = itertools.product(range(len(subject.pool)), repeat=subject.length)
        else:
            draws = [None]
        for realization in draws:
            sequence = realized(subject, realization)
            for player in range(sequence.player_count):
                check = folk_reference(sequence, player)
                if not check.passed:
                    rows.append(folk_failure_row(tag, index, realization, player, check))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed files; write nothing")
    check = parser.parse_args(argv).check
    files = {
        "criterion2_divergences.json": bidding_divergences(202, 20, 1),
        "criterion3_divergences.json": bidding_divergences(
            303, 15, 3, players=(3,), max_grid=12
        ),
        "criterion6_failures.json": folk_failures(),
        "criterion7_divergences.json": trading_divergences(),
        "criterion7_horizon.json": criterion7_horizon_rows(),
    }
    if not check:
        DATA.mkdir(exist_ok=True)
    differing = []
    for name, rows in files.items():
        text = json.dumps(rows, indent=2) + "\n"
        path = DATA / name
        if not check:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {name}: {len(rows)} entries")
        elif not path.exists() or path.read_text(encoding="utf-8") != text:
            differing.append(name)
            print(f"differs: {name}")
        else:
            print(f"unchanged: {name}: {len(rows)} entries")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
