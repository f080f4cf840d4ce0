"""Output checks that hold at every seed.

Digests pin outputs only where they were recorded (the fixed jobs and the
default seed), so each job's JSON output is also checked on its own terms:
small games are re-solved with the plain ``Fraction`` reference below, and
larger outputs are checked for internal consistency and for facts the
paper's claims guarantee (second-price truthful bidding has zero regret).
``check`` returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path

#: Re-solve games with the reference only up to this many profiles.
REFERENCE_CAP = 20_000


# -- a small reference solver for dense games -----------------------------------


def _columns(counts, cells, player, allowed):
    """The player's payoffs (one per own strategy) for each allowed opponent profile."""
    ranges = [range(c) if allowed is None else allowed[j] for j, c in enumerate(counts)]
    ranges[player] = (0,)
    for opp in itertools.product(*ranges):
        yield [cells[opp[:player] + (s,) + opp[player + 1:]][player]
               for s in range(counts[player])]


def worst_regrets(counts, cells, player, allowed=None) -> list[Fraction]:
    worst = [Fraction(0)] * counts[player]
    for column in _columns(counts, cells, player, allowed):
        best = max(column)
        worst = [max(w, best - v) for w, v in zip(worst, column)]
    return worst


def rational_sets(counts, cells, rounds=1) -> list[list[int]]:
    """Strategies that survive ``rounds`` of simultaneous weak-dominance elimination."""
    allowed = [list(range(c)) for c in counts]
    for _ in range(rounds):
        new = []
        for p in range(len(counts)):
            columns = list(_columns(counts, cells, p, allowed))
            new.append([
                s for s in allowed[p]
                if not any(all(c[t] >= c[s] for c in columns) and any(c[t] > c[s] for c in columns)
                           for t in allowed[p] if t != s)
            ])
        if new == allowed:
            break
        allowed = new
    return allowed


def _game_cells(path: Path):
    obj = json.loads(path.read_text(encoding="utf-8"))
    counts = obj["strategy_counts"]
    cells = {}
    for profile in itertools.product(*map(range, counts)):
        node = obj["payoffs"]
        for s in profile:
            node = node[s]
        cells[profile] = tuple(Fraction(v) for v in node)
    return counts, cells


def _bidding_cells(valuations, grid, k):
    cells = {}
    for bids in itertools.product(range(grid + 1), repeat=len(valuations)):
        ranked = sorted(bids, reverse=True)
        winners = bids.count(ranked[0])
        cells[bids] = tuple(
            Fraction(v - ranked[k - 1], winners * grid) if b == ranked[0] else Fraction(0)
            for v, b in zip(valuations, bids)
        )
    return cells


def _solution(counts, cells, player, allowed):
    """Reference (worst regret per strategy, minimax regret, argmin), as reports print them."""
    worst = worst_regrets(counts, cells, player, allowed)
    low = min(worst)
    return [str(w) for w in worst], str(low), [s for s, w in enumerate(worst) if w == low]


def _check_reports(reports, counts, cells) -> list[str]:
    """Compare solver reports (full and rational modes) with the reference."""
    problems = []
    rational = rational_sets(counts, cells)
    for report in reports:
        allowed = None if report["restriction"] == "full" else rational
        if (report["worst_regret_per_strategy"], report["minimax_regret"],
                report["argmin"]) != _solution(counts, cells, report["player"], allowed):
            problems.append(f"player {report['player']} {report['restriction']} report "
                            "differs from the reference solver")
    return problems


# -- per-command checks ------------------------------------------------------------


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _check_verification(report) -> list[str]:
    spec = report["spec"]
    entries = report["entries"]
    players = len(spec["l"])
    cells = _small_bidding_cells(spec)
    problems = []
    if len(entries) != 2 * players:
        problems.append(f"expected {2 * players} entries, got {len(entries)}")
    for e in entries:
        match = ((e["predicted_regret"] is None or e["predicted_regret"] == e["oracle_minimax"])
                 and (e["predicted_bid"] is None or e["predicted_bid"] in e["oracle_argmin"]))
        if e["match"] != match:
            problems.append(f"entry {e['player']}/{e['mode']} has an inconsistent match flag")
        if spec["k"] == 2 and not e["match"]:
            problems.append(f"second-price truthful bid not competitive for player {e['player']}")
    if report["all_match"] != all(e["match"] for e in entries):
        problems.append("all_match disagrees with the entries")
    if cells is not None:
        counts = [spec["T"] + 1] * players
        rational = rational_sets(counts, cells)
        for e in entries:
            allowed = None if e["mode"] == "full" else rational
            if [e["oracle_minimax"], e["oracle_argmin"]] != list(
                    _solution(counts, cells, e["player"], allowed)[1:]):
                problems.append(f"entry {e['player']}/{e['mode']} differs from the reference")
    return problems


def _small_bidding_cells(spec):
    if (spec["T"] + 1) ** len(spec["l"]) > REFERENCE_CAP:
        return None
    return _bidding_cells(spec["l"], spec["T"], spec["k"])


def _check_bidding(argv, payload, workdir) -> list[str]:
    if "verification" in payload:
        return _check_verification(payload["verification"])
    spec = payload["input"]
    cells = _small_bidding_cells(spec)
    if cells is None:
        return []
    return _check_reports(payload["reports"], [spec["T"] + 1] * len(spec["l"]), cells)


def _check_verify(argv, payload, workdir) -> list[str]:
    problems = []
    for report in payload["reports"]:
        problems += _check_verification(report)
    mismatches = sum(not e["match"] for r in payload["reports"] for e in r["entries"])
    if payload["mismatch_count"] != mismatches:
        problems.append("mismatch_count disagrees with the entries")
    return problems


def _check_solve(argv, payload, workdir) -> list[str]:
    counts, cells = _game_cells(workdir / _flag(argv, "--game"))
    return _check_reports(payload["reports"], counts, cells)


def _check_dominance(argv, payload, workdir) -> list[str]:
    counts, cells = _game_cells(workdir / _flag(argv, "--game"))
    expected = rational_sets(counts, cells, int(_flag(argv, "--rounds")))
    if [s["allowed"] for s in payload["rational_sets"]] != expected:
        return ["surviving sets differ from the reference"]
    return []


def _check_repeated(argv, payload, workdir) -> list[str]:
    report = payload["report"]
    length = payload["input"].get("stages") or payload["input"]["length"]
    problems = []
    if report["all_pass"] != all(e["passed"] for e in report["entries"]):
        problems.append("all_pass disagrees with the entries")
    for e in report["entries"]:
        subgames = e["subgames"]
        if [d["start_iteration"] for d in subgames] != list(range(1, length + 1)):
            problems.append(f"player {e['player']}: subgame starts are not 1..{length}")
            continue
        # the last stage is played with the stage game's rational canonical pick
        last = subgames[-1]
        if last["strategy_index"] != last["rational_argmin"][0] or not last["member"]:
            problems.append(f"player {e['player']}: last-stage pick is not rational-competitive")
    return problems


def _check_trading(argv, payload, workdir) -> list[str]:
    if "single_agent_audit" in payload:
        audit = payload["single_agent_audit"]
        regrets = [Fraction(row["worst_regret"]) for row in audit["stationary_table"]]
        best = Fraction(audit["best_stationary_regret"])
        if best != min(regrets) or len(regrets) != audit["cap"] - audit["floor"] + 2:
            return ["stationary table disagrees with its best entry"]
        if not Fraction(audit["best_profile_regret"]) <= best <= Fraction(
                audit["closed_form_regret"]):
            return ["audited optima are not ordered profile <= stationary <= closed form"]
        return []
    spec = payload["input"]
    bands = ((spec["m1"], spec["M1"]), (spec["m2"], spec["M2"]))
    problems = []
    for entry in payload["oracle"]:
        sweep = entry["sweep"]
        floor, cap = bands[entry["player"]]
        where = f"player {entry['player']} {entry['mode']}"
        # the sweep re-scores the reference on the signature quotient, which
        # is exact for threshold rules, so both worst cases must agree
        if entry["worst_case_regret"] != sweep["reference_regret"]:
            problems.append(f"{where}: oracle and sweep disagree on the reference")
        values = Fraction(cap - floor) / Fraction(_flag(argv, "--grid-step")) + 1
        if sweep["candidate_count"] != (2 * values + 2) ** spec["t"]:
            problems.append(f"{where}: wrong candidate count")
        if sweep["reference_optimal"] != (not sweep["violations"]):
            problems.append(f"{where}: reference_optimal disagrees with the violations")
        if Fraction(sweep["best_regret"]) > Fraction(sweep["reference_regret"]):
            problems.append(f"{where}: best regret exceeds the reference")
    return problems


CHECKS = {
    "bidding": _check_bidding,
    "verify": _check_verify,
    "solve": _check_solve,
    "dominance": _check_dominance,
    "repeated": _check_repeated,
    "trading": _check_trading,
}


def check(argv, output: Path, workdir: Path) -> list[str]:
    """Problems found in one job's output; ``argv[0]`` names the command."""
    try:
        payload = json.loads(output.read_text(encoding="utf-8"))
        return CHECKS[argv[0]](list(argv), payload, workdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
