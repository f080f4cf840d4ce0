"""Seeded inputs and argv lists for the benchmark workloads.

Every workload is a fixed list of CLI jobs. The seed chooses the payoffs,
valuations and price bands; the shape of each job (players, grid sizes,
horizons, band widths) is fixed, and where the work also depends on the
values (early exits in the sweep and in dominance scans) the seed only
applies maps that keep it unchanged, so run-to-run spread measures the
machine, not the inputs. Jobs marked ``fixed``
have the same inputs at every seed: they are the pinned instances of the
acceptance criteria (seed 606 for criterion 6, the divergent bands of
criterion 7), so their digests are checked at every seed.

``tiny=True`` shrinks every shape for the benchmark's self-test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("bidding-verify", "folk-repeated", "trading-sweep", "dense-files")

#: Denominators for "p/q" payoffs: pairwise coprime, so their LCM is large.
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    fixed: bool = False


def build(workload: str, seed: int, inputs: Path, tiny: bool = False) -> list[Job]:
    """Write the workload's input files under ``inputs`` and return its jobs.

    Input paths in the argv are relative to the parent of ``inputs``, which is
    the directory the jobs run in; outputs echo those paths, so digests do not
    depend on where the checkout lives.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    inputs.mkdir(parents=True, exist_ok=True)
    builder = {
        "bidding-verify": _bidding_verify,
        "folk-repeated": _folk_repeated,
        "trading-sweep": _trading_sweep,
        "dense-files": _dense_files,
    }[workload]
    return builder(random.Random(seed), _Writer(inputs), tiny)


class _Writer:
    def __init__(self, inputs: Path):
        self.inputs = inputs

    def json(self, name: str, obj) -> str:
        (self.inputs / name).write_text(json.dumps(obj) + "\n", encoding="utf-8")
        return f"{self.inputs.name}/{name}"


def _game_json(counts, cells) -> dict:
    """Dense game file from a flat lexicographic list of payoff tuples."""

    def nest(depth, offset, stride):
        if depth == len(counts):
            return list(cells[offset])
        stride //= counts[depth]
        return [nest(depth + 1, offset + i * stride, stride) for i in range(counts[depth])]

    total = 1
    for c in counts:
        total *= c
    return {"players": len(counts), "strategy_counts": list(counts), "payoffs": nest(0, 0, total)}


# -- bidding-verify ------------------------------------------------------------


def _valuations(rng, grid: int, players: int) -> list[int]:
    """Valuations at the centres of equal bands of 2..grid-1, each moved by at
    most one, in seeded player order.

    The rational restrictions the solver scans grow with the valuations, so
    keeping them near fixed points keeps the work similar at every seed.
    """
    span = grid - 2
    jitter = min(1, max(0, (span // players - 1) // 2))
    values = [2 + span * (2 * b + 1) // (2 * players) + rng.randint(-jitter, jitter)
              for b in range(players)]
    rng.shuffle(values)
    return values


def _bidding_argv(valuations, grid, k, *extra) -> tuple[str, ...]:
    return ("bidding", "--l", ",".join(map(str, valuations)), "--T", str(grid),
            "--k", str(k), *extra)


def _bidding_verify(rng, out: _Writer, tiny: bool) -> list[Job]:
    grids = (8, 7, 6, 6, 6) if tiny else (36, 28, 24, 16, 10)
    jobs = [
        Job(f"bid-3p-k{k}", _bidding_argv(_valuations(rng, grid, 3), grid, k, "--verify"))
        for k, grid in zip((1, 2, 3), grids)
    ]
    manifest = {"specs": [
        {"l": _valuations(rng, grids[3], 3), "T": grids[3], "k": k} for k in (1, 2, 3)
    ]}
    jobs.append(Job("manifest-3p", ("verify", "--manifest", out.json("manifest.json", manifest))))
    jobs.append(Job("bid-4p-k2", _bidding_argv(
        _valuations(rng, grids[4], 4), grids[4], 2, "--verify")))
    return jobs


# -- folk-repeated -------------------------------------------------------------


def stage_game(rng, high=29):
    """2x2 stage game with distinct non-negative payoffs, highest at least twice
    the second highest for both players; returns per-player value lists.

    Draws exactly as the acceptance suite's generator does, so seed 606
    reproduces the criterion-6 instances.
    """
    while True:
        per_player = []
        for _ in range(2):
            values = rng.sample(range(0, high + 1), 4)
            ranked = sorted(values, reverse=True)
            if ranked[0] < 2 * ranked[1]:
                break
            per_player.append(values)
        if len(per_player) == 2:
            return per_player


def _stage_json(values) -> dict:
    v0, v1 = values
    return _game_json((2, 2), [(v0[i], v1[i]) for i in range(4)])


def _condition_holds(stages, player: int) -> bool:
    tops = [sorted(s[player], reverse=True)[:2] for s in stages]
    return min(t[0] for t in tops) >= 2 * max(t[1] for t in tops)


def stage_pair(rng):
    """Two stage games that jointly satisfy the cross-stage payoff condition."""
    while True:
        pair = (stage_game(rng), stage_game(rng))
        if all(_condition_holds(pair, p) for p in (0, 1)):
            return pair


def _transformed(values, rng):
    """The stage game with payoffs scaled by a seeded factor and, at random,
    the players swapped. Both maps keep every comparison the verifier makes,
    so its work is unchanged while every output value moves."""
    scale = rng.randint(1, 9)
    v0, v1 = ([scale * v for v in vs] for vs in values)
    if rng.random() < 0.5:
        v0, v1 = ([vs[i] for i in (0, 2, 1, 3)] for vs in (v1, v0))
    return [v0, v1]


def _folk_jobs(prefix, out: _Writer, games, mixed, pool, triple, fixed) -> list[Job]:
    files = [Path(out.json(f"{prefix}-g{i}.json", _stage_json(g))).name
             for i, g in enumerate(games)]
    jobs = []
    for i, name in enumerate(files):
        seq = out.json(f"{prefix}-r2-g{i}.json", {"stages": [name, name]})
        jobs.append(Job(f"{prefix}-r2-g{i}", ("repeated", "--sequence", seq), fixed))
    if triple:
        seq = out.json(f"{prefix}-r3-g0.json", {"stages": [files[0]] * 3})
        jobs.append(Job(f"{prefix}-r3-g0", ("repeated", "--sequence", seq), fixed))
    seq = out.json(f"{prefix}-mixed.json", {"stages": [_stage_json(g) for g in mixed]})
    jobs.append(Job(f"{prefix}-mixed", ("repeated", "--sequence", seq), fixed))
    seq = out.json(f"{prefix}-pool.json", {
        "pool": [_stage_json(g) for g in pool], "length": 2, "mode": "exhaustive"})
    jobs.append(Job(f"{prefix}-pool", ("repeated", "--random", seq), fixed))
    return jobs


def _folk_repeated(rng, out: _Writer, tiny: bool) -> list[Job]:
    # criterion 6 draws its instances in this order from Random(606); some of
    # them fail the folk check, which is part of the checked output
    c6 = random.Random(606)
    pinned = [stage_game(c6) for _ in range(10)]
    jobs = _folk_jobs("c6", out, pinned[:2] if tiny else pinned, stage_pair(c6),
                      stage_pair(c6), not tiny, True)
    # Three-fold repetitions cost a second each, and how much of it depends on
    # the payoffs, so the seeded one repeats a transformed copy of a pinned
    # game; the cheap jobs use freely drawn games.
    games = [_transformed(pinned[1], rng), stage_game(rng), stage_game(rng)]
    return jobs + _folk_jobs("s", out, games, stage_pair(rng), stage_pair(rng), not tiny, False)


# -- trading-sweep -------------------------------------------------------------


def _trading_argv(m1, M1, m2, M2, step=1) -> tuple[str, ...]:
    return ("trading", "--m1", str(m1), "--M1", str(M1), "--m2", str(m2), "--M2", str(M2),
            "--t", "3", "--K", "1", "--grid-step", str(step), "--oracle", "--sweep")


#: Bands in the shape of the criterion-7 grid (floors 1-2, caps 4-6).
BANDS = ((1, 5, 2, 6), (2, 6, 1, 4), (1, 4, 2, 5))
TINY_BANDS = ((1, 3, 1, 3), (2, 4, 1, 4))


def _trading_sweep(rng, out: _Writer, tiny: bool) -> list[Job]:
    jobs = []
    if not tiny:
        # bands of the criterion-7 grid whose rational reference is beaten
        for m1, M1, m2, M2 in ((1, 4, 1, 4), (1, 6, 2, 4)):
            jobs.append(Job(f"c7-{m1}-{M1}-{m2}-{M2}", _trading_argv(m1, M1, m2, M2), True))
    # Scaling every price and the grid step by one integer, and swapping the
    # agents, change every output value but not the work: the oracle and the
    # sweep make the same comparisons. Other changes of band move the sweep's
    # early exits, and with them its run time, by a third from seed to seed.
    for i, band in enumerate(TINY_BANDS if tiny else BANDS):
        m1, M1, m2, M2 = band if rng.random() < 0.5 else band[2:] + band[:2]
        c = rng.randint(1, 9)
        jobs.append(Job(f"band-{i}", _trading_argv(c * m1, c * M1, c * m2, c * M2, c)))
    floor = rng.randint(1, 4)
    width, horizon = (3, 3) if tiny else (5, 4)
    jobs.append(Job("audit-single", ("trading", "--audit-single", "--m1", str(floor),
                                     "--M1", str(floor + width), "--t", str(horizon))))
    return jobs


# -- dense-files ---------------------------------------------------------------


def _rational_cells(rng, counts, dominated_copy=True):
    """Flat cells of "p/q" payoffs with unrelated denominators.

    For every player, the last strategy copies the first one minus a small
    amount, so one strategy is always weakly dominated and the rational
    restriction is a proper subset.
    """
    n = len(counts)
    cells = {}
    profiles = [()]
    for c in counts:
        profiles = [p + (s,) for p in profiles for s in range(c)]
    for profile in profiles:
        cells[profile] = [f"{rng.randint(-40, 40)}/{rng.choice(PRIMES)}" for _ in range(n)]
    if dominated_copy:
        for profile in profiles:
            for p in range(n):
                if counts[p] > 1 and profile[p] == counts[p] - 1:
                    source = profile[:p] + (0,) + profile[p + 1:]
                    num, den = cells[source][p].split("/")
                    cells[profile][p] = f"{int(num) * 2 - 1}/{int(den) * 2}"
    return [tuple(cells[p]) for p in profiles]


def _dense_files(rng, out: _Writer, tiny: bool) -> list[Job]:
    shapes = {"g3": (3, 3, 3), "g2": (4, 4)} if tiny else {"g3": (12, 12, 12), "g2": (40, 40)}
    jobs = []
    for name, counts in shapes.items():
        path = out.json(f"{name}.json", _game_json(counts, _rational_cells(rng, counts)))
        jobs.append(Job(f"solve-{name}", ("solve", "--game", path, "--mode", "both")))
        jobs.append(Job(f"dominance-{name}", ("dominance", "--game", path, "--rounds", "3")))
    grid = 6 if tiny else 20
    cap = (grid + 1) ** 3 - 1  # one cell short of dense, so the rule path runs
    jobs.append(Job("bid-lazy", _bidding_argv(
        _valuations(rng, grid, 3), grid, 1, "--dense-cap", str(cap))))
    return jobs
