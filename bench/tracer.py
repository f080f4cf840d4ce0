"""Spans and work counters for the benchmark's traced run.

The tracer wraps the public functions of each regretgames module from the
outside: nothing under ``src/`` knows about it. A wrapper replaces the
function in its own module and under every other name bound to it with
``from ... import`` (``repeated.minimax_regret``, ``cli.load_game``, the
package namespace, ...), and :func:`installed` puts every original back.

Each call records a span ``(id, parent id, job id, name, start, end)`` in
memory. A span's self time is its duration minus that of its child spans, so
the self times of one job add up to the duration of its ``cli.run`` span.
Work counters are computed from the sizes of arguments and results (for
example ``game.cells`` is a game's ``profile_count``), not measured, so they
repeat exactly for the same inputs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import Counter
from fractions import Fraction

MODULES = ("cli", "game", "bidding", "solver", "dominance", "repeated", "trading")

#: Methods that get spans; all other methods run inside their caller's span.
METHODS = {
    "game": ("Game.payoff_matrix",),
    "repeated": ("SequenceAnalysis.expansion", "SequenceAnalysis.report"),
}

#: Public functions left unwrapped. ``bidding_utility`` runs once per payoff
#: cell, so a span each would cost more than the work it measures; the
#: parser builder and ``main`` stay inside ``cli.run``, whose self time is
#: meant to cover argument parsing and output rendering.
SKIP = frozenset({"bidding.bidding_utility", "cli.build_parser", "cli.main"})

#: Named per-layer metric groups and the spans each one sums.
GROUPS = {
    "cli.run": ("cli.run",),
    "game.load_game": ("game.load_game",),
    "game.payoff_matrix": ("game.Game.payoff_matrix",),
    "bidding.make_bidding_game": ("bidding.make_bidding_game",),
    "solver.minimax_regret": ("solver.minimax_regret",),
    "dominance": ("dominance.rational_set", "dominance.rational_restriction",
                  "dominance.iterated_rational_sets"),
    "repeated.expand_sequence": ("repeated.expand_sequence",),
    "repeated.folk_strategy": ("repeated.folk_strategy",),
    "trading.oracle": ("trading.trading_oracle", "trading.trading_oracle_report"),
    "trading.sweep": ("trading.minimal_regret_sweep",),
    "trading.audit": ("trading.audit_single_agent",),
}

COUNTERS = ("game.cells", "bidding.cells", "solver.columns_scanned",
            "dominance.pair_tests_max", "repeated.expanded_cells", "trading.records",
            "trading.sweep_candidates")

#: Which end-to-end metric each per-layer metric should move, and on which
#: workloads; the self-test checks that each group's spans fire there.
LAYER_TARGETS = {
    "cli.run": (("run_s",), ("dense-files",)),
    "game.load_game": (("run_s",), ("dense-files",)),
    "game.payoff_matrix": (("run_s", "peak_rss_mb"), ("bidding-verify", "dense-files")),
    "bidding.make_bidding_game": (("run_s",), ("bidding-verify",)),
    "solver.minimax_regret": (("run_s",), ("bidding-verify", "folk-repeated")),
    "dominance": (("run_s",), ("folk-repeated", "dense-files")),
    "repeated.expand_sequence": (("run_s",), ("folk-repeated",)),
    "repeated.folk_strategy": (("run_s",), ("folk-repeated",)),
    "trading.oracle": (("run_s",), ("trading-sweep",)),
    "trading.sweep": (("run_s",), ("trading-sweep",)),
    "trading.audit": (("run_s",), ("trading-sweep",)),
}


def _pair_tests(counts) -> int:
    return sum(c * (c - 1) for c in counts)


def _columns_scanned(a, result) -> int:
    game, player, restriction = a["game"], a["player"], a["restriction"]
    columns = 1
    for j, count in enumerate(game.strategy_counts):
        if j != player:
            columns *= count if restriction is None else len(restriction.allowed[j])
    return game.strategy_counts[player] * columns


def _matrix_cells(a, result) -> int:
    # a (game, player) matrix is built once and then served from the game's
    # cache; count its cells on the first request only
    seen = vars(a["self"]).setdefault("_bench_matrix_players", set())
    if a["player"] in seen:
        return 0
    seen.add(a["player"])
    return a["self"].profile_count


def _oracle_records(a, result) -> int:
    spec, step = a["spec"], Fraction(a["grid_step"])
    pairs = 1
    for floor, cap in zip(spec.price_floors, spec.price_caps):
        pairs *= int((cap - floor) / step) + 1
    return pairs ** spec.iterations


#: span name -> (counter, count(bound arguments, result))
HOOKS = {
    "game.Game.payoff_matrix": ("game.cells", _matrix_cells),
    "bidding.make_bidding_game": ("bidding.cells", lambda a, r: r.profile_count),
    "solver.minimax_regret": ("solver.columns_scanned", _columns_scanned),
    "dominance.rational_set": (
        "dominance.pair_tests_max",
        lambda a, r: _pair_tests([a["game"].strategy_counts[a["player"]]])),
    "dominance.iterated_rational_sets": (
        "dominance.pair_tests_max",
        lambda a, r: a["rounds"] * _pair_tests(a["game"].strategy_counts)),
    "repeated.expand_sequence": ("repeated.expanded_cells", lambda a, r: r.game.profile_count),
    "trading.trading_oracle": ("trading.records", _oracle_records),
    "trading.trading_oracle_report": ("trading.records", _oracle_records),
    "trading.minimal_regret_sweep": ("trading.sweep_candidates", lambda a, r: r.candidate_count),
}

_EXPANSION = "repeated.SequenceAnalysis.expansion"


class Tracer:
    """In-memory spans plus per-name self time, call and work counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = None
        self._ids = itertools.count()
        self._stack: list[list] = []  # [span id, name, start, child time]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def reset_totals(self) -> None:
        self.self_s, self.calls, self.counts = Counter(), Counter(), Counter()

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        hook = HOOKS.get(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(self._ids), name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                if parent is not None:
                    parent[3] += duration
                self.self_s[name] += duration - frame[3]
                self.calls[name] += 1
                self.spans.append((frame[0], parent[0] if parent else None, self.job, name,
                                   frame[2], end))
            if name == "repeated.expand_sequence" and parent and parent[1] == _EXPANSION:
                self.counts["repeated.expansion_misses"] += 1
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[hook[0]] += hook[1](bound.arguments, result)
            return result

        return traced

    def metrics(self) -> dict:
        """Per-layer metrics from the totals since the last reset."""
        out = {}
        for group, names in GROUPS.items():
            out[f"{group}.self_s"] = sum(self.self_s[n] for n in names)
            out[f"{group}.calls"] = sum(self.calls[n] for n in names)
        for layer in MODULES:
            out[f"layer.{layer}.self_s"] = sum(
                v for n, v in self.self_s.items() if n.split(".", 1)[0] == layer)
        for counter in COUNTERS:
            out[counter] = self.counts[counter]
        served = self.calls[_EXPANSION]
        misses = self.counts["repeated.expansion_misses"]
        out["repeated.expansion_hit_ratio"] = (served - misses) / served if served else 0.0
        out["trace.self_sum_s"] = sum(self.self_s.values())
        return out


def _targets():
    for layer in MODULES:
        module = importlib.import_module(f"regretgames.{layer}")
        for attr, fn in vars(module).items():
            name = f"{layer}.{attr}"
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__ and name not in SKIP):
                yield name, fn, None
        for qualname in METHODS.get(layer, ()):
            owner, method = qualname.split(".")
            cls = getattr(module, owner)
            yield f"{layer}.{qualname}", vars(cls)[method], cls


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced function through ``tracer`` until the block exits."""
    modules = [m for key, m in sys.modules.items()
               if key == "regretgames" or key.startswith("regretgames.")]
    undo = []
    try:
        for name, fn, owner in list(_targets()):
            wrapper = tracer.wrap(name, fn)
            if owner is not None:
                undo.append((owner, fn.__name__, fn))
                setattr(owner, fn.__name__, wrapper)
                continue
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is fn]:
                    undo.append((module, key, fn))
                    setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, key, fn in reversed(undo):
            setattr(owner, key, fn)
