"""Self-test of the benchmark on tiny instances of every workload (a few seconds).

Run with ``python3 -m pytest bench`` from the root of a checkout.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Runner, import_cli  # noqa: E402

cli = import_cli()


def _wall(times: dict) -> float:
    return sum(wall for wall, _ in times.values())


def tiny_pass(directory: Path, workload: str, seed: int = 3, expected=None, traced=True):
    """One pass over a tiny instance; returns (runner, per-layer metrics, job wall)."""
    previous = os.getcwd()
    directory.mkdir(parents=True)
    os.chdir(directory)
    try:
        (directory / "out").mkdir()
        jobs = workloads.build(workload, seed, directory / "inputs", tiny=True)
        runner = Runner(cli, jobs, directory, expected or {})
        tracer = tracing.Tracer()
        if not traced:
            return runner, None, _wall(runner.run_pass())
        with tracing.installed(tracer):
            times = runner.run_pass(tracer, "test")
        return runner, tracer.metrics(), _wall(times)
    finally:
        os.chdir(previous)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    return {w: tiny_pass(root / w, w) for w in workloads.WORKLOADS}


def test_tiny_outputs_pass_every_check(passes):
    for workload, (runner, _, _) in passes.items():
        assert runner.attempted > 0
        assert runner.failed == 0, (workload, runner.problems)


def test_named_spans_fire_on_their_workloads(passes):
    for group, (_, targets) in tracing.LAYER_TARGETS.items():
        for workload in targets:
            metrics = passes[workload][1]
            assert metrics[f"{group}.calls"] > 0, (group, workload)
            assert metrics[f"{group}.self_s"] > 0, (group, workload)


def test_idle_layers_report_zero(passes):
    bidding, trading = passes["bidding-verify"][1], passes["trading-sweep"][1]
    assert all(v == 0 for k, v in bidding.items() if k.startswith(("trading.", "layer.trading.")))
    assert all(v == 0 for k, v in trading.items() if k.startswith(("solver.", "layer.solver.")))


def test_work_counters_repeat_exactly(passes, tmp_path):
    seen = set()
    for workload, (_, first, _) in passes.items():
        _, second, _ = tiny_pass(tmp_path / workload, workload)
        for counter in (*tracing.COUNTERS, "repeated.expansion_hit_ratio"):
            assert first[counter] == second[counter], (workload, counter)
            if first[counter]:
                seen.add(counter)
    assert seen == {*tracing.COUNTERS, "repeated.expansion_hit_ratio"}


def test_self_times_add_up_to_job_wall(passes):
    for workload, (_, metrics, wall) in passes.items():
        layers = sum(metrics[f"layer.{m}.self_s"] for m in tracing.MODULES)
        assert layers == pytest.approx(metrics["trace.self_sum_s"])
        assert abs(wall - layers) <= 0.02 * wall + 0.002, workload


def test_corrupted_digest_counts_as_failed(passes, tmp_path):
    runner = passes["dense-files"][0]
    expected = dict(runner.first)
    name = next(iter(expected))
    assert tiny_pass(tmp_path / "clean", "dense-files", expected=expected,
                     traced=False)[0].failed == 0
    expected[name] = (expected[name][0], "0" * 64)
    corrupted = tiny_pass(tmp_path / "corrupted", "dense-files", expected=expected,
                          traced=False)[0]
    assert corrupted.failed == 1
    assert corrupted.failed / corrupted.attempted > 0


def test_tracer_patches_imported_names_and_restores_them():
    from regretgames import bidding, cli as cli_module, repeated, solver

    originals = (repeated.minimax_regret, bidding.all_player_reports, cli_module.load_game)
    with tracing.installed(tracing.Tracer()):
        assert repeated.minimax_regret is solver.minimax_regret
        assert all(hasattr(f, "__wrapped__") for f in (
            repeated.minimax_regret, bidding.all_player_reports, cli_module.load_game))
    assert (repeated.minimax_regret, bidding.all_player_reports, cli_module.load_game) \
        == originals
    assert not hasattr(repeated.minimax_regret, "__wrapped__")
