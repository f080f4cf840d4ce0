"""Every benchmark job, run at the benchmark's default seed, writes the exit
code and output bytes recorded in ``bench/digests.json``.

The jobs are built and judged by the benchmark's own code, so a change to
any CLI output byte fails here as it fails the benchmark.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from worker import DEFAULT_SEED, Runner, import_cli, stored_outcomes  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_jobs_reproduce_their_stored_digests(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # job argv and outputs are relative to the run directory
    (tmp_path / "out").mkdir()
    jobs = workloads.build(workload, DEFAULT_SEED, tmp_path / "inputs")
    expected = stored_outcomes(workload, DEFAULT_SEED)
    assert sorted(expected) == sorted(job.name for job in jobs)
    runner = Runner(import_cli(), jobs, tmp_path, expected)
    runner.run_pass()
    assert runner.failed == 0, runner.problems
    assert runner.first == expected
