"""One benchmark run in a fresh process.

Started by ``run.py``. The worker imports regretgames from the checkout's
``src/``, writes the seeded inputs into its own scratch directory, prints
``ready`` and then runs the workload's jobs as a closed loop with one client:
each job is a ``regretgames.cli.run(argv)`` call in this process, started
only after the previous one returned. The outputs of the first pass are
checked in depth (stored digests and ``checks.check``, outside the timed
calls); every later pass must reproduce its exit codes and output digests
exactly. Passes repeat until ``--seconds`` have passed; after each one a
set-up-only copy of the worker is started and timed to ``ready``. With
``--trace 1`` traced and untraced passes alternate instead, so the tracing
overhead is measured in the same process. The last line on stdout is one
JSON object with the samples.

``--record-digests`` instead runs one pass of every workload at the default
seed and rewrites ``digests.json``; run it only at a commit whose outputs
are known to be right.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads
from checks import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    from regretgames import cli

    return cli


def stored_outcomes(workload: str, seed: int) -> dict:
    """Recorded ``(exit code, sha256)`` per job: fixed jobs always, seeded
    jobs only at the seed they were recorded with."""
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    entry = table["workloads"].get(workload, {})
    expected = dict(entry.get("fixed", {}))
    if seed == table["seed"]:
        expected.update(entry.get("seeded", {}))
    return {name: tuple(value) for name, value in expected.items()}


def run_job(cli, job, workdir: Path):
    """Run one job; returns ``(exit code or None, output sha256 or None, wall, cpu)``."""
    output = Path("out") / f"{job.name}.json"
    (workdir / output).unlink(missing_ok=True)
    cpu = time.process_time()
    wall = time.perf_counter()
    try:
        code = cli.run([*job.argv, "--output", str(output)])
    except Exception:  # a crash is a failed job, not a failed benchmark
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu
    path = workdir / output
    digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return code, digest, wall, cpu


class Runner:
    """Runs passes over a job list and counts failed jobs."""

    def __init__(self, cli, jobs, workdir: Path, expected: dict):
        self.cli, self.jobs, self.workdir, self.expected = cli, jobs, workdir, expected
        self.first: dict = {}
        self.wrong: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer=None, tag="") -> dict:
        """One pass over every job; returns ``{job name: (wall, cpu)}``."""
        gc.collect()
        times = {}
        for job in self.jobs:
            if tracer is not None:
                tracer.job = f"{tag}/{job.name}"
            code, digest, wall, cpu = run_job(self.cli, job, self.workdir)
            times[job.name] = (wall, cpu)
            self._judge(job, (code, digest))
        return times

    def _judge(self, job, outcome) -> None:
        self.attempted += 1
        if job.name not in self.first:
            self.first[job.name] = outcome
            problems = [] if outcome[0] == 0 else [f"exit code {outcome[0]}"]
            if job.name in self.expected and self.expected[job.name] != outcome:
                problems.append("exit code or output digest differs from the stored one")
            if outcome[1] is not None:
                problems += check(job.argv, self.workdir / "out" / f"{job.name}.json",
                                  self.workdir)
            self.wrong[job.name] = bool(problems)
        elif outcome != self.first[job.name]:
            problems = ["exit code or output digest differs from the first pass"]
        else:
            # the same output as the first pass is as wrong as it was then
            self.failed += self.wrong[job.name]
            return
        self.failed += bool(problems)
        self.problems += [f"{job.name}: {p}" for p in problems]


def _pass_wall(times: dict) -> float:
    return sum(wall for wall, _ in times.values())


def _pass_cpu(times: dict) -> float:
    return sum(cpu for _, cpu in times.values())


def measure(runner: Runner, seconds: float, trace: bool, probe=None) -> dict:
    """Repeat passes for ``seconds``; with ``trace``, alternate traced passes.

    ``probe()`` is called after each untraced pass and returns one set-up
    time, so set-up samples spread over the whole run.
    """
    untraced, traced, layers, setup = [], [], [], []
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        if trace and len(layers) < len(untraced):
            tracer.reset_totals()
            with tracing.installed(tracer):
                traced.append(runner.run_pass(tracer, f"pass{len(layers)}"))
            layers.append(tracer.metrics())
            wall = _pass_wall(traced[-1])
        else:
            untraced.append(runner.run_pass())
            wall = _pass_wall(untraced[-1])
            if probe is not None:
                setup.append(probe())
        # stop where the measured time comes closest to ``seconds``
        enough = len(untraced) >= 2 and (not trace or len(layers) >= 2)
        if enough and time.perf_counter() + wall / 2 >= deadline:
            break
    result = {
        "pass_walls": [_pass_wall(times) for times in untraced],
        "pass_cpus": [_pass_cpu(times) for times in untraced],
        "setup": setup,
    }
    if trace:
        result["layer"] = _layer_metrics(
            runner, layers, [_pass_wall(times) for times in traced], result["pass_walls"])
        result["spans"] = tracer.spans
    return result


def _layer_metrics(runner: Runner, layers: list[dict], traced_walls, untraced_walls) -> dict:
    """Medians of per-pass times; counts must repeat exactly from pass to pass.

    Each traced pass directly follows an untraced one, so the overhead is the
    median difference within those pairs, which cancels slow machine phases.
    """
    merged = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            merged[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                runner.failed += 1
                runner.problems.append(f"{name} differs between traced passes: {values}")
            merged[name] = values[0]
    merged["trace.run_s"] = statistics.median(traced_walls)
    merged["trace.overhead_s"] = statistics.median(
        t - u for u, t in zip(untraced_walls, traced_walls))
    return merged


def start(args: list[str], timeout: float):
    """Run this script in a fresh interpreter with ``args``.

    Returns the seconds until it printed ``ready`` and the rest of its stdout.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    begin = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *args], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            ready_s = time.perf_counter() - begin
            rest, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"worker {args} did not finish within {timeout:.0f} s")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"worker {args} failed with exit code {proc.returncode}")
    return ready_s, rest


def record_digests() -> None:
    cli = import_cli()
    table = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        with scratch(workload) as workdir:
            jobs = workloads.build(workload, DEFAULT_SEED, workdir / "inputs")
            runner = Runner(cli, jobs, workdir, {})
            runner.run_pass()
            if runner.failed:
                raise SystemExit(f"{workload}: not recording failing outputs: {runner.problems}")
        table["workloads"][workload] = {
            kind: {job.name: list(runner.first[job.name]) for job in jobs if job.fixed == fixed}
            for kind, fixed in (("fixed", True), ("seeded", False))
        }
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


@contextlib.contextmanager
def scratch(workload: str):
    """A fresh working directory for this process, made current and removed on exit."""
    path = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    (path / "out").mkdir(parents=True)
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(previous)
        shutil.rmtree(path, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="write the traced run's spans here")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.record_digests:
        record_digests()
        return
    if args.workload is None:
        parser.error("--workload is required")
    cli = import_cli()
    with scratch(args.workload) as workdir:
        jobs = workloads.build(args.workload, args.seed, workdir / "inputs")
        print("ready", flush=True)
        if args.setup_only:
            return
        runner = Runner(cli, jobs, workdir, stored_outcomes(args.workload, args.seed))
        probe_args = ["--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
        probe = None if args.trace else (lambda: start(probe_args, 60)[0])
        result = measure(runner, args.seconds, bool(args.trace), probe)
    spans = result.pop("spans", None)
    if spans is not None and args.spans is not None:
        with args.spans.open("w", encoding="utf-8") as out:
            out.writelines(json.dumps(span) + "\n" for span in spans)
    result.update(
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:50],
        outcomes=runner.first,
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
