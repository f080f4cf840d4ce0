"""Benchmark for regretgames: seeded CLI workloads, timed end to end and traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py`` and described in
``BENCHMARK.json``. A run starts one fresh single-threaded worker process
(``worker.py``) that imports regretgames from ``src/`` and runs the
workload's jobs as a closed loop with one client for ``--seconds``.

- ``run_s`` and ``cpu_s``: wall and CPU seconds of one pass over all the
  workload's jobs, which is the time to all its verdicts; median over the
  passes of the run.
- ``setup_s``: seconds from starting a worker until its first job is ready
  (interpreter start, importing regretgames, writing the seeded inputs),
  median over the measuring worker and one set-up-only worker started after
  each pass.
- ``peak_rss_mb``: the measuring worker's peak resident memory.

With ``--trace 1`` the metrics are the per-layer ones instead: self times,
call counts and computed work counts from the traced passes (``tracer.py``),
and the tracing overhead. Jobs that exit non-zero, crash, or produce output
that fails a check count as failed; the last line on stdout is the result
object. A record with the environment, every sample and every job's output
digest goes to ``.bench_work/`` so runs of two commits can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import worker
from workloads import WORKLOADS

#: Seconds a run may take in all; the measured part is ``--seconds`` of it.
TIME_LIMIT_S = 170


def _environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "seed": seed}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (worker.ROOT / "src" / "regretgames" / "__init__.py").is_file():
        print(f"error: no regretgames sources under {worker.ROOT / 'src'}", file=sys.stderr)
        return 2

    record = worker.ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.parent.mkdir(exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        argv += ["--spans", str(record.with_suffix(".spans.jsonl"))]
    ready_s, out = worker.start(argv, TIME_LIMIT_S - args.seconds)
    samples = json.loads(out.strip().splitlines()[-1])
    setup = [ready_s, *samples["setup"]]

    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in samples["layer"].items()}
    else:
        metrics = {
            "run_s": {"value": statistics.median(samples["pass_walls"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(samples["pass_cpus"]), "unit": "s"},
            "peak_rss_mb": {"value": samples["peak_rss_kb"] / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    result = {"correct": samples["failed"] == 0, "attempted": samples["attempted"],
              "failed": samples["failed"], "metrics": metrics}
    environment = _environment(args.seed)
    record.with_suffix(".json").write_text(json.dumps({
        "workload": args.workload, "environment": environment, "result": result,
        "failed_ratio": samples["failed"] / samples["attempted"], "setup_samples": setup,
        **samples,
    }, indent=1) + "\n", encoding="utf-8")

    for problem in samples["problems"]:
        print(f"failed: {problem}")
    print(f"environment: {json.dumps(environment)}")
    print(f"passes: {len(samples['pass_walls'])}, failed_ratio: "
          f"{samples['failed']}/{samples['attempted']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
