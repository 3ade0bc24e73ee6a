"""Regenerate ``reference.json``: per-point engines and summary statistics.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py

For every spec file of every workload, runs the first command that
consumes it under :data:`SEEDS` different seeds and records, per point, the
engine label (which must agree across seeds) and the mean and standard
deviation across seeds of each checked statistic.  The benchmark's
statistical checks compare a run against these values, so they hold for
any seed and survive a versioned change of the random streams.  Rerun
this only when a workload's shape changes.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys

import checks
import run
import workloads

#: Seeds of the reference runs, disjoint from small benchmark seeds.
FIRST_SEED = 100_000
#: Number of reference runs per spec file.
SEEDS = 32


def point_statistics(kind: str, result: dict) -> dict:
    extract = checks.open_statistics if kind == "open" else checks.closed_statistics
    return {name: value for name, (value, _) in extract(result).items()}


def summarize(samples: list[list[tuple[str, dict]]]) -> dict:
    """Fold per-seed ``[(engine, stats), ...]`` lists into one record."""
    points = []
    for index, per_seed in enumerate(zip(*samples)):
        engines = {engine for engine, _ in per_seed}
        if len(engines) != 1:
            raise run.BenchmarkError(f"point {index} ran on engines {engines}")
        stats = {}
        for name in per_seed[0][1]:
            values = [point[name] for _, point in per_seed]
            stats[name] = (
                None
                if any(value is None for value in values)
                else [statistics.fmean(values), statistics.stdev(values)]
            )
        points.append({"engine": engines.pop(), "stats": stats})
    return {"seeds": SEEDS, "points": points}


def collect() -> dict:
    env = run.child_env()
    work = run.WORK
    specs: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        first_steps = {}
        for step in workloads.build(name, 0).steps:
            if step.exit_code == 0:
                first_steps.setdefault(step.spec, step)
        samples: dict[str, list] = {spec: [] for spec in first_steps}
        for seed in range(FIRST_SEED, FIRST_SEED + SEEDS):
            workload = workloads.build(name, seed)
            shutil.rmtree(work, ignore_errors=True)
            workload.write_specs(work / "specs")
            for spec, step in first_steps.items():
                (work / "state").mkdir(parents=True, exist_ok=True)
                argv = step.argv(
                    os.path.relpath(work / "specs", run.ROOT),
                    os.path.relpath(work / "state", run.ROOT),
                )
                result = run.spawn(
                    [sys.executable, "-m", "repro", *argv],
                    work / "out.json",
                    work / "err.txt",
                    env,
                )
                if result.code != 0:
                    raise run.BenchmarkError(
                        f"{spec} seed {seed} exited {result.code}: "
                        + (work / "err.txt").read_text()[-2000:]
                    )
                payload = json.loads((work / "out.json").read_text())
                samples[spec].append(
                    [
                        (point["engine"], point_statistics(step.kind, point))
                        for point in checks.point_results(step.kind, payload)
                    ]
                )
                shutil.rmtree(work / "state")
            print(f"{name}: seed {seed} done", file=sys.stderr)
        for spec, per_seed in samples.items():
            specs[spec] = summarize(per_seed)
    shutil.rmtree(work, ignore_errors=True)
    return specs


def main() -> int:
    specs = collect()
    payload = {
        "environment": run.environment(),
        "first_seed": FIRST_SEED,
        "specs": specs,
    }
    run.REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
