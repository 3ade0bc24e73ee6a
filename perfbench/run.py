"""The repository's benchmark: ``python -m repro`` workloads, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload closed-sweep --seed 1 --seconds 30 --trace 0

One run generates the workload's spec files from ``--seed``, warms the
bytecode cache, times ``setup_s`` over several start-ups, then repeats the
workload - every command as its own ``python -m repro`` process, one at a
time - until ``--seconds`` have passed.  Every command's output is checked
(:mod:`checks`).

The machine is shared and its speed drifts by tens of percent within a
minute, so every timed child runs right after a calibration child
(``calibrate.py``, program-independent) and times are reported
normalized: a repetition's wall time is scaled by ``CALIBRATION_NOMINAL_S``
over the mean wall time of its calibration children.  Raw medians are
printed alongside.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions; peak RSS is the largest child's).  With ``--trace 1`` the
run alternates plain and traced repetitions: traced commands run under
``trace_boot.py``, and the per-layer metrics come from the traced
repetition with the median (raw) wall time.  ``attempted`` counts one
per expected point result, injected crash and set-up probe, over all
repetitions, plus one per wrapped entry point a traced command could not
find; ``failed`` those failing a check, and every such entry point.

Everything the run writes goes under ``.perfbench_work/`` in the checkout
and is removed when it ends.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

#: Start-ups timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 7
#: Repetitions a run makes even when ``--seconds`` has already passed.
MIN_REPS = 3
#: Wall-clock budget of one CLI command before it is killed.
COMMAND_TIMEOUT_S = 120.0
#: Wall time of ``calibrate.py`` on an unloaded machine of the kind the
#: benchmark was defined on; normalized times are in these seconds.
CALIBRATION_NOMINAL_S = 0.3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_rounds_per_s": "trial-rounds/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units, in report order.
PER_LAYER = {
    **{name: "s" for name in layers.TIME_METRICS},
    "scenarios.resolve_calls": "count",
    "scenarios.fused_point_frac": "ratio",
    "channel.scalar_calls": "count",
    "batch.schedule_trial_rounds": "count",
    "batch.history_trial_rounds": "count",
    "batch_players.trial_rounds": "count",
    "opensys.trial_rounds": "count",
    "store.hits": "count",
    "store.misses": "count",
    "store.bytes_written": "bytes",
    "journal.lines": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed check)."""


@dataclass
class Exit:
    code: int
    wall_s: float
    rss_mb: float


@dataclass
class Rep:
    """One pass over a workload's commands."""

    wall_s: float = 0.0
    calibration_s: float = 0.0
    peak_rss_mb: float = 0.0
    trial_rounds: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    store_bytes: int = 0

    def normalized_wall_s(self, commands: int) -> float:
        """Wall time at nominal machine speed."""
        return self.wall_s * CALIBRATION_NOMINAL_S * commands / self.calibration_s


def child_env() -> dict[str, str]:
    """The environment of every child: ``src`` importable, bytecode cached.

    Bytecode goes to a cache inside the work directory, as an installed
    package's would, so start-up is not charged with recompiling the
    sources on every command.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, env: dict) -> Exit:
    """Run one child to completion; its wall time and max RSS from wait4."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, process.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return Exit(process.returncode, wall, usage.ru_maxrss / 1024.0)


def tree_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


class Bench:
    """Runs one workload's commands and checks their outputs."""

    def __init__(self, workload: workloads.Workload, reference: dict) -> None:
        self.workload = workload
        self.reference = reference
        self.env = child_env()
        self.specs = WORK / "specs"
        self.state = WORK / "state"
        self.out = WORK / "out"
        missing = [s.spec for s in workload.steps if s.spec not in reference["specs"]]
        if missing:
            raise BenchmarkError(f"reference.json has no record of {missing}")

    def prepare(self) -> None:
        """Write the spec files and warm the bytecode cache (untimed)."""
        self.workload.write_specs(self.specs)
        self.out.mkdir(parents=True, exist_ok=True)
        for argv in (
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
            [sys.executable, "-c", "import repro.cli"],
        ):
            result = spawn(argv, self.out / "warm.out", self.out / "warm.err", self.env)
            if result.code != 0:
                raise BenchmarkError(
                    f"warm-up {argv[1:]} exited {result.code}: "
                    + (self.out / "warm.err").read_text()[-2000:]
                )

    def calibration_s(self) -> float:
        """Wall time of one calibration child."""
        result = spawn(
            [sys.executable, str(HERE / "calibrate.py")],
            self.out / "calibrate.out",
            self.out / "calibrate.err",
            self.env,
        )
        if result.code != 0:
            raise BenchmarkError(
                f"calibration exited {result.code}: "
                + (self.out / "calibrate.err").read_text()[-2000:]
            )
        return result.wall_s

    def setup_times(self) -> tuple[list[float], list[str]]:
        """Normalized ``setup_s`` samples: start-up, import, spec expansion."""
        paths = [str(self.specs / f"{name}.json") for name in self.workload.specs]
        expected = sum(self.workload.spec_points(name) for name in self.workload.specs)
        argv = [sys.executable, str(HERE / "setup_probe.py"), *paths]
        times, failures = [], []
        for _ in range(SETUP_PROBES):
            calibration = self.calibration_s()
            result = spawn(argv, self.out / "setup.out", self.out / "setup.err", self.env)
            printed = (self.out / "setup.out").read_text().strip()
            if result.code != 0 or printed != str(expected):
                failures.append(
                    f"setup probe exited {result.code}, expanded {printed!r} of "
                    f"{expected} points"
                )
            times.append(result.wall_s * CALIBRATION_NOMINAL_S / calibration)
        return times, failures

    def rep(self, traced: bool) -> Rep:
        shutil.rmtree(self.state, ignore_errors=True)
        self.state.mkdir(parents=True)
        rep = Rep()
        codes = []
        for step in self.workload.steps:
            argv = step.argv(
                os.path.relpath(self.specs, ROOT), os.path.relpath(self.state, ROOT)
            )
            spans = self.out / f"{step.name}.spans.json"
            spans.unlink(missing_ok=True)
            if traced:
                command = [sys.executable, str(HERE / "trace_boot.py"), str(spans), "--"]
            else:
                command = [sys.executable, "-m", "repro"]
            rep.calibration_s += self.calibration_s()
            result = spawn(
                command + argv,
                self.out / f"{step.name}.out",
                self.out / f"{step.name}.err",
                self.env,
            )
            rep.wall_s += result.wall_s
            rep.peak_rss_mb = max(rep.peak_rss_mb, result.rss_mb)
            codes.append(result.code)
            if traced and spans.exists():
                record = json.loads(spans.read_text())
                rep.traces.append(record)
                # An entry point the program no longer defines would read
                # as a layer that takes no time: fail the run instead.
                rep.attempted += len(record["missing"])
                rep.failures.extend(
                    f"{step.name}: no entry point {name} to trace"
                    for name in record["missing"]
                )
            elif traced:
                rep.failures.append(f"{step.name}: traced command wrote no spans")
        rep.store_bytes = tree_bytes(self.state / "store")
        self.check(rep, codes)
        return rep

    def check(self, rep: Rep, codes: list[int]) -> None:
        outputs: dict[str, dict] = {}
        for step, code in zip(self.workload.steps, codes):
            reference = self.reference["specs"][step.spec]
            if step.exit_code != 0:
                rep.attempted += 1
                if code != step.exit_code:
                    rep.failures.append(f"{step.name}: exit {code}, not {step.exit_code}")
                continue
            points = len(reference["points"])
            rep.attempted += points
            text = (self.out / f"{step.name}.out").read_text()
            try:
                payload = json.loads(text) if code == 0 else None
            except ValueError:
                payload = None
            if payload is None:
                stderr = (self.out / f"{step.name}.err").read_text()[-500:]
                rep.failures.extend(
                    [f"{step.name}: exit {code}, no JSON result: {stderr}"] * points
                )
                continue
            outputs[step.name] = payload
            try:
                errors, rounds = checks.check_output(
                    step, payload, reference, outputs.get(step.same_as)
                )
            except (KeyError, TypeError, ValueError) as error:
                errors, rounds = [f"malformed result: {error!r}"] * points, 0
            rep.failures.extend(
                f"{step.name}[{index}]: {error}"
                for index, error in enumerate(errors)
                if error
            )
            rep.trial_rounds += rounds


def layer_metrics(
    traced: list[Rep], untraced: list[Rep], commands: int
) -> dict[str, float]:
    """Per-layer metrics of the traced rep with the median raw wall time.

    The tracing overhead compares normalized walls, so that the machine's
    drift between the traced and the plain repetitions cancels.
    """
    ordered = sorted(traced, key=lambda rep: rep.wall_s)
    rep = ordered[(len(ordered) - 1) // 2]
    times, counts = layers.aggregate(rep.traces)
    closed = counts["scenarios.closed_points"]
    metrics = {**times, **counts}
    metrics["scenarios.fused_point_frac"] = (
        counts["scenarios.fused_points"] / closed if closed else 0.0
    )
    metrics["store.bytes_written"] = rep.store_bytes
    metrics["trace.wall_s"] = rep.wall_s
    metrics["trace.overhead_frac"] = (
        statistics.median(r.normalized_wall_s(commands) for r in traced)
        / statistics.median(r.normalized_wall_s(commands) for r in untraced)
        - 1.0
    )
    metrics["trace.unattributed_s"] = rep.wall_s - sum(times.values())
    return {name: metrics[name] for name in PER_LAYER}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def environment() -> str:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return (
        f"python {platform.python_version()}, numpy {numpy}, "
        f"nproc {os.cpu_count()}"
    )


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    reference = json.loads(REFERENCE.read_text())
    bench = Bench(workloads.build(name, seed), reference)
    bench.prepare()
    setup, setup_failures = bench.setup_times()
    untraced: list[Rep] = []
    traced: list[Rep] = []
    started = time.perf_counter()
    while True:
        untraced.append(bench.rep(traced=False))
        if trace:
            traced.append(bench.rep(traced=True))
        if len(untraced) >= MIN_REPS and time.perf_counter() - started >= seconds:
            break
    reps = untraced + traced
    attempted = len(setup) + sum(rep.attempted for rep in reps)
    failures = setup_failures + [f for rep in reps for f in rep.failures]

    commands = len(bench.workload.steps)
    walls = [rep.normalized_wall_s(commands) for rep in untraced]
    rates = [rep.trial_rounds / wall for rep, wall in zip(untraced, walls)]
    print(f"perfbench {name} seed={seed} reps={len(untraced)} ({environment()})")
    print(
        f"  raw wall median {statistics.median(r.wall_s for r in untraced):.6g} s,"
        f" machine slowdown median "
        f"{statistics.median(r.calibration_s / commands for r in untraced) / CALIBRATION_NOMINAL_S:.4g}"
    )
    if trace:
        metrics = layer_metrics(traced, untraced, commands)
        units = PER_LAYER
        for metric, value in metrics.items():
            print(f"  {metric:<32} {value:>14.6g} {units[metric]}")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "sim_rounds_per_s": statistics.median(rates),
            "peak_rss_mb": max(rep.peak_rss_mb for rep in untraced),
        }
        units = END_TO_END
        samples = {"wall_s": walls, "setup_s": setup, "sim_rounds_per_s": rates}
        for metric, value in metrics.items():
            spread = ""
            if metric in samples:
                q1, q3 = quartiles(samples[metric])
                spread = f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[metric])})"
            print(f"  {metric:<18} {value:>14.6g} {units[metric]}{spread}")
    print(
        f"  {'failed_frac':<18} {len(failures) / attempted:>14.6g} ratio"
        f"  ({len(failures)} of {attempted} points)"
    )
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure at {ROOT / 'src'}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
