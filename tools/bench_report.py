"""Emit a JSON perf snapshot of the Monte Carlo substrate.

Times the scalar reference loops against the vectorized batch engines on
benchmark-scale Table 1 workloads (no-CD schedule path and the CD
history-trie path, solo and fused across the dense CD grid) and Table 2
player workloads (deterministic scan / tree descent / backoff on the
per-player engine), plus the scenario sweep executors (serial vs process
pool on a Table-1-scale point grid; recorded as ``skipped`` on
single-core boxes, where a pool physically cannot win) and the
open-system driver (vectorized open-schedule loop vs the scalar
per-trial reference on a fixed Poisson load point, and stacked open
sweeps vs a loop of per-point runs), and writes a
``BENCH_*.json`` snapshot, so future PRs can track the performance
trajectory with a one-line diff instead of re-deriving numbers from
benchmark logs.

Usage (from the repository root)::

    PYTHONPATH=src python tools/bench_report.py [--output BENCH_BATCH.json]

The snapshot records the environment (python/numpy versions, CPU count -
the process-pool speedup is bounded by the cores available), the
workload configuration, per-substrate wall-clock seconds and the
speedups.  Timings are medians over ``--repeats`` runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.analysis.montecarlo import (
    estimate_player_rounds,
    estimate_uniform_rounds,
)
from repro.channel import (
    AdaptiveAdversary,
    NoisyChannel,
    ObliviousJammer,
    history_arena_stats,
    with_collision_detection,
    without_collision_detection,
)
from repro.experiments.table1_nocd import entropy_sweep_distributions
from repro.protocols.sorted_probing import SortedProbingProtocol
from repro.protocols.willard import WillardProtocol
from repro.scenarios import run_sweep

# The sweep-executor and player-engine benchmark workloads are shared with
# the opt-in gates in benchmarks/; running as a script puts tools/ (not the
# repo root) on sys.path, so anchor the import at the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.opensys_workload import (  # noqa: E402
    fused_open_sweeps,
    open_point,
    open_retry_point,
)
from benchmarks.player_workload import N as PLAYER_N, player_cells  # noqa: E402
from benchmarks.sweep_workload import (  # noqa: E402
    CACHE_TRIALS_PER_POINT,
    RANGE_SETS,
    cache_sweep,
    cd_grid_sweep,
    executor_sweep,
    fused_player_sweep,
    fused_sweep,
)

N = 2**16
MAX_ROUNDS = 1024
SEED = 2021


def _median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _measure(protocol, distribution, channel, trials: int, repeats: int):
    def estimate(batch: bool):
        return estimate_uniform_rounds(
            protocol,
            distribution,
            np.random.default_rng(SEED),
            channel=channel,
            trials=trials,
            max_rounds=MAX_ROUNDS,
            batch=batch,
        )

    scalar_seconds = _median_seconds(lambda: estimate(False), repeats)
    batch_seconds = _median_seconds(lambda: estimate(True), repeats)
    batched = estimate(True)
    return {
        "scalar_seconds": round(scalar_seconds, 6),
        "batch_seconds": round(batch_seconds, 6),
        "speedup": round(scalar_seconds / batch_seconds, 2),
        "success_rate": batched.success.rate,
        "mean_rounds": (
            None if not batched.any_successes else round(batched.rounds.mean, 4)
        ),
    }


def player_bench(trials: int, repeats: int) -> dict:
    """Scalar per-player loop vs the batch player engine, per Table-2 cell.

    The same cells the ``benchmarks/test_bench_player.py`` gate enforces
    (deterministic suffix-adversary scan, random-adversary tree descent,
    binary exponential backoff, all at n = 2^16).
    """
    measurements = {}
    for cell in player_cells(trials):
        def estimate(batch: bool, cell=cell):
            return estimate_player_rounds(
                cell.protocol,
                lambda rng: cell.adversary.checked_select(PLAYER_N, cell.k, rng),
                PLAYER_N,
                np.random.default_rng(SEED),
                channel=cell.channel,
                advice_function=cell.advice_function,
                trials=cell.trials,
                max_rounds=cell.max_rounds,
                batch=batch,
            )

        scalar_seconds = _median_seconds(lambda: estimate(False), repeats)
        batch_seconds = _median_seconds(lambda: estimate(True), repeats)
        batched = estimate(True)
        measurements[cell.name] = {
            "k": cell.k,
            "trials": cell.trials,
            "max_rounds": cell.max_rounds,
            "scalar_seconds": round(scalar_seconds, 6),
            "batch_seconds": round(batch_seconds, 6),
            "speedup": round(scalar_seconds / batch_seconds, 2),
            "success_rate": batched.success.rate,
            "mean_rounds": (
                None
                if not batched.any_successes
                else round(batched.rounds.mean, 4)
            ),
        }
    return measurements


def sweep_bench(trials: int, repeats: int, workers: int | None) -> dict:
    """Serial vs process-pool wall clock on an 8-point Table-1-scale sweep.

    Every point is an independent scenario (own seed), so the two
    executors return identical results; only the wall clock differs.
    The speedup is bounded by the machine's core count, so on a
    single-core box the section records ``skipped: true`` (with
    ``cpu_count``) instead of a physically meaningless ~1.0x reading -
    matching the gate in ``benchmarks/test_bench_sweep.py``, which also
    skips below two cores.
    """
    cpu_count = os.cpu_count()
    if (cpu_count or 1) < 2:
        return {
            "skipped": True,
            "cpu_count": cpu_count,
            "points": len(RANGE_SETS),
            "trials_per_point": trials,
            "reason": (
                "single-core machine: a process pool cannot beat serial "
                "without a second core, so timing it here would record "
                "noise as data"
            ),
        }
    sweep = executor_sweep(trials)
    if workers is None:
        workers = min(len(RANGE_SETS), cpu_count or 1)

    serial_seconds = _median_seconds(
        lambda: run_sweep(sweep, executor="serial"), repeats
    )
    process_seconds = _median_seconds(
        lambda: run_sweep(sweep, executor="process", max_workers=workers), repeats
    )
    return {
        "skipped": False,
        "points": len(RANGE_SETS),
        "trials_per_point": trials,
        "max_workers": workers,
        "cpu_count": cpu_count,
        "serial_seconds": round(serial_seconds, 6),
        "process_seconds": round(process_seconds, 6),
        "speedup": round(serial_seconds / process_seconds, 2),
    }


def sweep_cache_bench(repeats: int) -> dict:
    """Warm content-addressed cache vs cold re-simulation on the sweep dial.

    The ``sweep_cache`` section behind the >= 20x gate in
    ``benchmarks/test_bench_cache.py``: one cold run per repeat against a
    fresh cache directory (the honest populate cost, simulation plus
    store writes), then warm re-runs against the populated store through
    a fresh :class:`~repro.scenarios.store.ResultStore` instance each
    time - disk reads and key hashes, no in-memory LRU carryover, no
    engine invocations (``cache_hits == points`` is asserted, and the
    warm results are bit-identical to the cold run's).  Single-core by
    nature: a cache hit needs no parallelism to win.
    """
    import shutil
    import tempfile

    from repro.scenarios import ResultStore

    sweep = cache_sweep()
    points = len(sweep.points())
    work_dir = Path(tempfile.mkdtemp(prefix="bench-sweep-cache-"))
    try:
        cold_samples = []
        for repeat in range(repeats):
            cache_dir = work_dir / f"cold-{repeat}"
            start = time.perf_counter()
            cold = run_sweep(sweep, executor="serial", cache=cache_dir)
            cold_samples.append(time.perf_counter() - start)
        cold_seconds = statistics.median(cold_samples)

        warm_dir = work_dir / f"cold-{repeats - 1}"

        def warm_run():
            store = ResultStore(warm_dir)  # fresh LRU: hits come from disk
            result = run_sweep(sweep, executor="serial", cache=store)
            assert result.cache_hits == points, "warm run invoked an engine"
            return result

        warm_seconds = _median_seconds(warm_run, repeats)
        assert warm_run().results == cold.results
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "points": points,
        "trials_per_point": CACHE_TRIALS_PER_POINT,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "speedup": round(cold_seconds / warm_seconds, 2),
        "cache_hits": points,
    }


def history_bench(cd_willard: dict, repeats: int) -> dict:
    """The CD history-engine section: solo speedup plus the fused grid.

    ``cd_willard`` is the solo batch-vs-scalar measurement already taken
    for the ``measurements`` section (same workload as the >= 8x gate in
    ``benchmarks/test_bench_history.py``); the fused half times the
    dense CD grid (>= 3x gate) against the point-serial executor.  The
    ``arena`` counters are those the first fused grid run adds to the
    history arena (no earlier section runs these protocol specs): the
    nodes it allocates and the forks it merges into an existing node
    with the same session state.
    """
    sweep = cd_grid_sweep()
    before = history_arena_stats()
    run_sweep(sweep, executor="fused")  # warm caches: steady-state timing
    after = history_arena_stats()
    arena = {name: after[name] - before[name] for name in ("nodes", "merged")}
    serial_seconds = _median_seconds(
        lambda: run_sweep(sweep, executor="serial"), repeats
    )
    fused_seconds = _median_seconds(
        lambda: run_sweep(sweep, executor="fused"), repeats
    )
    points = sweep.points()
    return {
        "cd_willard": cd_willard,
        "cd_grid": {
            "points": len(points),
            "trials_per_point": points[0].trials,
            "serial_seconds": round(serial_seconds, 6),
            "fused_seconds": round(fused_seconds, 6),
            "speedup": round(serial_seconds / fused_seconds, 2),
            "arena": arena,
        },
    }


def fused_bench(repeats: int) -> dict:
    """Fused executor vs point-serial batch on the dense single-core grids.

    The same grids the ``benchmarks/test_bench_sweep_fused.py`` gate
    enforces (>= 3x on the 32-point schedule grid; the 16-point player
    grid is informational): many small engine-bound points whose round
    loops fuse into one stacked run.  Unlike the process pool this axis
    needs no extra cores, so the snapshot is meaningful on 1-CPU boxes.
    """
    measurements = {}
    for name, sweep in (
        ("schedule_grid", fused_sweep()),
        ("player_grid", fused_player_sweep()),
    ):
        serial_seconds = _median_seconds(
            lambda sweep=sweep: run_sweep(sweep, executor="serial"), repeats
        )
        fused_seconds = _median_seconds(
            lambda sweep=sweep: run_sweep(sweep, executor="fused"), repeats
        )
        points = sweep.points()
        measurements[name] = {
            "points": len(points),
            "trials_per_point": points[0].trials,
            "serial_seconds": round(serial_seconds, 6),
            "fused_seconds": round(fused_seconds, 6),
            "speedup": round(serial_seconds / fused_seconds, 2),
        }
    return measurements



def adversary_bench(trials: int, repeats: int) -> dict:
    """Fault-model overhead on the batch engines.

    Times the faithful batch run against the same workload with each
    channel model injected (a deterministic budgeted jammer and a
    randomized noisy channel), on both the no-CD schedule engine and the
    CD history engine - the same cases the gate in
    ``benchmarks/test_bench_adversary.py`` enforces (noisy and jammed both
    within 2x of faithful).  ``overhead`` is the model's
    batch-seconds over the faithful batch-seconds.
    """
    distribution = entropy_sweep_distributions(N, quick=True)[1]
    engines = {
        "nocd_schedule": (
            lambda: SortedProbingProtocol(distribution, one_shot=False),
            without_collision_detection(),
        ),
        "cd_history": (lambda: WillardProtocol(N), with_collision_detection()),
    }
    models = {
        "faithful": None,
        "jam_oblivious": ObliviousJammer(budget=8),
        "noise": NoisyChannel(
            silence_to_collision=0.05,
            collision_to_silence=0.05,
            success_erasure=0.1,
        ),
    }
    section: dict = {}
    for engine_name, (make_protocol, base_channel) in engines.items():
        rows: dict = {}
        for model_name, model in models.items():
            channel = base_channel.with_model(model)

            def estimate():
                return estimate_uniform_rounds(
                    make_protocol(),
                    distribution,
                    np.random.default_rng(SEED),
                    channel=channel,
                    trials=trials,
                    max_rounds=MAX_ROUNDS,
                    batch=True,
                )

            seconds = _median_seconds(estimate, repeats)
            estimated = estimate()
            rows[model_name] = {
                "batch_seconds": round(seconds, 6),
                "success_rate": estimated.success.rate,
                "mean_rounds": (
                    None
                    if not estimated.any_successes
                    else round(estimated.rounds.mean, 4)
                ),
            }
            if model_name != "faithful":
                rows[model_name]["overhead"] = round(
                    seconds / rows["faithful"]["batch_seconds"], 2
                )
        section[engine_name] = rows
    return section


def adversary_adaptive(trials: int, repeats: int) -> dict:
    """Adaptive-adversary overhead on the batch engines.

    Mirrors :func:`adversary_bench` with the full-information
    ``jam-adaptive`` model.  An adaptive run is longer *by design* - the
    adversary buys extra rounds with every jam, which is real extra
    work, not injection overhead.  (The history engine's memo does not
    grow with the jams: it holds one node per session state, so its node
    count stays within Willard's state space however the adversary
    steers the histories.)  The gate in
    ``benchmarks/test_bench_adversary.py`` therefore holds the adaptive
    batch within 3x of the faithful batch on each engine's
    representative strategy (greedy on the schedule engine, the
    scheduler strategy on the history engine).

    On a single-core box the section records ``skipped: true`` with the
    ``cpu_count`` context - the same convention as ``sweep_executor`` -
    instead of readings: the adaptive rows are the ones a fused sweep
    runs as serial singletons, and timing that serialisation without a
    second core records scheduler noise as data.
    """
    cpu_count = os.cpu_count()
    if (cpu_count or 1) < 2:
        return {
            "skipped": True,
            "cpu_count": cpu_count,
            "trials": trials,
            "reason": (
                "single-core machine: adaptive points run as serial "
                "singletons in fused sweeps, so single-core timings of "
                "that serialisation would record scheduler noise as data"
            ),
        }
    distribution = entropy_sweep_distributions(N, quick=True)[1]
    engines = {
        "nocd_schedule": (
            lambda: SortedProbingProtocol(distribution, one_shot=False),
            without_collision_detection(),
        ),
        "cd_history": (lambda: WillardProtocol(N), with_collision_detection()),
    }
    models = {
        "faithful": None,
        "adaptive_greedy": AdaptiveAdversary(budget=4, strategy="greedy"),
        "adaptive_scheduler": AdaptiveAdversary(
            budget=8, strategy="scheduler", mode="front"
        ),
        "adaptive_streak": AdaptiveAdversary(
            budget=8, strategy="streak", patience=2
        ),
    }
    section: dict = {"skipped": False, "cpu_count": cpu_count}
    for engine_name, (make_protocol, base_channel) in engines.items():
        rows: dict = {}
        for model_name, model in models.items():
            channel = base_channel.with_model(model)

            def estimate():
                return estimate_uniform_rounds(
                    make_protocol(),
                    distribution,
                    np.random.default_rng(SEED),
                    channel=channel,
                    trials=trials,
                    max_rounds=MAX_ROUNDS,
                    batch=True,
                )

            seconds = _median_seconds(estimate, repeats)
            estimated = estimate()
            rows[model_name] = {
                "batch_seconds": round(seconds, 6),
                "success_rate": estimated.success.rate,
                "mean_rounds": (
                    None
                    if not estimated.any_successes
                    else round(estimated.rounds.mean, 4)
                ),
            }
            if model_name != "faithful":
                rows[model_name]["overhead"] = round(
                    seconds / rows["faithful"]["batch_seconds"], 2
                )
        section[engine_name] = rows
    return section


def open_system_bench(repeats: int) -> dict:
    """Vectorized open-loop driver vs the scalar per-trial reference.

    The fixed load point of ``benchmarks/opensys_workload.py`` (decay
    serving Poisson arrivals below service capacity) - the same run the
    >= 5x gate in ``benchmarks/test_bench_opensys.py`` enforces, with the
    same bit-identity guarantee between the two engines.  Single-core.
    """
    from repro.scenarios import run_open_scenario

    spec = open_point()
    scalar_seconds = _median_seconds(
        lambda: run_open_scenario(spec.override({"batch": False})), repeats
    )
    vector_seconds = _median_seconds(lambda: run_open_scenario(spec), repeats)
    result = run_open_scenario(spec)
    summary = result.summary
    return {
        "protocol": spec.protocol.id,
        "arrivals": spec.arrivals.family,
        "offered_load": spec.arrivals.params.get("rate"),
        "trials": spec.trials,
        "rounds": spec.rounds,
        "warmup": spec.warmup,
        "engine": result.engine,
        "scalar_seconds": round(scalar_seconds, 6),
        "batch_seconds": round(vector_seconds, 6),
        "speedup": round(scalar_seconds / vector_seconds, 2),
        "p50": summary.p50,
        "p99": summary.p99,
        "throughput": round(summary.throughput, 6),
    }


def open_retry_bench(repeats: int) -> dict:
    """The open driver under a full request lifecycle: backoff + shed.

    The retry point of ``benchmarks/opensys_workload.py`` (graceful-
    degradation regime: timeouts on the tail, jittered capped backoff,
    occupancy shedding) - the same run the lifecycle gate in
    ``benchmarks/test_bench_opensys.py`` enforces.  ``overhead`` is the
    vectorized retry run against the identical traffic point with the
    zero policies (give-up / hard capacity), i.e. the plain driver's
    fast path; the gate caps it at 2x.
    """
    from repro.scenarios import run_open_scenario

    spec = open_retry_point()
    plain = spec.override(
        {
            "name": "bench-open-decay-retry-baseline",
            "retry": "give-up",
            "admission": "capacity",
        }
    )
    scalar_seconds = _median_seconds(
        lambda: run_open_scenario(spec.override({"batch": False})), repeats
    )
    vector_seconds = _median_seconds(lambda: run_open_scenario(spec), repeats)
    plain_seconds = _median_seconds(lambda: run_open_scenario(plain), repeats)
    result = run_open_scenario(spec)
    summary = result.summary
    return {
        "protocol": spec.protocol.id,
        "arrivals": spec.arrivals.family,
        "offered_load": spec.arrivals.params.get("rate"),
        "retry": spec.retry.to_dict(),
        "admission": spec.admission.to_dict(),
        "timeout": spec.timeout,
        "capacity": spec.capacity,
        "trials": spec.trials,
        "rounds": spec.rounds,
        "warmup": spec.warmup,
        "engine": result.engine,
        "scalar_seconds": round(scalar_seconds, 6),
        "batch_seconds": round(vector_seconds, 6),
        "plain_seconds": round(plain_seconds, 6),
        "speedup": round(scalar_seconds / vector_seconds, 2),
        "overhead": round(vector_seconds / plain_seconds, 2),
        "p50": summary.p50,
        "p99": summary.p99,
        "throughput": round(summary.throughput, 6),
        "retried": summary.retried,
        "abandoned": summary.abandoned,
    }


def open_sweep_fused_bench(repeats: int) -> dict:
    """Stacked open sweeps vs a loop of per-point runs, same driver code.

    The example load curve and retry grid - the sweeps the stacked-sweep
    gate in ``benchmarks/test_bench_opensys.py`` holds to >= 1.3x
    combined, with bit-identical stores.  Single-core.
    """
    from repro.scenarios import (
        open_fusion_groups,
        resolve_open_scenario,
        run_open_scenario,
        run_open_sweep,
    )

    measurements = {}
    for name, sweep in fused_open_sweeps().items():
        points = sweep.points()
        groups = open_fusion_groups([resolve_open_scenario(p) for p in points])
        per_point_seconds = _median_seconds(
            lambda points=points: [run_open_scenario(p) for p in points],
            repeats,
        )
        fused_seconds = _median_seconds(
            lambda sweep=sweep: run_open_sweep(sweep), repeats
        )
        measurements[name] = {
            "points": len(points),
            "groups": len(groups),
            "trials_per_point": points[0].trials,
            "rounds": points[0].rounds,
            "per_point_seconds": round(per_point_seconds, 6),
            "fused_seconds": round(fused_seconds, 6),
            "speedup": round(per_point_seconds / fused_seconds, 2),
        }
    return measurements


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_BATCH.json"),
        help="snapshot path (default: BENCH_BATCH.json in the cwd)",
    )
    parser.add_argument(
        "--trials", type=int, default=6000,
        help="Monte Carlo trials per measurement (default 6000)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats; the median is recorded (default 3)",
    )
    parser.add_argument(
        "--sweep-trials", type=int, default=200_000,
        help=(
            "trials per sweep point for the executor benchmark; heavy on "
            "purpose - each point must dwarf the pool's spawn cost "
            "(default 200000)"
        ),
    )
    parser.add_argument(
        "--sweep-workers", type=int, default=None,
        help="process-pool size for the sweep benchmark (default: cpu count)",
    )
    parser.add_argument(
        "--player-trials", type=int, default=2000,
        help=(
            "trials for the player-engine cells (default 2000; the backoff "
            "cell scales this down - the scalar loop there is costly)"
        ),
    )
    args = parser.parse_args(argv)

    distribution = entropy_sweep_distributions(N, quick=True)[1]
    measurements = {
        "nocd_sorted_probing": _measure(
            SortedProbingProtocol(distribution, one_shot=False),
            distribution,
            without_collision_detection(),
            args.trials,
            args.repeats,
        ),
        "cd_willard": _measure(
            WillardProtocol(N),
            distribution,
            with_collision_detection(),
            args.trials,
            args.repeats,
        ),
    }
    player_engine = player_bench(args.player_trials, args.repeats)
    history_engine = history_bench(measurements["cd_willard"], args.repeats)
    sweep_executor = sweep_bench(args.sweep_trials, args.repeats, args.sweep_workers)
    sweep_fused = fused_bench(args.repeats)
    sweep_cache = sweep_cache_bench(args.repeats)
    adversary = adversary_bench(args.trials, args.repeats)
    adaptive = adversary_adaptive(args.trials, args.repeats)
    open_system = open_system_bench(args.repeats)
    open_retry = open_retry_bench(args.repeats)
    open_sweep_fused = open_sweep_fused_bench(args.repeats)
    snapshot = {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "n": N,
            "trials": args.trials,
            "max_rounds": MAX_ROUNDS,
            "seed": SEED,
            "repeats": args.repeats,
            "workload": distribution.name,
        },
        "measurements": measurements,
        "player_engine": player_engine,
        "history_engine": history_engine,
        "sweep_executor": sweep_executor,
        "sweep_fused": sweep_fused,
        "sweep_cache": sweep_cache,
        "adversary": adversary,
        "adversary_adaptive": adaptive,
        "open_system": open_system,
        "open_retry": open_retry,
        "open_sweep_fused": open_sweep_fused,
    }
    args.output.write_text(json.dumps(snapshot, indent=2) + "\n")
    for name, row in {**measurements, **player_engine}.items():
        print(
            f"{name}: scalar={row['scalar_seconds']:.3f}s "
            f"batch={row['batch_seconds']:.3f}s speedup={row['speedup']}x"
        )
    for engine_name, rows in adversary.items():
        overheads = ", ".join(
            f"{model_name}={row['overhead']}x"
            for model_name, row in rows.items()
            if model_name != "faithful"
        )
        print(f"adversary/{engine_name}: {overheads} over faithful")
    if adaptive.get("skipped"):
        print(
            f"adversary_adaptive: skipped ({adaptive['cpu_count']} cpu): "
            f"{adaptive['reason']}"
        )
    else:
        for engine_name in ("nocd_schedule", "cd_history"):
            rows = adaptive[engine_name]
            overheads = ", ".join(
                f"{model_name}={row['overhead']}x"
                for model_name, row in rows.items()
                if model_name != "faithful"
            )
            print(
                f"adversary_adaptive/{engine_name}: {overheads} over faithful"
            )
    cd_grid = history_engine["cd_grid"]
    print(
        f"history_engine/cd_grid: serial={cd_grid['serial_seconds']:.3f}s "
        f"fused={cd_grid['fused_seconds']:.3f}s "
        f"speedup={cd_grid['speedup']}x ({cd_grid['points']} points, "
        f"{cd_grid['arena']['nodes']} arena nodes, "
        f"{cd_grid['arena']['merged']} merged)"
    )
    if sweep_executor.get("skipped"):
        print(
            f"sweep_executor: skipped ({sweep_executor['cpu_count']} cpu): "
            f"{sweep_executor['reason']}"
        )
    else:
        print(
            f"sweep_executor: serial={sweep_executor['serial_seconds']:.3f}s "
            f"process={sweep_executor['process_seconds']:.3f}s "
            f"speedup={sweep_executor['speedup']}x "
            f"({sweep_executor['points']} points, "
            f"{sweep_executor['max_workers']} workers, "
            f"{sweep_executor['cpu_count']} cpu)"
        )
    for name, row in sweep_fused.items():
        print(
            f"sweep_fused/{name}: serial={row['serial_seconds']:.3f}s "
            f"fused={row['fused_seconds']:.3f}s speedup={row['speedup']}x "
            f"({row['points']} points)"
        )
    print(
        f"sweep_cache: cold={sweep_cache['cold_seconds']:.3f}s "
        f"warm={sweep_cache['warm_seconds']:.4f}s "
        f"speedup={sweep_cache['speedup']}x "
        f"({sweep_cache['points']} points, all cache hits)"
    )
    print(
        f"open_system: scalar={open_system['scalar_seconds']:.3f}s "
        f"vectorized={open_system['batch_seconds']:.3f}s "
        f"speedup={open_system['speedup']}x ({open_system['engine']}, "
        f"load {open_system['offered_load']})"
    )
    print(
        f"open_retry: scalar={open_retry['scalar_seconds']:.3f}s "
        f"vectorized={open_retry['batch_seconds']:.3f}s "
        f"speedup={open_retry['speedup']}x "
        f"overhead={open_retry['overhead']}x over plain "
        f"({open_retry['retried']} retried, "
        f"{open_retry['abandoned']} abandoned)"
    )
    for name, row in open_sweep_fused.items():
        print(
            f"open_sweep_fused/{name}: "
            f"per-point={row['per_point_seconds']:.3f}s "
            f"fused={row['fused_seconds']:.3f}s speedup={row['speedup']}x "
            f"({row['points']} points in {row['groups']} groups)"
        )
    print(f"snapshot written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
