"""Open-system engine benchmark: vectorized driver vs the scalar oracle.

The acceptance gate for the open-loop driver: on the fixed load point of
:mod:`benchmarks.opensys_workload` (decay serving Poisson arrivals below
service capacity), the vectorized open-schedule engine must run >= 5x
faster than the scalar per-trial reference loop - and, because both
consume identical per-trial seed streams, produce a **bit-identical**
latency store, not merely matching statistics.  Single-core, so the gate
never skips.  A third gate holds stacked open sweeps to >= 1.3x over a
loop of per-point runs on the example sweeps, with bit-identical stores.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.channel.routing import ENGINE_OPEN_SCALAR, ENGINE_OPEN_SCHEDULE
from repro.scenarios import run_open_scenario, run_open_sweep

from .opensys_workload import (
    TRIALS,
    fused_open_sweeps,
    open_point,
    open_retry_point,
)

SPEEDUP_FLOOR = 5.0
#: The full request lifecycle (orbit, admission, timeout retries) may
#: cost at most this factor over the plain give-up/capacity driver.
RETRY_OVERHEAD_CEILING = 2.0
#: Stacked open sweeps must beat a loop of per-point runs by this much.
FUSED_SWEEP_FLOOR = 1.3
FUSED_SWEEP_REPEATS = 5


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@pytest.mark.benchmark
def test_bench_open_schedule_vs_scalar(benchmark):
    spec = open_point()

    scalar, scalar_seconds = _timed(
        lambda: run_open_scenario(spec.override({"batch": False}))
    )
    vectorized, vector_seconds = _timed(lambda: run_open_scenario(spec))
    benchmark.pedantic(
        lambda: run_open_scenario(spec), rounds=3, iterations=1, warmup_rounds=1
    )

    # Correctness first: same seed streams, same trichotomy draws, same
    # store - bitwise, not statistically.
    assert scalar.engine == ENGINE_OPEN_SCALAR
    assert vectorized.engine == ENGINE_OPEN_SCHEDULE
    assert vectorized.store == scalar.store, (
        "vectorized open run diverged from the scalar reference store"
    )

    speedup = scalar_seconds / vector_seconds
    print(
        f"\nopen decay/poisson, trials={TRIALS}: scalar={scalar_seconds:.3f}s "
        f"vectorized={vector_seconds:.3f}s speedup={speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"open-schedule engine only {speedup:.1f}x faster than scalar "
        f"({vector_seconds:.3f}s vs {scalar_seconds:.3f}s); "
        f"expected >= {SPEEDUP_FLOOR:.0f}x"
    )


@pytest.mark.benchmark
def test_bench_open_retry_lifecycle(benchmark):
    """The lifecycle gate: retry + admission policies stay cheap.

    Three asserts on the backoff+shed point: the vectorized driver with
    the full lifecycle active (1) stays bit-identical to the scalar
    oracle running the same policies, (2) remains >= 5x faster than that
    oracle, and (3) costs at most 2x the plain open driver - the same
    traffic point with the zero policies (give-up / hard capacity), i.e.
    exactly PR 7's fast path - so the orbit, admission, and expiry
    machinery never taxes runs that do not use it.
    """
    retry_spec = open_retry_point()
    plain_spec = retry_spec.override(
        {
            "name": "bench-open-decay-retry-baseline",
            "retry": "give-up",
            "admission": "capacity",
        }
    )

    scalar, scalar_seconds = _timed(
        lambda: run_open_scenario(retry_spec.override({"batch": False}))
    )
    vectorized, vector_seconds = _timed(lambda: run_open_scenario(retry_spec))
    _, plain_seconds = _timed(lambda: run_open_scenario(plain_spec))
    benchmark.pedantic(
        lambda: run_open_scenario(retry_spec),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )

    assert scalar.engine == ENGINE_OPEN_SCALAR
    assert vectorized.engine == ENGINE_OPEN_SCHEDULE
    assert vectorized.store == scalar.store, (
        "retry-enabled vectorized run diverged from the scalar reference"
    )
    assert vectorized.store.retried > 0, (
        "benchmark point produced no retries; the lifecycle is not hot"
    )

    speedup = scalar_seconds / vector_seconds
    overhead = vector_seconds / plain_seconds
    print(
        f"\nopen retry lifecycle, trials={TRIALS}: "
        f"scalar={scalar_seconds:.3f}s vectorized={vector_seconds:.3f}s "
        f"plain={plain_seconds:.3f}s speedup={speedup:.1f}x "
        f"overhead={overhead:.2f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"retry-enabled engine only {speedup:.1f}x faster than scalar; "
        f"expected >= {SPEEDUP_FLOOR:.0f}x"
    )
    assert overhead <= RETRY_OVERHEAD_CEILING, (
        f"request lifecycle costs {overhead:.2f}x over the plain open "
        f"driver; ceiling is {RETRY_OVERHEAD_CEILING:.1f}x"
    )


@pytest.mark.benchmark
def test_bench_open_sweep_fused_vs_per_point(benchmark):
    """Stacked groups vs one driver run per point, same driver code.

    Both example sweeps run ``FUSED_SWEEP_REPEATS`` times each way,
    interleaved so a slow spell on the box hits both sides alike; the
    gate compares the medians of the two sweeps' combined time, and the
    per-sweep ratios are logged.
    """
    sweeps = fused_open_sweeps()
    fused_times = {name: [] for name in sweeps}
    point_times = {name: [] for name in sweeps}
    for _ in range(FUSED_SWEEP_REPEATS):
        for name, sweep in sweeps.items():
            fused, seconds = _timed(lambda: run_open_sweep(sweep))
            fused_times[name].append(seconds)
            solo, seconds = _timed(
                lambda: [run_open_scenario(point) for point in sweep.points()]
            )
            point_times[name].append(seconds)
            for result, reference in zip(fused.results, solo):
                assert result.engine == reference.engine
                assert result.store == reference.store, (
                    f"{result.spec.label()}: stacked store diverged from "
                    "its solo run"
                )
    benchmark.pedantic(
        lambda: [run_open_sweep(sweep) for sweep in sweeps.values()],
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )

    def total(times):
        return statistics.median(map(sum, zip(*times.values())))

    ratio = total(point_times) / total(fused_times)
    for name in sweeps:
        per_point = statistics.median(point_times[name])
        stacked = statistics.median(fused_times[name])
        print(
            f"\nopen {name}: per-point={per_point:.3f}s "
            f"fused={stacked:.3f}s ratio={per_point / stacked:.2f}x"
        )
    print(f"open example sweeps combined: ratio={ratio:.2f}x")
    assert ratio >= FUSED_SWEEP_FLOOR, (
        f"stacked open sweeps only {ratio:.2f}x over per-point runs; "
        f"expected >= {FUSED_SWEEP_FLOOR}x"
    )
