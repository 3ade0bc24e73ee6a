"""The shared open-system benchmark workload.

One fixed load point consumed by both the opt-in benchmark gate
(:mod:`benchmarks.test_bench_opensys`) and the snapshot tool
(``tools/bench_report.py``), so the gate and the ``open_system`` section
of ``BENCH_BATCH.json`` always measure the same run: decay serving a
Poisson request stream at a stable offered load, on the vectorized
open-schedule engine versus the scalar per-trial reference loop.  The
example open sweeps (:func:`fused_open_sweeps`) are shared the same way
for the stacked-sweep gate and the ``open_sweep_fused`` section.

The point is sized like the closed-engine workloads - enough trials and
rounds that per-round numpy dispatch amortizes and the scalar loop's
per-request Python overhead dominates - while staying below decay's
service capacity so the backlog (and hence the work per round) remains
representative of steady state rather than a saturated queue.
"""

from __future__ import annotations

from repro.scenarios import (
    EXAMPLE_OPEN_RETRY_SWEEP,
    EXAMPLE_OPEN_SWEEP,
    AdmissionSpec,
    ArrivalSpec,
    ChannelSpec,
    OpenScenarioSpec,
    OpenSweep,
    ProtocolSpec,
    RetrySpec,
)

N = 1024
TRIALS = 512
ROUNDS = 1024
WARMUP = 128
CAPACITY = 256
RATE = 0.25
SEED = 2021

#: The retry-enabled variant's knobs: the graceful-degradation operating
#: regime - a loaded queue where a tail of requests times out and
#: re-enters via jittered capped backoff (a finite budget keeps the
#: orbit bounded) under occupancy shedding, so every lifecycle code path
#: (orbit release, admission refusal, timeout retry, Weyl jitter) is
#: exercised while most traffic still completes.  A saturated retry
#: storm would be a different (and unfair) comparison: there the driver
#: legitimately admits ~2.5x more attempts per round than the plain
#: point, so the overhead gate would measure load, not lifecycle cost.
RETRY_RATE = 0.15
RETRY_TIMEOUT = 32
RETRY_CAPACITY = 64


def open_point(*, trials: int = TRIALS, rounds: int = ROUNDS) -> OpenScenarioSpec:
    """The fixed load point, optionally re-scaled for snapshot runs."""
    return OpenScenarioSpec(
        name="bench-open-decay-poisson",
        protocol=ProtocolSpec(id="decay"),
        arrivals=ArrivalSpec(family="poisson", params={"rate": RATE}),
        channel=ChannelSpec(collision_detection=False),
        n=N,
        trials=trials,
        rounds=rounds,
        warmup=min(WARMUP, rounds - 1),
        capacity=CAPACITY,
        seed=SEED,
    )


def open_retry_point(
    *, trials: int = TRIALS, rounds: int = ROUNDS
) -> OpenScenarioSpec:
    """The same engine under a full request lifecycle: backoff + shed."""
    return OpenScenarioSpec(
        name="bench-open-decay-retry",
        protocol=ProtocolSpec(id="decay"),
        arrivals=ArrivalSpec(family="poisson", params={"rate": RETRY_RATE}),
        channel=ChannelSpec(collision_detection=False),
        n=N,
        trials=trials,
        rounds=rounds,
        warmup=min(WARMUP, rounds - 1),
        capacity=RETRY_CAPACITY,
        timeout=RETRY_TIMEOUT,
        retry=RetrySpec(
            kind="backoff",
            params={"base": 2, "cap": 32, "jitter": 8, "budget": 4},
        ),
        admission=AdmissionSpec(kind="shed", params={"threshold": 0.5}),
        seed=SEED,
    )


def fused_open_sweeps() -> dict[str, OpenSweep]:
    """The example load curve and retry grid, as run by ``run_open_sweep``."""
    return {
        "load_sweep": OpenSweep.from_dict(EXAMPLE_OPEN_SWEEP),
        "retry_sweep": OpenSweep.from_dict(EXAMPLE_OPEN_RETRY_SWEEP),
    }
