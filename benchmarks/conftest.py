"""Shared configuration for the benchmark suite.

Each benchmark regenerates one paper artefact (a Table 1 / Table 2 cell or
a supporting experiment) at benchmark scale, prints the measurement table
it produced (so the teed benchmark log doubles as the raw data) and
asserts the experiment's shape checks.

``pytest benchmarks/ --benchmark-only`` is the documented entry point.
"""

from __future__ import annotations

import pytest

from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.registry import run_experiment

#: Benchmark-scale configuration: the full board (n = 2^16) with thinned
#: sweeps/trials so the whole suite completes in minutes.
BENCH_CONFIG = ExperimentConfig(n=2**16, trials=800, seed=2021, quick=True)


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return BENCH_CONFIG


def run_and_check(
    benchmark, experiment_id: str, config: ExperimentConfig
) -> ExperimentResult:
    """Benchmark one experiment run; print its table; assert its checks."""
    result = benchmark.pedantic(
        run_experiment,
        args=(experiment_id, config),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(result.render())
    assert result.all_checks_pass(), (
        f"{experiment_id} failed shape checks: {result.failed_checks()}"
    )
    return result
