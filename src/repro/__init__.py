"""repro: a reproduction of "Contention Resolution with Predictions".

Gilbert, Newport, Vaidya, Weaver - PODC 2021 (arXiv:2105.12706).

The package implements the paper's two prediction models and everything
they stand on:

* **network-size predictions** (Section 2): the sorted-probing no-CD
  algorithm (Theorem 2.12) and the Huffman-code-class CD search
  (Theorem 2.16), with entropy/KL budgets, plus the complete
  lower-bound machinery (range finding, RF-Construction, tree
  construction, target-distance coding);
* **perfect advice** (Section 3): the four tight advice protocols and the
  strongly-selective-family / non-interactive lower-bound apparatus;
* substrates: a synchronous multiple-access channel simulator (with and
  without collision detection) and an information-theory toolkit
  (condensed distributions, entropy/KL, Huffman and Shannon codes);
* a measurement harness and an experiment registry regenerating every
  cell of the paper's Tables 1 and 2 (see :mod:`repro.experiments`).

Quick start::

    import numpy as np
    from repro import (
        SizeDistribution, Prediction, SortedProbingProtocol,
        run_uniform, without_collision_detection,
    )

    truth = SizeDistribution.bimodal(2**16, low_size=8, high_size=900)
    protocol = SortedProbingProtocol(Prediction(truth))
    rng = np.random.default_rng(7)
    result = run_uniform(
        protocol, k=truth.sample(rng), rng=rng,
        channel=without_collision_detection(),
    )
    print(result.solved, result.rounds)
"""

from .analysis import (
    ProportionEstimate,
    RoundsEstimate,
    Summary,
    estimate_player_rounds,
    estimate_success_within,
    estimate_uniform_rounds,
    schedule_solve_time,
)
from .channel import (
    Channel,
    ExecutionResult,
    RandomAdversary,
    run_players,
    run_uniform,
    with_collision_detection,
    without_collision_detection,
)
from .core import (
    AdviceFunction,
    BudgetReport,
    Feedback,
    FullIdAdvice,
    MinIdPrefixAdvice,
    NullAdvice,
    Observation,
    Prediction,
    ProbabilitySchedule,
    RangeBlockAdvice,
    ScheduleProtocol,
    UniformProtocol,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    experiment_ids,
    run_all,
    run_experiment,
)
from .infotheory import (
    CondensedDistribution,
    PrefixCode,
    SizeDistribution,
    entropy,
    huffman_code,
    kl_divergence,
    mix_with_uniform,
    num_ranges,
    range_of_size,
    shift_ranges,
)
from .learning import (
    DecayingHistogramLearner,
    HistogramLearner,
    SizePredictor,
    SlidingWindowLearner,
    run_online,
)
from .scenarios import (
    ScenarioResult,
    ScenarioSpec,
    Sweep,
    SweepResult,
    run_scenario,
    run_sweep,
)
from .protocols import (
    BinaryExponentialBackoff,
    CodeSearchProtocol,
    DecayProtocol,
    DeterministicScanProtocol,
    DeterministicTreeDescentProtocol,
    FallbackPlayerProtocol,
    FixedProbabilityProtocol,
    RestartProtocol,
    SortedProbingProtocol,
    TruncatedDecayProtocol,
    UniformAsPlayerProtocol,
    WillardProtocol,
    truncated_willard_protocol,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # distributions and information theory
    "SizeDistribution",
    "CondensedDistribution",
    "PrefixCode",
    "entropy",
    "kl_divergence",
    "huffman_code",
    "num_ranges",
    "range_of_size",
    "mix_with_uniform",
    "shift_ranges",
    # core abstractions
    "Prediction",
    "BudgetReport",
    "Feedback",
    "Observation",
    "ProbabilitySchedule",
    "ScheduleProtocol",
    "UniformProtocol",
    "AdviceFunction",
    "NullAdvice",
    "MinIdPrefixAdvice",
    "RangeBlockAdvice",
    "FullIdAdvice",
    # channel
    "Channel",
    "with_collision_detection",
    "without_collision_detection",
    "run_uniform",
    "run_players",
    "ExecutionResult",
    "RandomAdversary",
    # protocols
    "DecayProtocol",
    "WillardProtocol",
    "FixedProbabilityProtocol",
    "BinaryExponentialBackoff",
    "SortedProbingProtocol",
    "CodeSearchProtocol",
    "DeterministicScanProtocol",
    "DeterministicTreeDescentProtocol",
    "TruncatedDecayProtocol",
    "truncated_willard_protocol",
    "RestartProtocol",
    "FallbackPlayerProtocol",
    "UniformAsPlayerProtocol",
    # learning
    "SizePredictor",
    "HistogramLearner",
    "DecayingHistogramLearner",
    "SlidingWindowLearner",
    "run_online",
    # analysis
    "Summary",
    "ProportionEstimate",
    "RoundsEstimate",
    "estimate_uniform_rounds",
    "estimate_success_within",
    "estimate_player_rounds",
    "schedule_solve_time",
    # experiments
    "ExperimentConfig",
    "ExperimentResult",
    "experiment_ids",
    "run_experiment",
    "run_all",
    # scenarios
    "ScenarioSpec",
    "ScenarioResult",
    "run_scenario",
    "Sweep",
    "SweepResult",
    "run_sweep",
]
