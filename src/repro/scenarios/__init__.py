"""Declarative scenario API: specs, protocol registry, runner and sweeps.

The single configuration-driven entry point into the simulation stack:

* :mod:`~repro.scenarios.spec` - serializable scenario descriptions
  (:class:`ScenarioSpec` and its protocol / channel / workload /
  prediction / advice sub-specs);
* :mod:`~repro.scenarios.registry` - string id -> constructor for every
  protocol in :mod:`repro.protocols`;
* :mod:`~repro.scenarios.workloads` - workload resolution, including the
  :class:`SizeDistribution` families and the bursty arrival model;
* :mod:`~repro.scenarios.runner` - :func:`run_scenario`, which
  auto-routes to the batch-schedule / batch-history / scalar /
  per-player engine and returns a JSON-round-trippable
  :class:`ScenarioResult`;
* :mod:`~repro.scenarios.sweep` - grid expansion plus serial,
  process-pool (multi-core) and fused (stacked single-core) executors
  for closed and open specs alike; the fused executor stacks compatible
  schedule, history (CD) and player points, or open load points, into
  one engine run each;
* :mod:`~repro.scenarios.store` - the durability layer: a
  content-addressed result store (:class:`ResultStore`) and the
  checkpointing :class:`SweepJournal` behind
  ``run_sweep(..., resume=..., cache=...)``;
* :mod:`~repro.scenarios.supervised` - the ``"supervised"`` executor:
  per-point timeouts, bounded retry with backoff, and a structured
  failure manifest instead of a raised traceback;
* :mod:`~repro.scenarios.faults` - deterministic crash/hang/corrupt
  injection (:class:`FaultPlan`) so the recovery paths stay tested;
* :mod:`~repro.scenarios.open` - open-system scenarios over streaming
  arrivals (:class:`OpenScenarioSpec`, :func:`run_open_scenario`); a
  load -> latency sweep is a :class:`Sweep` over an open base
  (``OpenSweep`` is an alias), run by :func:`run_open_sweep` on the
  fused executor or by :func:`run_sweep` on any executor.

Quick start::

    from repro.scenarios import ScenarioSpec, run_scenario

    spec = ScenarioSpec.from_dict({
        "name": "sorted-probing vs a 2-bit workload",
        "protocol": {"id": "sorted-probing", "params": {"one_shot": False}},
        "prediction": "truth",
        "workload": {"kind": "distribution",
                     "params": {"family": "range_uniform_subset",
                                "ranges": [3, 6, 9, 12]}},
        "channel": "nocd",
        "n": 2**16, "trials": 2000, "max_rounds": 1024, "seed": 2021,
    })
    result = run_scenario(spec)
    print(result.render())
"""

from .registry import (
    BuildContext,
    RegisteredProtocol,
    build_protocol,
    get_protocol,
    protocol_ids,
    register_protocol,
)
from .runner import ADVERSARIES, ScenarioResult, run_scenario
from .spec import (
    AdviceSpec,
    ChannelSpec,
    PredictionSpec,
    ProtocolSpec,
    ScenarioError,
    ScenarioSpec,
    WorkloadSpec,
)
from .sweep import (
    EXECUTORS,
    Sweep,
    SweepPointError,
    SweepResult,
    derive_point_seeds,
    fusion_groups,
    fusion_key,
    register_executor,
    run_sweep,
    unregister_executor,
)
from .store import (
    SCHEMA_VERSION,
    ResultStore,
    SweepJournal,
    spec_key,
    sweep_key,
)
from .faults import FaultPlan, SimulatedCrash, fault_plan_from_json
from .supervised import make_supervised_executor
from .examples import (
    EXAMPLE_ADVERSARY_SWEEP,
    EXAMPLE_CD_SWEEP,
    EXAMPLE_FAULT_PLAN,
    EXAMPLE_OPEN_RETRY_SWEEP,
    EXAMPLE_OPEN_SCENARIO,
    EXAMPLE_OPEN_SWEEP,
)
from .open import (
    AdmissionSpec,
    ArrivalSpec,
    OpenScenarioResult,
    OpenScenarioSpec,
    RetrySpec,
    OpenSweep,
    OpenSweepResult,
    open_fusion_groups,
    open_fusion_key,
    resolve_open_scenario,
    run_open_scenario,
    run_open_sweep,
)
from .workloads import (
    DISTRIBUTION_FAMILIES,
    register_distribution_family,
    resolve_distribution,
    resolve_workload,
)

__all__ = [
    # specs
    "ScenarioSpec",
    "ProtocolSpec",
    "ChannelSpec",
    "WorkloadSpec",
    "PredictionSpec",
    "AdviceSpec",
    "ScenarioError",
    # registry
    "RegisteredProtocol",
    "BuildContext",
    "register_protocol",
    "get_protocol",
    "protocol_ids",
    "build_protocol",
    # workloads
    "DISTRIBUTION_FAMILIES",
    "register_distribution_family",
    "resolve_distribution",
    "resolve_workload",
    # runner
    "run_scenario",
    "ScenarioResult",
    "ADVERSARIES",
    # sweeps
    "Sweep",
    "SweepResult",
    "SweepPointError",
    "run_sweep",
    "derive_point_seeds",
    "fusion_key",
    "fusion_groups",
    "EXECUTORS",
    "register_executor",
    "unregister_executor",
    # durability
    "SCHEMA_VERSION",
    "spec_key",
    "sweep_key",
    "ResultStore",
    "SweepJournal",
    # supervision and fault injection
    "make_supervised_executor",
    "FaultPlan",
    "SimulatedCrash",
    "fault_plan_from_json",
    # open system
    "ArrivalSpec",
    "RetrySpec",
    "AdmissionSpec",
    "OpenScenarioSpec",
    "OpenScenarioResult",
    "resolve_open_scenario",
    "run_open_scenario",
    "OpenSweep",
    "OpenSweepResult",
    "run_open_sweep",
    "open_fusion_key",
    "open_fusion_groups",
    # example payloads
    "EXAMPLE_CD_SWEEP",
    "EXAMPLE_ADVERSARY_SWEEP",
    "EXAMPLE_FAULT_PLAN",
    "EXAMPLE_OPEN_SCENARIO",
    "EXAMPLE_OPEN_SWEEP",
    "EXAMPLE_OPEN_RETRY_SWEEP",
]
