"""Which program entry points the traced run wraps, and how spans add up.

Every wrapped call records a span ``(metric, start_ns, end_ns, parent)``.
A span's self time is its duration minus the durations of its direct
children; since spans nest (one thread, no overlap), the self times of all
spans in a process partition the time covered by its outermost spans.
Summing self times per metric name gives the per-layer ``*_s`` metrics,
and the part of the wall clock no span covers is ``trace.unattributed_s``.

Counters are recorded at the same boundaries from each call's arguments
and return value, so work counts are measured where the work happens.
This module imports nothing from the program: the traced child imports
it before ``repro`` and the parent imports it to aggregate.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence


def _one(name: str):
    return lambda args, kwargs, result: {name: 1}


def _rounds_of(name: str):
    """Trial-rounds played: the sum of ``rounds`` over batch results."""

    def count(args, kwargs, result) -> dict:
        results = result if isinstance(result, list) else [result]
        return {name: sum(int(item.rounds.sum()) for item in results)}

    return count


def _open_rounds(args, kwargs, result) -> dict:
    return {"opensys.trial_rounds": int(kwargs["trials"]) * int(kwargs["rounds"])}


def _fused_points(args, kwargs, result) -> dict:
    return {"scenarios.fused_points": sum(len(g) for g in result if len(g) > 1)}


def _store_get(args, kwargs, result) -> dict:
    return {"store.hits" if result is not None else "store.misses": 1}


#: ``(module, attribute path, self-time metric, counter)``.  A counter maps
#: ``(args, kwargs, result)`` to increments of named counts.
ENTRY_POINTS: tuple[tuple[str, str, str, object], ...] = (
    ("repro.cli", "main", "cli.main_self_s", None),
    ("repro.scenarios.spec", "ScenarioSpec.from_json", "scenarios.expand_s", None),
    ("repro.scenarios.sweep", "Sweep.from_json", "scenarios.expand_s", None),
    ("repro.scenarios.sweep", "Sweep.points", "scenarios.expand_s", None),
    ("repro.scenarios.sweep", "Sweep.point_overrides", "scenarios.expand_s", None),
    ("repro.scenarios.open", "OpenScenarioSpec.from_json", "scenarios.expand_s", None),
    ("repro.scenarios.open", "OpenSweep.from_json", "scenarios.expand_s", None),
    ("repro.scenarios.open", "OpenSweep.points", "scenarios.expand_s", None),
    ("repro.scenarios.runner", "resolve_scenario", "scenarios.resolve_s",
     _one("scenarios.resolve_calls")),
    ("repro.scenarios.open", "resolve_open_scenario", "scenarios.resolve_s",
     _one("scenarios.resolve_calls")),
    ("repro.scenarios.sweep", "fusion_groups", "scenarios.fusion_groups_s",
     _fused_points),
    ("repro.scenarios.runner", "package_result", "scenarios.package_s",
     _one("scenarios.closed_points")),
    ("repro.scenarios.runner", "ScenarioResult.to_json", "scenarios.package_s", None),
    ("repro.scenarios.sweep", "SweepResult.to_json", "scenarios.package_s", None),
    ("repro.scenarios.open", "OpenScenarioResult.to_json", "scenarios.package_s", None),
    ("repro.scenarios.open", "OpenSweepResult.to_json", "scenarios.package_s", None),
    ("repro.analysis.montecarlo", "estimate_uniform_rounds", "montecarlo.route_self_s",
     None),
    ("repro.analysis.montecarlo", "estimate_uniform_rounds_many",
     "montecarlo.route_self_s", None),
    ("repro.analysis.montecarlo", "estimate_player_rounds", "montecarlo.route_self_s",
     None),
    ("repro.analysis.montecarlo", "estimate_player_rounds_many",
     "montecarlo.route_self_s", None),
    ("repro.channel.simulator", "run_uniform", "channel.scalar_s",
     _one("channel.scalar_calls")),
    ("repro.channel.simulator", "run_players", "channel.scalar_s",
     _one("channel.scalar_calls")),
    ("repro.channel.batch", "run_schedule_stacked", "batch.schedule_stacked_s",
     _rounds_of("batch.schedule_trial_rounds")),
    ("repro.channel.batch", "run_history_stacked", "batch.history_stacked_s",
     _rounds_of("batch.history_trial_rounds")),
    ("repro.channel.batch_players", "run_players_batch", "batch_players.stacked_s",
     _rounds_of("batch_players.trial_rounds")),
    ("repro.channel.batch_players", "run_players_stacked", "batch_players.stacked_s",
     _rounds_of("batch_players.trial_rounds")),
    ("repro.opensys.driver", "run_open", "opensys.run_open_s", _open_rounds),
    ("repro.opensys.latency", "LatencyStore.summary", "opensys.latency_summary_s",
     None),
    ("repro.scenarios.store", "spec_key", "store.spec_key_s", None),
    ("repro.scenarios.store", "ResultStore.get", "store.get_s", _store_get),
    ("repro.scenarios.store", "ResultStore.put", "store.put_s", None),
    ("repro.scenarios.store", "SweepJournal.append", "journal.append_s", None),
    # Every journal line (the header included) goes through _write_line,
    # which flushes and fsyncs; replay lives in _replay.
    ("repro.scenarios.store", "SweepJournal._write_line", "journal.append_s",
     _one("journal.lines")),
    ("repro.scenarios.store", "SweepJournal._replay", "journal.replay_s", None),
)

#: Spans the bootstrap opens itself, around ``import repro.cli``.
IMPORT_METRIC = "cli.import_s"
NUMPY_IMPORT_METRIC = "cli.numpy_import_s"

#: Every self-time metric a span can carry.
TIME_METRICS: tuple[str, ...] = tuple(
    dict.fromkeys(
        [IMPORT_METRIC, NUMPY_IMPORT_METRIC]
        + [metric for _, _, metric, _ in ENTRY_POINTS]
    )
)

#: Counts aggregated from counters (plus ones the parent measures).
COUNT_METRICS: tuple[str, ...] = (
    "scenarios.resolve_calls",
    "scenarios.closed_points",
    "scenarios.fused_points",
    "channel.scalar_calls",
    "batch.schedule_trial_rounds",
    "batch.history_trial_rounds",
    "batch_players.trial_rounds",
    "opensys.trial_rounds",
    "store.hits",
    "store.misses",
    "journal.lines",
)


def self_times(spans: Sequence[Sequence]) -> list[int]:
    """Self time (ns) of each span: duration minus its children's durations.

    ``spans[i] = (metric, start_ns, end_ns, parent_index)`` with ``-1``
    for a root.  A child's parent always precedes it in the list.
    """
    own = [int(end) - int(start) for _, start, end, _ in spans]
    for index, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            own[parent] -= int(end) - int(start)
    return own


def aggregate(processes: Iterable[Mapping]) -> tuple[dict, dict]:
    """Sum self times (s) and counters over traced processes.

    Each process record holds ``spans`` and ``counters``.  Returns
    ``(times, counts)``.
    """
    times = dict.fromkeys(TIME_METRICS, 0.0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for record in processes:
        spans = record["spans"]
        for (metric, *_), own in zip(spans, self_times(spans)):
            times[metric] += own / 1e9
        for name, value in record["counters"].items():
            counts[name] += value
    return times, counts
