"""Tests of the benchmark's own logic.

Run from the root of a checkout: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

import checks
import layers
import run
import workloads

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["a.child", 20, 30, 1],
        ["b", 50, 60, 0],
    ]
    assert layers.self_times(spans) == [60, 20, 10, 10]
    assert sum(layers.self_times(spans)) == 100


def test_aggregate_sums_self_times_per_metric_and_counters():
    first = {
        "spans": [
            ["cli.import_s", 0, 2_000_000_000, -1],
            ["cli.numpy_import_s", 0, 500_000_000, 0],
            ["cli.main_self_s", 3_000_000_000, 4_000_000_000, -1],
            ["batch.history_stacked_s", 3_100_000_000, 3_600_000_000, 2],
        ],
        "counters": {"batch.history_trial_rounds": 7},
    }
    second = {
        "spans": [["cli.main_self_s", 0, 1_000_000_000, -1]],
        "counters": {"batch.history_trial_rounds": 5, "store.hits": 1},
    }
    times, counts = layers.aggregate([first, second])
    assert times["cli.import_s"] == pytest.approx(1.5)
    assert times["cli.numpy_import_s"] == pytest.approx(0.5)
    assert times["cli.main_self_s"] == pytest.approx(0.5 + 1.0)
    assert times["batch.history_stacked_s"] == pytest.approx(0.5)
    assert sum(times.values()) == pytest.approx(2.0 + 1.0 + 1.0)
    assert counts["batch.history_trial_rounds"] == 12
    assert counts["store.hits"] == 1


# ---------------------------------------------------------------------------
# trial-round counting
# ---------------------------------------------------------------------------


def closed_result(engine="fused-history", successes=150, trials=160, mean=4.0):
    return {
        "spec": {"max_rounds": 512, "trials": trials, "seed": 7},
        "engine": engine,
        "rounds": {"count": successes, "mean": mean, "std": 2.0},
        "success": {"successes": successes, "trials": trials},
        "metadata": {"engine": engine},
        "elapsed_seconds": 0.25,
    }


def open_result(arrivals=100, completed=90, in_flight=4, timed_out=6):
    summary = {
        "completed": completed, "mean": 5.0, "throughput": 0.2,
        "arrivals": arrivals, "dropped": 0, "timed_out": timed_out,
        "in_flight": in_flight, "abandoned": 0, "in_orbit": 0,
    }
    return {
        "spec": {"trials": 16, "rounds": 256, "warmup": 0},
        "engine": "open-schedule",
        "summary": summary,
        "elapsed_seconds": 0.5,
    }


def test_closed_trial_rounds_charge_failures_the_whole_budget():
    result = closed_result(successes=150, trials=160, mean=4.0)
    assert checks.closed_trial_rounds(result) == 150 * 4 + 10 * 512


def test_closed_trial_rounds_with_no_successes():
    result = closed_result(successes=0, trials=8, mean=None)
    assert checks.closed_trial_rounds(result) == 8 * 512


def test_open_trial_rounds_are_trials_times_rounds():
    assert checks.open_trial_rounds(open_result()) == 16 * 256


# ---------------------------------------------------------------------------
# checks reject corrupted results
# ---------------------------------------------------------------------------

REFERENCE = {
    "seeds": 32,
    "points": [
        {"engine": "fused-history",
         "stats": {"success_rate": [0.9375, 0.02], "mean_rounds": [4.0, 0.1]}},
        {"engine": "fused-history",
         "stats": {"success_rate": [0.9375, 0.02], "mean_rounds": [4.0, 0.1]}},
    ],
}
OPEN_REFERENCE = {
    "seeds": 32,
    "points": [
        {"engine": "open-schedule",
         "stats": {"throughput": [0.2, 0.01], "mean_sojourn": [5.0, 0.2]}},
    ],
}


def closed_step(**changes):
    fields = dict(name="warm", kind="closed", spec="s", args=())
    fields.update(changes)
    return workloads.Step(**fields)


def sweep(results, **counters):
    payload = {"executor": "fused", "elapsed_seconds": 1.0, "resumed": 0,
               "cache_hits": 0, "failures": [], "results": results}
    payload.update(counters)
    return payload


def failures(step, payload, reference=REFERENCE, cold=None):
    errors, _ = checks.check_output(step, payload, reference, cold)
    return [error for error in errors if error]


def test_a_correct_sweep_passes_and_counts_its_rounds():
    payload = sweep([closed_result(), closed_result()])
    errors, rounds = checks.check_output(closed_step(), payload, REFERENCE)
    assert errors == [None, None]
    assert rounds == 2 * (150 * 4 + 10 * 512)


def test_check_rejects_a_scalar_fallback():
    payload = sweep([closed_result(), closed_result(engine="scalar-uniform")])
    assert len(failures(closed_step(), payload)) == 1


def test_check_rejects_an_unexpected_engine_label():
    payload = sweep([closed_result(engine="batch-history"), closed_result()])
    assert len(failures(closed_step(), payload)) == 1


def test_check_rejects_a_failure_manifest():
    payload = sweep([closed_result(), closed_result()], failures=[{"index": 0}])
    assert len(failures(closed_step(), payload)) == 2


def test_check_rejects_missing_points():
    payload = sweep([closed_result()])
    assert len(failures(closed_step(), payload)) == 2


def test_check_rejects_statistics_outside_tolerance():
    payload = sweep([closed_result(mean=9.0), closed_result(successes=80)])
    errors = failures(closed_step(), payload)
    assert len(errors) == 2
    assert "mean_rounds" in errors[0] and "success_rate" in errors[1]


def test_check_tolerates_sampling_noise():
    payload = sweep([closed_result(mean=4.3), closed_result(successes=146)])
    assert failures(closed_step(), payload) == []


def test_check_rejects_wrong_cache_hits_and_resumed_counts():
    cold = sweep([closed_result(), closed_result()])
    step = closed_step(cache_hits=2, same_as="cold")
    assert failures(step, sweep(cold["results"], cache_hits=2), cold=cold) == []
    assert len(failures(step, sweep(cold["results"], cache_hits=1), cold=cold)) == 2
    resumed = closed_step(resumed=1, same_as="cold")
    assert failures(resumed, sweep(cold["results"], resumed=1), cold=cold) == []
    assert len(failures(resumed, sweep(cold["results"]), cold=cold)) == 2


def test_check_rejects_a_warm_run_that_is_not_bit_identical():
    cold = sweep([closed_result(), closed_result()])
    warm = copy.deepcopy(cold)
    warm["cache_hits"] = 2
    warm["results"][1]["rounds"]["std"] = 2.0000001
    step = closed_step(cache_hits=2, same_as="cold")
    assert len(failures(step, warm, cold=cold)) == 1


def test_check_never_reads_elapsed_seconds():
    cold = sweep([closed_result(), closed_result()])
    warm = copy.deepcopy(cold)
    warm["cache_hits"] = 2
    for result in warm["results"]:
        result["elapsed_seconds"] = 99.0
    step = closed_step(cache_hits=2, same_as="cold")
    assert failures(step, warm, cold=cold) == []


def test_check_rejects_a_missing_cold_run():
    step = closed_step(same_as="cold")
    assert len(failures(step, sweep([closed_result(), closed_result()]))) == 2


def test_replayed_points_count_no_trial_rounds():
    cold = sweep([closed_result(), closed_result()])
    step = closed_step(resumed=1, same_as="cold")
    _, rounds = checks.check_output(step, sweep(cold["results"], resumed=1),
                                    REFERENCE, cold)
    assert rounds == 150 * 4 + 10 * 512


def test_open_check_rejects_lost_requests():
    step = closed_step(kind="open")
    good = {"resumed": 0, "cache_hits": 0, "results": [open_result()]}
    assert failures(step, good, OPEN_REFERENCE) == []
    leaky = {"resumed": 0, "cache_hits": 0, "results": [open_result(arrivals=101)]}
    assert len(failures(step, leaky, OPEN_REFERENCE)) == 1


def test_open_conservation_is_not_checked_after_a_warmup():
    result = open_result(arrivals=150)
    result["spec"]["warmup"] = 32
    assert checks.conservation_error(result) is None


# ---------------------------------------------------------------------------
# workloads, reference and the benchmark declaration agree
# ---------------------------------------------------------------------------


def test_the_same_seed_gives_the_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3) == workloads.build(name, 3)
        assert workloads.build(name, 3).specs != workloads.build(name, 4).specs


def test_reference_covers_every_spec_point_by_point():
    reference = json.loads(run.REFERENCE.read_text())["specs"]
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 0)
        for spec in workload.specs:
            assert len(reference[spec]["points"]) == workload.spec_points(spec)


def test_benchmark_declaration_lists_the_metrics_the_run_prints():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_design_names_only_metrics_the_run_prints():
    design = json.loads((HERE / "design.json").read_text())
    layer_patterns = [layer["metrics"] for layer in design["layers"]["map"].values()]
    for metric in run.PER_LAYER:
        owners = [p for p in layer_patterns if any(fnmatch(metric, x) for x in p)]
        assert len(owners) == 1, metric
    patterns = [x for p in layer_patterns for x in p]
    for workload in design["workloads"].values():
        patterns += workload["should_move"] + workload["should_not_move"]
    for pattern in patterns:
        assert any(fnmatch(metric, pattern) for metric in run.PER_LAYER), pattern
    assert set(design["end_to_end"]) - {"failed_frac"} == set(run.END_TO_END)
    assert set(design["workloads"]) == set(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# the traced bootstrap, end to end on one small command
# ---------------------------------------------------------------------------


def test_trace_bootstrap_records_nested_layer_spans(tmp_path):
    spec = dict(workloads.EXAMPLE_SCENARIO, trials=50, seed=5)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(run.ROOT / "src")
    completed = subprocess.run(
        [sys.executable, str(HERE / "trace_boot.py"), str(spans_path), "--",
         "scenario", "run", str(spec_path), "--json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout)["engine"] == "batch-schedule"
    record = json.loads(spans_path.read_text())
    assert record["missing"] == []
    names = [span[0] for span in record["spans"]]
    for metric in ("cli.import_s", "cli.main_self_s", "scenarios.resolve_s",
                   "montecarlo.route_self_s", "batch.schedule_stacked_s"):
        assert metric in names
    times, counts = layers.aggregate([record])
    covered = record["ended_ns"] - record["started_ns"]
    assert 0 < sum(times.values()) * 1e9 <= covered
    assert counts["scenarios.resolve_calls"] == 1
    assert counts["batch.schedule_trial_rounds"] > 0
    assert counts["channel.scalar_calls"] == 0
