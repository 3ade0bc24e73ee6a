"""Correctness checks on the CLI's JSON output, and trial-round counting.

The checks must survive a deliberate, versioned change of the random
streams, so they pin no digest of simulated values.  What they check:

* every point reports the engine label recorded for it and none runs on a
  ``scalar-*`` engine;
* closed sweeps report an empty failure manifest;
* open points with ``warmup: 0`` conserve requests:
  ``arrivals == completed + dropped + timed_out + abandoned + in_flight +
  in_orbit``;
* warm and resumed sweeps report the expected ``cache_hits`` / ``resumed``
  counts and reproduce the cold run's results bit for bit;
* summary statistics lie within a statistical tolerance of the values in
  ``reference.json`` (mean and across-seed spread over many seeds).

``elapsed_seconds`` is never read: for fused groups it is an equal share
of the group's time and cached or resumed points carry stale values.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

#: Tolerance in standard deviations for the statistical checks.
Z = 7.0

#: Result keys that hold clocks, never compared or read.
CLOCK_KEYS = ("elapsed_seconds",)


def closed_trial_rounds(result: Mapping) -> int:
    """Trial-rounds one closed point simulated, from its JSON result.

    Solved trials played their solving round (``mean`` over successes);
    unsolved ones are charged the full ``max_rounds`` budget.
    """
    successes = int(result["success"]["successes"])
    trials = int(result["success"]["trials"])
    mean = result["rounds"]["mean"]
    solved = successes * float(mean) if successes else 0.0
    return round(solved) + (trials - successes) * int(result["spec"]["max_rounds"])


def open_trial_rounds(result: Mapping) -> int:
    """Trial-rounds one open point simulated: ``trials * rounds``."""
    spec = result["spec"]
    return int(spec["trials"]) * int(spec["rounds"])


def closed_statistics(result: Mapping) -> dict[str, tuple[float | None, float]]:
    """``name -> (value, standard error from this run)`` for a closed point."""
    successes = int(result["success"]["successes"])
    trials = int(result["success"]["trials"])
    rate = successes / trials
    rate_se = math.sqrt(max(rate * (1.0 - rate), 1.0 / trials) / trials)
    rounds = result["rounds"]
    if successes >= 2 and rounds["mean"] is not None:
        std = float(rounds["std"] or 0.0)
        mean = (float(rounds["mean"]), std / math.sqrt(successes))
    else:
        mean = (None, 0.0)
    return {"success_rate": (rate, rate_se), "mean_rounds": mean}


def open_statistics(result: Mapping) -> dict[str, tuple[float | None, float]]:
    """``name -> (value, 0.0)`` for an open point (no in-run error bar)."""
    summary = result["summary"]
    mean = summary["mean"]
    return {
        "throughput": (float(summary["throughput"]), 0.0),
        "mean_sojourn": (None if mean is None else float(mean), 0.0),
    }


def conservation_error(result: Mapping) -> str | None:
    """Why an open point with ``warmup: 0`` loses requests, or ``None``."""
    if int(result["spec"].get("warmup", 0)) != 0:
        return None
    summary = result["summary"]
    accounted = sum(
        int(summary[key])
        for key in (
            "completed", "dropped", "timed_out", "abandoned", "in_flight", "in_orbit"
        )
    )
    if int(summary["arrivals"]) != accounted:
        return (
            f"arrivals {summary['arrivals']} != completed + dropped + timed_out"
            f" + abandoned + in_flight + in_orbit = {accounted}"
        )
    return None


def statistic_errors(
    statistics: Mapping[str, tuple[float | None, float]],
    reference: Mapping[str, Sequence],
    seeds: int,
) -> list[str]:
    """Statistics farther than :data:`Z` deviations from their reference.

    ``reference[name] = (mean, sd)`` over ``seeds`` reference runs, or
    ``None`` where the statistic was undefined in some reference run.  The
    deviation allowed is ``Z`` times the larger of the reference spread
    (inflated for the reference mean's own error) and this run's
    standard error.
    """
    errors = []
    for name, (value, run_se) in statistics.items():
        expected = reference.get(name)
        if expected is None:
            continue
        mean, sd = float(expected[0]), float(expected[1])
        if value is None:
            errors.append(f"{name} undefined, reference {mean:.6g}")
            continue
        scale = max(sd * math.sqrt(1.0 + 1.0 / seeds), run_se)
        tolerance = Z * scale + 1e-9 * max(1.0, abs(mean))
        if not abs(value - mean) <= tolerance:
            errors.append(
                f"{name} {value:.6g} outside reference {mean:.6g} +- {tolerance:.3g}"
            )
    return errors


def without_clocks(result: Mapping) -> dict:
    return {key: value for key, value in result.items() if key not in CLOCK_KEYS}


def point_results(kind: str, payload: Mapping) -> list[Mapping]:
    return [payload] if kind == "run" else list(payload["results"])


def check_output(
    step,
    payload: Mapping,
    reference: Mapping,
    cold: Mapping | None = None,
) -> tuple[list[str | None], int]:
    """Check one command's parsed JSON output.

    Returns one entry per expected point - ``None`` if the point passed,
    else why it failed - and the trial-rounds the command simulated
    (cache hits and journal replays count none).  ``reference`` is the
    ``reference.json`` record of the step's spec; ``cold`` the output of
    the step named by ``step.same_as``.
    """
    points = reference["points"]
    errors: list[list[str]] = [[] for _ in points]
    results = point_results(step.kind, payload)
    if len(results) != len(points):
        return [f"{len(results)} results for {len(points)} points"] * len(points), 0
    sweep_errors = []
    if step.kind != "run":
        if payload.get("failures"):
            sweep_errors.append(f"failure manifest lists {len(payload['failures'])}")
        for counter in ("cache_hits", "resumed"):
            if int(payload.get(counter, -1)) != getattr(step, counter):
                sweep_errors.append(
                    f"{counter} {payload.get(counter)} != {getattr(step, counter)}"
                )
    if step.same_as is not None and cold is None:
        sweep_errors.append(f"no {step.same_as} output to compare with")
    cold_results = point_results(step.kind, cold) if cold is not None else None
    served = step.cache_hits + step.resumed
    trial_rounds = 0
    for index, (result, expected) in enumerate(zip(results, points)):
        bucket = errors[index]
        bucket.extend(sweep_errors)
        engine = result.get("engine")
        if engine != expected["engine"] or str(engine).startswith("scalar-"):
            bucket.append(f"engine {engine!r}, expected {expected['engine']!r}")
        if step.kind == "open":
            statistics = open_statistics(result)
            problem = conservation_error(result)
            if problem:
                bucket.append(problem)
        else:
            statistics = closed_statistics(result)
        bucket.extend(
            statistic_errors(statistics, expected["stats"], reference["seeds"])
        )
        if cold_results is not None and (
            index >= len(cold_results)
            or without_clocks(result) != without_clocks(cold_results[index])
        ):
            bucket.append(f"differs from the {step.same_as} run")
        if index >= served:
            counted = open_trial_rounds if step.kind == "open" else closed_trial_rounds
            trial_rounds += counted(result)
    return ["; ".join(bucket) if bucket else None for bucket in errors], trial_rounds
