"""The benchmark's three workloads, generated from a seed.

Each workload is a list of spec files plus the ``python -m repro`` command
lines that consume them.  The seed only sets the specs' base seeds, so the
shape of every workload - grid, trial counts, horizons, the injected
crash - is fixed and the per-point statistics in ``reference.json`` apply
to any seed.

The spec payloads are pinned here rather than printed by ``repro scenario
example``: the benchmark must keep measuring the same work when the
program's example specs change.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("closed-sweep", "open-load", "cli-cache")

#: Placeholder in a step's arguments for the per-repetition state
#: directory (result store, journals), recreated empty before each rep.
STATE = "{state}"


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload and what its output must show.

    ``kind`` is ``closed`` (a closed sweep), ``open`` (an open sweep) or
    ``run`` (one closed scenario).  ``same_as`` names an earlier step whose
    results this step must reproduce bit for bit; ``cache_hits`` and
    ``resumed`` are the provenance counts the sweep must report.  The
    first ``cache_hits + resumed`` points are served from the store or the
    journal rather than simulated, so they count no trial-rounds.
    """

    name: str
    kind: str
    spec: str
    args: tuple[str, ...]
    exit_code: int = 0
    cache_hits: int = 0
    resumed: int = 0
    same_as: str | None = None

    def argv(self, spec_dir: str, state_dir: str) -> list[str]:
        spec_path = str(Path(spec_dir) / f"{self.spec}.json")
        return [spec_path if a == "{spec}" else a.replace(STATE, state_dir)
                for a in self.args]


@dataclass(frozen=True)
class Workload:
    name: str
    specs: dict[str, dict]
    steps: tuple[Step, ...]

    def write_specs(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, payload in self.specs.items():
            (directory / f"{name}.json").write_text(json.dumps(payload, indent=2))

    def spec_points(self, name: str) -> int:
        """Number of points the spec ``name`` expands to."""
        payload = self.specs[name]
        if "grid" not in payload:
            return 1
        count = 1
        for values in payload["grid"].values():
            count *= len(values)
        return count


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit base seed for one spec file, stable across platforms."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _seeded(payload: dict, seed: int, label: str) -> dict:
    payload = copy.deepcopy(payload)
    target = payload["base"] if "base" in payload else payload
    target["seed"] = derive_seed(seed, label)
    return payload


# ---------------------------------------------------------------------------
# closed-sweep: every closed engine through the fused executor
# ---------------------------------------------------------------------------

_PERTURBED = {
    "source": "distribution",
    "params": {
        "family": "perturbed",
        "base": {"family": "range_uniform_subset", "ranges": [2, 4, 6]},
        "shift": 3,
        "floor": 1e-6,
    },
}

#: The jamming robustness grid (protocol x prediction x channel model x
#: budget) at 2.5x the example's trials, with the Jiang-Zheng robust
#: baseline added: oblivious rows fuse by model, the two adaptive rows
#: run as serial singletons.
ADVERSARY_SWEEP = {
    "base": {
        "name": "adversary-grid",
        "protocol": {"id": "willard", "params": {}},
        "workload": {
            "kind": "distribution",
            "params": {"family": "range_uniform_subset", "ranges": [2, 4, 6]},
        },
        "channel": {
            "collision_detection": True,
            "model": {
                "name": "jam-oblivious",
                "params": {"budget": 0, "start": 1, "period": 1},
            },
        },
        "prediction": "truth",
        "n": 2**10,
        "trials": 400,
        "max_rounds": 512,
    },
    "grid": {
        "protocol": [
            {"id": "willard", "params": {}},
            {"id": "decay", "params": {}},
            {"id": "sorted-probing", "params": {"one_shot": False}},
            {"id": "jiang-zheng", "params": {}},
        ],
        "prediction": ["truth", _PERTURBED],
        "channel.model": [
            {"name": "jam-oblivious", "params": {"budget": 0, "start": 1, "period": 1}},
            {"name": "jam-adaptive", "params": {"budget": 0, "strategy": "greedy"}},
            {
                "name": "jam-adaptive",
                "params": {"budget": 0, "strategy": "scheduler", "mode": "back"},
            },
        ],
        "channel.model.params.budget": [0, 8, 16, 32],
    },
    "vary_seed": True,
}

_CD_PERTURBED = copy.deepcopy(_PERTURBED)
_CD_PERTURBED["params"]["base"]["ranges"] = [2, 5, 8]

#: The dense collision-detection grid: Willard at two vote repetitions
#: and cycling code search stack into fused-history runs, decay into one
#: fused-schedule group.
CD_GRID_SWEEP = {
    "base": {
        "name": "cd-grid",
        "protocol": {"id": "willard", "params": {}},
        "workload": {
            "kind": "distribution",
            "params": {"family": "range_uniform_subset", "ranges": [2, 5, 8]},
        },
        "channel": "cd",
        "prediction": "truth",
        "n": 2**10,
        "trials": 768,
        "max_rounds": 512,
    },
    "grid": {
        "protocol": [
            {"id": "willard", "params": {}},
            {"id": "willard", "params": {"repetitions": 7}},
            {"id": "decay", "params": {}},
            {"id": "code-search", "params": {"one_shot": False, "repetitions": 5}},
        ],
        "prediction": ["truth", _CD_PERTURBED],
        "workload.params.ranges": [[2, 5, 8], [3, 6, 9], [2, 4, 6, 8], [2, 3, 5, 7, 9]],
    },
    "vary_seed": True,
}

#: The long-horizon transmission-probability dial: 32 fixed-probability
#: points stacked into one fused-schedule run.
FIXED_DIAL_SWEEP = {
    "base": {
        "name": "fixed-dial",
        "protocol": {"id": "fixed-probability", "params": {"k_hat": 64.0}},
        "workload": {"kind": "fixed", "params": {"k": 4}},
        "channel": "nocd",
        "n": 2**10,
        "trials": 512,
        "max_rounds": 2048,
    },
    "grid": {
        "protocol.params.k_hat": [
            round(48.0 + (512.0 - 48.0) * index / 31, 6) for index in range(32)
        ],
    },
    "vary_seed": True,
}

#: The deterministic-scan advice-corruption dial: 16 worst-case player
#: points stacked into one fused-player run.
PLAYER_DIAL_SWEEP = {
    "base": {
        "name": "player-dial",
        "protocol": {"id": "deterministic-scan", "params": {"advice_bits": 2}},
        "workload": {"kind": "fixed", "params": {"k": 2}},
        "channel": "nocd",
        "advice": {
            "function": "min-id-prefix",
            "bits": 2,
            "corruption": {"model": "bit-flip", "probability": 0.0},
        },
        "adversary": "suffix",
        "n": 2**12,
        "trials": 96,
        "max_rounds": 1025,
    },
    "grid": {
        "advice.corruption.probability": [round(index / 30, 6) for index in range(16)],
    },
    "vary_seed": True,
}


def _closed_sweep(seed: int) -> Workload:
    specs = {
        "adversary": ADVERSARY_SWEEP,
        "cd_grid": CD_GRID_SWEEP,
        "fixed_dial": FIXED_DIAL_SWEEP,
        "player_dial": PLAYER_DIAL_SWEEP,
    }
    specs = {name: _seeded(payload, seed, name) for name, payload in specs.items()}
    steps = tuple(
        Step(
            name=name,
            kind="closed",
            spec=name,
            args=("scenario", "sweep", "{spec}", "--executor", "fused", "--json"),
        )
        for name in specs
    )
    return Workload("closed-sweep", specs, steps)


# ---------------------------------------------------------------------------
# open-load: the open-system driver
# ---------------------------------------------------------------------------

#: Plain decay load -> latency curve (give-up retry, hard capacity).
OPEN_DECAY_SWEEP = {
    "base": {
        "name": "open-decay",
        "protocol": {"id": "decay", "params": {}},
        "arrivals": {"family": "poisson", "params": {"rate": 0.2}},
        "channel": "nocd",
        "n": 256,
        "trials": 128,
        "rounds": 1024,
        "warmup": 0,
        "capacity": 128,
    },
    "grid": {"arrivals.params.rate": [0.05, 0.1, 0.2, 0.35]},
    "vary_seed": True,
}

#: Retry kind x offered load under shedding admission and a timeout.
OPEN_RETRY_SWEEP = {
    "base": {
        "name": "open-retry",
        "protocol": {"id": "decay", "params": {}},
        "arrivals": {"family": "poisson", "params": {"rate": 0.2}},
        "channel": "nocd",
        "n": 64,
        "trials": 64,
        "rounds": 512,
        "warmup": 0,
        "capacity": 16,
        "timeout": 24,
        "retry": {"kind": "backoff", "params": {}},
        "admission": {"kind": "shed", "params": {"threshold": 0.5}},
    },
    "grid": {
        "retry.kind": ["give-up", "immediate", "backoff"],
        "arrivals.params.rate": [0.15, 0.45],
    },
    "vary_seed": True,
}

#: Willard on the collision-detection channel: the open-history engine.
OPEN_WILLARD_SWEEP = {
    "base": {
        "name": "open-willard",
        "protocol": {"id": "willard", "params": {}},
        "arrivals": {"family": "poisson", "params": {"rate": 0.1}},
        "channel": "cd",
        "n": 256,
        "trials": 64,
        "rounds": 512,
        "warmup": 0,
        "capacity": 128,
    },
    "grid": {"arrivals.params.rate": [0.05, 0.1, 0.2]},
    "vary_seed": True,
}


def _open_load(seed: int) -> Workload:
    specs = {
        "open_decay": OPEN_DECAY_SWEEP,
        "open_retry": OPEN_RETRY_SWEEP,
        "open_willard": OPEN_WILLARD_SWEEP,
    }
    specs = {name: _seeded(payload, seed, name) for name, payload in specs.items()}
    steps = tuple(
        Step(
            name=name,
            kind="open",
            spec=name,
            args=("scenario", "open", "sweep", "{spec}", "--json"),
        )
        for name in specs
    )
    return Workload("open-load", specs, steps)


# ---------------------------------------------------------------------------
# cli-cache: short interactive commands over the store and the journal
# ---------------------------------------------------------------------------

EXAMPLE_SCENARIO = {
    "name": "sorted-probing-demo",
    "protocol": {"id": "sorted-probing", "params": {"one_shot": False}},
    "prediction": "truth",
    "workload": {
        "kind": "distribution",
        "params": {"family": "range_uniform_subset", "ranges": [2, 4, 6, 8]},
    },
    "channel": "nocd",
    "n": 1024,
    "trials": 1000,
    "max_rounds": 512,
}

#: A small closed sweep of schedule and history points, run serially.
CACHE_SWEEP = {
    "base": {
        "name": "cache-sweep",
        "protocol": {"id": "sorted-probing", "params": {"one_shot": False}},
        "prediction": "truth",
        "workload": {
            "kind": "distribution",
            "params": {"family": "range_uniform_subset", "ranges": [2, 4, 6, 8]},
        },
        "channel": "cd",
        "n": 1024,
        "trials": 500,
        "max_rounds": 512,
    },
    "grid": {
        "protocol": [
            {"id": "sorted-probing", "params": {"one_shot": False}},
            {"id": "willard", "params": {}},
        ],
        "workload.params.ranges": [[5], [3, 7], [2, 5, 8], [2, 4, 6, 8]],
    },
    "vary_seed": True,
}

#: A small open load curve.
CACHE_OPEN_SWEEP = {
    "base": {
        "name": "cache-open",
        "protocol": {"id": "decay", "params": {}},
        "arrivals": {"family": "poisson", "params": {"rate": 0.2}},
        "channel": "nocd",
        "n": 256,
        "trials": 32,
        "rounds": 256,
        "warmup": 0,
        "capacity": 128,
    },
    "grid": {"arrivals.params.rate": [0.05, 0.1, 0.2, 0.35]},
    "vary_seed": True,
}


def _cli_cache(seed: int) -> Workload:
    specs = {
        "example": EXAMPLE_SCENARIO,
        "cache_sweep": CACHE_SWEEP,
        "cache_open": CACHE_OPEN_SWEEP,
    }
    specs = {name: _seeded(payload, seed, name) for name, payload in specs.items()}
    workload = Workload("cli-cache", specs, ())
    closed_points = workload.spec_points("cache_sweep")
    open_points = workload.spec_points("cache_open")
    # The serial executor checkpoints point by point, so a crash after
    # `crash_after` checkpoints leaves exactly points 0..crash_after-1 in
    # the journal.  Fixed rather than seeded: the replayed share sets how
    # much of the resume is simulated, which must not vary with the seed.
    crash_after = closed_points // 2
    sweep = ("scenario", "sweep", "{spec}", "--executor", "serial")
    cache = ("--cache-dir", f"{STATE}/store")
    steps = (
        Step("run", "run", "example", ("scenario", "run", "{spec}", "--json")),
        Step(
            "closed_cold", "closed", "cache_sweep",
            sweep + cache + ("--resume", f"{STATE}/cold.jsonl", "--json"),
        ),
        Step(
            "closed_crash", "closed", "cache_sweep",
            sweep + ("--resume", f"{STATE}/crash.jsonl", "--inject-faults",
                     json.dumps({"crash_driver_after": crash_after})),
            exit_code=3,
        ),
        Step(
            "closed_resume", "closed", "cache_sweep",
            sweep + ("--resume", f"{STATE}/crash.jsonl", "--json"),
            resumed=crash_after,
            same_as="closed_cold",
        ),
        Step(
            "closed_warm", "closed", "cache_sweep", sweep + cache + ("--json",),
            cache_hits=closed_points,
            same_as="closed_cold",
        ),
        Step(
            "open_cold", "open", "cache_open",
            ("scenario", "open", "sweep", "{spec}") + cache + ("--json",),
        ),
        Step(
            "open_warm", "open", "cache_open",
            ("scenario", "open", "sweep", "{spec}") + cache + ("--json",),
            cache_hits=open_points,
            same_as="open_cold",
        ),
    )
    return Workload("cli-cache", specs, steps)


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs generated from ``seed``."""
    builders = {
        "closed-sweep": _closed_sweep,
        "open-load": _open_load,
        "cli-cache": _cli_cache,
    }
    try:
        return builders[name](seed)
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}"
        ) from None
