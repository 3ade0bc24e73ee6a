"""Start-up probe: import the CLI, then load and expand the given spec files.

Usage: ``python perfbench/setup_probe.py SPEC.json ...``.  The benchmark
times this whole process from outside as one measurement of ``setup_s``:
interpreter start, ``import repro.cli`` and spec parsing and expansion,
everything a command does before its first engine call.
"""

import json
import sys
from pathlib import Path

import repro.cli  # noqa: F401  (the import is what is measured)
from repro.scenarios import OpenScenarioSpec, OpenSweep, ScenarioSpec, Sweep


def expand(text: str) -> int:
    payload = json.loads(text)
    if "base" in payload:
        kind = OpenSweep if "arrivals" in payload["base"] else Sweep
        return len(kind.from_json(text).points())
    kind = OpenScenarioSpec if "arrivals" in payload else ScenarioSpec
    kind.from_json(text)
    return 1


if __name__ == "__main__":
    points = sum(expand(Path(path).read_text()) for path in sys.argv[1:])
    print(points)
