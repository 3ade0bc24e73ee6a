"""Calibration child: a fixed amount of interpreter, import and numpy work.

It uses nothing from the program under test.  The benchmark runs it right
before each timed child; its wall time over the nominal
``CALIBRATION_NOMINAL_S`` in ``run.py`` is how much slower the shared
machine runs at that moment, and the child's time is divided by it.
"""

import numpy as np

values = np.random.default_rng(0).random(1 << 17)
for _ in range(8):
    values = np.sort(values * 1.000001)
counts: dict[int, int] = {}
for index in range(200_000):
    key = (index * 7919) % 1021
    counts[key] = counts.get(key, 0) + 1
