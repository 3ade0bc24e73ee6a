"""Absolute stream pins and cross-walk identities of the stacked engines.

The stacked==solo identities in ``test_batch.py`` are self-consistent:
a change to how the closed engines consume their generators would move
solo and stacked runs together and pass unseen.  This module pins the
*absolute* per-point output - ``(solved count, sum of rounds)`` - of
both stacked entries across every channel model, CD and no-CD, and
three round budgets, including a one-shot schedule (horizon censoring)
and a one-shot CD search (exhaustion retirement).  A deliberate stream
change must bump ``SCHEMA_VERSION`` and re-pin these values.

It also pins the identity between the two probability walks: a cycling
schedule run through the history trie gives bit-identical results to
the same schedule run through its published probability table, closed
and open.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import (
    AdaptiveAdversary,
    Channel,
    CrashModel,
    NoisyChannel,
    ObliviousJammer,
    ReactiveJammer,
    run_history_stacked,
    run_schedule_stacked,
)
from repro.core.protocol import UniformProtocol, UniformSession
from repro.opensys import ExponentialBackoffPolicy, PoissonArrivals, run_open
from repro.protocols.advice_randomized import (
    TruncatedDecayProtocol,
    truncated_willard_for_count,
)
from repro.protocols.decay import DecayProtocol
from repro.protocols.fixed_probability import FixedProbabilityProtocol
from repro.protocols.willard import WillardProtocol

N = 2**10
TRIALS = 150
BUDGETS = (7, 40, 300)

MODELS = {
    "faithful": None,
    "jam-oblivious": ObliviousJammer(budget=5, start=2, period=3),
    "jam-reactive": ReactiveJammer(budget=4, quiet_streak=1),
    "noise": NoisyChannel(
        silence_to_collision=0.1, collision_to_silence=0.2, success_erasure=0.25
    ),
    "crash-rejoin-0": CrashModel(0.3, rejoin_after=0),
    "crash-rejoin-3": CrashModel(0.3, rejoin_after=3),
    "jam-adaptive-greedy": AdaptiveAdversary(budget=4, strategy="greedy"),
}


def _ks(point: int) -> np.ndarray:
    return np.random.default_rng([7, point]).integers(1, 300, TRIALS)


def _rngs(points: int) -> list[np.random.Generator]:
    return [np.random.default_rng([2021, j]) for j in range(points)]


def _schedule_protocols() -> list[UniformProtocol]:
    return [
        DecayProtocol(N),
        TruncatedDecayProtocol.for_count(N, 2, 64, cycle=False),
        FixedProbabilityProtocol(24),
    ]


def _history_protocols(cd: bool) -> list[UniformProtocol]:
    if cd:
        return [
            WillardProtocol(N),
            truncated_willard_for_count(N, 2, 64, restart=False),
            DecayProtocol(N, cycle=False),
        ]
    return [
        DecayProtocol(N, cycle=False),
        DecayProtocol(N),
        TruncatedDecayProtocol.for_count(N, 2, 64, cycle=False),
    ]


def _digest(walk: str, model: str, cd: bool, budget: int) -> list[list[int]]:
    channel = Channel(collision_detection=cd, model=MODELS[model])
    if walk == "schedule":
        protocols = _schedule_protocols()
        run, per_point = run_schedule_stacked, [p.batch_schedule() for p in protocols]
    else:
        protocols = _history_protocols(cd)
        run, per_point = run_history_stacked, protocols
    results = run(
        per_point,
        [_ks(j) for j in range(len(protocols))],
        _rngs(len(protocols)),
        channel=channel,
        max_rounds=budget,
    )
    return [[int(r.solved.sum()), int(r.rounds.sum())] for r in results]


#: (walk, model, "cd" | "nocd", budget) -> per point [solved, sum rounds].
GOLDEN = {
    ('schedule', 'faithful', 'cd', 7): [[88, 943], [54, 409], [55, 849]],
    ('schedule', 'faithful', 'cd', 40): [[149, 1445], [54, 409], [84, 3262]],
    ('schedule', 'faithful', 'cd', 300): [[150, 1453], [54, 409], [101, 17773]],
    ('schedule', 'faithful', 'nocd', 7): [[88, 943], [54, 409], [55, 849]],
    ('schedule', 'faithful', 'nocd', 40): [[149, 1445], [54, 409], [84, 3262]],
    ('schedule', 'faithful', 'nocd', 300): [[150, 1453], [54, 409], [101, 17773]],
    ('schedule', 'jam-oblivious', 'cd', 7): [[78, 977], [43, 424], [50, 890]],
    ('schedule', 'jam-oblivious', 'cd', 40): [[146, 1846], [43, 424], [79, 3626]],
    ('schedule', 'jam-oblivious', 'cd', 300): [[150, 1851], [43, 424], [99, 18684]],
    ('schedule', 'jam-oblivious', 'nocd', 7): [[78, 977], [43, 424], [50, 890]],
    ('schedule', 'jam-oblivious', 'nocd', 40): [[146, 1846], [43, 424], [79, 3626]],
    ('schedule', 'jam-oblivious', 'nocd', 300): [[150, 1851], [43, 424], [99, 18684]],
    ('schedule', 'jam-reactive', 'cd', 7): [[82, 952], [50, 411], [47, 872]],
    ('schedule', 'jam-reactive', 'cd', 40): [[150, 1617], [50, 411], [84, 3285]],
    ('schedule', 'jam-reactive', 'cd', 300): [[150, 1637], [50, 411], [101, 17796]],
    ('schedule', 'jam-reactive', 'nocd', 7): [[82, 952], [50, 411], [47, 872]],
    ('schedule', 'jam-reactive', 'nocd', 40): [[150, 1617], [50, 411], [84, 3285]],
    ('schedule', 'jam-reactive', 'nocd', 300): [[150, 1637], [50, 411], [101, 17796]],
    ('schedule', 'noise', 'cd', 7): [[72, 960], [43, 420], [48, 883]],
    ('schedule', 'noise', 'cd', 40): [[150, 1786], [43, 420], [83, 3448]],
    ('schedule', 'noise', 'cd', 300): [[150, 1786], [43, 420], [100, 18257]],
    ('schedule', 'noise', 'nocd', 7): [[72, 960], [43, 420], [48, 883]],
    ('schedule', 'noise', 'nocd', 40): [[150, 1786], [43, 420], [83, 3448]],
    ('schedule', 'noise', 'nocd', 300): [[150, 1786], [43, 420], [100, 18257]],
    ('schedule', 'crash-rejoin-0', 'cd', 7): [[71, 963], [42, 420], [48, 888]],
    ('schedule', 'crash-rejoin-0', 'cd', 40): [[147, 1878], [42, 420], [75, 3665]],
    ('schedule', 'crash-rejoin-0', 'cd', 300): [[150, 1927], [42, 420], [98, 19334]],
    ('schedule', 'crash-rejoin-0', 'nocd', 7): [[71, 963], [42, 420], [48, 888]],
    ('schedule', 'crash-rejoin-0', 'nocd', 40): [[147, 1878], [42, 420], [75, 3665]],
    ('schedule', 'crash-rejoin-0', 'nocd', 300): [[150, 1927], [42, 420], [98, 19334]],
    ('schedule', 'crash-rejoin-3', 'cd', 7): [[71, 963], [42, 420], [48, 888]],
    ('schedule', 'crash-rejoin-3', 'cd', 40): [[150, 1828], [42, 420], [75, 3665]],
    ('schedule', 'crash-rejoin-3', 'cd', 300): [[150, 1827], [42, 420], [98, 19334]],
    ('schedule', 'crash-rejoin-3', 'nocd', 7): [[71, 963], [42, 420], [48, 888]],
    ('schedule', 'crash-rejoin-3', 'nocd', 40): [[150, 1828], [42, 420], [75, 3665]],
    ('schedule', 'crash-rejoin-3', 'nocd', 300): [[150, 1827], [42, 420], [98, 19334]],
    ('schedule', 'jam-adaptive-greedy', 'cd', 7): [[0, 1050], [0, 450], [0, 1050]],
    ('schedule', 'jam-adaptive-greedy', 'cd', 40): [[89, 5173], [0, 450], [46, 5113]],
    ('schedule', 'jam-adaptive-greedy', 'cd', 300): [[150, 5930], [0, 450], [80, 26008]],
    ('schedule', 'jam-adaptive-greedy', 'nocd', 7): [[0, 1050], [0, 450], [0, 1050]],
    ('schedule', 'jam-adaptive-greedy', 'nocd', 40): [[89, 5173], [0, 450], [46, 5113]],
    ('schedule', 'jam-adaptive-greedy', 'nocd', 300): [[150, 5930], [0, 450], [80, 26008]],
    ('history', 'faithful', 'cd', 7): [[116, 711], [91, 676], [71, 937]],
    ('history', 'faithful', 'cd', 40): [[150, 785], [77, 711], [109, 1104]],
    ('history', 'faithful', 'cd', 300): [[150, 785], [77, 711], [109, 1104]],
    ('history', 'faithful', 'nocd', 7): [[88, 943], [84, 935], [44, 416]],
    ('history', 'faithful', 'nocd', 40): [[111, 1100], [150, 1510], [55, 407]],
    ('history', 'faithful', 'nocd', 300): [[111, 1100], [150, 1511], [55, 407]],
    ('history', 'jam-oblivious', 'cd', 7): [[100, 779], [73, 714], [65, 968]],
    ('history', 'jam-oblivious', 'cd', 40): [[150, 1098], [64, 747], [88, 1195]],
    ('history', 'jam-oblivious', 'cd', 300): [[150, 1098], [64, 747], [88, 1195]],
    ('history', 'jam-oblivious', 'nocd', 7): [[78, 977], [70, 976], [33, 428]],
    ('history', 'jam-oblivious', 'nocd', 40): [[89, 1194], [148, 1872], [44, 428]],
    ('history', 'jam-oblivious', 'nocd', 300): [[89, 1194], [150, 1888], [44, 428]],
    ('history', 'jam-reactive', 'cd', 7): [[94, 752], [84, 691], [65, 945]],
    ('history', 'jam-reactive', 'cd', 40): [[150, 1063], [68, 728], [91, 1156]],
    ('history', 'jam-reactive', 'cd', 300): [[150, 1063], [68, 728], [91, 1156]],
    ('history', 'jam-reactive', 'nocd', 7): [[82, 952], [77, 949], [41, 417]],
    ('history', 'jam-reactive', 'nocd', 40): [[102, 1120], [148, 1767], [49, 410]],
    ('history', 'jam-reactive', 'nocd', 300): [[102, 1120], [150, 1782], [49, 410]],
    ('history', 'noise', 'cd', 7): [[90, 789], [73, 721], [56, 966]],
    ('history', 'noise', 'cd', 40): [[148, 1346], [63, 747], [93, 1175]],
    ('history', 'noise', 'cd', 300): [[150, 1342], [63, 747], [93, 1175]],
    ('history', 'noise', 'nocd', 7): [[72, 960], [77, 952], [31, 429]],
    ('history', 'noise', 'nocd', 40): [[93, 1181], [149, 2000], [44, 416]],
    ('history', 'noise', 'nocd', 300): [[93, 1181], [150, 2103], [44, 416]],
    ('history', 'crash-rejoin-0', 'cd', 7): [[91, 792], [75, 720], [52, 973]],
    ('history', 'crash-rejoin-0', 'cd', 40): [[150, 1120], [66, 743], [89, 1201]],
    ('history', 'crash-rejoin-0', 'cd', 300): [[150, 1120], [66, 743], [89, 1201]],
    ('history', 'crash-rejoin-0', 'nocd', 7): [[71, 963], [73, 957], [29, 429]],
    ('history', 'crash-rejoin-0', 'nocd', 40): [[90, 1193], [147, 2057], [41, 419]],
    ('history', 'crash-rejoin-0', 'nocd', 300): [[90, 1193], [150, 2125], [41, 419]],
    ('history', 'crash-rejoin-3', 'cd', 7): [[92, 789], [75, 720], [52, 973]],
    ('history', 'crash-rejoin-3', 'cd', 40): [[150, 1123], [66, 742], [89, 1201]],
    ('history', 'crash-rejoin-3', 'cd', 300): [[150, 1123], [66, 742], [89, 1201]],
    ('history', 'crash-rejoin-3', 'nocd', 7): [[71, 963], [73, 957], [29, 429]],
    ('history', 'crash-rejoin-3', 'nocd', 40): [[90, 1193], [147, 2057], [41, 419]],
    ('history', 'crash-rejoin-3', 'nocd', 300): [[90, 1193], [150, 2125], [41, 419]],
    ('history', 'jam-adaptive-greedy', 'cd', 7): [[0, 1050], [2, 900], [0, 1050]],
    ('history', 'jam-adaptive-greedy', 'cd', 40): [[144, 3355], [2, 899], [0, 1500]],
    ('history', 'jam-adaptive-greedy', 'cd', 300): [[150, 3416], [2, 899], [0, 1500]],
    ('history', 'jam-adaptive-greedy', 'nocd', 7): [[0, 1050], [0, 1050], [0, 450]],
    ('history', 'jam-adaptive-greedy', 'nocd', 40): [[0, 1500], [91, 5058], [0, 450]],
    ('history', 'jam-adaptive-greedy', 'nocd', 300): [[0, 1500], [150, 6096], [0, 450]],

}


CASES = [
    (walk, model, detector, budget)
    for walk in ("schedule", "history")
    for model in MODELS
    for detector in ("cd", "nocd")
    for budget in BUDGETS
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(map(str, case)))
def test_closed_stacked_output_is_pinned(case):
    walk, model, detector, budget = case
    assert _digest(walk, model, detector == "cd", budget) == GOLDEN[case]


def test_pins_exercise_censoring_and_exhaustion():
    """The one-shot points end unsolved short of the budget."""
    budget = 300
    schedule = run_schedule_stacked(
        [p.batch_schedule() for p in _schedule_protocols()],
        [_ks(j) for j in range(3)],
        _rngs(3),
        max_rounds=budget,
    )[1]
    assert (~schedule.solved).any()
    assert (schedule.rounds[~schedule.solved] < budget).all()
    history = run_history_stacked(
        _history_protocols(True),
        [_ks(j) for j in range(3)],
        _rngs(3),
        channel=Channel(collision_detection=True),
        max_rounds=budget,
    )[1]
    assert (~history.solved).any()
    assert (history.rounds[~history.solved] < budget).all()


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("cd", [True, False], ids=["cd", "nocd"])
def test_history_walk_equals_schedule_walk_on_cycling_schedules(model, cd):
    protocols = [DecayProtocol(N), FixedProbabilityProtocol(24), DecayProtocol(64)]
    ks_list = [_ks(j) for j in range(len(protocols))]
    channel = Channel(collision_detection=cd, model=MODELS[model])
    by_schedule = run_schedule_stacked(
        [p.batch_schedule() for p in protocols],
        ks_list,
        _rngs(len(protocols)),
        channel=channel,
        max_rounds=120,
    )
    by_history = run_history_stacked(
        protocols, ks_list, _rngs(len(protocols)), channel=channel, max_rounds=120
    )
    for schedule_result, history_result in zip(by_schedule, by_history):
        np.testing.assert_array_equal(schedule_result.solved, history_result.solved)
        np.testing.assert_array_equal(schedule_result.rounds, history_result.rounds)


class _Unpublished(UniformProtocol):
    """A schedule protocol that hides its schedule: sessions only, so the
    engines must walk its history trie instead of the probability table."""

    def __init__(self, inner: UniformProtocol) -> None:
        self._inner = inner
        self.name = f"unpublished({inner.name})"

    def session(self) -> UniformSession:
        return self._inner.session()


@pytest.mark.parametrize(
    "model",
    [model for model in MODELS if model != "crash-rejoin-3"],
)
@pytest.mark.parametrize("cd", [True, False], ids=["cd", "nocd"])
@pytest.mark.parametrize("cycle", [True, False], ids=["cycling", "one-shot"])
def test_open_trie_walk_equals_epoch_walk_on_decay(model, cd, cycle):
    channel = Channel(collision_detection=cd, model=MODELS[model])
    common = dict(
        channel=channel, trials=70, rounds=150, warmup=10, timeout=12,
        retry=ExponentialBackoffPolicy(base=2, cap=16, jitter=4, budget=2),
        seed=5,
    )
    decay = DecayProtocol(N, cycle=cycle)
    epoch = run_open(decay, PoissonArrivals(0.25), **common)
    trie = run_open(_Unpublished(decay), PoissonArrivals(0.25), **common)
    assert (epoch.engine, trie.engine) == ("open-schedule", "open-history")
    assert trie.store.to_dict() == epoch.store.to_dict()
    assert epoch.store.completed > 0 and epoch.store.retried > 0
