"""The history engine's state-keyed DAG and its counters.

Sessions that name their state (``UniformSession.state_key``) share one
arena node per ``(root, state)``, so randomized channels that make every
trial's history unique still leave the memo as small as the protocol's
state space.  These tests pin that bound deterministically (node counts,
not timings), check that merging changes no result - a DAG run is
bit-identical to the same run on a plain one-node-per-history trie - and
cover the ``history_arena_stats()`` counters, including the budget
reset that used to happen silently.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.channel.batch as batch_module
from repro.channel import (
    AdaptiveAdversary,
    NoisyChannel,
    history_arena_stats,
    run_history_stacked,
    run_uniform_batch,
    with_collision_detection,
)
from repro.core.feedback import Observation
from repro.core.protocol import ScheduleExhausted
from repro.core.uniform import HistoryPolicy, HistoryPolicyProtocol
from repro.infotheory.distributions import SizeDistribution
from repro.protocols.searching import PhasedSearchSession
from repro.protocols.willard import WillardProtocol

N = 2**10
TRIALS = 400
MAX_ROUNDS = 300

MODELS = {
    "noise": NoisyChannel(
        silence_to_collision=0.1, collision_to_silence=0.2, success_erasure=0.25
    ),
    "jam-adaptive-greedy": AdaptiveAdversary(budget=4, strategy="greedy"),
}


def _ks(seed: int, trials: int) -> np.ndarray:
    distribution = SizeDistribution.range_uniform_subset(N, [2, 5, 8])
    return np.asarray(
        distribution.sample_many(np.random.default_rng(seed), trials),
        dtype=np.int64,
    )


def _reachable_states(protocol) -> int:
    """Distinct state keys reachable from a fresh session under any
    observation sequence: the protocol's state space, found by breadth-
    first search over both CD observations."""
    fresh = protocol.session()
    seen = {fresh.state_key()}
    frontier = [fresh]
    while frontier:
        following = []
        for session in frontier:
            session = session.fork()
            try:
                session.next_probability()
            except ScheduleExhausted:
                continue
            for observation in (Observation.SILENCE, Observation.COLLISION):
                child = session.fork()
                child.observe(observation)
                key = child.state_key()
                if key not in seen:
                    seen.add(key)
                    following.append(child)
        frontier = following
    return len(seen)


def _run(model, trials=TRIALS, max_rounds=MAX_ROUNDS, seed=2):
    return run_uniform_batch(
        WillardProtocol(N),
        _ks(1, trials),
        np.random.default_rng(seed),
        channel=with_collision_detection().with_model(model),
        max_rounds=max_rounds,
    )


@pytest.fixture
def cold_arena():
    batch_module._reset_shared_arena()
    yield
    batch_module._reset_shared_arena()


@pytest.mark.usefixtures("cold_arena")
class TestStateKeyedNodes:
    def test_willard_state_space_is_small(self):
        # One phase of 10 candidate ranges, 3-vote probes: the search's
        # (lo, hi, mid) positions times the reachable vote tallies.
        assert _reachable_states(WillardProtocol(N)) == 91

    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    def test_nodes_bounded_by_state_space(self, model):
        """A cold 400-trial point stays within the state space, and 4x
        the trials with 4x the budget cannot leave it."""
        bound = _reachable_states(WillardProtocol(N))
        _run(model)
        stats = history_arena_stats()
        assert 0 < stats["nodes"] <= bound
        assert stats["merged"] > 0
        _run(model, trials=4 * TRIALS, max_rounds=4 * MAX_ROUNDS, seed=3)
        assert history_arena_stats()["nodes"] <= bound

    def test_saturated_arena_adds_no_nodes(self):
        """The DAG depends on the protocol only, not on the channel: once
        a run has visited every reachable state, no run of the same
        protocol adds a node, whatever its trials, budget or model."""
        bound = _reachable_states(WillardProtocol(N))
        saturating = NoisyChannel(
            silence_to_collision=0.5, collision_to_silence=0.5,
            success_erasure=0.9,
        )
        _run(saturating, trials=100, max_rounds=200)
        assert history_arena_stats()["nodes"] == bound
        for model in MODELS.values():
            _run(model)
            _run(model, trials=4 * TRIALS, max_rounds=4 * MAX_ROUNDS, seed=3)
            assert history_arena_stats()["nodes"] == bound

    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    def test_dag_results_equal_trie_results(self, model, monkeypatch):
        """Merging is a pure memo change: the same seeds give bit-identical
        results with state keys and without (one node per history)."""
        dag = _run(model)
        dag_nodes = history_arena_stats()["nodes"]
        batch_module._reset_shared_arena()
        monkeypatch.setattr(PhasedSearchSession, "state_key", lambda self: None)
        trie = _run(model)
        assert (dag.solved == trie.solved).all()
        assert (dag.rounds == trie.rounds).all()
        stats = history_arena_stats()
        assert stats["merged"] == 0
        assert stats["nodes"] > 10 * dag_nodes

    def test_equal_keys_of_different_protocols_never_merge(self):
        """Keys are scoped by root: two searches whose states look alike
        (same tuple shape, different ranges) stack bit-identically to
        their solo runs."""
        protocols = [WillardProtocol(N), WillardProtocol(2**6)]
        channel = with_collision_detection().with_model(MODELS["noise"])
        stacked = run_history_stacked(
            protocols,
            [_ks(1, 200), _ks(2, 200)],
            [np.random.default_rng(5), np.random.default_rng(6)],
            channel=channel,
            max_rounds=MAX_ROUNDS,
        )
        for j, protocol in enumerate(protocols):
            batch_module._reset_shared_arena()
            solo = run_uniform_batch(
                protocol, _ks(1 + j, 200), np.random.default_rng(5 + j),
                channel=channel, max_rounds=MAX_ROUNDS,
            )
            assert (stacked[j].solved == solo.solved).all()
            assert (stacked[j].rounds == solo.rounds).all()

    def test_keyless_sessions_keep_one_node_per_history(self):
        """History-policy sessions *are* their history: no merging."""

        class _Halving(HistoryPolicy):
            name = "halving"

            def probability(self, history: str) -> float:
                return 0.5 ** min(history.count("1") + 1, 30)

        run_history_stacked(
            [HistoryPolicyProtocol(_Halving())],
            [_ks(1, 200)],
            [np.random.default_rng(4)],
            channel=with_collision_detection().with_model(MODELS["noise"]),
            max_rounds=60,
        )
        stats = history_arena_stats()
        assert stats["merged"] == 0
        assert stats["nodes"] > 100


@pytest.mark.usefixtures("cold_arena")
class TestArenaStats:
    def test_cold_thread_reports_empty_arena(self):
        stats = history_arena_stats()
        assert stats["nodes"] == 0 and stats["merged"] == 0

    def test_budget_reset_is_counted(self, monkeypatch):
        """An arena past its node budget is replaced at the next run's
        start - counted, not silent - and results do not change."""
        model = MODELS["noise"]
        reference = _run(model)
        resets = history_arena_stats()["resets"]
        monkeypatch.setattr(batch_module, "_SHARED_ARENA_NODE_BUDGET", 5)
        first = _run(model)
        assert history_arena_stats()["resets"] == resets + 1
        second = _run(model)
        assert history_arena_stats()["resets"] == resets + 2
        for result in (first, second):
            assert (result.solved == reference.solved).all()
            assert (result.rounds == reference.rounds).all()

    def test_first_arena_is_not_a_reset(self):
        resets = history_arena_stats()["resets"]
        _run(MODELS["noise"])
        assert history_arena_stats()["resets"] == resets
