"""Tests for estimator engine routing and the player-batch contract."""

import numpy as np
import pytest

from repro.analysis.montecarlo import estimate_player_rounds
from repro.channel.channel import with_collision_detection
from repro.channel.models import CrashModel
from repro.channel.network import RandomAdversary
from repro.channel.routing import (
    ENGINE_BATCH_HISTORY,
    ENGINE_BATCH_PLAYER,
    ENGINE_BATCH_SCHEDULE,
    ENGINE_SCALAR_PLAYER,
    ENGINE_SCALAR_UNIFORM,
    select_engine,
)
from repro.protocols.adapters import UniformAsPlayerProtocol
from repro.protocols.backoff import BinaryExponentialBackoff
from repro.protocols.decay import DecayProtocol
from repro.protocols.restart import FallbackPlayerProtocol, RestartProtocol
from repro.protocols.willard import WillardProtocol


class TestSelectUniformEngine:
    def test_schedule_protocols_hit_the_schedule_engine(self):
        assert select_engine(DecayProtocol(256)) == ENGINE_BATCH_SCHEDULE

    def test_cd_search_hits_the_history_engine(self):
        assert select_engine(WillardProtocol(256)) == ENGINE_BATCH_HISTORY

    def test_batch_false_forces_scalar(self):
        assert (
            select_engine(DecayProtocol(256), False)
            == ENGINE_SCALAR_UNIFORM
        )

    def test_factories_run_scalar(self):
        assert (
            select_engine(lambda: DecayProtocol(256))
            == ENGINE_SCALAR_UNIFORM
        )

    def test_batch_true_on_factory_raises(self):
        with pytest.raises(ValueError, match="batch=True"):
            select_engine(lambda: DecayProtocol(256), True)


def _fallback_protocol() -> FallbackPlayerProtocol:
    """A genuinely non-batchable combinator: one half has randomized
    sessions (a factory restart), so no batch sessions exist."""
    return FallbackPlayerProtocol(
        BinaryExponentialBackoff(),
        UniformAsPlayerProtocol(RestartProtocol(lambda: WillardProtocol(64))),
        budget_rounds=16,
    )


class TestSelectPlayerEngine:
    """Player protocols follow the uniform ``batch`` semantics."""

    def test_batchable_protocols_hit_the_player_engine(self):
        assert (
            select_engine(BinaryExponentialBackoff())
            == ENGINE_BATCH_PLAYER
        )

    def test_batch_false_forces_scalar(self):
        assert (
            select_engine(BinaryExponentialBackoff(), False)
            == ENGINE_SCALAR_PLAYER
        )

    def test_fallback_combinator_batches_when_halves_do(self):
        protocol = FallbackPlayerProtocol(
            BinaryExponentialBackoff(),
            UniformAsPlayerProtocol(WillardProtocol(64)),
            budget_rounds=16,
        )
        assert select_engine(protocol) == ENGINE_BATCH_PLAYER

    def test_non_batchable_combinators_run_scalar(self):
        assert select_engine(_fallback_protocol()) == ENGINE_SCALAR_PLAYER

    def test_batch_true_on_non_batchable_raises(self):
        with pytest.raises(ValueError, match="batch=True"):
            select_engine(_fallback_protocol(), True)


class TestPlayerBatchContract:
    def _estimate(self, batch, protocol=None):
        adversary = RandomAdversary()
        return estimate_player_rounds(
            protocol if protocol is not None else BinaryExponentialBackoff(),
            lambda rng: adversary.checked_select(64, 3, rng),
            64,
            np.random.default_rng(0),
            channel=with_collision_detection(),
            trials=10,
            max_rounds=200,
            batch=batch,
        )

    def test_batch_true_on_non_batchable_raises(self):
        """batch=True insists on the vectorized engine - no silent (or
        warned) fallback, exactly like the uniform estimator."""
        with pytest.raises(ValueError, match="batch=True"):
            self._estimate(True, protocol=_fallback_protocol())

    def test_batch_true_runs_batchable_protocols(self):
        assert self._estimate(True).success.trials == 10

    def test_batch_none_and_false_both_complete(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            auto = self._estimate(None)
            scalar = self._estimate(False)
        assert auto.success.trials == scalar.success.trials == 10

    def test_batch_flag_ignored_for_non_batchable_protocols(self):
        """None/False must not perturb the scalar RNG stream or results."""
        protocol = _fallback_protocol()
        auto = self._estimate(None, protocol=protocol)
        assert auto.rounds == self._estimate(False, protocol=protocol).rounds


_PROTOCOLS = {
    "decay": lambda: DecayProtocol(256),
    "willard": lambda: WillardProtocol(256),
    "factory": lambda: (lambda: DecayProtocol(256)),
    "backoff": BinaryExponentialBackoff,
    "fallback": _fallback_protocol,
}
_MODELS = {
    "faithful": None,
    "crash-instant": CrashModel(0.5, rejoin_after=0),
    "crash-rejoin": CrashModel(0.5, rejoin_after=2),
}

#: A refusal: ``select_engine`` raises ValueError matching the fragment.
UNIFORM_ONLY = (ValueError, "uniform protocols only")
ARRIVALS = (ValueError, "arrival process")
NOT_BATCHABLE = (ValueError, "batch=True")
REJOIN = (ValueError, "rejoin")

#: (protocol, model, open_system) -> outcome for batch = None, False, True.
#: Written out by hand from the documented routing rules, not derived.
ROUTING_MATRIX = [
    # Closed runs: no model changes a uniform protocol's engine.
    ("decay", "faithful", False,
     ("batch-schedule", "scalar-uniform", "batch-schedule")),
    ("decay", "crash-instant", False,
     ("batch-schedule", "scalar-uniform", "batch-schedule")),
    ("decay", "crash-rejoin", False,
     ("batch-schedule", "scalar-uniform", "batch-schedule")),
    ("willard", "faithful", False,
     ("batch-history", "scalar-uniform", "batch-history")),
    ("willard", "crash-instant", False,
     ("batch-history", "scalar-uniform", "batch-history")),
    ("willard", "crash-rejoin", False,
     ("batch-history", "scalar-uniform", "batch-history")),
    ("factory", "faithful", False,
     ("scalar-uniform", "scalar-uniform", NOT_BATCHABLE)),
    ("factory", "crash-instant", False,
     ("scalar-uniform", "scalar-uniform", NOT_BATCHABLE)),
    ("factory", "crash-rejoin", False,
     ("scalar-uniform", "scalar-uniform", NOT_BATCHABLE)),
    # Closed runs: a rejoin delay sends player protocols to the scalar loop.
    ("backoff", "faithful", False,
     ("batch-player", "scalar-player", "batch-player")),
    ("backoff", "crash-instant", False,
     ("batch-player", "scalar-player", "batch-player")),
    ("backoff", "crash-rejoin", False,
     ("scalar-player", "scalar-player", REJOIN)),
    ("fallback", "faithful", False,
     ("scalar-player", "scalar-player", NOT_BATCHABLE)),
    ("fallback", "crash-instant", False,
     ("scalar-player", "scalar-player", NOT_BATCHABLE)),
    ("fallback", "crash-rejoin", False,
     ("scalar-player", "scalar-player", REJOIN)),
    # Open runs: uniform instances only, and never under a rejoin delay.
    ("decay", "faithful", True,
     ("open-schedule", "open-scalar", "open-schedule")),
    ("decay", "crash-instant", True,
     ("open-schedule", "open-scalar", "open-schedule")),
    ("decay", "crash-rejoin", True, (ARRIVALS, ARRIVALS, ARRIVALS)),
    ("willard", "faithful", True,
     ("open-history", "open-scalar", "open-history")),
    ("willard", "crash-instant", True,
     ("open-history", "open-scalar", "open-history")),
    ("willard", "crash-rejoin", True, (ARRIVALS, ARRIVALS, ARRIVALS)),
    ("factory", "faithful", True, (UNIFORM_ONLY,) * 3),
    ("factory", "crash-instant", True, (UNIFORM_ONLY,) * 3),
    ("factory", "crash-rejoin", True, (UNIFORM_ONLY,) * 3),
    ("backoff", "faithful", True, (UNIFORM_ONLY,) * 3),
    ("backoff", "crash-instant", True, (UNIFORM_ONLY,) * 3),
    ("backoff", "crash-rejoin", True, (UNIFORM_ONLY,) * 3),
    ("fallback", "faithful", True, (UNIFORM_ONLY,) * 3),
    ("fallback", "crash-instant", True, (UNIFORM_ONLY,) * 3),
    ("fallback", "crash-rejoin", True, (UNIFORM_ONLY,) * 3),
]


class TestRoutingMatrix:
    """Every protocol kind x batch x fault model x closed/open."""

    def test_matrix_covers_every_combination(self):
        cells = {(p, m, o) for p, m, o, _ in ROUTING_MATRIX}
        assert len(cells) == len(ROUTING_MATRIX) == 5 * 3 * 2

    @pytest.mark.parametrize(
        "protocol,model,open_system,outcomes",
        ROUTING_MATRIX,
        ids=[f"{p}-{m}-{'open' if o else 'closed'}" for p, m, o, _ in ROUTING_MATRIX],
    )
    def test_route(self, protocol, model, open_system, outcomes):
        for batch, expected in zip((None, False, True), outcomes):
            call = dict(model=_MODELS[model], open_system=open_system)
            if isinstance(expected, str):
                assert (
                    select_engine(_PROTOCOLS[protocol](), batch, **call)
                    == expected
                ), batch
            else:
                error, fragment = expected
                with pytest.raises(error, match=fragment):
                    select_engine(_PROTOCOLS[protocol](), batch, **call)
