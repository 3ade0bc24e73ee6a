"""Tests for the open-loop driver: routing, bit-identity, and edge cases.

The load-bearing property is **bit-identity**: the vectorized engines and
the scalar per-trial oracle consume the same per-trial seed streams and
must produce byte-for-byte equal latency stores - under every batchable
channel model, not just the faithful channel.
"""

import numpy as np
import pytest

from repro.channel import (
    CrashModel,
    NoisyChannel,
    ObliviousJammer,
    ReactiveJammer,
    with_collision_detection,
    without_collision_detection,
)
from repro.channel.routing import (
    ENGINE_OPEN_HISTORY,
    ENGINE_OPEN_SCALAR,
    ENGINE_OPEN_SCHEDULE,
    select_engine,
)
from repro.opensys import (
    ArrivalProcess,
    ExponentialBackoffPolicy,
    GiveUpPolicy,
    HardCapacityPolicy,
    ImmediateRetryPolicy,
    OccupancySheddingPolicy,
    OpenMember,
    PoissonArrivals,
    TokenBucketPolicy,
    ZipfHotspotArrivals,
    arrival_process_from_dict,
    run_open,
)
from repro.core.protocol import ProtocolError
from repro.protocols.decay import DecayProtocol
from repro.protocols.fixed_probability import FixedProbabilityProtocol
from repro.protocols.willard import WillardProtocol

N = 128


class SilentArrivals(ArrivalProcess):
    """A degenerate stream that never injects anything."""

    name = "silent"

    def sample_rounds(self, rng, rounds):
        return np.zeros(rounds, dtype=np.int64)

    @property
    def offered_load(self):
        return 0.0


def run_pair(protocol, channel, *, arrivals=None, **kwargs):
    """(vectorized, scalar) results for one workload, same seed streams."""
    arrivals = arrivals or PoissonArrivals(0.15)
    common = dict(channel=channel, trials=12, rounds=256, warmup=32, seed=7)
    common.update(kwargs)
    vectorized = run_open(protocol, arrivals, **common)
    scalar = run_open(protocol, arrivals, batch=False, **common)
    return vectorized, scalar


class TestEngineSelection:
    def test_schedule_protocol_routes_to_open_schedule(self):
        assert (
            select_engine(DecayProtocol(N), open_system=True)
            == ENGINE_OPEN_SCHEDULE
        )

    def test_history_protocol_routes_to_open_history(self):
        assert (
            select_engine(WillardProtocol(N), open_system=True)
            == ENGINE_OPEN_HISTORY
        )

    def test_batch_false_forces_the_scalar_oracle(self):
        assert (
            select_engine(DecayProtocol(N), False, open_system=True)
            == ENGINE_OPEN_SCALAR
        )

    def test_non_batchable_crash_model_is_rejected_everywhere(self):
        rejoining = CrashModel(0.1, rejoin_after=3)
        for batch in (None, True, False):
            with pytest.raises(ValueError, match="rejoin"):
                select_engine(
                    DecayProtocol(N), batch, model=rejoining, open_system=True
                )


class TestBitIdentity:
    @pytest.mark.parametrize(
        "name,protocol,channel",
        [
            ("decay-nocd", DecayProtocol(N), without_collision_detection()),
            ("willard-cd", WillardProtocol(N), with_collision_detection()),
            (
                "fixedp-nocd",
                FixedProbabilityProtocol(12),
                without_collision_detection(),
            ),
            (
                "decay-noise",
                DecayProtocol(N),
                without_collision_detection(
                    NoisyChannel(
                        silence_to_collision=0.08,
                        collision_to_silence=0.05,
                        success_erasure=0.1,
                    )
                ),
            ),
            (
                "willard-jam",
                WillardProtocol(N),
                with_collision_detection(ObliviousJammer(budget=40, period=3)),
            ),
            (
                "willard-reactive",
                WillardProtocol(N),
                with_collision_detection(
                    ReactiveJammer(budget=30, quiet_streak=2)
                ),
            ),
            (
                "decay-crash",
                DecayProtocol(N),
                without_collision_detection(
                    CrashModel(0.05, rejoin_after=0)
                ),
            ),
        ],
    )
    def test_vectorized_matches_scalar_store(self, name, protocol, channel):
        vectorized, scalar = run_pair(protocol, channel)
        assert scalar.engine == ENGINE_OPEN_SCALAR
        assert vectorized.engine != ENGINE_OPEN_SCALAR
        assert vectorized.store == scalar.store, name

    def test_identity_holds_with_timeout_and_bursty_arrivals(self):
        vectorized, scalar = run_pair(
            DecayProtocol(N),
            without_collision_detection(),
            arrivals=ZipfHotspotArrivals(0.12, alpha=1.0, max_batch=6),
            timeout=40,
            capacity=32,
        )
        assert vectorized.store == scalar.store
        assert vectorized.store.timed_out == scalar.store.timed_out


#: Retry x admission combinations that exercise every policy code path:
#: jittered backoff (retry draw column), shedding (admission draw
#: column), token-bucket state, immediate-rejoin storms, and budgets.
POLICY_COMBOS = [
    (
        "backoff-jitter+shed",
        lambda: ExponentialBackoffPolicy(base=2, cap=32, jitter=4, budget=5),
        lambda: OccupancySheddingPolicy(threshold=0.4, power=2.0),
    ),
    (
        "immediate+token-bucket",
        lambda: ImmediateRetryPolicy(),
        lambda: TokenBucketPolicy(rate=0.35, burst=3.0),
    ),
    (
        "backoff-plain+capacity",
        lambda: ExponentialBackoffPolicy(base=1, cap=16, jitter=0, budget=2),
        lambda: HardCapacityPolicy(),
    ),
    (
        "give-up+shed",
        lambda: GiveUpPolicy(),
        lambda: OccupancySheddingPolicy(threshold=0.25),
    ),
]


class TestPolicyBitIdentity:
    """The acceptance bar: the lifecycle is engine-neutral, bit for bit."""

    @pytest.mark.parametrize(
        "name,retry,admission", POLICY_COMBOS, ids=[c[0] for c in POLICY_COMBOS]
    )
    def test_schedule_engine_matches_scalar(self, name, retry, admission):
        vectorized, scalar = run_pair(
            DecayProtocol(N),
            without_collision_detection(),
            arrivals=PoissonArrivals(0.3),
            capacity=12,
            timeout=24,
            retry=retry(),
            admission=admission(),
        )
        assert vectorized.engine == ENGINE_OPEN_SCHEDULE
        assert vectorized.store == scalar.store, name

    @pytest.mark.parametrize(
        "name,retry,admission", POLICY_COMBOS, ids=[c[0] for c in POLICY_COMBOS]
    )
    def test_history_engine_matches_scalar(self, name, retry, admission):
        vectorized, scalar = run_pair(
            WillardProtocol(N),
            with_collision_detection(),
            arrivals=PoissonArrivals(0.3),
            capacity=12,
            timeout=30,
            retry=retry(),
            admission=admission(),
        )
        assert vectorized.engine == ENGINE_OPEN_HISTORY
        assert vectorized.store == scalar.store, name

    def test_identity_with_policies_and_fault_model(self):
        """All five uniform columns live at once: band, winner, fault,
        admission, retry."""
        vectorized, scalar = run_pair(
            DecayProtocol(N),
            without_collision_detection(
                NoisyChannel(
                    silence_to_collision=0.08,
                    collision_to_silence=0.05,
                    success_erasure=0.1,
                )
            ),
            arrivals=PoissonArrivals(0.3),
            capacity=12,
            timeout=24,
            retry=ExponentialBackoffPolicy(base=2, cap=16, jitter=3),
            admission=OccupancySheddingPolicy(threshold=0.3),
        )
        assert vectorized.store == scalar.store
        assert vectorized.store.retried > 0


class TestZeroPolicyPinning:
    """Default policies must reproduce the pre-policy driver exactly.

    The expected stores are pinned from the scalar oracle under the lane
    stream contract; the pre-policy driver's keys (``hist``, arrivals,
    drops, timeouts, in-flight, slots) must match them, and the policy
    counters must stay idle.
    """

    def test_decay_store_is_unchanged(self):
        result = run_open(
            DecayProtocol(N),
            PoissonArrivals(0.2),
            channel=without_collision_detection(),
            trials=6,
            rounds=200,
            warmup=20,
            capacity=16,
            timeout=40,
            seed=13,
        )
        data = result.store.to_dict()
        expected = {
            "hist": [
                0, 56, 26, 13, 15, 5, 2, 6, 4, 7, 11, 4, 4, 3, 1, 1, 2, 1,
                1, 4, 3, 1, 2, 3, 5, 2, 1, 0, 0, 2, 3, 0, 0, 1, 1, 1, 0, 1,
                0, 1, 1,
            ],
            "arrivals": 235,
            "dropped": 0,
            "timed_out": 18,
            "in_flight": 0,
            "round_slots": 1080,
        }
        for key, value in expected.items():
            assert data[key] == value, key
        assert data["attempts"] == data["arrivals"]
        assert data["retried"] == data["abandoned"] == data["in_orbit"] == 0

    def test_willard_store_is_unchanged(self):
        result = run_open(
            WillardProtocol(N),
            PoissonArrivals(0.08),
            channel=with_collision_detection(),
            trials=5,
            rounds=160,
            warmup=0,
            capacity=8,
            seed=5,
        )
        data = result.store.to_dict()
        expected = {
            "hist": [
                0, 7, 5, 7, 7, 4, 6, 7, 0, 4, 5, 1, 3, 1, 0, 2, 0, 0, 2, 0,
                0, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 1,
            ],
            "arrivals": 67,
            "dropped": 0,
            "timed_out": 0,
            "in_flight": 2,
            "round_slots": 800,
        }
        for key, value in expected.items():
            assert data[key] == value, key

    def test_explicit_defaults_match_omitted_policies(self):
        kwargs = dict(
            channel=without_collision_detection(),
            trials=6,
            rounds=128,
            capacity=8,
            timeout=20,
            seed=17,
        )
        implicit = run_open(DecayProtocol(N), PoissonArrivals(0.3), **kwargs)
        explicit = run_open(
            DecayProtocol(N),
            PoissonArrivals(0.3),
            retry=GiveUpPolicy(),
            admission=HardCapacityPolicy(),
            **kwargs,
        )
        assert implicit.store == explicit.store


class TestDeterminismAndSharding:
    def test_same_seed_reproduces_the_store(self):
        first, _ = run_pair(DecayProtocol(N), without_collision_detection())
        second, _ = run_pair(DecayProtocol(N), without_collision_detection())
        assert first.store == second.store

    def test_shards_merge_to_the_whole_run(self):
        protocol, channel = DecayProtocol(N), without_collision_detection()
        arrivals = PoissonArrivals(0.2)
        common = dict(channel=channel, rounds=200, warmup=20, seed=11)
        whole = run_open(protocol, arrivals, trials=13, **common)
        left = run_open(protocol, arrivals, trials=8, **common)
        right = run_open(
            protocol, arrivals, trials=5, trial_offset=8, **common
        )
        assert left.store.merge(right.store) == whole.store

    def test_shards_merge_exactly_with_policies_active(self):
        protocol, channel = DecayProtocol(N), without_collision_detection()
        arrivals = PoissonArrivals(0.35)
        common = dict(
            channel=channel,
            rounds=200,
            warmup=0,
            capacity=10,
            timeout=20,
            seed=11,
        )
        policies = dict(
            retry=ExponentialBackoffPolicy(base=2, cap=16, jitter=3, budget=4),
            admission=OccupancySheddingPolicy(threshold=0.3),
        )
        whole = run_open(protocol, arrivals, trials=9, **common, **policies)
        left = run_open(protocol, arrivals, trials=4, **common, **policies)
        right = run_open(
            protocol, arrivals, trials=5, trial_offset=4, **common, **policies
        )
        assert left.store.merge(right.store) == whole.store
        assert whole.store.retried > 0

    def test_trial_offset_changes_the_streams(self):
        protocol, channel = DecayProtocol(N), without_collision_detection()
        arrivals = PoissonArrivals(0.2)
        common = dict(channel=channel, trials=4, rounds=128, seed=11)
        base = run_open(protocol, arrivals, **common)
        offset = run_open(protocol, arrivals, trial_offset=4, **common)
        assert base.store != offset.store


class TestLaneStreams:
    """Trials draw from 64-trial lanes at absolute trial indices."""

    @pytest.mark.parametrize("batch", [None, False], ids=["vectorized", "scalar"])
    @pytest.mark.parametrize(
        "arrivals",
        [
            PoissonArrivals(0.35),
            arrival_process_from_dict(
                {"family": "bursty", "devices": 12, "thin": 0.1,
                 "burst_arrival": 0.3}
            ),
        ],
        ids=["poisson", "bursty"],
    )
    def test_shards_at_mid_lane_and_cross_lane_offsets_merge(
        self, batch, arrivals
    ):
        protocol = DecayProtocol(N)
        common = dict(
            channel=without_collision_detection(),
            rounds=96,
            warmup=0,
            capacity=10,
            timeout=20,
            retry=ExponentialBackoffPolicy(base=2, cap=16, jitter=3, budget=4),
            admission=OccupancySheddingPolicy(threshold=0.3),
            seed=11,
            batch=batch,
        )
        whole = run_open(protocol, arrivals, trials=150, **common).store
        cuts = (0, 37, 64, 100, 150)
        shards = [
            run_open(
                protocol, arrivals, trials=hi - lo, trial_offset=lo, **common
            ).store
            for lo, hi in zip(cuts, cuts[1:])
        ]
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merge(shard)
        assert merged == whole
        assert whole.retried > 0 and whole.abandoned > 0

    def test_rows_after_the_last_kept_trial_are_not_drawn(self):
        drawn = []

        class Recording(PoissonArrivals):
            def sample_lane(self, rng, rows, rounds):
                drawn.append(len(rows))
                return super().sample_lane(rng, rows, rounds)

        common = dict(
            channel=without_collision_detection(), rounds=70, seed=2
        )
        run_open(DecayProtocol(N), Recording(0.2), trials=3, **common)
        assert drawn == [3, 3, 3]
        drawn.clear()
        run_open(
            DecayProtocol(N), Recording(0.2), trials=5, trial_offset=62,
            **common,
        )
        assert drawn == [64, 3] * 3

    def test_store_does_not_depend_on_unused_policies(self):
        """Every run draws all five uniform columns, so switching on a
        policy that never fires leaves the streams - and the store - as
        they were."""
        common = dict(
            channel=without_collision_detection(),
            trials=70,
            rounds=96,
            capacity=64,
            seed=4,
        )
        plain = run_open(DecayProtocol(N), PoissonArrivals(0.05), **common)
        idle = run_open(
            DecayProtocol(N),
            PoissonArrivals(0.05),
            retry=ExponentialBackoffPolicy(jitter=5),
            admission=OccupancySheddingPolicy(threshold=0.99, power=50.0),
            **common,
        )
        assert idle.store.retried == 0 and idle.store.dropped == 0
        assert idle.store == plain.store

    def test_orbit_buckets_own_their_arrays(self):
        """A bucket must not be a view that pins its whole failure batch."""
        from repro.opensys.driver import _BatchLifecycle, _RowSplit

        retry = ExponentialBackoffPolicy(base=1, cap=64, jitter=8)
        split = _RowSplit([OpenMember(PoissonArrivals(0.1), 4, 0, retry)])
        lifecycle = _BatchLifecycle(
            capacity=2,
            timeout=None,
            warmup=0,
            admission=HardCapacityPolicy(),
            split=split,
        )
        lifecycle.begin_round(
            1,
            np.array([9, 3, 0, 12], dtype=np.int64),
            np.zeros(4),
            np.array([0.1, 0.5, 0.7, 0.9]),
        )
        chunks = [chunk for bucket in lifecycle._orbit.values() for chunk in bucket]
        assert len(lifecycle._orbit) > 1
        assert sum(chunk.shape[1] for chunk in chunks) == 7 + 1 + 10
        assert all(chunk.base is None for chunk in chunks)


class TestMixedRetryMembers:
    """Members with different retry policies stack into one run."""

    MEMBERS = (
        (PoissonArrivals(0.4), 5, 3, GiveUpPolicy()),
        (
            ZipfHotspotArrivals(0.2, alpha=1.1, max_batch=5),
            9,
            4,
            ImmediateRetryPolicy(budget=3),
        ),
        (
            PoissonArrivals(0.5),
            70,
            5,
            ExponentialBackoffPolicy(base=2, cap=16, jitter=4, budget=4),
        ),
    )

    def run_members(self, protocol, channel, batch):
        members = [OpenMember(*member) for member in self.MEMBERS]
        common = dict(
            channel=channel,
            rounds=128,
            capacity=6,
            timeout=9,
            admission=OccupancySheddingPolicy(threshold=0.5),
            batch=batch,
        )
        stacked = run_open(
            protocol, members, trials=sum(m.trials for m in members), **common
        )
        solo = [
            run_open(
                protocol, m.arrivals, trials=m.trials, seed=m.seed,
                retry=m.retry, **common,
            )
            for m in members
        ]
        return stacked, solo

    @pytest.mark.parametrize(
        "protocol,channel,batch,engine",
        [
            (DecayProtocol(N), without_collision_detection(), None,
             ENGINE_OPEN_SCHEDULE),
            (WillardProtocol(N), with_collision_detection(), None,
             ENGINE_OPEN_HISTORY),
            (DecayProtocol(N), without_collision_detection(), False,
             ENGINE_OPEN_SCALAR),
        ],
        ids=["open-schedule", "open-history", "open-scalar"],
    )
    def test_each_member_equals_its_solo_run(
        self, protocol, channel, batch, engine
    ):
        stacked, solo = self.run_members(protocol, channel, batch)
        assert stacked.engine == engine
        assert list(stacked.stores) == [result.store for result in solo]
        give_up, immediate, backoff = stacked.stores
        assert give_up.retried == 0 and give_up.dropped > 0
        assert immediate.retried > 0 and backoff.retried > 0

    @pytest.mark.parametrize(
        "protocol,channel",
        [
            (DecayProtocol(N), without_collision_detection()),
            (WillardProtocol(N), with_collision_detection()),
        ],
        ids=["schedule", "history"],
    )
    def test_stacked_run_equals_the_scalar_oracle(self, protocol, channel):
        vectorized, _ = self.run_members(protocol, channel, None)
        scalar, _ = self.run_members(protocol, channel, False)
        assert scalar.engine == ENGINE_OPEN_SCALAR
        assert vectorized.stores == scalar.stores


class TestAccounting:
    def test_requests_are_conserved_without_warmup(self):
        result = run_open(
            DecayProtocol(N),
            PoissonArrivals(0.3),
            channel=without_collision_detection(),
            trials=8,
            rounds=300,
            warmup=0,
            capacity=16,
            timeout=60,
            seed=3,
        )
        store = result.store
        assert store.arrivals > 0
        assert store.arrivals == (
            store.completed + store.dropped + store.timed_out + store.in_flight
        )

    def test_requests_are_conserved_with_retries_active(self):
        result = run_open(
            DecayProtocol(N),
            PoissonArrivals(0.5),
            channel=without_collision_detection(),
            trials=6,
            rounds=150,
            warmup=0,
            capacity=8,
            timeout=12,
            retry=ExponentialBackoffPolicy(base=1, cap=8, jitter=2, budget=3),
            admission=TokenBucketPolicy(rate=0.4, burst=2.0),
            seed=3,
        )
        store = result.store
        assert store.retried > 0 and store.abandoned > 0
        assert store.arrivals == (
            store.completed
            + store.dropped
            + store.timed_out
            + store.abandoned
            + store.in_flight
            + store.in_orbit
        )
        # attempts = fresh presentations + orbit rejoins; every rejoin
        # was first counted as a retry, and orbit residents have not yet
        # re-presented.
        assert store.attempts >= store.arrivals
        assert store.attempts <= store.arrivals + store.retried

    def test_retry_budget_bounds_abandonment(self):
        """With budget b, a request dies only after b retries; give-up
        (budget 0) keeps the PR 7 counters and never abandons."""
        kwargs = dict(
            channel=without_collision_detection(),
            trials=4,
            rounds=200,
            warmup=0,
            capacity=8,
            timeout=10,
            seed=21,
        )
        give_up = run_open(
            DecayProtocol(N), PoissonArrivals(0.6), **kwargs
        ).store
        assert give_up.abandoned == 0 and give_up.retried == 0
        budgeted = run_open(
            DecayProtocol(N),
            PoissonArrivals(0.6),
            retry=ImmediateRetryPolicy(budget=2),
            **kwargs,
        ).store
        assert budgeted.abandoned > 0
        # Every abandonment consumed exactly `budget` retries; other
        # retreads are still circulating or completed.
        assert budgeted.retried >= 2 * budgeted.abandoned

    def test_capacity_overflow_drops(self):
        result = run_open(
            DecayProtocol(N),
            PoissonArrivals(2.0),  # far beyond service capacity
            channel=without_collision_detection(),
            trials=4,
            rounds=200,
            capacity=8,
            seed=0,
        )
        assert result.store.dropped > 0

    def test_timeout_bounds_the_measured_sojourns(self):
        result = run_open(
            DecayProtocol(N),
            PoissonArrivals(0.6),
            channel=without_collision_detection(),
            trials=8,
            rounds=300,
            timeout=25,
            seed=5,
        )
        summary = result.store.summary()
        assert result.store.timed_out > 0
        assert summary.maximum <= 25

    def test_silent_stream_measures_nothing(self):
        result = run_open(
            DecayProtocol(N),
            SilentArrivals(),
            channel=without_collision_detection(),
            trials=4,
            rounds=64,
            seed=0,
        )
        store = result.store
        assert store.arrivals == 0 and store.completed == 0
        assert store.round_slots == 4 * 64
        assert "n/a" in store.summary().render()

    def test_warmup_excludes_early_completions(self):
        kwargs = dict(
            channel=without_collision_detection(),
            trials=8,
            rounds=256,
            seed=9,
        )
        cold = run_open(DecayProtocol(N), PoissonArrivals(0.2), **kwargs)
        warm = run_open(
            DecayProtocol(N), PoissonArrivals(0.2), warmup=128, **kwargs
        )
        assert warm.store.completed < cold.store.completed
        assert warm.store.round_slots == 8 * 128


class TestValidation:
    def test_cd_protocol_needs_cd_channel(self):
        with pytest.raises(ProtocolError):
            run_open(
                WillardProtocol(N),
                PoissonArrivals(0.1),
                channel=without_collision_detection(),
                trials=2,
                rounds=16,
            )

    def test_parameter_bounds(self):
        good = dict(
            channel=without_collision_detection(), trials=2, rounds=16
        )
        for bad in (
            {"trials": 0},
            {"rounds": 0},
            {"warmup": 16},
            {"warmup": -1},
            {"capacity": 0},
            {"timeout": 0},
            {"trial_offset": -1},
        ):
            with pytest.raises(ValueError):
                run_open(
                    DecayProtocol(N),
                    PoissonArrivals(0.1),
                    **{**good, **bad},
                )

    def test_capacity_error_message_is_actionable(self):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            run_open(
                DecayProtocol(N),
                PoissonArrivals(0.1),
                channel=without_collision_detection(),
                trials=2,
                rounds=16,
                capacity=0,
            )

    def test_policy_arguments_must_be_policies(self):
        good = dict(
            channel=without_collision_detection(), trials=2, rounds=16
        )
        with pytest.raises(ValueError, match="RetryPolicy"):
            run_open(
                DecayProtocol(N),
                PoissonArrivals(0.1),
                retry="backoff",
                **good,
            )
        with pytest.raises(ValueError, match="AdmissionPolicy"):
            run_open(
                DecayProtocol(N),
                PoissonArrivals(0.1),
                admission="shed",
                **good,
            )


class TestStackedMembers:
    """Several points as rows of one run: each store equals its solo run."""

    MEMBERS = (
        (PoissonArrivals(0.1), 5, 3),
        (ZipfHotspotArrivals(0.2, alpha=1.1, max_batch=5), 9, 4),
        (PoissonArrivals(0.5), 2, 5),
    )

    def stacked_and_solo(self, protocol, channel, retry=None, **kwargs):
        common = dict(channel=channel, rounds=160, **kwargs)
        members = [
            OpenMember(arrivals, trials, seed, retry or GiveUpPolicy())
            for arrivals, trials, seed in self.MEMBERS
        ]
        stacked = run_open(
            protocol, members, trials=sum(m.trials for m in members), **common
        )
        solo = [
            run_open(
                protocol, m.arrivals, trials=m.trials, seed=m.seed,
                retry=m.retry, **common,
            )
            for m in members
        ]
        return stacked, solo

    @pytest.mark.parametrize(
        "name,protocol,channel,kwargs",
        [
            ("schedule", DecayProtocol(N), without_collision_detection(), {}),
            (
                "history",
                WillardProtocol(N),
                with_collision_detection(NoisyChannel(success_erasure=0.2)),
                {},
            ),
            (
                "lifecycle",
                DecayProtocol(N),
                without_collision_detection(),
                dict(
                    capacity=6,
                    timeout=9,
                    retry=ExponentialBackoffPolicy(jitter=3, budget=3),
                    admission=OccupancySheddingPolicy(threshold=0.5),
                ),
            ),
            (
                "scalar",
                DecayProtocol(N),
                without_collision_detection(ObliviousJammer(budget=20, period=3)),
                dict(batch=False, timeout=12, retry=ImmediateRetryPolicy()),
            ),
        ],
    )
    def test_member_stores_equal_solo_runs(self, name, protocol, channel, kwargs):
        stacked, solo = self.stacked_and_solo(protocol, channel, **kwargs)
        assert stacked.engine == solo[0].engine
        assert list(stacked.stores) == [result.store for result in solo]

    def test_stacked_shards_still_merge(self):
        members = [OpenMember(PoissonArrivals(0.3), 4, 8)]
        whole = run_open(
            DecayProtocol(N), members, channel=without_collision_detection(),
            trials=4, rounds=96,
        )
        halves = [
            run_open(
                DecayProtocol(N), [OpenMember(PoissonArrivals(0.3), 2, 8)],
                channel=without_collision_detection(), trials=2, rounds=96,
                trial_offset=offset,
            ).store
            for offset in (0, 2)
        ]
        assert halves[0].merge(halves[1]) == whole.store

    def test_members_are_validated(self):
        members = [OpenMember(PoissonArrivals(0.1), 3, 1)] * 2
        common = dict(channel=without_collision_detection(), rounds=32)
        with pytest.raises(ValueError, match="members' total 6"):
            run_open(DecayProtocol(N), members, trials=5, **common)
        with pytest.raises(ValueError, match="their own seeds"):
            run_open(DecayProtocol(N), members, trials=6, seed=1, **common)
        with pytest.raises(ValueError, match="their own retry policies"):
            run_open(
                DecayProtocol(N), members, trials=6,
                retry=ImmediateRetryPolicy(), **common,
            )
        with pytest.raises(ValueError, match="RetryPolicy"):
            run_open(
                DecayProtocol(N),
                [OpenMember(PoissonArrivals(0.1), 3, 1, "immediate")],
                trials=3, **common,
            )
        with pytest.raises(ValueError, match=">= 1 trial"):
            run_open(DecayProtocol(N), [], trials=0, **common)
        result = run_open(DecayProtocol(N), members, trials=6, **common)
        assert result.stores[0] == result.stores[1]
        with pytest.raises(ValueError, match="read .stores"):
            result.store
