"""Unit tests for the request-lifecycle policy registry."""

import numpy as np
import pytest

from repro.opensys.policies import (
    ADMISSION_POLICIES,
    RETRY_POLICIES,
    ExponentialBackoffPolicy,
    GiveUpPolicy,
    HardCapacityPolicy,
    ImmediateRetryPolicy,
    OccupancySheddingPolicy,
    TokenBucketPolicy,
    admission_policy_from_dict,
    retry_policy_from_dict,
    weyl_uniforms,
)


class TestWeylUniforms:
    def test_stays_in_unit_interval(self):
        offsets = np.arange(50, dtype=np.int64)
        u = weyl_uniforms(0.9999, offsets)
        assert ((u >= 0.0) & (u < 1.0)).all()

    def test_deterministic_and_distinct(self):
        offsets = np.arange(8, dtype=np.int64)
        a = weyl_uniforms(0.25, offsets)
        b = weyl_uniforms(0.25, offsets)
        np.testing.assert_array_equal(a, b)
        assert np.unique(a).size == a.size

    def test_offset_zero_is_identity(self):
        u = weyl_uniforms(0.625, np.zeros(1, dtype=np.int64))
        assert u[0] == 0.625


class TestGiveUp:
    def test_never_retries(self):
        policy = GiveUpPolicy()
        assert policy.budget == 0
        assert not policy.allows(0)
        assert not policy.allows(np.zeros(3, dtype=np.int64)).any()
        assert policy.name == "give-up"
        assert not policy.needs_draws


class TestImmediate:
    def test_rejoins_next_round(self):
        policy = ImmediateRetryPolicy()
        np.testing.assert_array_equal(
            policy.delays(np.asarray([1, 2, 9]), None), [1, 1, 1]
        )
        assert policy.allows(10 ** 6)
        assert not policy.needs_draws

    def test_budget_limits_retries(self):
        policy = ImmediateRetryPolicy(budget=3)
        assert policy.allows(2)
        assert not policy.allows(3)
        np.testing.assert_array_equal(
            policy.allows(np.asarray([0, 2, 3, 5])), [True, True, False, False]
        )

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="budget"):
            ImmediateRetryPolicy(budget=-1)


class TestBackoff:
    def test_delays_double_then_cap(self):
        policy = ExponentialBackoffPolicy(base=2, cap=16, jitter=0)
        retries = np.arange(1, 9, dtype=np.int64)
        np.testing.assert_array_equal(
            policy.delays(retries, None), [2, 4, 8, 16, 16, 16, 16, 16]
        )

    def test_jitter_adds_bounded_offset(self):
        policy = ExponentialBackoffPolicy(base=4, cap=4, jitter=5)
        assert policy.needs_draws
        retries = np.ones(6, dtype=np.int64)
        jitter_u = np.asarray([0.0, 0.1, 0.5, 0.9, 0.999, 0.1666])
        delays = policy.delays(retries, jitter_u)
        assert ((delays >= 4) & (delays <= 4 + 5)).all()
        assert delays[0] == 4  # u = 0 -> no jitter
        assert delays[4] == 9  # u ~ 1 -> full jitter

    def test_no_jitter_needs_no_draws(self):
        assert not ExponentialBackoffPolicy(jitter=0).needs_draws

    def test_jitter_without_draws_is_an_error(self):
        policy = ExponentialBackoffPolicy(jitter=2)
        with pytest.raises(ValueError, match="jitter"):
            policy.delays(np.ones(1, dtype=np.int64), None)

    def test_retry_numbers_are_one_based(self):
        policy = ExponentialBackoffPolicy()
        with pytest.raises(ValueError, match="1-based"):
            policy.delays(np.asarray([0]), None)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"base": 0}, "base"),
            ({"base": 4, "cap": 2}, "cap"),
            ({"jitter": -1}, "jitter"),
            ({"budget": -2}, "budget"),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ExponentialBackoffPolicy(**kwargs)


class TestHardCapacity:
    def test_grants_everything(self):
        state = HardCapacityPolicy().state(trials=3)
        candidates = np.asarray([0, 2, 7], dtype=np.int64)
        quota = state.quota(np.zeros(3, dtype=np.int64), candidates, 8, None)
        np.testing.assert_array_equal(quota, candidates)
        state.commit(candidates)  # no-op


class TestTokenBucket:
    def test_meters_to_rate(self):
        state = TokenBucketPolicy(rate=0.5, burst=2.0).state(trials=1)
        occupancy = np.zeros(1, dtype=np.int64)
        candidates = np.full(1, 10, dtype=np.int64)
        grants = []
        for _ in range(8):
            quota = state.quota(occupancy, candidates, 100, None)
            granted = min(int(quota[0]), 10)
            state.commit(np.asarray([granted], dtype=np.int64))
            grants.append(granted)
        # Bucket starts full (2 tokens), then refills 0.5/round: the
        # long-run admission rate is the configured rate.
        assert grants[0] == 2
        assert sum(grants) <= 2 + 0.5 * len(grants)
        assert sum(grants[2:]) >= 0.5 * 6 - 1

    def test_burst_caps_idle_accumulation(self):
        state = TokenBucketPolicy(rate=1.0, burst=3.0).state(trials=1)
        none = np.zeros(1, dtype=np.int64)
        for _ in range(10):  # idle: quota computed, nothing admitted
            quota = state.quota(none, none, 100, None)
            state.commit(none)
        assert int(quota[0]) == 3

    @pytest.mark.parametrize(
        "kwargs", [{"rate": 0.0}, {"rate": -1.0}, {"rate": 1.0, "burst": 0.5}]
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            TokenBucketPolicy(**kwargs)


class TestShedding:
    def test_probability_ramp(self):
        policy = OccupancySheddingPolicy(threshold=0.5, power=1.0)
        frac = np.asarray([0.0, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(
            policy.shed_probability(frac), [0.0, 0.0, 0.5, 1.0]
        )

    def test_power_shapes_the_ramp(self):
        gentle = OccupancySheddingPolicy(threshold=0.0, power=2.0)
        np.testing.assert_allclose(
            gentle.shed_probability(np.asarray([0.5])), [0.25]
        )

    def test_quota_is_all_or_nothing_per_round(self):
        policy = OccupancySheddingPolicy(threshold=0.0, power=1.0)
        state = policy.state(trials=2)
        occupancy = np.asarray([5, 5], dtype=np.int64)
        candidates = np.asarray([3, 3], dtype=np.int64)
        quota = state.quota(
            occupancy, candidates, 10, np.asarray([0.1, 0.9])
        )
        np.testing.assert_array_equal(quota, [0, 3])  # shed_p = 0.5

    @pytest.mark.parametrize(
        "kwargs", [{"threshold": 1.0}, {"threshold": -0.1}, {"power": 0.0}]
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            OccupancySheddingPolicy(**kwargs)


class TestRegistries:
    def test_retry_kinds_build(self):
        assert set(RETRY_POLICIES) == {"give-up", "immediate", "backoff"}
        assert isinstance(
            retry_policy_from_dict({"kind": "give-up"}), GiveUpPolicy
        )
        immediate = retry_policy_from_dict({"kind": "immediate", "budget": 2})
        assert isinstance(immediate, ImmediateRetryPolicy)
        assert immediate.budget == 2
        backoff = retry_policy_from_dict(
            {"kind": "backoff", "base": 2, "cap": 8, "jitter": 3, "budget": 4}
        )
        assert isinstance(backoff, ExponentialBackoffPolicy)
        assert (backoff.base, backoff.cap, backoff.jitter, backoff.budget) == (
            2, 8, 3, 4,
        )

    def test_admission_kinds_build(self):
        assert set(ADMISSION_POLICIES) == {"capacity", "token-bucket", "shed"}
        assert isinstance(
            admission_policy_from_dict({"kind": "capacity"}), HardCapacityPolicy
        )
        bucket = admission_policy_from_dict(
            {"kind": "token-bucket", "rate": 0.25, "burst": 4}
        )
        assert isinstance(bucket, TokenBucketPolicy)
        assert (bucket.rate, bucket.burst) == (0.25, 4.0)
        shed = admission_policy_from_dict({"kind": "shed", "threshold": 0.25})
        assert isinstance(shed, OccupancySheddingPolicy)
        assert shed.threshold == 0.25

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown retry policy"):
            retry_policy_from_dict({"kind": "telepathy"})
        with pytest.raises(ValueError, match="unknown admission policy"):
            admission_policy_from_dict({"kind": "bouncer"})

    def test_unknown_parameters_are_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            retry_policy_from_dict({"kind": "give-up", "base": 2})
        with pytest.raises(ValueError, match="unknown parameter"):
            admission_policy_from_dict({"kind": "shed", "rate": 1.0})

    def test_token_bucket_requires_rate(self):
        with pytest.raises(ValueError, match="rate"):
            admission_policy_from_dict({"kind": "token-bucket"})

    def test_non_mapping_is_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            retry_policy_from_dict("backoff")
