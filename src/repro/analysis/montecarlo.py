"""Monte Carlo estimation of protocol round complexity.

The workhorse of every experiment: run a protocol many times against a
fixed size, a size distribution, or an adversarial participant generator,
and summarise rounds-to-success and success-within-budget.  All entry
points take an explicit ``numpy`` Generator so every experiment is
reproducible from its seed, and protocols are passed as zero-argument
*factories* when they carry per-execution state.

Estimation runs on the **vectorized batch engines**
(:mod:`repro.channel.batch` for uniform protocols,
:mod:`repro.channel.batch_players` for identity/advice-aware ones)
whenever the protocol supports it: all trials advance in lockstep - one
binomial draw per round on the uniform path, one array-state decide /
observe per round on the player path - which is 5-100x faster than the
per-trial scalar loops at experiment scale.  The scalar loops remain the
reference implementations and correctness oracles (``batch=False``
forces them; factory protocols, randomized-session wrappers and
non-batchable player combinators always take them), and the two paths
agree statistically - the batch rounds/success arrays are drawn from
exactly the same distribution, just with a different consumption order
of the RNG stream (deterministic player protocols agree exactly).
"""

from __future__ import annotations

import numbers
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..channel.batch import (
    run_history_stacked,
    run_schedule_stacked,
    run_uniform_batch,
)
from ..channel.batch_players import (
    checked_advice_source,
    is_player_fusable,
    run_players_batch,
    run_players_stacked,
)
from ..channel.channel import Channel
from ..channel.routing import (
    ENGINE_BATCH_HISTORY,
    ENGINE_BATCH_PLAYER,
    ENGINE_BATCH_SCHEDULE,
    select_engine,
)
from ..channel.simulator import _check_channel, run_players, run_uniform
from ..core.advice import AdviceFunction
from ..core.protocol import PlayerProtocol, UniformProtocol
from ..infotheory.distributions import SizeDistribution
from .metrics import ProportionEstimate, Summary

__all__ = [
    "RoundsEstimate",
    "estimate_uniform_rounds",
    "estimate_uniform_rounds_many",
    "estimate_success_within",
    "estimate_player_rounds",
    "estimate_player_rounds_many",
]

UniformFactory = Callable[[], UniformProtocol] | UniformProtocol


class SupportsSampleMany(Protocol):
    """Structural size-source interface: per-trial participant counts.

    Satisfied by :class:`SizeDistribution` and the arrival models of
    :mod:`repro.channel.arrivals`; ``sample_many`` is the vectorized
    batch-path draw, ``sample`` the scalar-path draw.
    """

    def sample(self, rng: np.random.Generator) -> int: ...

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray: ...


#: A size source is a fixed ``k``, any :class:`SupportsSampleMany` object,
#: or a bare per-trial callable (always the scalar sampling path).
SizeSource = int | SupportsSampleMany | Callable[[np.random.Generator], int]

_UNIFORM_BATCH_ENGINES = (ENGINE_BATCH_SCHEDULE, ENGINE_BATCH_HISTORY)


@dataclass(frozen=True)
class RoundsEstimate:
    """Joint rounds/success summary of a Monte Carlo batch.

    ``rounds`` summarises the solving round over *successful* trials;
    ``success`` is the solved-within-budget proportion.  Unsolved trials
    are excluded from the rounds summary (they are right-censored at the
    budget); use :attr:`success` to detect and reason about censoring.
    When *no* trial succeeded, ``rounds`` is the explicit zero-sample
    summary (``count == 0``, NaN mean) - there is no data to fabricate.
    """

    rounds: Summary
    success: ProportionEstimate

    @property
    def mean_rounds(self) -> float:
        return self.rounds.mean

    @property
    def success_rate(self) -> float:
        return self.success.rate

    @property
    def any_successes(self) -> bool:
        """Whether the rounds summary rests on at least one sample."""
        return self.rounds.count > 0


def _resolve_protocol(factory: UniformFactory) -> Callable[[], UniformProtocol]:
    if isinstance(factory, UniformProtocol):
        return lambda: factory
    return factory


def _fixed_size(source: SizeSource) -> int | None:
    """``source`` as a fixed participant count, or ``None`` if it is not
    one.  Any integral type counts (NumPy integers included)."""
    if not isinstance(source, numbers.Integral):
        return None
    if source < 1:
        raise ValueError(f"fixed size must be >= 1, got {source}")
    return int(source)


def _resolve_size(source: SizeSource) -> Callable[[np.random.Generator], int]:
    size = _fixed_size(source)
    if size is not None:
        return lambda rng: size
    if hasattr(source, "sample"):
        return source.sample
    return source


def _draw_size_batch(
    source: SizeSource, rng: np.random.Generator, trials: int
) -> np.ndarray:
    """Per-trial participant counts as one vector (batch-path sampling).

    Any source exposing ``sample_many`` (distributions, arrival models)
    is drawn in one vectorized call; bare callables fall back to the
    per-trial loop.
    """
    size = _fixed_size(source)
    if size is not None:
        return np.full(trials, size, dtype=np.int64)
    if hasattr(source, "sample_many"):
        return np.asarray(source.sample_many(rng, trials), dtype=np.int64)
    return np.asarray([source(rng) for _ in range(trials)], dtype=np.int64)


def estimate_uniform_rounds(
    protocol: UniformFactory,
    size_source: SizeSource,
    rng: np.random.Generator,
    *,
    channel: Channel,
    trials: int,
    max_rounds: int,
    batch: bool | None = None,
) -> RoundsEstimate:
    """Rounds-to-success statistics for a uniform protocol.

    ``protocol`` may be a protocol instance (sessions are created per
    trial) or a zero-argument factory invoked per trial (needed when the
    protocol itself depends on per-trial data).  ``size_source`` may be a
    fixed ``k``, a :class:`SizeDistribution` (a fresh ``k`` is drawn per
    trial - the paper's Section 2 setting) or a callable.

    ``batch`` selects the execution substrate: ``None`` (default) uses
    the vectorized batch engine whenever the protocol is a batchable
    instance, ``True`` insists on it (raising for protocols that cannot
    batch), ``False`` forces the scalar reference loop.  Factory
    protocols always run scalar - a factory may build per-trial state the
    lockstep engine cannot share.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    engine = select_engine(protocol, batch, model=channel.active_model)
    if engine in _UNIFORM_BATCH_ENGINES:
        assert isinstance(protocol, UniformProtocol)
        ks = _draw_size_batch(size_source, rng, trials)
        result = run_uniform_batch(
            protocol, ks, rng, channel=channel, max_rounds=max_rounds
        )
        return RoundsEstimate(
            rounds=result.rounds_summary(), success=result.success_estimate()
        )

    make_protocol = _resolve_protocol(protocol)
    draw_size = _resolve_size(size_source)
    solved_rounds: list[int] = []
    successes = 0
    for _ in range(trials):
        k = draw_size(rng)
        result = run_uniform(
            make_protocol(), k, rng, channel=channel, max_rounds=max_rounds
        )
        if result.solved:
            successes += 1
            solved_rounds.append(result.rounds)
    return RoundsEstimate(
        rounds=(
            Summary.from_samples(solved_rounds)
            if solved_rounds
            else Summary.empty()
        ),
        success=ProportionEstimate(successes=successes, trials=trials),
    )


def estimate_uniform_rounds_many(
    protocols: Sequence[UniformProtocol],
    size_sources: Sequence[SizeSource],
    rngs: Sequence[np.random.Generator],
    *,
    channel: Channel,
    trials: int,
    max_rounds: int,
) -> list[RoundsEstimate]:
    """Estimate many uniform-protocol points in one stacked engine run.

    The fused counterpart of calling :func:`estimate_uniform_rounds` once
    per point: point ``j`` pairs ``protocols[j]`` with ``size_sources[j]``
    and its own generator ``rngs[j]``.  All points must route to the
    *same* batch engine - either every protocol publishes its
    :meth:`~repro.core.protocol.UniformProtocol.batch_schedule`
    (:func:`~repro.channel.batch.run_schedule_stacked`) or every protocol
    is a feedback-driven deterministic-session one
    (:func:`~repro.channel.batch.run_history_stacked`, which also shares
    one memoized history trie across points with equal
    ``history_signature()``s).  Per-point randomness is consumed exactly
    as the solo estimator consumes it - the size batch first, then one
    uniform per live trial per round - so entry ``j`` of the result is
    **bit-identical** to the solo call; the stacking only amortizes the
    per-round engine work across points.
    """
    if not (len(protocols) == len(size_sources) == len(rngs)):
        raise ValueError(
            "need one protocol, size source and rng per point; got "
            f"{len(protocols)}/{len(size_sources)}/{len(rngs)}"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    engines = set()
    for protocol in protocols:
        engine = select_engine(protocol, model=channel.active_model)
        if engine not in _UNIFORM_BATCH_ENGINES:
            raise ValueError(
                f"protocol {getattr(protocol, 'name', protocol)!r} cannot "
                "batch; fuse only batch-schedule or batch-history points"
            )
        engines.add(engine)
        _check_channel(protocol.requires_collision_detection, channel)
    if len(engines) != 1:
        raise ValueError(
            "stacked points must share one engine; got a mix of "
            f"{', '.join(sorted(engines))}"
        )
    ks_list = [
        _draw_size_batch(source, rng, trials)
        for source, rng in zip(size_sources, rngs)
    ]
    if engines.pop() == ENGINE_BATCH_SCHEDULE:
        results = run_schedule_stacked(
            [protocol.batch_schedule() for protocol in protocols],
            ks_list,
            rngs,
            channel=channel,
            max_rounds=max_rounds,
        )
    else:
        results = run_history_stacked(
            protocols, ks_list, rngs, channel=channel, max_rounds=max_rounds
        )
    return [
        RoundsEstimate(
            rounds=result.rounds_summary(), success=result.success_estimate()
        )
        for result in results
    ]


def estimate_success_within(
    protocol: UniformFactory,
    size_source: SizeSource,
    rng: np.random.Generator,
    *,
    channel: Channel,
    trials: int,
    budget_rounds: int,
    batch: bool | None = None,
) -> ProportionEstimate:
    """Probability of solving within ``budget_rounds``.

    The estimator behind every constant-probability claim (Theorems 2.12
    and 2.16): run one-shot executions capped at the theorem's budget and
    count successes.  ``batch`` selects the substrate as in
    :func:`estimate_uniform_rounds`.
    """
    estimate = estimate_uniform_rounds(
        protocol,
        size_source,
        rng,
        channel=channel,
        trials=trials,
        max_rounds=budget_rounds,
        batch=batch,
    )
    return estimate.success


def estimate_player_rounds(
    protocol: PlayerProtocol,
    participant_source: Callable[[np.random.Generator], frozenset[int]],
    n: int,
    rng: np.random.Generator,
    *,
    channel: Channel,
    advice_function: AdviceFunction | None = None,
    trials: int,
    max_rounds: int,
    batch: bool | None = None,
) -> RoundsEstimate:
    """Rounds-to-success statistics for an identity-aware protocol.

    ``participant_source`` draws a participant set per trial (typically an
    :class:`~repro.channel.network.Adversary` bound to a size schedule).

    ``batch`` selects the execution substrate with the same semantics as
    :func:`estimate_uniform_rounds`: ``None`` (default) uses the
    vectorized player engine (:mod:`repro.channel.batch_players`)
    whenever the protocol implements the ``batch_sessions`` capability
    hook, ``True`` insists on it (raising ``ValueError`` for protocols
    that cannot batch), ``False`` forces the scalar per-player reference
    loop.  On the batch path all participant sets are drawn first, then
    all advice strings - the same per-call draws as the scalar loop in a
    different stream order, so deterministic protocols agree exactly
    under a deterministic advice function and randomized ones agree
    statistically.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    engine = select_engine(protocol, batch, model=channel.active_model)
    if engine == ENGINE_BATCH_PLAYER:
        participant_sets = [participant_source(rng) for _ in range(trials)]
        result = run_players_batch(
            protocol,
            participant_sets,
            n,
            rng,
            channel=channel,
            advice_function=advice_function,
            max_rounds=max_rounds,
        )
        return RoundsEstimate(
            rounds=result.rounds_summary(), success=result.success_estimate()
        )
    solved_rounds: list[int] = []
    successes = 0
    for _ in range(trials):
        participants = participant_source(rng)
        result = run_players(
            protocol,
            participants,
            n,
            rng,
            channel=channel,
            advice_function=advice_function,
            max_rounds=max_rounds,
        )
        if result.solved:
            successes += 1
            solved_rounds.append(result.rounds)
    return RoundsEstimate(
        rounds=(
            Summary.from_samples(solved_rounds)
            if solved_rounds
            else Summary.empty()
        ),
        success=ProportionEstimate(successes=successes, trials=trials),
    )


def estimate_player_rounds_many(
    protocol: PlayerProtocol,
    participant_sources: Sequence[Callable[[np.random.Generator], frozenset[int]]],
    n: int,
    rngs: Sequence[np.random.Generator],
    *,
    channel: Channel,
    advice_functions: Sequence[AdviceFunction | None],
    trials: int,
    max_rounds: int,
) -> list[RoundsEstimate]:
    """Estimate many player-protocol points in one stacked engine run.

    The fused counterpart of calling :func:`estimate_player_rounds` once
    per point, for points sharing one *fusable* protocol (randomness-free
    batch sessions - deterministic scan / tree descent and their fallback
    wrappers) but differing in adversary, advice quality or seed.  Point
    ``j`` first draws its participant sets, then its advice strings, from
    its own ``rngs[j]`` - exactly the solo estimator's consumption order;
    the engine itself draws nothing, so entry ``j`` of the result is
    **bit-identical** to the solo call.
    """
    if not (len(participant_sources) == len(rngs) == len(advice_functions)):
        raise ValueError(
            "need one participant source, advice function and rng per "
            f"point; got {len(participant_sources)}/{len(advice_functions)}/"
            f"{len(rngs)}"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    model = channel.active_model
    if model is not None and (
        model.shrinks_population or model.needs_fault_draws
    ):
        raise ValueError(
            f"channel model {model.name!r} cannot run on the stacked "
            "(fused) player engine; run its points through "
            "estimate_player_rounds"
        )
    if not is_player_fusable(protocol):
        raise ValueError(
            f"protocol {protocol.name!r} has no randomness-free batch "
            "sessions; run its points through estimate_player_rounds"
        )
    all_sets: list[frozenset[int]] = []
    all_advice: list[str] = []
    for source, advice_function, rng in zip(
        participant_sources, advice_functions, rngs
    ):
        advice_source = checked_advice_source(protocol, advice_function)
        point_sets = [source(rng) for _ in range(trials)]
        all_sets.extend(point_sets)
        all_advice.extend(
            advice_source.checked_advise(participants, n)
            for participants in point_sets
        )
    stacked = run_players_stacked(
        protocol, all_sets, n, all_advice, channel=channel,
        max_rounds=max_rounds,
    )
    estimates = []
    for point in range(len(rngs)):
        segment = stacked.sliced(point * trials, (point + 1) * trials)
        estimates.append(
            RoundsEstimate(
                rounds=segment.rounds_summary(),
                success=segment.success_estimate(),
            )
        )
    return estimates


def sample_sizes(
    distribution: SizeDistribution, rng: np.random.Generator, trials: int
) -> np.ndarray:
    """Draw a batch of sizes (convenience for custom experiment loops).

    Returns the ``sample_many`` int64 ndarray directly; callers needing a
    plain ``list[int]`` should ``.tolist()`` it themselves rather than
    paying a round-trip through a Python comprehension here.
    """
    return distribution.sample_many(rng, trials)
