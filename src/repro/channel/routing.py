"""Engine routing: the one place that decides which engine runs a protocol.

The protocols run on three vectorized substrates - the uniform schedule
engine, the uniform history (CD) engine and the player engine - each
with a scalar reference loop as its oracle, and each as a closed
execution or an open-system load curve.  :func:`select_engine` makes
that choice from the protocol's capability hooks, the ``batch``
tri-state and three flags of the channel's active fault model:

* :attr:`~repro.channel.models.ChannelModel.shrinks_population` - a
  crash with a rejoin delay.  The uniform engines absorb it through
  per-trial active counts; player protocols fall back to the scalar
  per-player loop; no open engine can express it.
* :attr:`~repro.channel.models.ChannelModel.needs_fault_draws` and
  :attr:`~repro.channel.models.ChannelModel.fusable` - read by the
  fused sweep executor, which stacks only points whose solo label is a
  key of :data:`FUSED_ENGINES`.

The labels are stored verbatim in cached results, journals and docs, so
each is defined here once and never renamed.
"""

from __future__ import annotations

from ..core.protocol import PlayerProtocol, UniformProtocol
from .batch import is_batchable
from .batch_players import is_player_batchable
from .models import ChannelModel

__all__ = [
    "ENGINE_BATCH_SCHEDULE",
    "ENGINE_BATCH_HISTORY",
    "ENGINE_BATCH_PLAYER",
    "ENGINE_SCALAR_UNIFORM",
    "ENGINE_SCALAR_PLAYER",
    "ENGINE_FUSED_SCHEDULE",
    "ENGINE_FUSED_HISTORY",
    "ENGINE_FUSED_PLAYER",
    "ENGINE_OPEN_SCHEDULE",
    "ENGINE_OPEN_HISTORY",
    "ENGINE_OPEN_SCALAR",
    "FUSED_ENGINES",
    "select_engine",
]

#: Closed executions: the three vectorized engines and the two scalar
#: reference loops.
ENGINE_BATCH_SCHEDULE = "batch-schedule"
ENGINE_BATCH_HISTORY = "batch-history"
ENGINE_BATCH_PLAYER = "batch-player"
ENGINE_SCALAR_UNIFORM = "scalar-uniform"
ENGINE_SCALAR_PLAYER = "scalar-player"

#: Recorded by the fused sweep executor when it stacks several compatible
#: points into one engine run (statistics stay bit-identical to the solo
#: labels; only the label differs, recording what actually executed).
ENGINE_FUSED_SCHEDULE = "fused-schedule"
ENGINE_FUSED_HISTORY = "fused-history"
ENGINE_FUSED_PLAYER = "fused-player"

#: Open-system runs (:func:`repro.opensys.driver.run_open`).
ENGINE_OPEN_SCHEDULE = "open-schedule"
ENGINE_OPEN_HISTORY = "open-history"
ENGINE_OPEN_SCALAR = "open-scalar"

#: Solo closed label -> the label of a stacked run of such points.
FUSED_ENGINES = {
    ENGINE_BATCH_SCHEDULE: ENGINE_FUSED_SCHEDULE,
    ENGINE_BATCH_HISTORY: ENGINE_FUSED_HISTORY,
    ENGINE_BATCH_PLAYER: ENGINE_FUSED_PLAYER,
}


def select_engine(
    protocol: object,
    batch: bool | None = None,
    *,
    model: ChannelModel | None = None,
    open_system: bool = False,
) -> str:
    """The engine label that will execute ``protocol`` (no simulation).

    ``protocol`` is a :class:`~repro.core.protocol.UniformProtocol`
    instance, a zero-argument uniform factory (always scalar - a factory
    may build per-trial state the lockstep engines cannot share) or a
    :class:`~repro.core.protocol.PlayerProtocol`.  ``batch=None``
    auto-selects (vectorized whenever the protocol supports it),
    ``False`` forces the scalar oracle, ``True`` insists on a vectorized
    engine.  ``model`` is the channel's *active* fault model and
    ``open_system`` picks the open-system engines over the closed ones.

    Raises ``ValueError`` where no engine applies: ``batch=True`` on a
    protocol or model only the scalar loop runs, an open run of anything
    but a uniform protocol instance, and an open run under a
    population-shrinking model.
    """
    shrinks = model is not None and model.shrinks_population
    if open_system:
        if not isinstance(protocol, UniformProtocol):
            raise ValueError(
                "the open-system driver runs uniform protocols only; "
                f"got {type(protocol).__name__}"
            )
        if shrinks:
            raise ValueError(
                f"channel model {model.name!r} shrinks the live population "
                "(a crash with a non-zero rejoin delay); the open population "
                "is the arrival process itself, so no open engine can "
                "express it"
            )
    if isinstance(protocol, PlayerProtocol):
        if shrinks:
            if batch is True:
                raise ValueError(
                    f"batch=True but channel model {model.name!r} only runs "
                    "on the scalar engine (a non-zero crash rejoin delay "
                    "changes the live participant set mid-trial)"
                )
            return ENGINE_SCALAR_PLAYER
        scalar = ENGINE_SCALAR_PLAYER
        vectorized = ENGINE_BATCH_PLAYER if is_player_batchable(protocol) else None
        refusal = (
            "batch=True requires a player protocol with batch sessions "
            f"({protocol.name!r} supports only the scalar per-player loop)"
        )
    else:
        scalar = ENGINE_OPEN_SCALAR if open_system else ENGINE_SCALAR_UNIFORM
        vectorized = None
        if isinstance(protocol, UniformProtocol) and is_batchable(protocol):
            has_schedule = protocol.batch_schedule() is not None
            if open_system:
                vectorized = (
                    ENGINE_OPEN_SCHEDULE if has_schedule else ENGINE_OPEN_HISTORY
                )
            else:
                vectorized = (
                    ENGINE_BATCH_SCHEDULE if has_schedule else ENGINE_BATCH_HISTORY
                )
        refusal = (
            "batch=True requires a batchable UniformProtocol instance "
            "(got a factory or a randomized-session protocol)"
        )
    if batch is False:
        return scalar
    if vectorized is not None:
        return vectorized
    if batch is True:
        raise ValueError(refusal)
    return scalar
