"""Vectorized batch execution of uniform protocols.

The scalar engine (:mod:`repro.channel.simulator`) runs one execution at a
time: a Python loop per round, one channel draw per round, per trial.
Monte Carlo estimation repeats that thousands of times.  This module
advances **all trials of a batch in lockstep** instead, one round per
iteration, retiring solved trials as it goes.

Why the batch draw is faithful (paper Section 2.2)
--------------------------------------------------
Uniform protocols are identity-oblivious: in every round all ``k``
participants transmit independently with the *same* probability ``p``, so
the channel state of the round is **exactly** ``Binomial(k, p)`` - which
participants transmitted is irrelevant to both the channel outcome and the
protocol's future behaviour.  Moreover the engines never consume the count
itself, only the trichotomy silence / success / collision, whose exact
probabilities are ``(1-p)^k``, ``kp(1-p)^(k-1)`` and the remainder.  A
round of a trial is therefore simulated exactly by **one uniform draw**
``u`` compared against those two precomputed band edges - the same
distribution as drawing the binomial count, computed with one vectorized
``rng.random`` call over the still-live trials instead of per-trial
Python-level calls.  (This mirrors how round-driven network simulators
batch their event loops.)

One round loop, two probability walks.  Every uniform protocol differs
from the others only in how the next round's probability is chosen
(Section 2.1), so :func:`_run_stacked` owns everything else about a
round - the absolute-block uniform draws, the trichotomy band compare,
the fault perturbation, retirement on the delivered success and the
final censoring - over the flat live rows (:class:`_LiveRows`) of many
*independent points* advanced together.  Point ``j`` draws from
``rngs[j]`` in exactly the order a solo run would consume it, so a
stacked run is bit-identical per point to running the points one at a
time (the fused sweep executor's contract, and why a solo run *is* a
1-point stacked run), while the per-round masking and retirement work
is amortized across the whole stack.  The walk supplies the rest:

* **Schedule walk** (:class:`_ScheduleWalk`, entry
  :func:`run_schedule_stacked`) - for protocols whose full probability
  sequence is known in advance
  (:meth:`~repro.core.protocol.UniformProtocol.batch_schedule` returns a
  :class:`~repro.core.protocol.BatchSchedule`; the no-CD family of
  Section 2.1).  No session objects at all: round ``r``'s band edges
  are a precomputed per-``(point, k)`` table lookup, and a one-shot
  schedule censors its surviving trials at its horizon.

* **History walk** (:class:`_HistoryWalk`, entry
  :func:`run_history_stacked`) - for feedback-driven (CD) protocols with
  deterministic sessions.  All players of a CD execution see the same
  collision history ``b_1 b_2 ... b_r``, and a uniform CD algorithm is a
  deterministic function of that history (Section 2.1) - so two trials
  with identical histories use identical probabilities until their
  histories diverge.  Each live trial carries an integer node id into a
  **history DAG** (:class:`_HistoryArena`) memoizing the history ->
  probability function.  Histories that leave the session in the same
  state (:meth:`~repro.core.protocol.UniformSession.state_key`: for the
  phased search, the search position and vote tally) share one node, so
  a round costs one memoized ``next_probability()`` per *distinct
  session state ever seen* (one session fork per node, amortized over
  all trials, rounds and stacked points) even when noise or jamming
  makes every trial's history unique; sessions that name no state get
  one node per distinct history, a plain trie.  Band edges come from a
  per-round ``(node, k)`` cache, and one ``np.unique``-compacted child
  gather moves every survivor along its observed edge.  Points sharing
  a :meth:`~repro.core.protocol.UniformProtocol.history_signature`
  share one DAG.  On a no-CD channel every observation is ``QUIET``, so
  the trie is a single path; a cycling schedule walked this way gives
  results bit-identical to its schedule walk.

Both match the scalar engine's termination conventions exactly: a trial
retires at its first single-transmitter round (``rounds`` = that 1-based
round), at schedule exhaustion (``solved=False``, ``rounds`` = rounds
actually played) or at the budget (``solved=False``, ``rounds =
max_rounds``).
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Hashable, Sequence

import numpy as np

from ..core.feedback import Observation
from ..core.protocol import (
    OBS_COLLISION,
    OBS_QUIET,
    OBS_SILENCE,
    BatchSchedule,
    ScheduleExhausted,
    UniformProtocol,
    UniformSession,
)
from .channel import Channel
from .models import FB_COLLISION, FB_SILENCE, FB_SUCCESS, BatchFaultState
from .simulator import DEFAULT_MAX_ROUNDS, _check_channel
from .trace import BatchExecutionResult

__all__ = [
    "run_uniform_batch",
    "run_schedule_stacked",
    "run_history_stacked",
    "is_batchable",
    "history_arena_stats",
]


def is_batchable(protocol: UniformProtocol) -> bool:
    """Whether :func:`run_uniform_batch` can execute ``protocol``.

    True when the protocol either publishes its schedule in advance or
    guarantees deterministic (history-driven) sessions; the Monte Carlo
    harness uses this to auto-select the batch substrate and fall back to
    the scalar reference loop otherwise.
    """
    return (
        protocol.batch_schedule() is not None or protocol.deterministic_sessions
    )


def _validated_ks(ks: Sequence[int] | np.ndarray) -> np.ndarray:
    array = np.asarray(ks, dtype=np.int64)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("ks must be a non-empty 1-d array of trial sizes")
    if (array < 1).any():
        raise ValueError("participant counts must all be >= 1")
    return array


def run_uniform_batch(
    protocol: UniformProtocol,
    ks: Sequence[int] | np.ndarray,
    rng: np.random.Generator,
    *,
    channel: Channel,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> BatchExecutionResult:
    """Execute one uniform-protocol trial per entry of ``ks``, in lockstep.

    The batch counterpart of :func:`repro.channel.simulator.run_uniform`:
    ``ks[i]`` is trial ``i``'s participant count, and entry ``i`` of the
    returned :class:`~repro.channel.trace.BatchExecutionResult` is
    distributed exactly as a scalar execution with that count (see the
    module docstring for why).  A one-point stacked run, so the
    single-scenario path and the fused sweep path share one
    implementation.  Raises :class:`ValueError` for protocols that are
    not :func:`is_batchable` - callers wanting transparent fallback
    should test the capability first.
    """
    _check_channel(protocol.requires_collision_detection, channel)
    schedule = protocol.batch_schedule()
    if schedule is not None:
        return run_schedule_stacked(
            [schedule], [ks], [rng], channel=channel, max_rounds=max_rounds
        )[0]
    return run_history_stacked(
        [protocol], [ks], [rng], channel=channel, max_rounds=max_rounds
    )[0]


#: Rounds of success-band thresholds precomputed per table build.  Bands
#: are pure functions of (k, round probability), so the chunk size only
#: trades table-build frequency against memory - it never affects results.
_BAND_CHUNK_ROUNDS = 512

#: Rounds of uniforms pre-drawn per point at each absolute block
#: boundary (rounds 1, 1+B, 1+2B, ...).  Part of the engine's stream
#: contract: a trial that retires mid-block leaves its remaining
#: pre-drawn uniforms unused (discarding i.i.d. draws is
#: distribution-neutral), and a point stops drawing entirely once all
#: its trials have retired.  Because boundaries are absolute and the
#: draw shape depends only on the point's own live count and horizon,
#: stacked and solo runs consume identical per-point streams.
_DRAW_BLOCK_ROUNDS = 16


def _index_trial_combos(
    ks_arrays: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index the distinct ``(point, k)`` pairs ("combos") of a stacked run.

    Band edges depend only on the pair, so both walks compute them per
    combo and gather.  Returns each combo's ``k`` (as a float,
    band-arithmetic-ready) and point, plus one flat per-trial combo
    index.
    """
    combo_ks = []
    flat_cidx = np.empty(sum(ks.size for ks in ks_arrays), dtype=np.int64)
    offset = 0
    cursor = 0
    for ks in ks_arrays:
        uniques, inverse = np.unique(ks, return_inverse=True)
        combo_ks.append(uniques.astype(float))
        flat_cidx[cursor : cursor + ks.size] = inverse + offset
        offset += uniques.size
        cursor += ks.size
    combo_point = np.repeat(
        np.arange(len(ks_arrays)), [uniques.size for uniques in combo_ks]
    )
    return np.concatenate(combo_ks), combo_point, flat_cidx


def _refill_draw_block(
    rngs: Sequence[np.random.Generator],
    counts: np.ndarray,
    horizons: np.ndarray,
    round_index: int,
    live: int,
    with_fault: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Pre-draw one :data:`_DRAW_BLOCK_ROUNDS` block of uniforms.

    The closed engines' stream contract: one row per live trial (in
    point order, each point's rows in trial order), clipped per point to
    its own remaining horizon, drawn from the point's own generator - so
    the shapes, and hence the streams, depend only on the point's own
    trajectory and a solo run consumes the identical sequence.

    With ``with_fault`` (randomized channel models), each point draws a
    second, same-shaped block of fault uniforms immediately after its
    faithful block - still from its own generator, so the per-point
    stream stays solo-identical and the fused executor's bit-identity
    contract survives fault injection.
    """
    width = min(_DRAW_BLOCK_ROUNDS, int(horizons.max()) - round_index + 1)
    draw_buffer = np.empty((live, width))
    fault_buffer = np.empty((live, width)) if with_fault else None
    start = 0
    for point in np.flatnonzero(counts):
        stop = start + counts[point]
        effective = min(
            _DRAW_BLOCK_ROUNDS, int(horizons[point]) - round_index + 1
        )
        draw_buffer[start:stop, :effective] = rngs[point].random(
            (stop - start, effective)
        )
        if fault_buffer is not None:
            fault_buffer[start:stop, :effective] = rngs[point].random(
                (stop - start, effective)
            )
        start = stop
    return draw_buffer, fault_buffer


def _per_point_results(
    solved: np.ndarray,
    rounds: np.ndarray,
    ks_arrays: Sequence[np.ndarray],
    max_rounds: int,
) -> list[BatchExecutionResult]:
    """Carve a stacked run's flat arrays back into per-point results."""
    results = []
    cursor = 0
    for ks in ks_arrays:
        stop = cursor + ks.size
        results.append(
            BatchExecutionResult(
                solved=solved[cursor:stop],
                rounds=rounds[cursor:stop],
                max_rounds=max_rounds,
                ks=ks,
            )
        )
        cursor = stop
    return results


def _schedule_probabilities(
    schedule: BatchSchedule, start_round: int, length: int
) -> np.ndarray:
    """Round probabilities for ``length`` rounds from ``start_round``.

    Rounds past a one-shot schedule's end clamp to the last scheduled
    round; the engine retires those trials before ever reading such an
    entry.
    """
    probabilities = np.asarray(schedule.probabilities, dtype=float)
    indices = start_round - 1 + np.arange(length)
    if schedule.cycle:
        indices %= probabilities.size
    else:
        indices = np.minimum(indices, probabilities.size - 1)
    return probabilities[indices]


def _band_edges(p: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trichotomy band edges of a round with ``k`` transmitters at ``p``.

    A round's uniform draw ``u`` means silence below ``lo = (1-p)^k``,
    success in ``[lo, hi)`` with ``hi - lo = kp(1-p)^(k-1)`` (exactly one
    transmitter) and collision above.  ``p`` and ``k`` (floats) broadcast.
    ``k = 0`` (everyone crashed, or an idle open channel) yields
    ``lo = hi = 1``: certain silence - the exponent clamp keeps ``p = 1``
    from producing ``0 * 0**-1`` NaNs there.
    """
    miss = 1.0 - p
    lo = miss**k
    hi = lo + k * p * miss ** np.maximum(k - 1.0, 0.0)
    return lo, hi


class _LiveRows:
    """The live trials of a stacked run, one row each.

    Rows are grouped by point in point order, each point's rows in trial
    order - exactly the order a solo run draws them in.  Per row:
    ``trial`` (flat result index), ``point``, ``combo`` (index of its
    distinct ``(point, k)`` pair: ``combo_point`` and float ``combo_ks``),
    ``buffer_row`` (its row of the current draw block), ``ks`` (the
    participant count, kept only for population-shrinking models) and
    ``node`` (its history-arena node, kept only by the history walk).
    :meth:`keep` filters all of them, and the fault state, at once.
    """

    def __init__(
        self,
        ks_arrays: Sequence[np.ndarray],
        fault_state: BatchFaultState | None,
        shrinking: bool,
    ) -> None:
        sizes = [ks.size for ks in ks_arrays]
        total = sum(sizes)
        self.combo_ks, self.combo_point, self.combo = _index_trial_combos(
            ks_arrays
        )
        self.trial = np.arange(total)
        self.point = np.repeat(np.arange(len(sizes)), sizes)
        self.buffer_row = np.arange(total)  # rewritten at each refill
        self.ks = np.concatenate(ks_arrays) if shrinking else None
        self.node: np.ndarray | None = None
        self.fault_state = fault_state

    @property
    def size(self) -> int:
        return self.trial.size

    def keep(self, mask: np.ndarray) -> None:
        """Drop every row where ``mask`` is False."""
        self.trial = self.trial[mask]
        self.point = self.point[mask]
        self.combo = self.combo[mask]
        self.buffer_row = self.buffer_row[mask]
        if self.ks is not None:
            self.ks = self.ks[mask]
        if self.node is not None:
            self.node = self.node[mask]
        if self.fault_state is not None:
            self.fault_state.filter(mask)


def _run_stacked(
    walk: _ScheduleWalk | _HistoryWalk,
    ks_arrays: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    channel: Channel | None,
    max_rounds: int,
) -> list[BatchExecutionResult]:
    """The one round loop of both stacked entries.

    ``walk`` chooses each row's probability; this loop owns the rest of
    a round, in this order:

    1. ``walk.retire``: rows whose walk ended before this round's draw
       retire unsolved with the rounds actually played (a one-shot
       schedule's horizon, an exhausted history);
    2. ``walk.bands``: per-row band edges - from per-row live counts
       (``active_counts``, asked once per round before the outcome, the
       scalar loop's ordering) under population-shrinking models;
    3. one uniform per row from the absolute-block pre-draws
       (:func:`_refill_draw_block`, the stream contract), compared with
       the bands; an active fault model perturbs the full trichotomy
       *after* the faithful outcome, consuming its own pre-drawn
       uniform, and a row retires on the *delivered* success;
    4. ``walk.observe`` / ``walk.descend``: the survivors' observations
       move the history walk along its DAG.

    Survivors are right-censored at their point's horizon (the budget,
    or a one-shot schedule's length), matching the scalar engine's
    ``ExecutionResult`` convention.
    """
    model = channel.active_model if channel is not None else None
    total = sum(ks.size for ks in ks_arrays)
    solved = np.zeros(total, dtype=bool)
    rounds = np.zeros(total, dtype=np.int64)
    fault_state = model.batch_state(total) if model is not None else None
    with_fault = model is not None and model.needs_fault_draws
    shrinking = model is not None and model.shrinks_population
    live = _LiveRows(ks_arrays, fault_state, shrinking)
    walk.start(live)

    horizons = walk.horizons
    draw_buffer = fault_buffer = None
    for round_index in range(1, int(horizons.max()) + 1):
        walk.retire(round_index, live, rounds)
        if live.size == 0:
            break
        k_eff = (
            fault_state.active_counts(live.ks, round_index).astype(float)
            if shrinking
            else None
        )
        lo, hi = walk.bands(round_index, live, k_eff)

        # Uniforms come in *absolute* blocks of _DRAW_BLOCK_ROUNDS rounds:
        # at each block boundary every live point pre-draws one row per
        # live trial (clipped to its own horizon) from its own generator.
        # Boundaries and per-point shapes depend only on the point's own
        # trajectory, so a solo run consumes the identical stream; between
        # boundaries a round costs one gather and retirement just filters.
        column = (round_index - 1) % _DRAW_BLOCK_ROUNDS
        if column == 0:
            counts = np.bincount(live.point, minlength=len(ks_arrays))
            draw_buffer, fault_buffer = _refill_draw_block(
                rngs, counts, horizons, round_index, live.size, with_fault
            )
            live.buffer_row = np.arange(live.size)
        draws = draw_buffer[live.buffer_row, column]

        if fault_state is None:
            feedback = None
            hit = (draws >= lo) & (draws < hi)
        else:
            feedback = np.where(
                draws < lo,
                FB_SILENCE,
                np.where(draws < hi, FB_SUCCESS, FB_COLLISION),
            )
            fault_draws = (
                fault_buffer[live.buffer_row, column]
                if fault_buffer is not None
                else None
            )
            feedback = fault_state.perturb(round_index, feedback, fault_draws)
            hit = feedback == FB_SUCCESS
        observed = walk.observe(round_index, draws, hi, feedback)
        if hit.any():
            winners = live.trial[hit]
            solved[winners] = True
            rounds[winners] = round_index
            survive = ~hit
            live.keep(survive)
            if observed is not None:
                observed = observed[survive]
        if observed is not None and live.size:
            walk.descend(live, observed)

    rounds[live.trial] = horizons[live.point]
    return _per_point_results(solved, rounds, ks_arrays, max_rounds)


def _validated_stack(
    kind: str,
    points: int,
    ks_list: Sequence[Sequence[int] | np.ndarray],
    rngs: Sequence[np.random.Generator],
    max_rounds: int,
) -> list[np.ndarray]:
    """The validated per-point ``ks`` arrays of a stacked run."""
    if not (points == len(ks_list) == len(rngs)):
        raise ValueError(
            f"stacked run needs one {kind}, ks array and rng per point; "
            f"got {points}/{len(ks_list)}/{len(rngs)}"
        )
    if points == 0:
        raise ValueError("stacked run needs at least one point")
    if max_rounds < 1:
        raise ValueError(f"round budget must be >= 1, got {max_rounds}")
    return [_validated_ks(ks) for ks in ks_list]


class _ScheduleWalk:
    """Probabilities read off each point's published schedule.

    Band edges are tabulated per ``(point, k)`` combo for
    :data:`_BAND_CHUNK_ROUNDS` rounds at a time (population-shrinking
    models tabulate only the probabilities: their bands need per-row
    live counts), and a one-shot schedule's surviving trials censor at
    its horizon.
    """

    def __init__(
        self, schedules: Sequence[BatchSchedule], max_rounds: int
    ) -> None:
        self._schedules = schedules
        self.horizons = np.asarray([s.horizon(max_rounds) for s in schedules])
        self._horizon_steps = set(self.horizons.tolist())
        self._end = int(self.horizons.max())
        # Per-round tables of the current chunk, covering rounds
        # (base, base + length]: probabilities (rounds, points) and, off
        # the population-shrinking path, band edges (rounds, combos).
        self._base = self._length = 0
        self._p = self._lo = self._hi = np.empty((0, 0))

    def start(self, live: _LiveRows) -> None:
        """Rows carry no walk state of their own."""

    def retire(
        self, round_index: int, live: _LiveRows, rounds: np.ndarray
    ) -> None:
        # Whole points whose (one-shot) horizon just ended censor their
        # survivors at rounds-actually-played = horizon.
        if round_index - 1 not in self._horizon_steps:
            return
        expired = self.horizons[live.point] < round_index
        if expired.any():
            rounds[live.trial[expired]] = self.horizons[live.point[expired]]
            live.keep(~expired)

    def bands(
        self, round_index: int, live: _LiveRows, k_eff: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        if round_index > self._base + self._length:
            self._base = round_index - 1
            self._length = min(_BAND_CHUNK_ROUNDS, self._end - self._base)
            self._p = np.stack(
                [
                    _schedule_probabilities(s, round_index, self._length)
                    for s in self._schedules
                ],
                axis=1,
            )
            if k_eff is None:
                self._lo, self._hi = _band_edges(
                    self._p[:, live.combo_point], live.combo_ks
                )
        row = round_index - self._base - 1
        if k_eff is not None:
            return _band_edges(self._p[row, live.point], k_eff)
        return self._lo[row][live.combo], self._hi[row][live.combo]

    def observe(
        self,
        round_index: int,
        draws: np.ndarray,
        hi: np.ndarray,
        feedback: np.ndarray | None,
    ) -> None:
        """Schedules never branch on feedback: nothing to observe."""
        return None


def run_schedule_stacked(
    schedules: Sequence[BatchSchedule],
    ks_list: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    *,
    channel: Channel | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> list[BatchExecutionResult]:
    """Advance many independent schedule-protocol points in one loop.

    Point ``j`` is a whole Monte Carlo batch (schedule, per-trial
    participant counts, own generator); entry ``j`` of the returned list
    is **bit-identical** to ``run_uniform_batch`` on that point alone:
    point ``j`` draws from ``rngs[j]`` in :data:`_DRAW_BLOCK_ROUNDS`-round
    blocks whose boundaries are absolute and whose shapes depend only on
    the point's own live count and horizon, so a solo run consumes the
    identical stream, and a point stops consuming randomness at the
    first block boundary after its last trial retires.  Stacking changes
    only *where* the per-round bookkeeping happens - once over the flat
    ``(point, trial)`` rows instead of per point - which is the fused
    sweep executor's wall-clock lever on dense grids.

    ``channel`` is optional because schedule protocols never branch on
    feedback; it matters only when it carries an active
    :class:`~repro.channel.models.ChannelModel`, in which case the full
    silence/success/collision code of each live round is computed from
    the same band compares, perturbed *after* the faithful outcome
    (randomized models consume one extra pre-drawn uniform per live
    round; see :func:`_refill_draw_block`), and a trial retires on the
    *delivered* success.
    """
    ks_arrays = _validated_stack(
        "schedule", len(schedules), ks_list, rngs, max_rounds
    )
    return _run_stacked(
        _ScheduleWalk(schedules, max_rounds), ks_arrays, rngs, channel, max_rounds
    )


#: Observation-code -> enum for child expansion.  Indices match the
#: :data:`~repro.core.protocol.OBS_QUIET` / ``OBS_SILENCE`` /
#: ``OBS_COLLISION`` codes the player batch engine already uses.
_OBSERVATION_OF = {
    OBS_QUIET: Observation.QUIET,
    OBS_SILENCE: Observation.SILENCE,
    OBS_COLLISION: Observation.COLLISION,
}


class _HistoryArena:
    """Node store of every distinct session state of a stacked run.

    A forest of history DAGs over one flat node space: each root is the
    empty history of one protocol behaviour (keyed by
    :meth:`~repro.core.protocol.UniformProtocol.history_signature`, so
    same-spec points share a root and hence every descendant), and node
    ``child[v][code]`` is the state reached from ``v`` by the
    observation ``code``.  Sessions that name their state
    (:meth:`~repro.core.protocol.UniformSession.state_key`) get one node
    per ``(root, state)``: histories that lead to the same state - the
    common case once noise or jamming makes every trial's history
    unique - share it.  Sessions without a key get one node per
    distinct history, a plain trie.  Per node the arena memoizes the
    protocol's response - the next-round probability, or schedule
    exhaustion - computed from a representative session forked once
    when the node is created.  All per-node attributes the round loop
    gathers live in flat NumPy arrays; capacity doubles as nodes are
    added.
    """

    def __init__(self) -> None:
        capacity = 64
        self.probability = np.full(capacity, np.nan)
        self.exhausted = np.zeros(capacity, dtype=bool)
        self.child = np.full((capacity, 3), -1, dtype=np.int64)
        self._resolved = np.zeros(capacity, dtype=bool)
        self._sessions: list[UniformSession | None] = [None] * capacity
        self._root_of: list[int] = []  # per node, appended on creation
        self._roots: dict[object, int] = {}
        self._by_state: dict[tuple[int, Hashable], int] = {}
        self.count = 0
        #: Forks folded into an existing node with the same state.
        self.merged = 0
        #: Whether any resolved history has exhausted its schedule; the
        #: round loop skips the per-trial give-up scan while this is
        #: False (cycling protocols never set it).
        self.any_exhausted = False

    def _new_node(
        self, session: UniformSession, root: int | None, state: Hashable | None
    ) -> int:
        """Store ``session`` as a new node of ``root`` (``None``: a new
        root), registered under its ``state`` key when it has one."""
        if self.count == self.probability.size:
            grow = self.count
            self.probability = np.concatenate(
                [self.probability, np.full(grow, np.nan)]
            )
            self.exhausted = np.concatenate(
                [self.exhausted, np.zeros(grow, dtype=bool)]
            )
            self.child = np.concatenate(
                [self.child, np.full((grow, 3), -1, dtype=np.int64)]
            )
            self._resolved = np.concatenate(
                [self._resolved, np.zeros(grow, dtype=bool)]
            )
            self._sessions.extend([None] * grow)
        node = self.count
        root = node if root is None else root
        self._sessions[node] = session
        self._root_of.append(root)
        if state is not None:
            self._by_state[(root, state)] = node
        self.count += 1
        return node

    def root_for(self, protocol: UniformProtocol, private_key: object) -> int:
        """The empty-history node of ``protocol``, shared where provable.

        Protocols publishing equal ``history_signature()``s share one
        root (and so one memoized DAG) - across the points of a stacked
        run *and* across runs, since the arena is shared per thread;
        unsigned protocols get a private root under ``private_key``
        (unique per run and point, so nothing is ever wrongly reused).
        """
        key = protocol.history_signature()
        if key is None:
            key = private_key
        node = self._roots.get(key)
        if node is None:
            session = protocol.session()
            node = self._new_node(session, None, session.state_key())
            self._roots[key] = node
        return node

    def resolve(self, nodes: np.ndarray) -> None:
        """Memoize the next-round probability of each node in ``nodes``.

        One ``next_probability()`` call per node, ever: a node revisited
        by later trials, points or (DAG-sharing) runs is a pure array
        lookup.  :class:`ScheduleExhausted` is memoized too - a one-shot
        give-up is a property of the session state, not of the trial
        that first reached it.
        """
        for node in nodes[~self._resolved[nodes]]:
            session = self._sessions[node]
            assert session is not None
            try:
                self.probability[node] = session.next_probability()
            except ScheduleExhausted:
                self.exhausted[node] = True
                self.any_exhausted = True
            self._resolved[node] = True

    def descend(self, nodes: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Child node per ``(node, code)`` pair, expanding the DAG lazily.

        Missing children cost one session fork + ``observe()`` per
        *distinct* pair (``np.unique``-compacted); a fork whose state
        key is already a node of the same root links to that node and
        is dropped.  Then every trial's descent is a single
        fancy-indexed gather.
        """
        found = self.child[nodes, codes]
        missing = found < 0
        if missing.any():
            keys = np.unique(nodes[missing] * 3 + codes[missing])
            for key in keys:
                node, code = divmod(int(key), 3)
                parent = self._sessions[node]
                assert parent is not None
                session = parent.fork()
                session.observe(_OBSERVATION_OF[code])
                root = self._root_of[node]
                state = session.state_key()
                child = (
                    None if state is None else self._by_state.get((root, state))
                )
                if child is None:
                    child = self._new_node(session, root, state)
                else:
                    self.merged += 1
                self.child[node, code] = child
            found = self.child[nodes, codes]
        return found


#: Node budget of the shared arena.  The memoized DAGs are a cache:
#: once the arena exceeds this many nodes a fresh one replaces it at the
#: next run's start (never mid-run - live node ids must stay valid),
#: bounding resident memory while keeping the steady-state case - many
#: runs of the same protocol specs - one warm lookup.  Results are
#: bit-identical warm or cold; only session construction work is saved.
_SHARED_ARENA_NODE_BUDGET = 100_000

#: The arena is shared across runs but *per thread* (``threading.local``):
#: arena mutation (node allocation, array growth) is not synchronized, and
#: the run-local engine this replaced was safe to call from threads - a
#: property worth keeping for embedders, at the cost of one warm DAG per
#: thread.  Process pools are unaffected (each worker has its own module
#: state).
_run_state = threading.local()
_run_tokens = itertools.count()


def _arena_for_run() -> _HistoryArena:
    arena = getattr(_run_state, "arena", None)
    if arena is None or arena.count > _SHARED_ARENA_NODE_BUDGET:
        if arena is not None:
            _run_state.resets = getattr(_run_state, "resets", 0) + 1
        arena = _HistoryArena()
        _run_state.arena = arena
    return arena


def history_arena_stats() -> dict[str, int]:
    """Counters of this thread's shared history arena.

    ``nodes`` and ``merged`` (forks folded into an existing node with
    the same state) describe the live arena; ``resets`` counts the
    arenas replaced for outgrowing :data:`_SHARED_ARENA_NODE_BUDGET`
    since the thread started.
    """
    arena = getattr(_run_state, "arena", None)
    return {
        "nodes": 0 if arena is None else arena.count,
        "merged": 0 if arena is None else arena.merged,
        "resets": getattr(_run_state, "resets", 0),
    }


def _reset_shared_arena() -> None:
    """Drop this thread's memoized arena (tests pin warm/cold identity)."""
    _run_state.arena = None


class _HistoryWalk:
    """Probabilities memoized per distinct session state (or history).

    Each row carries a node of the shared history arena
    (:attr:`_LiveRows.node`).  A round resolves the distinct live
    ``(node, k)`` pairs once - one sort yields the distinct pairs and,
    via their quotients, the distinct nodes - retires rows whose node
    exhausted its schedule, gathers band edges per pair, and moves the
    survivors to their observed child nodes.
    """

    def __init__(
        self,
        protocols: Sequence[UniformProtocol],
        channel: Channel,
        max_rounds: int,
    ) -> None:
        self._arena = _arena_for_run()
        run_token = next(_run_tokens)
        self._roots = np.asarray(
            [
                self._arena.root_for(protocol, ("unshared", run_token, j))
                for j, protocol in enumerate(protocols)
            ],
            dtype=np.int64,
        )
        self._cd = channel.collision_detection
        self._max_rounds = max_rounds
        self.horizons = np.full(len(protocols), max_rounds)  # none precomputable
        self._pair_inverse = self._pair_node = self._pair_k = None

    def start(self, live: _LiveRows) -> None:
        live.node = self._roots[live.point]

    def retire(
        self, round_index: int, live: _LiveRows, rounds: np.ndarray
    ) -> None:
        combos = live.combo_ks.size
        pair = live.node * combos + live.combo
        unique_pair, self._pair_inverse = np.unique(pair, return_inverse=True)
        self._pair_node = unique_pair // combos
        self._pair_k = live.combo_ks[unique_pair % combos]
        arena = self._arena
        arena.resolve(np.unique(self._pair_node))
        # Clean one-shot give-ups retire *before* the round's draw, with
        # rounds actually played - the scalar ScheduleExhausted path.
        if arena.any_exhausted:
            expired = arena.exhausted[live.node]
            if expired.any():
                rounds[live.trial[expired]] = round_index - 1
                live.keep(~expired)
                self._pair_inverse = self._pair_inverse[~expired]

    def bands(
        self, round_index: int, live: _LiveRows, k_eff: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        # Exhausted histories keep NaN probabilities; their pairs are
        # never gathered - every row on one just retired.
        p = self._arena.probability[self._pair_node]
        if k_eff is not None:
            return _band_edges(p[self._pair_inverse], k_eff)
        lo, hi = _band_edges(p, self._pair_k)
        return lo[self._pair_inverse], hi[self._pair_inverse]

    def observe(
        self,
        round_index: int,
        draws: np.ndarray,
        hi: np.ndarray,
        feedback: np.ndarray | None,
    ) -> np.ndarray | None:
        """Every row's observation of the delivered feedback, or ``None``
        in the last round (nothing descends past the budget)."""
        if round_index >= self._max_rounds:
            return None
        if not self._cd:
            return np.full(draws.size, OBS_QUIET, dtype=np.int64)
        if feedback is None:
            return np.where(draws >= hi, OBS_COLLISION, OBS_SILENCE)
        return np.where(feedback == FB_COLLISION, OBS_COLLISION, OBS_SILENCE)

    def descend(self, live: _LiveRows, observed: np.ndarray) -> None:
        live.node = self._arena.descend(live.node, observed)


def run_history_stacked(
    protocols: Sequence[UniformProtocol],
    ks_list: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    *,
    channel: Channel,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> list[BatchExecutionResult]:
    """Advance many history-driven points in one array-based loop.

    The CD counterpart of :func:`run_schedule_stacked`: point ``j`` is a
    whole Monte Carlo batch of a deterministic-session uniform protocol
    (typically feedback-driven - Willard/phased search, history
    policies), and entry ``j`` of the result is **bit-identical** to
    ``run_uniform_batch`` on that point alone.  Each live trial carries
    a node id into the shared history arena; a round is

    1. one memoized ``next_probability()`` per distinct live node -
       one per session state, or per history for sessions without a
       :meth:`~repro.core.protocol.UniformSession.state_key` - (shared
       across trials, across points with equal
       ``history_signature()``s, and - the arena being shared per
       thread under a node budget - across whole runs; results are
       bit-identical warm or cold);
    2. retirement of trials whose history's schedule exhausted
       (``rounds`` = rounds actually played, the scalar convention);
    3. one uniform gather per live trial from per-point
       :data:`_DRAW_BLOCK_ROUNDS`-round pre-drawn blocks (absolute
       boundaries, shapes depending only on the point's own live count -
       the same stream contract as the schedule walk) compared against
       ``(1-p)^k`` / ``kp(1-p)^(k-1)`` trichotomy band edges gathered
       from a ``(node, k)``-unique band cache;
    4. a ``np.unique``-compacted DAG descent moving every surviving
       trial to its observed child node.

    The trichotomy bands make the round distribution-exact (engines only
    ever observe silence / success / collision; module docstring).
    """
    ks_arrays = _validated_stack(
        "protocol", len(protocols), ks_list, rngs, max_rounds
    )
    for protocol in protocols:
        if not protocol.deterministic_sessions:
            raise ValueError(
                f"protocol {protocol.name!r} has randomized sessions; use "
                "the scalar engine (run_uniform) instead"
            )
        _check_channel(protocol.requires_collision_detection, channel)
    return _run_stacked(
        _HistoryWalk(protocols, channel, max_rounds),
        ks_arrays,
        rngs,
        channel,
        max_rounds,
    )
