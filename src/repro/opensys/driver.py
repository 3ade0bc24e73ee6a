"""Open-loop execution: a live contention population over streaming traffic.

The closed engines answer "k players entered - how many rounds until the
first success?".  This driver answers the deployment question instead: a
channel serving *continuous* arrivals, where the contention level is the
emergent backlog, a resolved request departs recording its sojourn time,
and the survivors plus fresh arrivals contend again.  One trial is one
independent channel; a run advances ``trials`` channels for ``rounds``
rounds and accumulates every measured completion into one
:class:`~repro.opensys.latency.LatencyStore` per stacked point (see
"Stacked rows" below).

Request lifecycle
-----------------
Every round, each trial's requests move through a fixed pipeline:

1. **Orbit release** - requests whose backoff expired leave the orbit
   (the retry queue) and present for admission again, oldest first.
2. **Admission** - orbit rejoiners (first) and fresh arrivals (second)
   pass the :class:`~repro.opensys.policies.AdmissionPolicy`; the grant
   is additionally clamped by the physical ``capacity``.  Admitted
   requests join the service buffer and contend from this round on.
3. **Channel round** - the backlog contends exactly as before: one
   trichotomy-band draw, optional fault perturbation, a delivered
   success departs one uniformly-drawn request (recording its
   per-request sojourn, measured from its *first* arrival).
4. **Timeout expiry** - requests whose current stay in the buffer
   reached ``timeout`` rounds are evicted (the timeout clock restarts
   on each re-admission; the sojourn clock never does).
5. **Retry resolution** - every refused or expired request asks the
   :class:`~repro.opensys.policies.RetryPolicy` what to do: enter the
   orbit with a policy-chosen rejoin round, or die (``dropped`` /
   ``timed_out`` on a first failure, ``abandoned`` once it has
   retried).

With the default policies (``give-up`` retry, ``capacity`` admission)
steps 1 and 5 are no-ops: a refused or expired request simply dies,
counted, and the lifecycle keeps its lean single-plane buffer.

Epoch semantics
---------------
The paper's protocols resolve one contention instance; an open system
chains them.  A trial's protocol state lives in *epochs*: the state
advances one step per contended round (exactly as in a closed execution),
resets to the empty history after every delivered success (the remaining
backlog plus newcomers start a fresh instance), resets when the backlog
drains to zero (the channel goes idle), and - mirroring the closed
engines' :class:`~repro.core.protocol.ScheduleExhausted` handling -
restarts from the empty history when a one-shot schedule gives up with
requests still pending.  Newcomers join the epoch in progress:
identity-oblivious uniform protocols cannot tell, and this is precisely
the unslotted-arrival regime the adversarial contention-resolution
literature studies.

Faithfulness and the stream contract
------------------------------------
A contended round with backlog ``k`` and probability ``p`` is simulated
by the same trichotomy-band compare as the closed batch engines (one
uniform against ``(1-p)^k`` / ``kp(1-p)^{k-1}``; see
:mod:`repro.channel.batch`), which is distribution-exact because uniform
protocols never see more than silence / success / collision.  An idle
round (``k = 0``) needs no special case: ``lo = (1-p)^0 = 1``, so the
draw always lands in the silence band.  On a delivered success one extra
pre-drawn uniform picks the departing request uniformly from the backlog
(uniform transmitters are exchangeable).  Fault models
(:mod:`repro.channel.models`) perturb the faithful code after the band
compare, exactly as in the closed engines; a success erased by noise or a
crash keeps the request in the population - the message was lost.

Randomness is drawn per *lane* and *block*: the trials of a point are
grouped into fixed lanes of :data:`_LANE` consecutive absolute trial
indices (lane ``L`` holds trials ``L*64 .. L*64+63``), and the rounds
into fixed-width :data:`_OPEN_BLOCK_ROUNDS`-round blocks with absolute
boundaries.  Lane ``L``'s block ``b`` has its own (arrival, channel)
generator pair, ``SeedSequence(seed, spawn_key=(L, b, 0))`` and
``(L, b, 1)``, and draws one
:meth:`~repro.opensys.arrivals.ArrivalProcess.sample_lane` block of
arrival counts and one ``(rows, width, 5)`` uniform block, row by row
in trial order.  The five uniform columns per round are fixed - band,
winner, fault, admission, retry - and always drawn, whatever the channel
model and policies use, so a point's streams depend only on its seed,
arrival process and horizon.  Because every block starts from fresh
generators and rows draw in order, a trial's draws never depend on the
rows after it: a run draws a lane only up to its last trial there, and
one that starts mid-lane (a shard at any ``trial_offset``) draws the
lane's rows from its start and keeps its own.  Together this makes the
engines *bit-identical per trial*: the vectorized loop and the scalar
oracle consume the very same blocks (unused draws are discarded, which
is distribution-neutral), and a run sharded as ``trial_offset = 0..a``
plus ``a..a+b`` merges to the unsharded run's store exactly.

Stacked rows
------------
The engines advance *rows*, and a run may stack several points
(:class:`OpenMember`: an arrival process, a trial count, a seed and a
retry policy) that share everything else - protocol, channel, rounds,
warmup, capacity, timeout and admission policy.  Member ``j`` owns a
consecutive block of rows, drawn from its own lanes under its own seed,
so the stream contract above holds per row whatever the stacking.
Every lifecycle step is row-wise, and a failed request asks the retry
policy of the member owning its row, so a member's rows evolve exactly
as they would in a run of their own.  The row -> member split keeps the
results apart: the batch lifecycle tallies its counters per row and
sums them per member once, at the end, and each round's completions go
to the owning member's store (one ``record_many`` per member), so every
member's store is bit-identical to its solo run.  A plain one-point run
is the one-member case.

Engines
-------
One vectorized round loop (:func:`_run_open_vectorized`) runs the
lifecycle, the band compare and the fault perturbation for every trial
at once; the two vectorized engines differ only in the probability walk
it steps (reset on a delivered success or a drained backlog, advanced on
every other contended round):

``open-schedule``
    Schedule-publishing protocols (:class:`_EpochWalk`): the per-epoch
    probability is an array lookup on a per-trial epoch counter.
``open-history``
    Deterministic feedback-driven (CD) protocols (:class:`_TrieWalk`):
    each trial carries a node id into the shared history arena of
    :mod:`repro.channel.batch`, so probabilities are memoized per
    distinct session state (or history) across trials, rounds and runs.
``open-scalar``
    The correctness oracle: a per-trial Python loop driving real
    protocol sessions and a plain-list request lifecycle through the
    identical streams.  Also the only engine for randomized-session
    protocols.

Crash models with a non-zero rejoin delay are not expressible here (the
open population *is* the live count; a crashed-but-rejoining requester
would need per-request identity) and are rejected up front on every
engine via :attr:`~repro.channel.models.ChannelModel.shrinks_population`
- the closed-system uniform engines run them through per-trial active
counts, but an open run has no fixed trial population to shrink.
Adaptive adversaries plug straight in: their per-trial state rides the
same ``batch_state``/``perturb`` contract as every other model, and the
open population never retires mid-run so their budget arrays never even
need filtering.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..channel.batch import _arena_for_run, _band_edges, _run_tokens
from ..channel.channel import Channel
from ..channel.models import FB_COLLISION, FB_SILENCE, FB_SUCCESS, ChannelModel
from ..channel.routing import (
    ENGINE_OPEN_SCALAR,
    ENGINE_OPEN_SCHEDULE,
    select_engine,
)
from ..channel.simulator import _check_channel
from ..core.feedback import Observation
from ..core.protocol import (
    OBS_COLLISION,
    OBS_QUIET,
    OBS_SILENCE,
    BatchSchedule,
    ProtocolError,
    ScheduleExhausted,
    UniformProtocol,
)
from .arrivals import ArrivalProcess
from .latency import LatencyStore
from .policies import (
    AdmissionPolicy,
    GiveUpPolicy,
    HardCapacityPolicy,
    RetryPolicy,
    weyl_uniforms,
)

__all__ = [
    "OpenMember",
    "OpenRunResult",
    "run_open",
]

#: Trials per lane: the unit of the open driver's random streams.  Lanes
#: sit at absolute trial indices, so which lane a trial belongs to never
#: depends on how a run is sharded or stacked.
_LANE = 64

#: Rounds of arrivals and channel uniforms pre-drawn per lane at each
#: absolute block boundary (rounds 1, 1+B, 1+2B, ...), each block from
#: its own generators.  Boundaries and shapes depend only on the horizon,
#: never on the population, so every engine consumes identical streams.
_OPEN_BLOCK_ROUNDS = 32

#: The two streams of a lane and block: ``spawn_key=(lane, block, stream)``.
_S_ARRIVALS, _S_CHANNEL = range(2)

#: The per-round uniform columns, all drawn on every run.
_U_BAND, _U_WINNER, _U_FAULT, _U_ADMISSION, _U_RETRY = range(5)
_U_COLUMNS = 5

#: Failure kinds handed to the retry policy (they differ only in which
#: counter a first-attempt death lands in).
_FAIL_ADMISSION = 0
_FAIL_TIMEOUT = 1

#: Planes of the packed per-request buffer (tracked lifecycle only).
_F_BORN = 0
_F_ADMITTED = 1
_F_TRIES = 2

#: Fields of the ``(3, n)`` record arrays of failed or orbiting requests.
_R_ROW = 0
_R_BORN = 1
_R_TRIES = 2


@dataclass(frozen=True)
class OpenMember:
    """One point's rows in a stacked open run.

    ``trials`` rows, each serving its own copy of ``arrivals`` with the
    lane streams of trials ``trial_offset ..`` under ``seed``, and
    resolving its failed requests through ``retry``.
    """

    arrivals: ArrivalProcess
    trials: int
    seed: int
    retry: RetryPolicy = field(default_factory=GiveUpPolicy)


@dataclass(frozen=True)
class OpenRunResult:
    """One open run: a latency store per member plus the engine used."""

    stores: tuple[LatencyStore, ...]
    engine: str

    @property
    def store(self) -> LatencyStore:
        """The store of a one-member run."""
        if len(self.stores) != 1:
            raise ValueError(
                f"a run of {len(self.stores)} stacked members has one store "
                "per member; read .stores"
            )
        return self.stores[0]


class _RowSplit:
    """Row -> member map of a stacked run, the members' stores and policies.

    Member ``j`` owns rows ``bounds[j]:bounds[j+1]`` and resolves their
    failures through ``retries[j]``.
    """

    def __init__(self, members: Sequence[OpenMember]) -> None:
        sizes = [member.trials for member in members]
        self.rows = sum(sizes)
        self.retries = tuple(member.retry for member in members)
        self.stores = tuple(LatencyStore() for _ in sizes)
        self.bounds = np.cumsum([0, *sizes])
        self._owner = np.repeat(np.arange(len(sizes)), sizes)

    def store_of(self, row: int) -> LatencyStore:
        return self.stores[self._owner[row]]

    def retry_of(self, row: int) -> RetryPolicy:
        return self.retries[self._owner[row]]

    def parts(self, rows: np.ndarray) -> list[tuple[int, int, int]]:
        """``(member, lo, hi)`` spans of ascending ``rows`` per owner."""
        if len(self.stores) == 1:
            return [(0, 0, rows.size)] if rows.size else []
        cuts = np.searchsorted(rows, self.bounds).tolist()
        return [
            (member, lo, hi)
            for member, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
            if hi > lo
        ]

    def record(self, rows: np.ndarray, sojourns: np.ndarray) -> None:
        """Record completions of ascending ``rows`` into their owners."""
        for member, lo, hi in self.parts(rows):
            self.stores[member].record_many(sojourns[lo:hi])

    def add(self, tally: dict[str, np.ndarray]) -> None:
        """Sum per-row counter tallies into each member's store."""
        for name, per_row in tally.items():
            totals = np.add.reduceat(per_row, self.bounds[:-1])
            for store, total in zip(self.stores, totals.tolist()):
                setattr(store, name, getattr(store, name) + total)


@dataclass(frozen=True)
class _Lane:
    """One lane of a member: its key, row copies and the rows the run keeps.

    ``copies`` covers the lane's rows up to the last one the run keeps;
    the rows after it are never drawn.
    """

    seed: int
    index: int
    arrivals: ArrivalProcess
    copies: list[ArrivalProcess]
    keep: slice  # of the drawn rows
    rows: slice  # of the run's rows


def _block_rng(lane: _Lane, block: int, stream: int) -> np.random.Generator:
    """The generator of one stream of one lane and block."""
    return np.random.default_rng(
        np.random.SeedSequence(lane.seed, spawn_key=(lane.index, block, stream))
    )


class _LaneStreams:
    """The run's random streams, drawn lane by lane in absolute blocks.

    The shared half of the engines' stream contract - the vectorized
    loop and the scalar oracle consume exactly these blocks.  A member
    running trials ``offset .. offset+trials-1`` touches lanes
    ``offset // 64`` onwards; a lane it covers only in part is drawn up
    to the member's last row there and cut to the member's rows.
    """

    def __init__(self, members: Sequence[OpenMember], trial_offset: int) -> None:
        self.rows = 0
        self._lanes: list[_Lane] = []
        for member in members:
            stop = trial_offset + member.trials
            for lane in range(trial_offset // _LANE, (stop - 1) // _LANE + 1):
                start = lane * _LANE
                lo, hi = max(trial_offset, start), min(stop, start + _LANE)
                first = self.rows + lo - trial_offset
                self._lanes.append(
                    _Lane(
                        seed=member.seed,
                        index=lane,
                        arrivals=member.arrivals,
                        copies=member.arrivals.lane_rows(hi - start),
                        keep=slice(lo - start, hi - start),
                        rows=slice(first, first + hi - lo),
                    )
                )
            self.rows += member.trials

    def refill(
        self, round_index: int, rounds: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Arrival counts ``(rows, width)`` and uniforms ``(rows, width, 5)``
        of the block starting at ``round_index``."""
        width = min(_OPEN_BLOCK_ROUNDS, rounds - round_index + 1)
        block = (round_index - 1) // _OPEN_BLOCK_ROUNDS
        arrival_counts = np.empty((self.rows, width), dtype=np.int64)
        uniforms = np.empty((self.rows, width, _U_COLUMNS))
        for lane in self._lanes:
            arrival_rng = _block_rng(lane, block, _S_ARRIVALS)
            channel_rng = _block_rng(lane, block, _S_CHANNEL)
            drawn = len(lane.copies)
            counts = np.asarray(
                lane.arrivals.sample_lane(arrival_rng, lane.copies, width),
                dtype=np.int64,
            )
            if counts.shape != (drawn, width):
                raise ValueError(
                    f"arrival process {lane.arrivals.name!r} returned shape "
                    f"{counts.shape}, expected ({drawn}, {width})"
                )
            if (counts < 0).any():
                raise ValueError(
                    f"arrival process {lane.arrivals.name!r} returned "
                    "negative counts"
                )
            arrival_counts[lane.rows] = counts[lane.keep]
            uniforms[lane.rows] = channel_rng.random(
                (drawn, width, _U_COLUMNS)
            )[lane.keep]
        return arrival_counts, uniforms


def _row_ranks(rows: np.ndarray, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Within-trial ranks of a row-major flat group, plus per-trial counts.

    ``rows`` must be sorted ascending (the order ``np.nonzero`` emits),
    so entries of one trial are contiguous; the rank is each entry's
    0-based position within its trial's segment.
    """
    counts = np.bincount(rows, minlength=trials)
    segments = np.cumsum(counts) - counts
    return np.arange(rows.size) - segments[rows], counts


class _BatchLifecycle:
    """Vectorized request-lifecycle state shared by the open engines.

    Holds the service buffer (parallel ``(trials, capacity)`` arrays:
    first-arrival round, plus current-admission round and retry count
    when a retry policy can populate them), the orbit (chunks of pending
    rejoiners bucketed by rejoin round, so release is O(due entries)
    with no per-round scan of the waiting mass), and the admission
    state.  All mutations preserve the deterministic orderings the
    scalar oracle mirrors with plain lists: orbit release is stable
    (by trial, then insertion order), timeout expiry is a stable
    compaction, buffer departure is the winner swap-remove, and the
    j-th retry scheduled in a round takes the j-th Weyl rotation of the
    round's retry draw.  Failures resolve through the retry policy of
    the member owning their row.  Counters are tallied per row and
    handed to the run's :class:`_RowSplit` by :meth:`finish`.
    """

    def __init__(
        self,
        capacity: int,
        timeout: int | None,
        warmup: int,
        admission: AdmissionPolicy,
        split: _RowSplit,
    ) -> None:
        trials = split.rows
        self.trials = trials
        self.capacity = capacity
        self.timeout = timeout
        self.warmup = warmup
        self.split = split
        self._jitter = any(retry.needs_draws for retry in split.retries)
        self.tally = {
            name: np.zeros(trials, dtype=np.int64)
            for name in LatencyStore.COUNTERS
            if name != "round_slots"
        }
        self.occupancy = np.zeros(trials, dtype=np.int64)
        # With a zero-retry policy nothing ever re-enters, so the
        # admission round equals the birth round and the retry count is
        # identically zero - a lone ``born`` plane suffices and the
        # default-policy fast path does exactly PR 7's work.  With a
        # live retry policy on any member the three per-request fields
        # are packed into one (trials, capacity, 3) array so every
        # buffer move (append, swap-remove, expiry compaction) is a
        # single gather/scatter.
        self._plain = all(retry.budget == 0 for retry in split.retries)
        self._track = timeout is not None and not self._plain
        if self._track:
            self._buf = np.zeros((trials, capacity, 3), dtype=np.int64)
            self.born = self._buf[:, :, _F_BORN]
            self.admitted_at = self._buf[:, :, _F_ADMITTED]
        else:
            self._buf = None
            self.born = np.zeros((trials, capacity), dtype=np.int64)
        self._adm_state = admission.state(trials)
        # Expiry ring: per-trial counts of live buffer entries keyed by
        # admission round mod timeout.  An entry expires exactly when
        # the eviction cutoff reaches its admission round (end_round
        # runs every round), so one ring column names every victim of a
        # round: expiry-free rounds exit after an O(trials) check and
        # eviction scans only the trials that actually lose requests.
        self._ring = (
            np.zeros((trials, timeout), dtype=np.int64)
            if timeout is not None
            else None
        )
        # Orbit buckets: rejoin round -> list of (3, n) record chunks
        # (row, born, tries: the _R_* fields), appended in failure
        # order.  Delays are >= 1 and rounds are processed consecutively,
        # so a bucket is drained exactly at its key and never goes stale.
        self._orbit: dict[int, list[np.ndarray]] = {}
        self.orb_n = np.zeros(trials, dtype=np.int64)
        self._fail_rank = np.zeros(trials, dtype=np.int64)
        self._trial_ids = np.arange(trials, dtype=np.int64)
        self._slot_ids = np.arange(capacity, dtype=np.int64)
        self._round = 0
        self._retry_draws = np.zeros(trials)
        self._no_due = np.zeros(trials, dtype=np.int64)
        self._no_due.flags.writeable = False

    # ------------------------------------------------------------------
    # Round pipeline
    # ------------------------------------------------------------------
    def begin_round(
        self,
        round_index: int,
        fresh: np.ndarray,
        adm_draws: np.ndarray,
        retry_draws: np.ndarray,
    ) -> None:
        """Orbit release, admission, and admission-failure resolution."""
        self._round = round_index
        self._retry_draws = retry_draws
        if not self._plain:
            self._fail_rank[:] = 0
        self.tally["arrivals"] += fresh

        due, n_due = self._release(round_index)
        candidates = n_due + fresh
        self.tally["attempts"] += candidates
        quota = self._adm_state.quota(
            self.occupancy, candidates, self.capacity, adm_draws
        )
        admitted = np.minimum(
            np.minimum(candidates, quota), self.capacity - self.occupancy
        )
        self._adm_state.commit(admitted)
        admit_rejoin = np.minimum(n_due, admitted)
        admit_fresh = admitted - admit_rejoin

        # Each trial admits its first admit_rejoin due records (release
        # order), then admit_fresh fresh arrivals; refusals keep the same
        # candidate order - surplus rejoiners first, then surplus fresh.
        refused = []
        due_ranks = None
        if due is not None:
            due_ranks, _ = _row_ranks(due[_R_ROW], self.trials)
            taken = due_ranks < admit_rejoin[due[_R_ROW]]
            if not taken.all():
                refused.append(due.compress(~taken, axis=1))
                due, due_ranks = due.compress(taken, axis=1), due_ranks[taken]
        if admitted.any():
            self._admit(due, due_ranks, admit_rejoin, admit_fresh)
        self.occupancy += admitted
        if self._ring is not None:
            self._ring[:, round_index % self.timeout] += admitted

        refused_fresh = fresh - admit_fresh
        if refused_fresh.any():
            rows = np.repeat(self._trial_ids, refused_fresh)
            records = np.zeros((3, rows.size), dtype=np.int64)
            records[_R_ROW] = rows
            records[_R_BORN] = round_index
            refused.append(records)
        if len(refused) == 2:
            # One batched failure: a stable sort by trial keeps each
            # trial's surplus rejoiners ahead of its surplus fresh
            # arrivals, i.e. exactly the candidate order.
            records = np.concatenate(refused, axis=1)
            order = np.argsort(records[_R_ROW], kind="stable")
            refused = [records.take(order, axis=1)]
        if refused:
            self._fail(refused[0], _FAIL_ADMISSION)

    def complete(
        self, rows: np.ndarray, winner_draws: np.ndarray, round_index: int
    ) -> None:
        """Depart one uniformly-drawn winner per successful trial."""
        winner = (winner_draws * self.occupancy[rows]).astype(np.int64)
        last = self.occupancy[rows] - 1
        if self._track:
            departed = self._buf[rows, winner]
            born = departed[:, _F_BORN]
            admitted = departed[:, _F_ADMITTED]
            self._buf[rows, winner] = self._buf[rows, last]
        else:
            born = self.born[rows, winner]
            admitted = born
            self.born[rows, winner] = self.born[rows, last]
        if self._ring is not None:
            self._ring[rows, admitted % self.timeout] -= 1
        self.occupancy[rows] -= 1
        measured = born > self.warmup
        if measured.any():
            self.split.record(rows[measured], round_index - born[measured] + 1)

    def end_round(self, round_index: int) -> None:
        """Evict requests whose current buffer stay hit the timeout."""
        if self.timeout is None:
            return
        cutoff = round_index - self.timeout + 1
        if cutoff < 0:
            return
        col = cutoff % self.timeout
        affected = np.flatnonzero(self._ring[:, col])
        if affected.size == 0:
            return
        occ = self.occupancy[affected]
        width = int(occ.max())
        stamps = (self.admitted_at if self._track else self.born)[
            affected, :width
        ]
        live = self._slot_ids[None, :width] < occ[:, None]
        expired = live & (stamps == cutoff)
        local_rows, slots = np.nonzero(expired)
        keep_local, keep_slots = np.nonzero(live & ~expired)
        keep_ranks, keep_counts = _row_ranks(keep_local, affected.size)
        rows = affected[local_rows]
        keep_rows = affected[keep_local]
        records = np.zeros((3, rows.size), dtype=np.int64)
        records[_R_ROW] = rows
        if self._track:
            victims = self._buf[rows, slots]
            records[_R_BORN] = victims[:, _F_BORN]
            records[_R_TRIES] = victims[:, _F_TRIES]
            self._buf[keep_rows, keep_ranks] = self._buf[keep_rows, keep_slots]
        else:
            records[_R_BORN] = self.born[rows, slots]
            self.born[keep_rows, keep_ranks] = self.born[keep_rows, keep_slots]
        self.occupancy[affected] = keep_counts
        self._ring[:, col] = 0
        self._fail(records, _FAIL_TIMEOUT)

    def finish(self) -> None:
        self.tally["in_flight"] += self.occupancy
        self.tally["in_orbit"] += self.orb_n
        self.split.add(self.tally)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _admit(
        self,
        due: np.ndarray | None,
        due_ranks: np.ndarray | None,
        admit_rejoin: np.ndarray,
        admit_fresh: np.ndarray,
    ) -> None:
        """Write this round's admissions into the buffer.

        ``due`` holds the admitted rejoiner records, ``due_ranks`` their
        within-trial ranks; the ``admit_fresh`` fresh arrivals of each
        trial follow its ``admit_rejoin`` rejoiners.
        """
        rows = np.repeat(self._trial_ids, admit_fresh)
        ranks, _ = _row_ranks(rows, self.trials)
        slots = (self.occupancy + admit_rejoin)[rows] + ranks
        born = np.full(rows.size, self._round, dtype=np.int64)
        tries = None
        if due is not None and due.size:
            due_rows = due[_R_ROW]
            rows = np.concatenate((due_rows, rows))
            slots = np.concatenate((self.occupancy[due_rows] + due_ranks, slots))
            born = np.concatenate((due[_R_BORN], born))
            tries = due[_R_TRIES]
        if rows.size == 0:
            return
        if self._track:
            entry = np.zeros((rows.size, 3), dtype=np.int64)
            entry[:, _F_BORN] = born
            entry[:, _F_ADMITTED] = self._round
            if tries is not None:
                entry[: tries.size, _F_TRIES] = tries
            self._buf[rows, slots] = entry
        else:
            self.born[rows, slots] = born

    def _release(
        self, round_index: int
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Due orbit records (stable: by trial, then insertion order), or
        ``None``, plus the per-trial due counts."""
        chunks = self._orbit.pop(round_index, None)
        if chunks is None:
            return None, self._no_due
        if len(chunks) == 1:
            # A lone chunk is already row-major (one _fail batch).
            records = chunks[0]
        else:
            # Chunks arrive in insertion order and are each row-major,
            # so a stable sort by trial recovers the release order the
            # scalar oracle's list scan produces.
            records = np.concatenate(chunks, axis=1)
            order = np.argsort(records[_R_ROW], kind="stable")
            records = records.take(order, axis=1)
        n_due = np.bincount(records[_R_ROW], minlength=self.trials)
        self.orb_n -= n_due
        return records, n_due

    def _append_orbit(self, records: np.ndarray, rejoin: np.ndarray) -> None:
        """File retrying ``records`` (owned) in orbit buckets by ``rejoin``."""
        if rejoin.min() == rejoin.max():
            self._orbit.setdefault(int(rejoin[0]), []).append(records)
            return
        # One stable sort groups the batch by rejoin round while keeping
        # the row-major failure order within each group; the buckets
        # then take contiguous slices instead of per-value masks.
        order = np.argsort(rejoin, kind="stable")
        rejoin = rejoin[order]
        records = records.take(order, axis=1)
        bounds = np.flatnonzero(rejoin[1:] != rejoin[:-1]) + 1
        starts = [0, *bounds.tolist()]
        keys = rejoin[starts].tolist()
        # Buckets own copies: a slice would pin the whole failure batch
        # until the bucket's (possibly distant) rejoin round.
        for key, lo, hi in zip(keys, starts, [*starts[1:], rejoin.size]):
            self._orbit.setdefault(key, []).append(records[:, lo:hi].copy())

    def _fail(self, records: np.ndarray, kind: int) -> None:
        """Resolve failed request records through the policies.

        ``records`` is a fresh ``(3, n)`` array in row-major order, which
        this call consumes (retrying records go to the orbit as they are).
        """
        tally = self.tally
        retries = self.split.retries
        rows, tries = records[_R_ROW], records[_R_TRIES]
        allowed = np.empty(rows.size, dtype=bool)
        for member, lo, hi in self.split.parts(rows):
            allowed[lo:hi] = retries[member].allows(tries[lo:hi])
        if not allowed.all():
            deaths = ~allowed
            first = deaths & (tries == 0)
            counter = "dropped" if kind == _FAIL_ADMISSION else "timed_out"
            tally[counter] += np.bincount(rows[first], minlength=self.trials)
            tally["abandoned"] += np.bincount(
                rows[deaths & ~first], minlength=self.trials
            )
            if not allowed.any():
                return
            records = records.compress(allowed, axis=1)
            rows, tries = records[_R_ROW], records[_R_TRIES]
        tries += 1  # the retry being scheduled
        ranks, counts = _row_ranks(rows, self.trials)
        tally["retried"] += counts
        self.orb_n += counts
        jitter_u = None
        if self._jitter:
            offsets = self._fail_rank[rows] + ranks
            self._fail_rank += counts
            jitter_u = weyl_uniforms(self._retry_draws[rows], offsets)
        delays = np.empty(rows.size, dtype=np.int64)
        for member, lo, hi in self.split.parts(rows):
            policy = retries[member]
            delays[lo:hi] = policy.delays(
                tries[lo:hi],
                jitter_u[lo:hi] if policy.needs_draws else None,
            )
        self._append_orbit(records, self._round + delays)


class _ScalarLifecycle:
    """The oracle's request lifecycle: one trial, plain Python lists.

    An independent reimplementation of the contract `_BatchLifecycle`
    vectorizes - stable orbit/buffer orderings, rejoiners-before-fresh
    admission, swap-remove departures - sharing only the numeric policy
    kernels (quota, delays, Weyl jitter) so bit-identity rests on the
    lifecycle logic, not on floating-point coincidences.
    """

    def __init__(
        self,
        capacity: int,
        timeout: int | None,
        warmup: int,
        admission: AdmissionPolicy,
        retry: RetryPolicy,
        store: LatencyStore,
    ) -> None:
        self.capacity = capacity
        self.timeout = timeout
        self.warmup = warmup
        self.retry = retry
        self.store = store
        self.pending: list[tuple[int, int, int]] = []  # (born, admitted, tries)
        self.orbit: list[tuple[int, int, int]] = []  # (rejoin, born, tries)
        self._adm_state = admission.state(1)
        # Length-1 argument buffers for the shared admission kernels,
        # refilled in place each round (states read them, never keep them).
        self._adm_occupancy = np.zeros(1, dtype=np.int64)
        self._adm_candidates = np.zeros(1, dtype=np.int64)
        self._adm_draw = np.zeros(1)
        self._adm_admitted = np.zeros(1, dtype=np.int64)
        self._round = 0
        self._retry_draw = 0.0
        self._fail_rank = 0

    def begin_round(
        self,
        round_index: int,
        fresh: int,
        adm_draw: float,
        retry_draw: float,
    ) -> None:
        self._round = round_index
        self._retry_draw = retry_draw
        self._fail_rank = 0
        store = self.store
        store.arrivals += fresh

        due = [entry for entry in self.orbit if entry[0] <= round_index]
        self.orbit = [entry for entry in self.orbit if entry[0] > round_index]
        candidates = len(due) + fresh
        store.attempts += candidates
        self._adm_occupancy[0] = len(self.pending)
        self._adm_candidates[0] = candidates
        self._adm_draw[0] = adm_draw
        quota = int(
            self._adm_state.quota(
                self._adm_occupancy,
                self._adm_candidates,
                self.capacity,
                self._adm_draw,
            )[0]
        )
        admitted = min(candidates, quota, self.capacity - len(self.pending))
        self._adm_admitted[0] = admitted
        self._adm_state.commit(self._adm_admitted)

        admit_rejoin = min(len(due), admitted)
        for _, born, tries in due[:admit_rejoin]:
            self.pending.append((born, round_index, tries))
        admit_fresh = admitted - admit_rejoin
        for _ in range(admit_fresh):
            self.pending.append((round_index, round_index, 0))
        for _, born, tries in due[admit_rejoin:]:
            self._fail(born, tries, _FAIL_ADMISSION)
        for _ in range(fresh - admit_fresh):
            self._fail(round_index, 0, _FAIL_ADMISSION)

    def complete(self, winner_draw: float, round_index: int) -> None:
        winner = int(winner_draw * len(self.pending))
        born, _, _ = self.pending[winner]
        self.pending[winner] = self.pending[-1]
        self.pending.pop()
        if born > self.warmup:
            self.store.record(round_index - born + 1)

    def end_round(self, round_index: int) -> None:
        if self.timeout is None:
            return
        cutoff = round_index - self.timeout + 1
        expired = [entry for entry in self.pending if entry[1] <= cutoff]
        if not expired:
            return
        self.pending = [entry for entry in self.pending if entry[1] > cutoff]
        for born, _, tries in expired:
            self._fail(born, tries, _FAIL_TIMEOUT)

    def finish(self) -> None:
        self.store.in_flight += len(self.pending)
        self.store.in_orbit += len(self.orbit)

    def _fail(self, born: int, tries: int, kind: int) -> None:
        store = self.store
        if not self.retry.allows(tries):
            if tries > 0:
                store.abandoned += 1
            elif kind == _FAIL_ADMISSION:
                store.dropped += 1
            else:
                store.timed_out += 1
            return
        store.retried += 1
        jitter_u = None
        if self.retry.needs_draws:
            jitter_u = weyl_uniforms(
                self._retry_draw, np.asarray([self._fail_rank], dtype=np.int64)
            )
        self._fail_rank += 1
        delay = int(
            self.retry.delays(np.asarray([tries + 1], dtype=np.int64), jitter_u)[0]
        )
        self.orbit.append((self._round + delay, born, tries + 1))


class _EpochWalk:
    """Schedule probabilities indexed by a per-trial epoch counter."""

    def __init__(self, schedule: BatchSchedule, trials: int) -> None:
        self._cycle = schedule.cycle
        self._probabilities = np.asarray(schedule.probabilities, dtype=float)
        self._epoch_round = np.zeros(trials, dtype=np.int64)

    def probabilities(self) -> np.ndarray:
        length = self._probabilities.size
        # A one-shot schedule that ran out restarts from the top - the
        # scalar oracle's fresh-session-after-ScheduleExhausted path.
        if not self._cycle:
            self._epoch_round[self._epoch_round >= length] = 0
        return self._probabilities[self._epoch_round % length]

    def reset(self, rows: np.ndarray) -> None:
        self._epoch_round[rows] = 0

    def advance(
        self, contended: np.ndarray, codes: np.ndarray, final: bool
    ) -> None:
        self._epoch_round[contended] += 1


class _TrieWalk:
    """History probabilities: per-trial nodes of the shared history DAG
    of :mod:`repro.channel.batch`, memoized per distinct session state
    (or history) across trials, rounds and runs."""

    def __init__(
        self, protocol: UniformProtocol, channel: Channel, trials: int
    ) -> None:
        self._arena = _arena_for_run()
        self._root = self._arena.root_for(protocol, ("open", next(_run_tokens)))
        self._arena.resolve(np.asarray([self._root]))
        if self._arena.exhausted[self._root]:
            raise ProtocolError(
                f"protocol {protocol.name!r} exhausts its schedule before the "
                "first round; it cannot serve an open system"
            )
        self._cd = channel.collision_detection
        self._node = np.full(trials, self._root, dtype=np.int64)

    def probabilities(self) -> np.ndarray:
        arena, node = self._arena, self._node
        arena.resolve(np.unique(node))
        # A history whose one-shot schedule exhausted restarts at the
        # empty history (the scalar oracle's fresh-session path - the root
        # is known good).
        if arena.any_exhausted:
            exhausted = arena.exhausted[node]
            if exhausted.any():
                node[exhausted] = self._root
        return arena.probability[node]

    def reset(self, rows: np.ndarray) -> None:
        self._node[rows] = self._root

    def advance(
        self, contended: np.ndarray, codes: np.ndarray, final: bool
    ) -> None:
        if final or not contended.any():
            return
        if not self._cd:
            observed = np.full(int(contended.sum()), OBS_QUIET, dtype=np.int64)
        else:
            observed = np.where(
                codes[contended] == FB_COLLISION, OBS_COLLISION, OBS_SILENCE
            )
        self._node[contended] = self._arena.descend(
            self._node[contended], observed
        )


def _run_open_vectorized(
    walk: _EpochWalk | _TrieWalk,
    streams: _LaneStreams,
    model: ChannelModel | None,
    rounds: int,
    warmup: int,
    capacity: int,
    timeout: int | None,
    admission: AdmissionPolicy,
    split: _RowSplit,
) -> None:
    """The one vectorized open loop; ``walk`` chooses the probabilities.

    Per round: the lifecycle's orbit release and admission, one band
    compare per trial on its backlog at the walk's probability, the fault
    perturbation, a departure per delivered success (the walk resets to
    a fresh epoch there), one walk step for every other contended trial,
    timeout expiry, and a walk reset wherever the backlog drained.
    """
    lifecycle = _BatchLifecycle(capacity, timeout, warmup, admission, split)
    fault_state = model.batch_state(split.rows) if model is not None else None

    arrival_counts = uniforms = None
    for round_index in range(1, rounds + 1):
        column = (round_index - 1) % _OPEN_BLOCK_ROUNDS
        if column == 0:
            arrival_counts, uniforms = streams.refill(round_index, rounds)
        draws = uniforms[:, column]
        lifecycle.begin_round(
            round_index,
            arrival_counts[:, column],
            draws[:, _U_ADMISSION],
            draws[:, _U_RETRY],
        )
        occupancy = lifecycle.occupancy

        # The closed engines' band compare; its k = 0 case - an idle
        # channel - always hears silence.
        u = draws[:, _U_BAND]
        lo, hi = _band_edges(walk.probabilities(), occupancy.astype(float))
        codes = np.where(
            u < lo, FB_SILENCE, np.where(u < hi, FB_SUCCESS, FB_COLLISION)
        ).astype(np.int64)
        if fault_state is not None:
            codes = fault_state.perturb(round_index, codes, draws[:, _U_FAULT])

        success = (codes == FB_SUCCESS) & (occupancy > 0)
        if success.any():
            rows = np.flatnonzero(success)
            lifecycle.complete(rows, draws[rows, _U_WINNER], round_index)
            walk.reset(rows)
        # Contended non-success rows step their walk (success rows just
        # reset; their occupancy decrement cannot re-satisfy the mask).
        walk.advance(~success & (occupancy > 0), codes, round_index == rounds)

        lifecycle.end_round(round_index)
        walk.reset(lifecycle.occupancy == 0)
    lifecycle.finish()


def _run_open_scalar(
    protocol: UniformProtocol,
    streams: _LaneStreams,
    channel: Channel,
    model: ChannelModel | None,
    rounds: int,
    warmup: int,
    capacity: int,
    timeout: int | None,
    admission: AdmissionPolicy,
    split: _RowSplit,
) -> None:
    """The per-trial reference loop: real sessions, identical streams.

    Probabilities come from live :class:`~repro.core.protocol.
    UniformSession` objects instead of schedule arrays or the memoized
    trie, and each trial's request lifecycle runs on plain Python lists
    (:class:`_ScalarLifecycle`), but the trials step round by round
    through the very :class:`_LaneStreams` blocks the vectorized engines
    draw, so for deterministic protocols the resulting store is
    bit-identical to theirs.
    """
    collision_detection = channel.collision_detection
    trials = split.rows
    lifecycles = [
        _ScalarLifecycle(
            capacity, timeout, warmup, admission, split.retry_of(t),
            split.store_of(t),
        )
        for t in range(trials)
    ]
    fault_states = [
        model.batch_state(1) if model is not None else None
        for _ in range(trials)
    ]
    sessions = [None] * trials
    arrival_counts = uniforms = None
    for round_index in range(1, rounds + 1):
        column = (round_index - 1) % _OPEN_BLOCK_ROUNDS
        if column == 0:
            # Plain nested lists: the per-trial loop indexes them cheaply.
            arrival_counts, uniforms = (
                block.tolist() for block in streams.refill(round_index, rounds)
            )
        for t in range(trials):
            lifecycle = lifecycles[t]
            fault_state = fault_states[t]
            session = sessions[t]
            draws = uniforms[t][column]
            lifecycle.begin_round(
                round_index,
                arrival_counts[t][column],
                draws[_U_ADMISSION],
                draws[_U_RETRY],
            )

            k = len(lifecycle.pending)
            if k == 0:
                code = FB_SILENCE
            else:
                if session is None:
                    session = protocol.session()
                try:
                    p = session.next_probability()
                except ScheduleExhausted:
                    session = protocol.session()
                    try:
                        p = session.next_probability()
                    except ScheduleExhausted:
                        raise ProtocolError(
                            f"protocol {protocol.name!r} exhausts its "
                            "schedule before the first round; it cannot "
                            "serve an open system"
                        ) from None
                u = draws[_U_BAND]
                lo = (1.0 - p) ** k
                hi = lo + k * p * (1.0 - p) ** max(k - 1, 0)
                code = (
                    FB_SILENCE
                    if u < lo
                    else (FB_SUCCESS if u < hi else FB_COLLISION)
                )
            if fault_state is not None:
                code = int(
                    fault_state.perturb(
                        round_index,
                        np.asarray([code], dtype=np.int64),
                        np.asarray([draws[_U_FAULT]]),
                    )[0]
                )

            if code == FB_SUCCESS and k > 0:
                lifecycle.complete(draws[_U_WINNER], round_index)
                session = None
            elif k > 0 and round_index < rounds:
                if not collision_detection:
                    session.observe(Observation.QUIET)
                elif code == FB_COLLISION:
                    session.observe(Observation.COLLISION)
                else:
                    session.observe(Observation.SILENCE)

            lifecycle.end_round(round_index)
            sessions[t] = session if lifecycle.pending else None
    for lifecycle in lifecycles:
        lifecycle.finish()


def run_open(
    protocol: UniformProtocol,
    arrivals: ArrivalProcess | Sequence[OpenMember],
    *,
    channel: Channel,
    trials: int,
    rounds: int,
    warmup: int = 0,
    capacity: int = 256,
    timeout: int | None = None,
    retry: RetryPolicy | None = None,
    admission: AdmissionPolicy | None = None,
    seed: int | None = None,
    trial_offset: int = 0,
    batch: bool | None = None,
) -> OpenRunResult:
    """Serve ``arrivals`` with ``protocol`` on ``trials`` open channels.

    Each trial is one independent channel observed for ``rounds`` rounds:
    requests stream in from its own copy of ``arrivals``, the
    ``admission`` policy (default: the hard ``capacity`` cap only)
    gates entry to the service buffer, an optional ``timeout`` evicts
    requests after that many rounds in the buffer, and the ``retry``
    policy (default: give up, exactly PR 7's drop) decides whether
    refused or evicted requests back off in the orbit and rejoin.
    Completions whose request first arrived after round ``warmup`` are
    recorded in the returned :class:`~repro.opensys.latency.
    LatencyStore` with their full per-request sojourn.

    ``arrivals`` may instead be a sequence of :class:`OpenMember`\\ s:
    one stacked run of several points (see "Stacked rows" above) whose
    result holds one store per member, each bit-identical to the
    member's solo run.  ``trials`` is then the members' total and each
    member brings its own seed and retry policy, so ``seed`` and
    ``retry`` must be left unset; for a single process the seed
    defaults to 2021.

    Two runs with the same ``seed`` and consecutive ``trial_offset``
    windows merge (``store.merge``) to exactly the store of one combined
    run, at any offsets (see "Faithfulness and the stream contract").
    """
    if isinstance(arrivals, ArrivalProcess):
        members = [
            OpenMember(
                arrivals,
                trials,
                2021 if seed is None else seed,
                GiveUpPolicy() if retry is None else retry,
            )
        ]
    else:
        members = list(arrivals)
        if seed is not None:
            raise ValueError(
                "stacked members carry their own seeds; leave seed unset"
            )
        if retry is not None:
            raise ValueError(
                "stacked members carry their own retry policies; leave "
                "retry unset"
            )
        if not members or any(member.trials < 1 for member in members):
            raise ValueError("a stacked run needs members of >= 1 trial each")
        total = sum(member.trials for member in members)
        if trials != total:
            raise ValueError(
                f"trials must equal the members' total {total}, got {trials}"
            )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if not 0 <= warmup < rounds:
        raise ValueError(
            f"warmup must be in [0, rounds), got {warmup} of {rounds}"
        )
    if capacity < 1:
        raise ValueError(
            f"capacity must be >= 1, got {capacity} (a zero-capacity "
            "buffer would silently drop every request)"
        )
    if timeout is not None and timeout < 1:
        raise ValueError(f"timeout must be >= 1 or None, got {timeout}")
    if trial_offset < 0:
        raise ValueError(f"trial_offset must be >= 0, got {trial_offset}")
    admission = admission if admission is not None else HardCapacityPolicy()
    for member in members:
        if not isinstance(member.retry, RetryPolicy):
            raise ValueError(
                f"retry must be a RetryPolicy, got {type(member.retry).__name__}"
            )
    if not isinstance(admission, AdmissionPolicy):
        raise ValueError(
            f"admission must be an AdmissionPolicy, got "
            f"{type(admission).__name__}"
        )
    _check_channel(protocol.requires_collision_detection, channel)
    model = channel.active_model
    engine = select_engine(protocol, batch, model=model, open_system=True)

    streams = _LaneStreams(members, trial_offset)
    split = _RowSplit(members)
    if engine == ENGINE_OPEN_SCALAR:
        _run_open_scalar(
            protocol, streams, channel, model, rounds, warmup, capacity,
            timeout, admission, split,
        )
    else:
        walk = (
            _EpochWalk(protocol.batch_schedule(), split.rows)
            if engine == ENGINE_OPEN_SCHEDULE
            else _TrieWalk(protocol, channel, split.rows)
        )
        _run_open_vectorized(
            walk, streams, model, rounds, warmup, capacity, timeout,
            admission, split,
        )
    for member, store in zip(members, split.stores):
        store.round_slots += member.trials * (rounds - warmup)
    return OpenRunResult(stores=split.stores, engine=engine)
