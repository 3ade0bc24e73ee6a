"""Collision-detector-driven noisy binary search over size ranges.

The shared engine behind three of the paper's algorithms:

* Willard's classic ``O(log log n)`` search [22] over all of ``L(n)``;
* the Section 2.6 prediction algorithm, which runs the same search within
  successive codeword-length classes;
* the truncated search of Theorem 3.7, which runs it over the advice-
  selected block of ranges.

A probe at range ``m`` transmits with probability ``2^-m``.  If the true
participant count ``k`` lies in a range above ``m`` the probe is likely to
collide (``k * 2^-m > 1``); below, likely silent.  Collision therefore
votes "search higher", silence "search lower" - a *noisy* comparison, so
each probe may be repeated an odd number of times and majority-voted,
exactly the constant-repetition device Willard uses to drive the per-phase
failure probability below a constant.

:class:`PhasedSearchSession` walks a list of *phases*, each a sorted list
of candidate range indices, binary searching each in turn; on exhausting
all phases it either restarts (expected-time variants) or raises
:class:`~repro.core.protocol.ScheduleExhausted` (one-shot variants).
"""

from __future__ import annotations

import copy
from collections.abc import Sequence

from ..core.feedback import Observation
from ..core.protocol import (
    ProtocolError,
    ScheduleExhausted,
    UniformProtocol,
    UniformSession,
)
from ..infotheory.condense import range_probability

__all__ = ["PhasedSearchSession", "PhasedSearchProtocol"]


def _validate_phases(phases: Sequence[Sequence[int]]) -> list[list[int]]:
    cleaned: list[list[int]] = []
    for phase in phases:
        members = list(phase)
        if any(member < 1 for member in members):
            raise ValueError(f"range indices must be >= 1, got {members}")
        if members != sorted(members):
            raise ValueError(f"phase members must be ascending, got {members}")
        if len(set(members)) != len(members):
            raise ValueError(f"phase members must be distinct, got {members}")
        cleaned.append(members)
    if not any(cleaned):
        raise ValueError("at least one phase must be non-empty")
    return cleaned


class PhasedSearchSession(UniformSession):
    """One execution of the phased noisy binary search."""

    def __init__(
        self,
        phases: Sequence[Sequence[int]],
        *,
        repetitions: int,
        restart: bool,
        handle_k1: bool,
    ) -> None:
        self._phases = _validate_phases(phases)
        self._repetitions = repetitions
        self._restart = restart
        self._k1_round_pending = handle_k1
        self._awaiting_k1_observation = False
        self._phase_index = -1
        self._lo = 0
        self._hi = -1
        self._mid: int | None = None
        self._votes_cast = 0
        self._collision_votes = 0
        self._advance_phase()

    # ------------------------------------------------------------------
    def next_probability(self) -> float:
        if self._k1_round_pending:
            self._k1_round_pending = False
            self._awaiting_k1_observation = True
            return 1.0
        if self._lo > self._hi:
            self._advance_phase()
        if self._mid is None:
            self._mid = (self._lo + self._hi) // 2
            self._votes_cast = 0
            self._collision_votes = 0
        return range_probability(self._current_range())

    def observe(self, observation: Observation) -> None:
        if self._awaiting_k1_observation:
            # The dedicated k=1 round carries no search information: with
            # k >= 2 it always collides regardless of the true range.
            self._awaiting_k1_observation = False
            return
        if observation is Observation.QUIET:
            raise ProtocolError(
                "phased search requires collision detection; got a no-CD "
                "observation"
            )
        if observation is Observation.SUCCESS:
            raise ProtocolError("success ends the execution; nothing to observe")
        if self._mid is None:
            raise ProtocolError("observe() called before next_probability()")
        self._votes_cast += 1
        if observation is Observation.COLLISION:
            self._collision_votes += 1
        if self._votes_cast >= self._repetitions:
            # Majority collision => participant count exceeds the probe
            # range => search the upper half; ties break to the lower half.
            if 2 * self._collision_votes > self._repetitions:
                self._lo = self._mid + 1
            else:
                self._hi = self._mid - 1
            self._mid = None

    def state_key(self) -> tuple:
        """Every field that steers later behaviour.

        The phases, repetitions and restart flag are fixed per protocol
        (one history root covers them), so the search position and the
        vote tally are the whole state.
        """
        return (
            self._k1_round_pending,
            self._awaiting_k1_observation,
            self._phase_index,
            self._lo,
            self._hi,
            self._mid,
            self._votes_cast,
            self._collision_votes,
        )

    def fork(self) -> "PhasedSearchSession":
        # Mutable state is all ints/bools; the phase lists are never
        # mutated after validation, so sharing them across forks is safe.
        # The batch history engine forks once per new session state, so
        # this skips copy.copy's reduce protocol entirely.
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone

    # ------------------------------------------------------------------
    @property
    def phase_index(self) -> int:
        """0-based index of the phase currently being searched."""
        return self._phase_index

    def _current_range(self) -> int:
        assert self._mid is not None
        return self._phases[self._phase_index][self._mid]

    def _advance_phase(self) -> None:
        """Move to the next non-empty phase, restarting or exhausting."""
        next_index = self._phase_index + 1
        while next_index < len(self._phases) and not self._phases[next_index]:
            next_index += 1
        if next_index >= len(self._phases):
            if not self._restart:
                raise ScheduleExhausted(
                    "phased search exhausted all phases without success"
                )
            next_index = 0
            while not self._phases[next_index]:
                next_index += 1
        self._phase_index = next_index
        self._lo = 0
        self._hi = len(self._phases[next_index]) - 1
        self._mid = None


class PhasedSearchProtocol(UniformProtocol):
    """Uniform CD protocol running :class:`PhasedSearchSession` executions.

    Parameters
    ----------
    phases:
        Lists of ascending range indices, searched in order.
    repetitions:
        Odd number of probes per comparison (majority vote).  ``1``
        reproduces the bare search; ``3`` (default) gives the constant
        per-comparison error boost the Willard analysis assumes.
    restart:
        Restart from the first phase after exhausting all phases
        (expected-time variant) or stop (one-shot variant).
    handle_k1:
        Prepend one all-transmit round so ``k = 1`` executions solve
        immediately (paper footnote 4).
    """

    requires_collision_detection = True

    def __init__(
        self,
        phases: Sequence[Sequence[int]],
        *,
        repetitions: int = 3,
        restart: bool = True,
        handle_k1: bool = False,
        name: str = "phased-search",
    ) -> None:
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        if repetitions % 2 == 0:
            raise ValueError(
                f"repetitions must be odd for unambiguous majority votes, "
                f"got {repetitions}"
            )
        self.phases = _validate_phases(phases)
        self.repetitions = repetitions
        self.restart = restart
        self.handle_k1 = handle_k1
        self.name = name

    def session(self) -> PhasedSearchSession:
        return PhasedSearchSession(
            self.phases,
            repetitions=self.repetitions,
            restart=self.restart,
            handle_k1=self.handle_k1,
        )

    def history_signature(self) -> tuple:
        """Sessions are a pure function of the constructor arguments.

        Willard, code search and the truncated/advised variants are all
        instances of this one engine, so equal ``(phases, repetitions,
        restart, handle_k1)`` tuples - however the subclass derived them -
        yield interchangeable sessions, and the batch history engine can
        share one memoized trie across such points.
        """
        return (
            "phased-search",
            tuple(tuple(phase) for phase in self.phases),
            self.repetitions,
            self.restart,
            self.handle_k1,
        )

    def worst_case_rounds_per_pass(self) -> int:
        """Upper bound on rounds in one pass through all phases.

        Each phase of ``m`` candidates takes at most
        ``ceil(log2(m + 1)) * repetitions`` probe rounds; the optional k=1
        round adds one more.  Used by tests and the Table 1/2 budget
        checks.
        """
        total = 0
        for phase in self.phases:
            if phase:
                total += max(1, (len(phase)).bit_length()) * self.repetitions
        return total + (1 if self.handle_k1 else 0)
