"""Property tests of the ``UniformSession.state_key`` contract.

The history engine merges two histories into one arena node whenever
their sessions report equal state keys, so the key must be a complete
summary of behaviour: sessions of one protocol with equal keys give the
same probability - or the same ``ScheduleExhausted`` - under every later
observation sequence.  The properties drive random phased searches (and
one-shot searches wrapped in ``RestartProtocol``) along random
observation prefixes and check every pair of equal keys against all
short continuations and the drawn long ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feedback import Observation
from repro.core.protocol import ScheduleExhausted
from repro.protocols.restart import RestartProtocol
from repro.protocols.searching import PhasedSearchProtocol

#: Depth of the exhaustive continuation tree compared per key pair.
TREE_DEPTH = 4

OBSERVATIONS = (Observation.SILENCE, Observation.COLLISION)

observation_paths = st.lists(st.booleans(), max_size=30)


@st.composite
def searches(draw):
    """``(protocol, search)``: a random phased search, or a one-shot one
    wrapped in ``RestartProtocol``, and the phased search itself."""
    phases = draw(
        st.lists(
            st.lists(
                st.integers(min_value=1, max_value=12), max_size=6
            ).map(lambda members: sorted(set(members))),
            min_size=1,
            max_size=3,
        ).filter(any)
    )
    repetitions = draw(st.sampled_from([1, 3, 5]))
    handle_k1 = draw(st.booleans())
    wrapped = draw(st.booleans())
    search = PhasedSearchProtocol(
        phases,
        repetitions=repetitions,
        restart=not wrapped and draw(st.booleans()),
        handle_k1=handle_k1,
    )
    return (RestartProtocol(search) if wrapped else search), search


def _step(session, collided: bool):
    """Play one round on a fork: its probability (or ``None`` on
    exhaustion) and the fork after observing the round."""
    session = session.fork()
    try:
        probability = session.next_probability()
    except ScheduleExhausted:
        return None, None
    session.observe(OBSERVATIONS[collided])
    return probability, session


def _tree(session, depth: int):
    """Responses to every observation sequence of ``depth`` rounds."""
    session = session.fork()
    try:
        probability = session.next_probability()
    except ScheduleExhausted:
        return "exhausted"
    if depth == 0:
        return probability
    children = []
    for observation in OBSERVATIONS:
        child = session.fork()
        child.observe(observation)
        children.append(_tree(child, depth - 1))
    return probability, tuple(children)


def _path(session, collisions) -> list:
    """Responses along one observation sequence, up to exhaustion."""
    responses = []
    for collided in collisions:
        probability, session = _step(session, collided)
        responses.append(probability)
        if session is None:
            break
    return responses


def _keyed_states(protocol, prefixes):
    """``state key -> sessions`` over every point of every prefix (the
    fresh session included), keys taken after each observation."""
    states: dict = {}
    for prefix in prefixes:
        session = protocol.session()
        states.setdefault(session.state_key(), []).append(session)
        for collided in prefix:
            _, session = _step(session, collided)
            if session is None:
                break
            states.setdefault(session.state_key(), []).append(session)
    return states


@given(
    searches(),
    st.lists(observation_paths, min_size=1, max_size=8),
    st.lists(observation_paths, min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_equal_keys_mean_equal_behaviour(drawn, prefixes, continuations):
    protocol, _ = drawn
    states = _keyed_states(protocol, prefixes)
    assert None not in states  # both sessions name their state
    for sessions in states.values():
        first = sessions[0]
        expected_tree = _tree(first, TREE_DEPTH)
        expected_paths = [_path(first, c) for c in continuations]
        for other in sessions[1:]:
            assert _tree(other, TREE_DEPTH) == expected_tree
            assert [_path(other, c) for c in continuations] == expected_paths


@given(searches())
@settings(max_examples=40, deadline=None)
def test_vote_orders_share_a_key(drawn):
    """The key is more than the history: with several votes per probe
    the tally, not the order of the votes, is the state, so the
    histories collision-silence and silence-collision merge."""
    protocol, search = drawn
    if search.repetitions == 1:
        return
    k1_round = [False] if search.handle_k1 else []
    keys = set()
    for votes in ([True, False], [False, True]):
        session = protocol.session()
        for collided in k1_round + votes:
            _, session = _step(session, collided)
        keys.add(session.state_key())
    assert len(keys) == 1
