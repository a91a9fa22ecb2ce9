"""Session/ViewStream teardown after a mid-pull transport failure.

The regression this guards: a pull that dies mid-window used to leave
the abandoned stream generator (and the proxy's pending refetch list)
half-driven, poisoning the *next* pull on the same card.  Now a failed
stream is recorded, closed, and re-raised only to its own consumers;
the next session on the same card delivers the golden view.
"""

import pytest

from repro.chaos import FaultPlan, FaultRule, FaultyClient, InjectedFault
from repro.chaos.scenarios import DOC_ID, build_world, golden_views
from repro.community import Community
from repro.community.session import ViewStream
from repro.errors import TransportError


@pytest.fixture
def faulted_reader():
    """A reader attached through a client that can fail mid-window."""
    serving = build_world()
    plan = FaultPlan(0)
    client = FaultyClient(serving.dsp, plan)
    attached = Community.attach(client)
    attached.enroll("doctor")
    document = attached.adopt(DOC_ID, "owner")
    yield plan, attached, document
    serving.close()


def _arm_mid_window(plan):
    # Chunk fetch op 1: strictly inside the pull, after the header
    # and first window already moved.
    plan.rules = (FaultRule("client.get_chunk*", "fail", at=(1,), limit=1),)


def test_failed_pull_then_clean_pull_same_session(faulted_reader):
    plan, attached, document = faulted_reader
    _arm_mid_window(plan)
    with attached.member("doctor").open(document) as session:
        with pytest.raises(TransportError):
            session.query().text()
        # Same session, same card: the dead stream must not poison us.
        assert session.query().text() == golden_views(1)["doctor"]


def test_failed_pull_then_clean_pull_new_session(faulted_reader):
    plan, attached, document = faulted_reader
    _arm_mid_window(plan)
    member = attached.member("doctor")
    with member.open(document) as session:
        with pytest.raises(TransportError):
            session.query().text()
    # Closing the broken session must neither raise nor park the card.
    with member.open(document) as session:
        assert session.query().text() == golden_views(1)["doctor"]


def test_abandoned_stream_is_closed_not_leaked(faulted_reader):
    plan, attached, document = faulted_reader
    _arm_mid_window(plan)
    member = attached.member("doctor")
    with member.open(document) as session:
        stream = session.query()
        with pytest.raises(TransportError):
            for _ in stream:
                pass
        assert stream.closed
        assert isinstance(stream.error, InjectedFault)
        # Every materializer re-raises the recorded failure: a partial
        # view is never delivered as if it were the document.
        with pytest.raises(TransportError):
            stream.text()
        with pytest.raises(TransportError):
            stream.finish()
    # Fresh pull after the implicit close(): still golden.
    with member.open(document) as session:
        assert session.query().text() == golden_views(1)["doctor"]


def test_abort_is_idempotent_and_silent():
    def gen():
        yield from ()

    stream = ViewStream(gen(), outcome=_outcome())
    stream.abort()
    stream.abort()
    assert stream.closed and stream.error is None


def _outcome():
    from repro.terminal.proxy import QueryOutcome

    return QueryOutcome(xml="")


def test_interrupted_iteration_unwinds_the_generator():
    """abort() runs the generator's finally blocks immediately."""
    unwound = []

    def gen():
        try:
            yield "piece"
            yield "never"
        finally:
            unwound.append(True)

    stream = ViewStream(gen(), outcome=_outcome())
    iterator = iter(stream)
    next(iterator)
    stream.abort()
    assert unwound == [True]
