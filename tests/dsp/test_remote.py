"""The DSP as a network service: socket server + remote clients.

The acceptance bar: a socket-served DSP handles >= 4 concurrently
pulling clients whose authorized views are byte-identical to the
in-process run, typed errors survive the wire, and the server keeps
per-connection accounting.
"""

import threading
import time

import pytest

from repro.community import Community
from repro.dsp import DSPClient, RemoteDSP
from repro.errors import KeyNotGranted, TransportError, UnknownDocument
from repro.terminal.transfer import TransferPolicy
from repro.workloads.docgen import hospital
from repro.workloads.rulegen import hospital_rules
from repro.xmlstream.tree import tree_to_events

DOC_ID = "hospital"
READERS = ("doctor", "accountant")


@pytest.fixture
def published_community():
    community = Community()
    owner = community.enroll("owner")
    readers = [community.enroll(name) for name in READERS]
    events = list(tree_to_events(hospital(n_patients=3)))
    owner.publish(
        events, hospital_rules(), to=readers, doc_id=DOC_ID, chunk_size=64
    )
    return community


def _reference_views(community):
    views = {}
    for name in READERS:
        with community.member(name).open(DOC_ID) as session:
            views[name] = session.query().text()
    return views


def test_local_client_is_transparent(published_community):
    """The in-process server is itself the zero-copy local client."""
    assert isinstance(published_community.dsp, DSPClient)


def test_four_concurrent_clients_byte_identical(published_community):
    reference = _reference_views(published_community)
    server = published_community.serve()
    results = {}
    errors = []

    def pull(slot, reader, transfer):
        try:
            with RemoteDSP.connect(server.address) as client:
                attached = Community.attach(client)
                member = attached.enroll(reader)
                document = attached.adopt(DOC_ID, "owner")
                with member.open(document, transfer=transfer) as session:
                    results[slot] = (reader, session.query().text())
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append((slot, exc))

    threads = [
        threading.Thread(
            target=pull,
            args=(
                slot,
                READERS[slot % len(READERS)],
                TransferPolicy.windowed(4) if slot % 2 else None,
            ),
        )
        for slot in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    assert len(results) == 4
    for reader, view in results.values():
        assert view == reference[reader]
    assert len(server.connections) == 4
    for stats in server.connections:
        assert stats.requests > 0
        assert stats.errors == 0
        assert stats.bytes_in > 0 and stats.bytes_out > 0
    published_community.close()
    assert not server.connections or all(
        not stats.open for stats in server.connections
    )


def test_typed_errors_survive_the_wire(published_community):
    with published_community.serve() as server:
        with RemoteDSP.connect(server.address) as client:
            with pytest.raises(UnknownDocument) as info:
                client.get_header("no-such-doc")
            assert info.value.doc_id == "no-such-doc"
            with pytest.raises(KeyNotGranted) as info:
                client.get_wrapped_key(DOC_ID, "eve")
            assert info.value.subject == "eve"
            with pytest.raises(IndexError):
                client.get_chunk_range(DOC_ID, 9999, 1)
            with pytest.raises(ValueError):
                client.get_chunk_range(DOC_ID, 0, 0)
            # The connection survives every error response.
            assert client.get_header(DOC_ID).doc_id == DOC_ID
        [stats] = server.connections
        assert stats.errors == 4
        assert stats.requests == 5


def test_attached_community_cannot_publish_or_serve(published_community):
    with published_community.serve() as server:
        with RemoteDSP.connect(server.address) as client:
            attached = Community.attach(client)
            member = attached.enroll("doctor")
            from repro.errors import PolicyError

            with pytest.raises(PolicyError):
                member.publish("<d/>", [])
            with pytest.raises(PolicyError):
                attached.serve()


def test_connect_refused_raises_transport_error():
    with pytest.raises(TransportError):
        RemoteDSP.connect(("127.0.0.1", 1), timeout=0.5)


def test_client_close_then_server_survives(published_community):
    reference = _reference_views(published_community)
    with published_community.serve() as server:
        first = RemoteDSP.connect(server.address)
        first.get_header(DOC_ID)
        first.close()
        # A later client still gets full service.
        with RemoteDSP.connect(server.address) as client:
            attached = Community.attach(client)
            member = attached.enroll("doctor")
            document = attached.adopt(DOC_ID, "owner")
            with member.open(document) as session:
                assert session.query().text() == reference["doctor"]


def test_served_durable_store_end_to_end(tmp_path):
    """The full topology: durable store, served, pulled remotely."""
    path = tmp_path / "dsp.db"
    community = Community(store_path=path)
    owner = community.enroll("owner")
    reader = community.enroll("doctor")
    events = list(tree_to_events(hospital(n_patients=2)))
    community_doc = owner.publish(
        events, hospital_rules(), to=[reader], doc_id=DOC_ID, chunk_size=64
    )
    with reader.open(community_doc) as session:
        reference = session.query().text()
    community.close()

    reopened = Community.open(path)
    with reopened.serve() as server:
        with RemoteDSP.connect(server.address) as client:
            attached = Community.attach(client)
            member = attached.enroll("doctor")
            document = attached.adopt(DOC_ID, "owner")
            with member.open(document) as session:
                assert session.query().text() == reference
    reopened.close()


def test_timeout_poisons_the_connection():
    """A stale late response must never answer the next request."""
    import socket as socketlib

    listener = socketlib.create_server(("127.0.0.1", 0))
    address = listener.getsockname()

    client = RemoteDSP.connect((address[0], address[1]), timeout=0.3)
    server_side, _ = listener.accept()
    # Should the timeout stop being enforced, this hang-up ends the
    # wait and the elapsed-time bound below fails the test.
    guard = threading.Timer(5.0, server_side.shutdown, (socketlib.SHUT_RDWR,))
    guard.start()
    started = time.monotonic()
    with pytest.raises(TransportError):
        client.get_chunk("doc", 5)  # server never answers -> timeout
    elapsed = time.monotonic() - started
    guard.cancel()
    assert 0.25 <= elapsed < 2.5
    # The late response for chunk 5 arrives after the timeout...
    from repro.dsp import wire

    stale = wire.frame(wire.encode_response(wire.GetChunk("doc", 5), b"stale"))
    server_side.sendall(stale)
    # ...and the poisoned handle refuses instead of serving chunk 5's
    # bytes as chunk 6.
    with pytest.raises(TransportError, match="unusable"):
        client.get_chunk("doc", 6)
    client.close()
    server_side.close()
    listener.close()


def test_attach_rejects_network_model(published_community):
    from repro.errors import PolicyError
    from repro.smartcard.resources import NetworkModel

    with published_community.serve() as server:
        with RemoteDSP.connect(server.address) as client:
            with pytest.raises(PolicyError):
                Community(client=client, network=NetworkModel())
