"""Each injection wrapper, exercised directly at its seam."""

import socket

import pytest

from repro.chaos import (
    FaultPlan,
    FaultRule,
    FaultyBackend,
    FaultyCard,
    FaultyClient,
    FaultySocket,
    InjectedFault,
    crash_reopen,
)
from repro.crypto.container import seal_document
from repro.crypto.keys import DocumentKeys
from repro.dsp.backends import MemoryBackend, SQLiteBackend
from repro.dsp.server import DSPServer
from repro.dsp.store import DSPStore
from repro.errors import PolicyError, TransportError
from repro.smartcard.apdu import CommandAPDU, Instruction, StatusWord
from repro.smartcard.card import SmartCard

KEYS = DocumentKeys(b"chaos-unit-key!!")


def _container(version=1, payload=b"chaos-payload" * 13):
    return seal_document(payload, "doc", version, KEYS, chunk_size=32)


# -- FaultyBackend -----------------------------------------------------------


def test_backend_fail_is_injected_transport_error():
    plan = FaultPlan(0, (FaultRule("backend.get", "fail", at=(0,)),))
    backend = FaultyBackend(MemoryBackend(), plan)
    backend.put_document(_container())
    with pytest.raises(InjectedFault):
        backend.get("doc")
    assert isinstance(plan.fired[0].kind, str)
    # InjectedFault stays inside the taxonomy contract.
    assert issubclass(InjectedFault, TransportError)
    assert backend.get("doc").container.header.version == 1


def test_backend_stale_serves_the_previous_snapshot():
    plan = FaultPlan(0)
    backend = FaultyBackend(MemoryBackend(), plan)
    backend.put_document(_container(version=1))
    assert backend.get("doc").container.header.version == 1  # seeds it
    backend.put_document(_container(version=2), keep_keys=True)
    plan.rules = (FaultRule("backend.get", "stale", probability=1.0),)
    assert backend.get("doc").container.header.version == 1
    plan.rules = ()
    assert backend.get("doc").container.header.version == 2


def test_backend_stale_without_history_reads_through():
    plan = FaultPlan(
        0, (FaultRule("backend.get", "stale", probability=1.0),)
    )
    backend = FaultyBackend(MemoryBackend(), plan)
    backend.put_document(_container())
    assert backend.get("doc").container.header.version == 1


def test_backend_torn_write_damages_then_raises():
    plan = FaultPlan(0)
    backend = FaultyBackend(MemoryBackend(), plan)
    backend.put_document(_container(version=1))
    backend.put_rules("doc", [b"rule-1"], 1)
    backend.put_wrapped_key("doc", "doctor", b"wrap")
    # The clean v1 write above consumed op 0 at this site.
    plan.rules = (FaultRule("backend.put_document", "torn", at=(1,)),)
    clean = _container(version=2)
    with pytest.raises(InjectedFault):
        backend.put_document(clean)
    stored = backend.get("doc")
    # The damaged v2 container landed: same chunk count, torn tail.
    assert stored.container.header.version == 2
    assert len(stored.container.chunks) == len(clean.chunks)
    assert len(stored.container.chunks[-1]) < len(clean.chunks[-1])
    # ...and the half-applied write left old rules and grants behind.
    assert stored.rule_records == [b"rule-1"]
    assert stored.wrapped_keys == {"doctor": b"wrap"}


def test_backend_mutation_failures_leave_state_untouched():
    plan = FaultPlan(
        0,
        (
            FaultRule("backend.put_rules", "fail", at=(0,)),
            FaultRule("backend.put_wrapped_key", "fail", at=(0,)),
            FaultRule("backend.remove_wrapped_key", "fail", at=(0,)),
        ),
    )
    backend = FaultyBackend(MemoryBackend(), plan)
    backend.put_document(_container())
    for call in (
        lambda: backend.put_rules("doc", [b"r"], 1),
        lambda: backend.put_wrapped_key("doc", "doctor", b"w"),
        lambda: backend.remove_wrapped_key("doc", "doctor"),
    ):
        with pytest.raises(InjectedFault):
            call()
    stored = backend.get("doc")
    assert stored.rule_records == [] and stored.wrapped_keys == {}


def test_crash_reopen_sqlite(tmp_path):
    sqlite = SQLiteBackend(tmp_path / "solo.db")
    sqlite.put_document(_container())
    reopened = crash_reopen(sqlite)
    assert reopened is not sqlite
    assert reopened.get("doc").container.header.version == 1
    reopened.close()


def test_crash_reopen_refuses_volatile_backends():
    with pytest.raises(PolicyError):
        crash_reopen(MemoryBackend())


def test_faulty_backend_crashes_in_place(tmp_path):
    plan = FaultPlan(0)
    wrapper = FaultyBackend(SQLiteBackend(tmp_path / "dsp.db"), plan)
    wrapper.put_document(_container())
    assert crash_reopen(wrapper) is wrapper  # identity preserved
    assert wrapper.get("doc").container.header.version == 1
    wrapper.close()


# -- FaultyClient ------------------------------------------------------------


def _local_client(plan, **kwargs):
    store = DSPStore()
    store.put_document(_container())
    store.put_rules("doc", [b"r"], 1)
    store.put_wrapped_key("doc", "doctor", b"wrap")
    server = DSPServer(store)
    return FaultyClient(server, plan, **kwargs)


def test_client_fail_raises_before_the_request_leaves():
    plan = FaultPlan(0, (FaultRule("client.get_chunk", "fail", at=(1,)),))
    client = _local_client(plan)
    assert client.get_chunk("doc", 0)  # op 0 passes
    with pytest.raises(InjectedFault):
        client.get_chunk("doc", 1)
    assert client.get_chunk("doc", 1)  # next op is clean again


def test_client_before_hook_sees_site_and_index():
    seen = []
    plan = FaultPlan(0)
    client = _local_client(plan, before=lambda site, index: seen.append((site, index)))
    client.get_header("doc")
    client.get_chunk("doc", 0)
    client.get_chunk("doc", 1)
    assert seen == [
        ("client.get_header", 0),
        ("client.get_chunk", 0),
        ("client.get_chunk", 1),
    ]


def test_client_delegates_every_request_type():
    plan = FaultPlan(0)
    client = _local_client(plan)
    assert client.get_header("doc").doc_id == "doc"
    assert client.get_chunk_range("doc", 0, 2)
    assert client.get_rules("doc") == (1, [b"r"])
    assert client.get_wrapped_key("doc", "doctor") == b"wrap"
    assert client.clock is client.inner.clock


# -- FaultySocket ------------------------------------------------------------


def _pair():
    left, right = socket.socketpair()
    left.settimeout(5)
    right.settimeout(5)
    return left, right


def test_socket_corrupt_flips_one_byte():
    left, right = _pair()
    plan = FaultPlan(
        0, (FaultRule("socket.recv", "corrupt", at=(0,), arg=2),)
    )
    faulty = FaultySocket(left, plan)
    right.sendall(b"abcdef")
    assert faulty.recv(6) == b"ab" + bytes([ord("c") ^ 0xFF]) + b"def"
    right.sendall(b"abcdef")
    assert faulty.recv(6) == b"abcdef"  # one-shot
    faulty.close()
    right.close()


def test_socket_truncate_delivers_half_then_eof_forever():
    left, right = _pair()
    plan = FaultPlan(0, (FaultRule("socket.recv", "truncate", at=(0,)),))
    faulty = FaultySocket(left, plan)
    right.sendall(b"0123456789")
    assert faulty.recv(10) == b"01234"
    assert faulty.recv(10) == b""
    assert faulty.recv(10) == b""
    right.close()


def test_socket_disconnect_and_stall():
    left, right = _pair()
    plan = FaultPlan(
        0,
        (
            FaultRule("socket.recv", "stall", at=(0,)),
            FaultRule("socket.recv", "disconnect", at=(1,)),
        ),
    )
    faulty = FaultySocket(left, plan)
    right.sendall(b"data")
    with pytest.raises(TimeoutError):
        faulty.recv(4)
    assert faulty.recv(4) == b""  # injected EOF; socket is dead
    right.close()


def test_socket_send_disconnect_resets():
    left, right = _pair()
    plan = FaultPlan(0, (FaultRule("socket.send", "disconnect", at=(0,)),))
    faulty = FaultySocket(left, plan)
    with pytest.raises(ConnectionResetError):
        faulty.sendall(b"request")
    right.close()


# -- FaultyCard --------------------------------------------------------------


def test_card_injects_status_words_and_delegates():
    plan = FaultPlan(
        0,
        (
            FaultRule("card.process", "exhaust", at=(1,)),
            FaultRule("card.process", "tamper", at=(2,)),
        ),
    )
    card = FaultyCard(SmartCard(), plan)
    select = CommandAPDU(ins=Instruction.SELECT)  # op 0 passes through
    assert card.process(select).sw == StatusWord.OK
    assert card.process(select).sw == StatusWord.MEMORY_FAILURE
    assert card.process(select).sw == StatusWord.SECURITY_STATUS_NOT_SATISFIED
    assert card.process(select).sw == StatusWord.OK
    # Non-process attributes delegate to the real card.
    assert card.soe is card.inner.soe
