"""Backend suite: Memory vs SQLite differential, durability, contract.

The two :class:`~repro.dsp.backends.StoreBackend` implementations must
present byte-identical views of the same uploads -- over the docgen
corpus, through the server, and end to end through a pull session --
and the SQLite backend must survive close/reopen (and an unclean
"crash" that never closes) with every document, rule version and
wrapped key intact.
"""

import sqlite3
import threading

import pytest

from repro.community import Community
from repro.crypto.container import seal_document
from repro.crypto.keys import DocumentKeys
from repro.dsp.backends import MemoryBackend, SQLiteBackend
from repro.dsp.store import DSPStore
from repro.errors import PolicyError, UnknownDocument
from repro.skipindex.encoder import IndexMode, encode_document
from repro.workloads.docgen import agenda, bibliography, hospital
from repro.workloads.rulegen import hospital_rules
from repro.xmlstream.tree import tree_to_events

KEYS = DocumentKeys(b"backend-secret!!")


def _container(doc_id="doc", version=1, payload=b"payload" * 30):
    return seal_document(payload, doc_id, version, KEYS, chunk_size=64)


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        backend = MemoryBackend()
    else:
        backend = SQLiteBackend(tmp_path / "dsp.db")
    store = DSPStore(backend)
    yield store
    store.close()


# -- contract (both backends) ------------------------------------------------


def test_roundtrip_document_rules_keys(store):
    container = _container()
    store.put_document(container)
    store.put_rules("doc", [b"r0", b"r1"], 5)
    store.put_wrapped_key("doc", "alice", b"wrapped-a")
    store.put_wrapped_key("doc", "bob", b"wrapped-b")
    stored = store.get("doc")
    assert stored.container.header == container.header
    assert stored.container.chunks == container.chunks
    assert stored.rule_records == [b"r0", b"r1"]
    assert stored.rules_version == 5
    assert stored.wrapped_keys == {"alice": b"wrapped-a", "bob": b"wrapped-b"}
    assert store.document_ids() == ["doc"]
    assert "doc" in store and "nope" not in store


def test_unknown_document_everywhere(store):
    with pytest.raises(UnknownDocument):
        store.get("ghost")
    with pytest.raises(UnknownDocument):
        store.put_rules("ghost", [b"r"], 1)
    with pytest.raises(UnknownDocument):
        store.put_wrapped_key("ghost", "u", b"k")
    with pytest.raises(UnknownDocument):
        store.remove_wrapped_key("ghost", "u")


def test_overwrite_clears_unless_kept(store):
    store.put_document(_container(version=1))
    store.put_rules("doc", [b"r0"], 1)
    store.put_wrapped_key("doc", "u", b"k")
    store.put_document(_container(version=2))
    stored = store.get("doc")
    assert stored.rule_records == [] and stored.rules_version == 0
    assert stored.wrapped_keys == {}
    store.put_rules("doc", [b"r1"], 2)
    store.put_wrapped_key("doc", "u", b"k2")
    store.put_document(_container(version=3), keep_rules=True, keep_keys=True)
    stored = store.get("doc")
    assert stored.rule_records == [b"r1"] and stored.rules_version == 2
    assert stored.wrapped_keys == {"u": b"k2"}
    assert stored.container.header.version == 3


def test_remove_wrapped_key(store):
    store.put_document(_container())
    store.put_wrapped_key("doc", "u", b"k")
    assert store.remove_wrapped_key("doc", "u") is True
    assert store.remove_wrapped_key("doc", "u") is False
    assert store.get("doc").wrapped_keys == {}


# -- differential: byte-identical views over the docgen corpus ---------------

CORPUS = [
    ("hospital", lambda: hospital(n_patients=4)),
    ("bibliography", lambda: bibliography(n_entries=10)),
    ("agenda", lambda: agenda(n_members=3)),
]


def _snapshot(store):
    """Every byte the store serves, as one comparable structure."""
    state = {}
    for doc_id in store.document_ids():
        stored = store.get(doc_id)
        state[doc_id] = (
            stored.container.header,
            stored.container.chunks,
            tuple(stored.rule_records),
            stored.rules_version,
            tuple(sorted(stored.wrapped_keys.items())),
        )
    return state


def _corpus_containers():
    """The docgen corpus, sealed under a fixed key (deterministic bytes)."""
    containers = []
    for name, build in CORPUS:
        events = list(tree_to_events(build()))
        plaintext = encode_document(events, IndexMode.RECURSIVE)
        containers.append(seal_document(plaintext, name, 1, KEYS, chunk_size=64))
    return containers


def _populate(store, containers):
    for container in containers:
        name = container.header.doc_id
        index = [entry[0] for entry in CORPUS].index(name)
        store.put_document(container)
        store.put_rules(name, [b"rule-%d" % index, b"rule-x"], index + 1)
        store.put_wrapped_key(name, "doctor", b"wrap-d-%d" % index)
        store.put_wrapped_key(name, "accountant", b"wrap-a-%d" % index)


def test_backends_byte_identical_over_corpus(tmp_path):
    """The same uploads read back byte-identically from both backends.

    Sealing is keyed deterministically here (the publisher draws a
    random document secret, so two *publishes* never share ciphertext);
    what the backends must agree on is that identical uploads produce
    identical served state.
    """
    containers = _corpus_containers()
    memory = DSPStore(MemoryBackend())
    sqlite_backed = DSPStore(SQLiteBackend(tmp_path / "dsp.db"))
    for store in (memory, sqlite_backed):
        _populate(store, containers)
    assert _snapshot(memory) == _snapshot(sqlite_backed)
    sqlite_backed.close()


@pytest.mark.parametrize("flavor", ["memory", "sqlite"])
def test_corpus_snapshot_independent_of_upload_order(flavor, tmp_path):
    """Served state is a function of the uploads, not of their order:
    two stores of one backend kind, filled with the corpus forwards and
    backwards, serve the same bytes (and neither invents a document)."""
    containers = _corpus_containers()
    if flavor == "memory":
        forwards, backwards = DSPStore(MemoryBackend()), DSPStore(MemoryBackend())
    else:
        forwards = DSPStore(SQLiteBackend(tmp_path / "forwards.db"))
        backwards = DSPStore(SQLiteBackend(tmp_path / "backwards.db"))
    _populate(forwards, containers)
    _populate(backwards, containers[::-1])
    assert _snapshot(backwards) == _snapshot(forwards)
    assert sorted(backwards.document_ids()) == [name for name, _ in sorted(CORPUS)]
    with pytest.raises(UnknownDocument):
        backwards.get("ghost")
    forwards.close()
    backwards.close()


def test_backend_views_byte_identical_end_to_end(tmp_path):
    """A full facade pull returns the same authorized view per backend."""
    events = list(tree_to_events(hospital(n_patients=4)))
    views = {}
    communities = [
        ("memory", Community()),
        ("sqlite", Community(store_path=tmp_path / "dsp.db")),
    ]
    for label, community in communities:
        owner = community.enroll("owner")
        doctor = community.enroll("doctor")
        accountant = community.enroll("accountant")
        document = owner.publish(
            events,
            hospital_rules(),
            to=[doctor, accountant],
            doc_id="hospital",
            chunk_size=64,
        )
        for reader in (doctor, accountant):
            with reader.open(document) as session:
                views[(label, reader.name)] = session.query().text()
        community.close()
    for reader in ("doctor", "accountant"):
        assert views[("memory", reader)] == views[("sqlite", reader)]
        assert views[("memory", reader)]  # non-trivial views


def test_explicit_backend_views_byte_identical_end_to_end(tmp_path):
    """A community handed its backend object (``backend=``) serves the
    same authorized views as the default in-memory community."""
    events = list(tree_to_events(hospital(n_patients=4)))
    views = {}
    communities = [
        ("default", Community()),
        ("memory", Community(backend=MemoryBackend())),
        ("sqlite", Community(backend=SQLiteBackend(tmp_path / "dsp.db"))),
    ]
    for label, community in communities:
        owner = community.enroll("owner")
        doctor = community.enroll("doctor")
        accountant = community.enroll("accountant")
        document = owner.publish(
            events,
            hospital_rules(),
            to=[doctor, accountant],
            doc_id="hospital",
            chunk_size=64,
        )
        for reader in (doctor, accountant):
            with reader.open(document) as session:
                views[(label, reader.name)] = session.query().text()
        community.close()
    for reader in ("doctor", "accountant"):
        assert (
            views[("default", reader)]
            == views[("memory", reader)]
            == views[("sqlite", reader)]
        )
        assert views[("default", reader)]


# -- durability --------------------------------------------------------------


def test_sqlite_close_reopen_roundtrip(tmp_path):
    path = tmp_path / "dsp.db"
    first = DSPStore(SQLiteBackend(path))
    container = _container()
    first.put_document(container)
    first.put_rules("doc", [b"r0", b"r1"], 7)
    first.put_wrapped_key("doc", "alice", b"wrapped")
    expected = _snapshot(first)
    first.close()
    reopened = DSPStore(SQLiteBackend(path))
    assert _snapshot(reopened) == expected
    reopened.close()


def test_sqlite_survives_unclean_shutdown(tmp_path):
    """Every write commits: a second connection sees acknowledged state
    even while the first connection is still open (never closed)."""
    path = tmp_path / "dsp.db"
    crashed = DSPStore(SQLiteBackend(path))  # never .close()d
    crashed.put_document(_container())
    crashed.put_rules("doc", [b"r"], 3)
    crashed.put_wrapped_key("doc", "u", b"k")
    observer = DSPStore(SQLiteBackend(path))
    assert _snapshot(observer) == _snapshot(crashed)
    observer.close()


def test_sqlite_cache_invalidation_on_writes(tmp_path):
    store = DSPStore(SQLiteBackend(tmp_path / "dsp.db"))
    store.put_document(_container(version=1))
    assert store.get("doc").rules_version == 0  # populates the cache
    store.put_rules("doc", [b"r"], 4)
    assert store.get("doc").rules_version == 4
    store.put_wrapped_key("doc", "u", b"k")
    assert store.get("doc").wrapped_keys == {"u": b"k"}
    store.put_document(_container(version=2))
    assert store.get("doc").container.header.version == 2
    store.close()


def test_sqlite_schema_version_gate(tmp_path):
    path = tmp_path / "dsp.db"
    SQLiteBackend(path).close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
        )
    conn.close()
    with pytest.raises(PolicyError):
        SQLiteBackend(path)


# -- concurrency -------------------------------------------------------------


def _writer_payloads(count):
    return {
        f"doc-{n}": seal_document(
            b"payload-%02d" % n * 17, f"doc-{n}", 1, KEYS, chunk_size=32
        )
        for n in range(count)
    }


def _write(store, payloads, doc_ids):
    for doc_id in doc_ids:
        store.put_document(payloads[doc_id])
        store.put_rules(doc_id, [doc_id.encode(), b"r"], 2)
        store.put_wrapped_key(doc_id, "reader", b"w-" + doc_id.encode())


def _write_concurrently(store, payloads, writers=4):
    """``writers`` threads, each writing its stripe of the documents."""
    errors = []

    def writer(doc_ids):
        try:
            _write(store, payloads, doc_ids)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    ids = list(payloads)
    threads = [
        threading.Thread(target=writer, args=(ids[lane::writers],))
        for lane in range(writers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors


def test_concurrent_writers_match_serial_writes(store):
    """Four writers over many documents leave one backend byte-identical
    to the same writes applied serially."""
    payloads = _writer_payloads(16)
    reference = DSPStore(MemoryBackend())
    _write(reference, payloads, list(payloads))
    _write_concurrently(store, payloads)
    assert _snapshot(store) == _snapshot(reference)


def test_sqlite_crash_reopen_under_concurrent_writers(tmp_path):
    """Concurrent writers, then a crash: every acknowledged write
    survives and the snapshot is byte-identical.

    The first crash abandons the open handle without closing it (WAL
    sidecars still on disk) and recovers through a fresh handle; the
    second closes and reopens in place through the chaos helper.
    """
    from repro.chaos import crash_reopen

    path = tmp_path / "dsp.db"
    payloads = _writer_payloads(12)
    reference = DSPStore(MemoryBackend())
    _write(reference, payloads, list(payloads))
    written = DSPStore(SQLiteBackend(path))  # never closed: the crash
    _write_concurrently(written, payloads)
    expected = _snapshot(reference)
    assert _snapshot(written) == expected

    recovered = DSPStore(SQLiteBackend(path))
    assert _snapshot(recovered) == expected
    recovered.backend = crash_reopen(recovered.backend)
    assert _snapshot(recovered) == expected
    recovered.close()


# -- durable community --------------------------------------------------------


def test_community_reopen_view_byte_identical(tmp_path):
    doc_xml = (
        "<notes><work>plan</work><diary>secret</diary></notes>"
    )
    rules = [("+", "bob", "/notes"), ("-", "bob", "//diary")]

    reference = Community()
    alice = reference.enroll("alice")
    bob = reference.enroll("bob")
    ref_doc = alice.publish(doc_xml, rules, to=[bob], doc_id="notes")
    with bob.open(ref_doc) as session:
        reference_view = session.query().text()

    path = tmp_path / "community.db"
    durable = Community(store_path=path)
    alice2 = durable.enroll("alice")
    bob2 = durable.enroll("bob")
    doc = alice2.publish(doc_xml, rules, to=[bob2], doc_id="notes")
    with bob2.open(doc) as session:
        first_view = session.query().text()
    durable.close()

    reopened = Community.open(path)
    assert [m.name for m in reopened.members] == ["alice", "bob"]
    restored = reopened.document("notes")
    assert restored.sealed
    assert restored.owner.name == "alice"
    assert restored.recipients == ["bob"]
    with reopened.member("bob").open(restored) as session:
        reopened_view = session.query().text()
    assert reopened_view == first_view == reference_view
    reopened.close()


def test_reopened_handles_guard_owner_side(tmp_path):
    path = tmp_path / "community.db"
    community = Community(store_path=path)
    alice = community.enroll("alice")
    bob = community.enroll("bob")
    alice.publish("<d><x>1</x></d>", [("+", "bob", "/d")], to=[bob],
                  doc_id="d")
    community.close()
    reopened = Community.open(path)
    restored = reopened.document("d")
    with pytest.raises(PolicyError):
        restored.update_rules([("+", "bob", "//x")])
    with pytest.raises(PolicyError):
        restored.grant("bob")
    # Reader-side operations still work, including key revocation.
    assert restored.revoke("bob") is True
    reopened.close()


def test_community_rejects_conflicting_topology_args(tmp_path):
    with pytest.raises(PolicyError):
        Community(store=DSPStore(), store_path=tmp_path / "x.db")


def test_open_missing_file_raises(tmp_path):
    with pytest.raises(PolicyError):
        Community.open(tmp_path / "never-created.db")


def test_reopen_with_custom_owner_card_config(tmp_path):
    """adopt() must reuse the restored member, not re-enroll defaults."""
    path = tmp_path / "community.db"
    community = Community(store_path=path)
    alice = community.enroll("alice", ram_quota=4096)
    bob = community.enroll("bob")
    alice.publish("<d><x>1</x></d>", [("+", "bob", "/d")], to=[bob],
                  doc_id="d")
    community.close()
    reopened = Community.open(path)  # must not raise config mismatch
    assert reopened.member("alice")._card_config[0] == 4096
    with reopened.member("bob").open("d") as session:
        assert session.query().text()
    reopened.close()
