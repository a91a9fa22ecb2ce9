"""Session-level view-cache tests: hits, parity, and security invariants.

The contract under test, end to end through the community facade:

* a warm query on an unchanged document costs exactly one DSP round
  trip (the ``GET_META`` probe) and zero card time, and delivers bytes
  identical to a fresh pull;
* a republish or rules change is detected by the probe and repulled --
  stale bytes are never served;
* a revoked subject is **never** served from cache: the probe doubles
  as a revocation check and raises ``KeyNotGranted`` even though the
  card still holds its provisioned key (the differential against the
  cache-less path below makes that explicit);
* failed or aborted streams never populate the cache.
"""

import pytest

from repro.chaos.faults import FaultyClient
from repro.chaos.plan import FaultPlan, FaultRule
from repro.community import Community, ViewCache
from repro.core.delivery import ViewMode
from repro.dsp import RemoteDSP
from repro.errors import KeyNotGranted, PolicyError, TransportError
from repro.smartcard.applet import PendingStrategy
from repro.workloads.docgen import hospital
from repro.workloads.rulegen import hospital_rules
from repro.xmlstream.tree import tree_to_events

DOC = (
    "<notes><work>plan<task>ship</task></work>"
    "<diary>secret</diary><admin>keys</admin></notes>"
)
RULES = [("+", "bob", "/notes"), ("-", "bob", "//diary")]


def _world(*, cache=True, xml=DOC, rules=RULES):
    community = Community()
    alice = community.enroll("alice")
    bob = community.enroll("bob")
    document = alice.publish(xml, rules, to=[bob], doc_id="doc")
    if cache:
        community.enable_view_cache()
    return community, bob, document


def _fresh_pull(xml=DOC, rules=RULES, query=None, **kwargs):
    """The same query in a pristine cache-less world: the parity oracle."""
    community, bob, document = _world(cache=False, xml=xml, rules=rules)
    with bob.open(document) as session:
        return session.query(query, **kwargs).text()


# -- warm hits ---------------------------------------------------------------


def test_warm_query_is_one_probe_zero_card_time_same_bytes():
    community, bob, document = _world()
    cache = community.view_cache
    with bob.open(document) as session:
        cold = session.query()
        cold_text = cold.text()
        cold_requests = cold.metrics.dsp_requests
        warm = session.query()
        warm_text = warm.text()
    assert cold_requests > 1
    assert warm.metrics.dsp_requests == 1  # the GET_META probe, nothing else
    assert warm.metrics.bytes_to_card == 0
    assert warm.metrics.card_cycles == 0.0
    assert warm.metrics.cache_hit == 1
    assert warm.metrics.as_dict()["cache_hit"] == 1
    assert warm_text == cold_text == _fresh_pull()
    assert cache.stats.hits == 1 and cache.stats.stores == 1


def test_warm_hit_survives_session_boundaries():
    community, bob, document = _world()
    with bob.open(document) as session:
        first = session.query().text()
    with bob.open(document) as session:
        stream = session.query()
        assert stream.text() == first
        assert stream.metrics.cache_hit == 1


def test_semantic_hit_answers_narrow_query_from_full_view():
    community, bob, document = _world()
    cache = community.view_cache
    with bob.open(document) as session:
        session.query().text()  # populate with the full authorized view
        narrow = session.query("/notes/work")
        text = narrow.text()
    assert narrow.metrics.dsp_requests == 1
    assert narrow.metrics.cache_semantic_hit == 1
    assert narrow.metrics.card_cycles == 0.0
    assert cache.stats.semantic_hits == 1
    # Byte parity: exactly what a fresh card pull of the narrow query
    # delivers in a cache-less world.
    assert text == _fresh_pull(query="/notes/work")
    # The derived answer was promoted: the repeat is an exact hit.
    with bob.open(document) as session:
        repeat = session.query("/notes/work")
        assert repeat.text() == text
        assert repeat.metrics.cache_hit == 1


def test_refetch_and_prune_shapes_cache_but_never_answer_semantically():
    for kwargs in (
        {"strategy": PendingStrategy.REFETCH},
        {"view_mode": ViewMode.PRUNE},
    ):
        community, bob, document = _world()
        cache = community.view_cache
        with bob.open(document) as session:
            session.query(**kwargs).text()
            warm = session.query(**kwargs)
            warm_text = warm.text()
            assert warm.metrics.cache_hit == 1  # exact hits still work
            narrow = session.query("/notes/work", **kwargs)
            narrow_text = narrow.text()
        assert warm_text == _fresh_pull(**kwargs)
        assert narrow.metrics.cache_semantic_hit == 0
        assert cache.stats.semantic_hits == 0
        assert narrow_text == _fresh_pull(query="/notes/work", **kwargs)


def test_byte_parity_over_the_docgen_corpus():
    corpus = list(tree_to_events(hospital(n_patients=3)))
    rules = hospital_rules()
    community = Community()
    owner = community.enroll("owner")
    doctor = community.enroll("doctor")
    document = owner.publish(corpus, rules, to=[doctor], doc_id="ward")
    community.enable_view_cache()
    queries = [None, "/hospital/ward", "//patient/name", "//episode"]
    with doctor.open(document) as session:
        # Pass 1 populates (and, for the narrow queries, may derive
        # from the full view); pass 2 must hit for every query.
        first = {q: session.query(q).text() for q in queries}
        for query in queries:
            stream = session.query(query)
            assert stream.text() == first[query], query
            metrics = stream.metrics
            assert metrics.cache_hit + metrics.cache_semantic_hit == 1, query
            assert metrics.dsp_requests == 1
    # Every cached answer matches a pristine cache-less pull.
    fresh_community = Community()
    fresh_owner = fresh_community.enroll("owner")
    fresh_doctor = fresh_community.enroll("doctor")
    fresh_doc = fresh_owner.publish(
        corpus, rules, to=[fresh_doctor], doc_id="ward"
    )
    with fresh_doctor.open(fresh_doc) as session:
        for query in queries:
            assert session.query(query).text() == first[query], query


# -- staleness ---------------------------------------------------------------


def test_republish_is_detected_and_repulled():
    community, bob, document = _world()
    cache = community.view_cache
    with bob.open(document) as session:
        old = session.query().text()
        community.member("alice").publish(
            "<notes><work>replan</work><admin>rotated</admin></notes>",
            RULES,
            to=[bob],
            doc_id="doc",
        )
        fresh = session.query()
        text = fresh.text()
    assert fresh.metrics.cache_hit == 0
    assert fresh.metrics.dsp_requests > 1
    assert text != old
    assert text == _fresh_pull(
        xml="<notes><work>replan</work><admin>rotated</admin></notes>"
    )
    assert cache.stats.hits == 0


def test_rules_change_is_detected_and_repulled():
    community, bob, document = _world()
    tightened = [("+", "bob", "/notes"), ("-", "bob", "//diary"),
                 ("-", "bob", "//admin")]
    with bob.open(document) as session:
        old = session.query().text()
        document.update_rules(tightened)
        fresh = session.query()
        text = fresh.text()
    assert fresh.metrics.cache_hit == 0
    assert "admin" in old and "admin" not in text
    assert text == _fresh_pull(rules=tightened)


# -- revocation: the differential --------------------------------------------


def test_revoked_subject_is_never_served_from_cache():
    community, bob, document = _world()
    cache = community.view_cache
    with bob.open(document) as session:
        session.query().text()  # warm: the dangerous state
        hits_before = cache.stats.hits
        document.revoke(bob)
        with pytest.raises(KeyNotGranted):
            session.query()
        # Zero serves of any kind after the revocation, and the
        # subject's entries are gone.
        assert cache.stats.hits == hits_before
        assert cache.stats.semantic_hits == 0
        assert cache.stats.revocation_refusals == 1
        assert len(cache) == 0
        # Still refused on retry -- the refusal is not one-shot.
        with pytest.raises(KeyNotGranted):
            session.query("/notes/work")
    assert cache.stats.revocation_refusals == 2


def test_revocation_differential_cache_is_stricter_than_cacheless():
    """The probe turns key revocation into an *immediate* refusal.

    Without the cache, a card that already unlocked the document keeps
    its provisioned key, so a warm session keeps serving -- the
    documented retained-copy behaviour that ``update_rules`` must
    close.  With the cache enabled, the freshness probe notices the
    missing wrapped key on the very next query and refuses, cache or
    no cache.
    """
    plain, plain_bob, plain_doc = _world(cache=False)
    with plain_bob.open(plain_doc) as session:
        session.query().text()
        plain_doc.revoke(plain_bob)
        retained = session.query().text()  # the retained-copy serve
        assert retained  # the cache-less path really does keep serving
    cached, cached_bob, cached_doc = _world(cache=True)
    with cached_bob.open(cached_doc) as session:
        session.query().text()
        cached_doc.revoke(cached_bob)
        with pytest.raises(KeyNotGranted):
            session.query()


def test_grant_after_revoke_recovers_with_a_fresh_pull():
    community, bob, document = _world()
    cache = community.view_cache
    with bob.open(document) as session:
        first = session.query().text()
        document.revoke(bob)
        with pytest.raises(KeyNotGranted):
            session.query()
        document.grant(bob)
        recovered = session.query()
        assert recovered.text() == first
        assert recovered.metrics.cache_hit == 0  # repulled, not replayed
    assert cache.stats.stores == 2


def test_cross_subject_isolation():
    community = Community()
    alice = community.enroll("alice")
    bob = community.enroll("bob")
    carol = community.enroll("carol")
    document = alice.publish(DOC, RULES + [("+", "carol", "/notes/work")],
                             to=[bob, carol], doc_id="doc")
    cache = community.enable_view_cache()
    with bob.open(document) as session:
        session.query().text()
    with carol.open(document) as session:
        stream = session.query()
        text = stream.text()
    # Carol's different policy yields different bytes; bob's cached
    # view must not leak into her session.
    assert stream.metrics.cache_hit == 0
    assert stream.metrics.cache_semantic_hit == 0
    assert text != _fresh_pull()
    assert cache.stats.misses >= 1


# -- population discipline ---------------------------------------------------


def test_failed_stream_never_populates():
    serving, _, _ = _world(cache=False)
    plan = FaultPlan(0)
    client = FaultyClient(serving.dsp, plan)
    attached = Community.attach(client)
    attached.enroll("bob")
    document = attached.adopt("doc", "alice")
    cache = attached.enable_view_cache()
    plan.rules = (FaultRule("client.get_chunk*", "fail", at=(0,), limit=1),)
    with attached.member("bob").open(document) as session:
        with pytest.raises(TransportError):
            session.query().text()
        assert len(cache) == 0 and cache.stats.stores == 0
        # The clean retry populates, and the next query hits.
        assert session.query().text() == _fresh_pull()
        assert cache.stats.stores == 1
        warm = session.query()
        warm.text()
        assert warm.metrics.cache_hit == 1
    serving.close()


def test_aborted_stream_never_populates():
    community, bob, document = _world()
    cache = community.view_cache
    with bob.open(document) as session:
        stream = session.query()
        next(iter(stream))  # consume a piece, then walk away
        stream.abort()
    assert len(cache) == 0 and cache.stats.stores == 0


# -- topologies --------------------------------------------------------------


def test_remote_attached_terminal_caches_through_get_meta():
    serving, _, _ = _world(cache=False)
    server = serving.serve()
    client = RemoteDSP.connect(server.address, timeout=10.0)
    try:
        attached = Community.attach(client)
        attached.enroll("bob")
        document = attached.adopt("doc", "alice")
        cache = attached.enable_view_cache()
        with attached.member("bob").open(document) as session:
            cold_text = session.query().text()
            warm = session.query()
            warm_text = warm.text()
        assert warm.metrics.cache_hit == 1
        assert warm.metrics.dsp_requests == 1
        assert warm_text == cold_text == _fresh_pull()
        assert cache.stats.hits == 1
    finally:
        client.close()
        serving.close()


# -- facade API --------------------------------------------------------------


def test_enable_view_cache_is_idempotent_and_guards_replacement():
    community = Community()
    cache = community.enable_view_cache(max_entries=4)
    assert community.enable_view_cache() is cache
    assert community.enable_view_cache(cache) is cache
    with pytest.raises(PolicyError):
        community.enable_view_cache(ViewCache())


def test_cache_can_be_injected_at_construction():
    cache = ViewCache(max_entries=8)
    community = Community(view_cache=cache)
    assert community.view_cache is cache
    assert community.enable_view_cache() is cache


def test_cache_off_by_default_changes_nothing():
    community, bob, document = _world(cache=False)
    with bob.open(document) as session:
        first = session.query()
        text = first.text()
        second = session.query()
    assert community.view_cache is None
    assert second.metrics.cache_hit == 0
    assert second.metrics.dsp_requests == first.metrics.dsp_requests
    assert second.text() == text
