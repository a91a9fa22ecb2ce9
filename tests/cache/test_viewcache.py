"""Unit tests for the bounded, version-keyed view cache.

Everything here drives :class:`~repro.cache.viewcache.ViewCache`
directly with hand-built entries and probes -- the session integration
(live pulls, real revocations) lives in ``test_session_cache.py``.
"""

import pytest

from repro.cache.viewcache import CacheKey, ViewCache
from repro.dsp.wire import DocMeta


def _key(query=None, *, doc_id="doc-1", subject="bob", strategy="buffer",
         view_mode="skeleton", groups=frozenset()):
    return CacheKey(
        doc_id=doc_id,
        subject=subject,
        query=query,
        strategy=strategy,
        view_mode=view_mode,
        groups=groups,
    )


def _meta(*, doc_version=1, rules_version=1, generation=1, boot="b1",
          has_key=True):
    return DocMeta(
        doc_version=doc_version,
        rules_version=rules_version,
        generation=generation,
        boot=boot,
        has_key=has_key,
    )


def _store(cache, key, xml="<a>x</a>", doc_version=1, rules_version=1):
    entry = cache.record(
        key,
        xml=xml,
        pieces=(("view", xml, 0, None),),
        fragments=(),
        doc_version=doc_version,
        rules_version=rules_version,
    )
    assert entry is not None
    return entry


# -- freshness ---------------------------------------------------------------


def test_exact_hit_via_piecewise_check_then_stamped_fast_path():
    cache = ViewCache()
    key = _key()
    _store(cache, key)
    # A freshly recorded entry is unstamped: the first probe validates
    # piecewise (versions match) and stamps the store generation.
    probe = _meta(generation=7, boot="boot-a")
    found = cache.lookup(key, probe)
    assert found is not None and found[1] is False
    assert found[0].freshness.generation == 7
    assert found[0].freshness.boot == "boot-a"
    # Same stamp, *different* doc version: the fast path answers
    # without ever comparing versions -- a matching (generation, boot)
    # proves nothing at the store changed, including this document.
    assert cache.lookup(key, _meta(doc_version=99, generation=7, boot="boot-a"))
    assert cache.stats.hits == 2


def test_version_bump_drops_the_entry_and_misses():
    cache = ViewCache()
    key = _key()
    _store(cache, key, doc_version=1, rules_version=1)
    assert cache.lookup(key, _meta(doc_version=2)) is None
    assert cache.stats.misses == 1
    assert cache.stats.invalidations == 1
    assert len(cache) == 0 and cache.bytes_used == 0


def test_rules_bump_is_as_fatal_as_a_doc_bump():
    cache = ViewCache()
    key = _key()
    _store(cache, key, doc_version=1, rules_version=1)
    assert cache.lookup(key, _meta(rules_version=2)) is None
    assert cache.entry(key) is None


def test_generation_mismatch_alone_is_not_a_miss():
    # A generation bump caused by *another* document must fall back to
    # the piecewise check and still hit (then re-stamp).
    cache = ViewCache()
    key = _key()
    _store(cache, key)
    assert cache.lookup(key, _meta(generation=3, boot="b"))
    assert cache.lookup(key, _meta(generation=4, boot="b"))
    entry = cache.entry(key)
    assert entry is not None and entry.freshness.generation == 4


def test_boot_nonce_change_invalidates_the_stamp_not_the_entry():
    # A store restart (new boot nonce) resets generations; versions
    # still prove freshness, and the entry re-stamps under the new boot.
    cache = ViewCache()
    key = _key()
    _store(cache, key)
    assert cache.lookup(key, _meta(generation=9, boot="boot-1"))
    assert cache.lookup(key, _meta(generation=1, boot="boot-2"))
    entry = cache.entry(key)
    assert entry is not None and entry.freshness.boot == "boot-2"


def test_lookup_asserts_revoked_probes_are_refused_first():
    cache = ViewCache()
    key = _key()
    _store(cache, key)
    with pytest.raises(AssertionError):
        cache.lookup(key, _meta(has_key=False))


# -- population --------------------------------------------------------------


def test_record_refuses_entries_without_validators():
    cache = ViewCache()
    assert cache.record(
        _key(), xml="<a/>", pieces=(), fragments=(),
        doc_version=None, rules_version=1,
    ) is None
    assert cache.record(
        _key(), xml="<a/>", pieces=(), fragments=(),
        doc_version=1, rules_version=None,
    ) is None
    assert len(cache) == 0 and cache.stats.stores == 0


def test_replacing_an_entry_does_not_leak_bytes():
    cache = ViewCache()
    key = _key()
    _store(cache, key, xml="<a>one</a>")
    used = cache.bytes_used
    _store(cache, key, xml="<a>two</a>")
    assert len(cache) == 1
    assert cache.bytes_used == used
    assert cache.stats.stores == 2


def test_oversized_entry_is_rejected_not_cached():
    cache = ViewCache(max_bytes=512)
    key = _key()
    cache.record(
        key,
        xml="x" * 4096,
        pieces=(),
        fragments=(),
        doc_version=1,
        rules_version=1,
    )
    assert len(cache) == 0 and cache.bytes_used == 0


# -- bounds ------------------------------------------------------------------


def test_entry_count_bound_evicts_least_recently_used():
    cache = ViewCache(max_entries=2)
    a, b, c = _key("/a"), _key("/b"), _key("/c")
    _store(cache, a)
    _store(cache, b)
    # Touch ``a`` so ``b`` becomes the LRU victim.
    assert cache.lookup(a, _meta())
    _store(cache, c)
    assert cache.entry(a) is not None
    assert cache.entry(b) is None
    assert cache.entry(c) is not None
    assert cache.stats.evictions == 1


def test_byte_budget_evicts_before_count_bound():
    cache = ViewCache(max_entries=100, max_bytes=1200)
    for index in range(4):
        _store(cache, _key(f"/q{index}"), xml=f"<a>{'x' * 200}</a>")
    assert cache.bytes_used <= 1200
    assert len(cache) < 4
    assert cache.stats.evictions >= 1


def test_bounds_must_be_positive():
    with pytest.raises(ValueError):
        ViewCache(max_entries=0)
    with pytest.raises(ValueError):
        ViewCache(max_bytes=0)


# -- invalidation ------------------------------------------------------------


def test_invalidate_subject_is_surgical():
    cache = ViewCache()
    _store(cache, _key("/a", subject="bob"))
    _store(cache, _key("/a", subject="carol"))
    _store(cache, _key("/a", subject="bob", doc_id="doc-2"))
    assert cache.invalidate_subject("doc-1", "bob") == 1
    assert cache.entry(_key("/a", subject="carol")) is not None
    assert cache.entry(_key("/a", subject="bob", doc_id="doc-2")) is not None


def test_invalidate_document_drops_every_subject():
    cache = ViewCache()
    _store(cache, _key("/a", subject="bob"))
    _store(cache, _key("/a", subject="carol"))
    _store(cache, _key("/a", doc_id="doc-2"))
    assert cache.invalidate_document("doc-1") == 2
    assert len(cache) == 1


def test_refuse_revoked_counts_the_refusal():
    cache = ViewCache()
    _store(cache, _key("/a"))
    _store(cache, _key("/b"))
    assert cache.refuse_revoked("doc-1", "bob") == 2
    assert cache.stats.revocation_refusals == 1
    assert cache.stats.invalidations == 2
    assert len(cache) == 0


def test_clear_resets_bytes_and_counts_invalidations():
    cache = ViewCache()
    _store(cache, _key("/a"))
    _store(cache, _key("/b"))
    assert cache.clear() == 2
    assert len(cache) == 0 and cache.bytes_used == 0
    assert cache.stats.invalidations == 2


# -- semantic answering through the cache ------------------------------------

DONOR_XML = "<notes><work>plan<task>ship</task></work><admin>keys</admin></notes>"


def test_semantic_hit_derives_stores_and_promotes():
    cache = ViewCache()
    donor = _key(None)  # the full authorized view
    _store(cache, donor, xml=DONOR_XML)
    narrow = _key("/notes/work")
    probe = _meta(generation=5, boot="b5")
    found = cache.lookup(narrow, probe)
    assert found is not None
    entry, derived = found
    assert derived is True
    assert entry.xml == "<notes><work>plan<task>ship</task></work></notes>"
    assert cache.stats.semantic_hits == 1
    # The derived entry was stored first-class (and pre-stamped with
    # the probe), so the identical query next time is an *exact* hit.
    again = cache.lookup(narrow, probe)
    assert again is not None and again[1] is False
    assert cache.stats.hits == 1


def test_semantic_answer_never_crosses_subjects_or_documents():
    cache = ViewCache()
    _store(cache, _key(None, subject="bob"), xml=DONOR_XML)
    assert cache.lookup(_key("/notes/work", subject="carol"), _meta()) is None
    assert (
        cache.lookup(_key("/notes/work", doc_id="doc-2"), _meta()) is None
    )


def test_semantic_answer_refused_for_refetch_and_prune_shapes():
    cache = ViewCache()
    for strategy, view_mode in (
        ("refetch", "skeleton"),
        ("buffer", "prune"),
    ):
        donor = _key(None, strategy=strategy, view_mode=view_mode)
        _store(cache, donor, xml=DONOR_XML)
        narrow = _key("/notes/work", strategy=strategy, view_mode=view_mode)
        assert cache.lookup(narrow, _meta()) is None


def test_semantic_answer_refused_for_predicate_queries():
    cache = ViewCache()
    _store(cache, _key(None), xml=DONOR_XML)
    assert cache.lookup(_key('/notes/work[task = "x"]'), _meta()) is None


def test_stale_donor_is_dropped_not_answered_from():
    cache = ViewCache()
    _store(cache, _key(None), xml=DONOR_XML, doc_version=1)
    assert cache.lookup(_key("/notes/work"), _meta(doc_version=2)) is None
    assert len(cache) == 0  # the probe proved the donor outdated
    assert cache.stats.invalidations == 1


# -- stats -------------------------------------------------------------------


def test_stats_as_dict_carries_every_counter():
    cache = ViewCache()
    _store(cache, _key())
    cache.lookup(_key(), _meta())
    stats = cache.stats.as_dict()
    assert stats["hits"] == 1 and stats["stores"] == 1
    assert set(stats) == {
        "hits", "semantic_hits", "misses", "probes", "invalidations",
        "evictions", "revocation_refusals", "stores",
    }
