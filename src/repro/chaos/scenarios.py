"""Hostile-world scenarios: faults composed with live workloads.

Each scenario builds a small community (the docgen hospital corpus),
arms a :class:`~repro.chaos.plan.FaultPlan`, runs a real workload
through the faulted seam and checks the chaos invariant:

* every injected failure surfaces as the documented
  :mod:`repro.errors` type -- never a bare ``OSError``, never a hang;
* any view that *is* delivered is byte-identical to the fault-free
  golden (for races spanning a republish: to one coherent version's
  golden, never a splice);
* the system recovers -- a clean operation after the faulted one
  succeeds and is golden again.

:func:`run_matrix` executes the full (scenario x fault x seed) grid
with a per-cell deadline enforced by a watchdog: a hung cell is a
*failed* cell, not a hung suite.  ``examples/chaos_demo.py`` narrates
a run; ``tests/chaos/test_matrix.py`` gates it.
"""

from __future__ import annotations

import struct
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.chaos.faults import (
    FaultyBackend,
    FaultyCard,
    FaultyClient,
    FaultySocket,
    crash_reopen,
)
from repro.chaos.plan import FaultPlan, FaultRule
from repro.community import Community, TierSpec
from repro.crypto.container import DocumentContainer
from repro.crypto.groupkey import wrap_call_count
from repro.dsp import RemoteDSP
from repro.dsp.backends import MemoryBackend, SQLiteBackend
from repro.dsp.reactor import AdmissionPolicy
from repro.dsp.remote import GenerationChanged, RetryPolicy
from repro.errors import (
    KeyNotGranted,
    ReproError,
    ResourceExhausted,
    TamperDetected,
    TransportError,
)
from repro.workloads.docgen import hospital
from repro.workloads.rulegen import hospital_rules
from repro.xmlstream.tree import tree_to_events

__all__ = [
    "DOC_ID",
    "READERS",
    "Scenario",
    "ScenarioResult",
    "SCENARIOS",
    "build_world",
    "golden_views",
    "run_cell",
    "run_matrix",
]

DOC_ID = "ward"
READERS = ("doctor", "accountant")
_CHUNK_SIZE = 64
_PATIENTS = 2


# -- worlds and goldens ----------------------------------------------------


def _events(version: int) -> list:
    """The corpus for document version 1 (original) or 2 (republish)."""
    return list(tree_to_events(hospital(n_patients=_PATIENTS + version - 1)))


def build_world(*, backend: object | None = None) -> Community:
    """A fresh community with the hospital document published."""
    community = Community(backend=backend)  # type: ignore[arg-type]
    owner = community.enroll("owner")
    readers = [community.enroll(name) for name in READERS]
    owner.publish(
        _events(1),
        hospital_rules(),
        to=readers,
        doc_id=DOC_ID,
        chunk_size=_CHUNK_SIZE,
    )
    return community


def _republish(community: Community) -> None:
    """Version 2 of the document under the same id (and secret)."""
    community.member("owner").publish(
        _events(2),
        hospital_rules(),
        to=list(READERS),
        doc_id=DOC_ID,
        chunk_size=_CHUNK_SIZE,
    )


def _pull(community: Community, reader: str) -> str:
    with community.member(reader).open(DOC_ID) as session:
        return session.query().text()


_GOLDEN: dict[int, dict[str, str]] = {}
_GOLDEN_LOCK = threading.Lock()


def golden_views(version: int = 1) -> dict[str, str]:
    """Fault-free reference views, per reader, for a document version.

    Computed once in a pristine world and cached -- every scenario's
    delivered-view check compares against these bytes.
    """
    with _GOLDEN_LOCK:
        cached = _GOLDEN.get(version)
        if cached is not None:
            return cached
        community = build_world()
        if version == 2:
            _republish(community)
        views = {name: _pull(community, name) for name in READERS}
        community.close()
        _GOLDEN[version] = views
        return views


def _container_bytes(container: DocumentContainer) -> bytes:
    """A canonical byte serialization for snapshot comparison."""
    header = container.header
    blob = struct.pack(
        ">QIIQI",
        header.version,
        header.chunk_size,
        header.chunk_count,
        header.total_length,
        header.tag_length,
    )
    parts = [header.doc_id.encode("utf-8"), blob, header.tag]
    parts.extend(container.chunks)
    return b"\x00".join(parts)


# -- results ---------------------------------------------------------------


@dataclass(slots=True)
class ScenarioResult:
    """One matrix cell's verdict."""

    scenario: str
    fault: str
    seed: int
    ok: bool
    delivered: bool = False
    matched_golden: bool = False
    error: str | None = None
    detail: str = ""
    duration: float = 0.0
    fault_log: str = ""

    def __str__(self) -> str:
        verdict = "ok " if self.ok else "FAIL"
        outcome = self.error if self.error is not None else (
            "golden view" if self.matched_golden else "no view"
        )
        tail = f" -- {self.detail}" if self.detail else ""
        return (
            f"[{verdict}] {self.scenario} x {self.fault} (seed {self.seed}): "
            f"{outcome} in {self.duration:.2f}s{tail}"
        )


def _expect_error(
    result: ScenarioResult,
    exc: ReproError,
    allowed: tuple[type[BaseException], ...],
) -> bool:
    result.error = type(exc).__name__
    if isinstance(exc, allowed):
        return True
    result.detail = (
        f"raised {type(exc).__name__}, expected one of "
        f"{', '.join(t.__name__ for t in allowed)}"
    )
    return False


# -- scenarios -------------------------------------------------------------


def _scenario_backend_pull(seed: int, fault: str) -> ScenarioResult:
    """Disk faults under a pull: fail-stop, stale replay, torn write."""
    result = ScenarioResult("backend-pull", fault, seed, ok=False)
    plan = FaultPlan(seed)
    backend = FaultyBackend(MemoryBackend(), plan)
    community = build_world(backend=backend)
    golden = golden_views(1)
    try:
        if fault == "none":
            view = _pull(community, "doctor")
            result.delivered = True
            result.matched_golden = view == golden["doctor"]
            result.ok = result.matched_golden
        elif fault == "fail":
            plan.rules = (FaultRule("backend.get", "fail", at=(3,), limit=1),)
            try:
                _pull(community, "doctor")
                result.detail = "injected backend failure never surfaced"
            except ReproError as exc:
                if _expect_error(result, exc, (TransportError,)):
                    # Recovery: the very next pull must be clean gold.
                    view = _pull(community, "doctor")
                    result.delivered = True
                    result.matched_golden = view == golden["doctor"]
                    result.ok = result.matched_golden
                    if not result.ok:
                        result.detail = "post-failure pull was not golden"
        elif fault == "stale":
            _pull(community, "doctor")  # seed the stale snapshot (v1)
            _republish(community)  # the store now holds v2
            plan.rules = (FaultRule("backend.get", "stale", probability=1.0),)
            view = _pull(community, "doctor")
            result.delivered = True
            # A consistently-stale store may replay an old version, but
            # the delivered view must be *that* version's golden bytes.
            result.matched_golden = view == golden["doctor"]
            result.ok = result.matched_golden
            if not result.ok:
                result.detail = "stale replay delivered a non-golden view"
        elif fault == "torn":
            plan.rules = (
                FaultRule("backend.put_document", "torn", at=(1,), limit=1),
            )
            try:
                _republish(community)
                result.detail = "torn write was acknowledged as a success"
                return result
            except ReproError as exc:
                if not _expect_error(result, exc, (TransportError,)):
                    return result
            try:
                _pull(community, "doctor")
                result.detail = "a view was assembled from a torn document"
            except ReproError as exc:
                result.ok = _expect_error(
                    result, exc, (TamperDetected, TransportError)
                )
        else:
            result.detail = f"unknown fault {fault!r}"
    finally:
        result.fault_log = plan.describe()
        community.close()
    return result


def _scenario_client_pull(seed: int, fault: str) -> ScenarioResult:
    """Terminal-side transport faults on the DSPClient seam."""
    result = ScenarioResult("client-pull", fault, seed, ok=False)
    plan = FaultPlan(seed)
    serving = build_world()
    golden = golden_views(1)
    client = FaultyClient(serving.dsp, plan)
    attached = Community.attach(client)
    attached.enroll("doctor")
    document = attached.adopt(DOC_ID, "owner")
    try:
        if fault == "fail":
            plan.rules = (
                FaultRule("client.get_chunk*", "fail", at=(1,), limit=1),
            )
            with attached.member("doctor").open(document) as session:
                try:
                    session.query().text()
                    result.detail = "injected transport failure never surfaced"
                    return result
                except ReproError as exc:
                    if not _expect_error(result, exc, (TransportError,)):
                        return result
                # Same session, same card: the failed stream must not
                # poison the next pull.
                view = session.query().text()
        else:
            with attached.member("doctor").open(document) as session:
                view = session.query().text()
        result.delivered = True
        result.matched_golden = view == golden["doctor"]
        result.ok = result.matched_golden
        if not result.ok:
            result.detail = "delivered view differs from the golden"
    finally:
        result.fault_log = plan.describe()
        serving.close()
    return result


def _scenario_card(seed: int, fault: str) -> ScenarioResult:
    """Card-boundary faults mid-batch: exhaustion and tamper words."""
    result = ScenarioResult("card", fault, seed, ok=False)
    plan = FaultPlan(seed)
    community = build_world()
    golden = golden_views(1)
    member = community.member("doctor")
    member.proxy.card = FaultyCard(member.card, plan)  # type: ignore[assignment]
    expected: dict[str, tuple[type[BaseException], ...]] = {
        "exhaust": (ResourceExhausted,),
        "tamper": (TamperDetected,),
    }
    try:
        if fault == "none":
            view = _pull(community, "doctor")
            result.delivered = True
            result.matched_golden = view == golden["doctor"]
            result.ok = result.matched_golden
        else:
            plan.rules = (
                FaultRule("card.process", fault, at=(15,), limit=1),
            )
            try:
                _pull(community, "doctor")
                result.detail = "card fault never surfaced"
                return result
            except ReproError as exc:
                if not _expect_error(result, exc, expected[fault]):
                    return result
            view = _pull(community, "doctor")
            result.delivered = True
            result.matched_golden = view == golden["doctor"]
            result.ok = result.matched_golden
            if not result.ok:
                result.detail = "post-fault pull on the same card not golden"
    finally:
        result.fault_log = plan.describe()
        community.close()
    return result


def _scenario_remote_heal(seed: int, fault: str) -> ScenarioResult:
    """Self-healing RemoteDSP: one transport fault, retried to golden."""
    result = ScenarioResult("remote-heal", fault, seed, ok=False)
    plan = FaultPlan(seed)
    if fault != "none":
        plan.rules = (
            FaultRule("socket.recv", fault, at=(4,), limit=1, arg=0),
        )
    serving = build_world()
    golden = golden_views(1)
    server = serving.serve()
    client = RemoteDSP.connect(
        server.address,
        timeout=5.0,
        retry=RetryPolicy(attempts=6, backoff=0.01, deadline=30.0, seed=seed),
        socket_wrapper=lambda sock: FaultySocket(sock, plan),
    )
    try:
        attached = Community.attach(client)
        attached.enroll("doctor")
        document = attached.adopt(DOC_ID, "owner")
        with attached.member("doctor").open(document) as session:
            view = session.query().text()
        result.delivered = True
        result.matched_golden = view == golden["doctor"]
        healed = fault == "none" or client.reconnects >= 1
        result.ok = result.matched_golden and healed
        if not result.matched_golden:
            result.detail = "healed pull delivered a non-golden view"
        elif not healed:
            result.detail = "fault never fired: the cell proved nothing"
    finally:
        result.fault_log = plan.describe()
        client.close()
        serving.close()
    return result


def _scenario_revocation_storm(seed: int, fault: str) -> ScenarioResult:
    """Revocation storm between carousel cycles, with card faults riding."""
    result = ScenarioResult("revocation-storm", fault, seed, ok=False)
    plan = FaultPlan(seed)
    community = build_world()
    expected: dict[str, tuple[type[BaseException], ...]] = {
        "exhaust": (ResourceExhausted,),
        "tamper": (TamperDetected,),
    }
    try:
        if fault != "none":
            victim = community.member("accountant")
            victim.proxy.card = FaultyCard(  # type: ignore[assignment]
                victim.card, plan
            )
            plan.rules = (
                FaultRule("card.process", fault, at=(10,), limit=1),
            )
        channel = community.channel(DOC_ID)
        doctor = channel.subscribe("doctor")
        accountant = channel.subscribe("accountant")
        preview = channel.preview()
        channel.broadcast(1)
        document = community.document(DOC_ID)
        # The storm: key-level revocation plus a rules re-seal, both
        # landing between carousel cycles.
        removed = document.revoke("accountant")
        document.update_rules(hospital_rules())
        channel.broadcast(1)
        if not doctor.ok or doctor.view != preview["doctor"]:
            result.detail = "the storm disturbed an unrevoked subscriber"
            return result
        result.delivered = True
        result.matched_golden = True
        if fault == "none":
            result.ok = (
                removed
                and accountant.ok
                and accountant.view == preview["accountant"]
            )
            if not result.ok:
                result.detail = (
                    "pre-revocation cycle did not deliver the full view"
                )
        else:
            try:
                accountant.require_ok()
                result.detail = "card fault never surfaced on the victim"
            except ReproError as exc:
                result.ok = _expect_error(result, exc, expected[fault])
    finally:
        result.fault_log = plan.describe()
        community.close()
    return result


def _scenario_feed_revoke(seed: int, fault: str) -> ScenarioResult:
    """Tier revocation mid-carousel on a feed, with a faulted victim.

    The invariant: the revoked member sees only ``KeyNotGranted`` (or
    the injected ``TamperDetected``), every surviving member of the
    tier -- and of the *other* tier -- stays byte-identical to the
    fault-free golden, the revocation itself performs exactly one
    re-wrap, and a fresh member joining after the storm gets golden
    bytes on the next cycle.
    """
    result = ScenarioResult("feed-revoke", fault, seed, ok=False)
    plan = FaultPlan(seed)
    community = Community()
    owner = community.enroll("owner")
    for name in ("doctor", "accountant", "auditor"):
        community.enroll(name, strict_memory=False)
    feed = community.feed(
        "bulletins",
        owner=owner,
        tiers=[
            TierSpec("staff", allow=("/report",), drop=("secret",)),
            TierSpec("board", allow=("/report",)),
        ],
    )
    feed.publish(
        "<report><summary>rounds</summary>"
        "<body>shift notes<secret>salaries</secret></body></report>",
        doc_id="flash",
        chunk_size=_CHUNK_SIZE,
    )
    try:
        if fault != "none":
            victim = community.member("accountant")
            victim.proxy.card = FaultyCard(  # type: ignore[assignment]
                victim.card, plan
            )
            plan.rules = (
                FaultRule("card.process", fault, at=(10,), limit=1),
            )
        doctor = feed.subscribe("doctor", "staff")
        accountant = feed.subscribe("accountant", "staff")
        auditor = feed.subscribe("auditor", "board")
        golden = feed.preview()
        feed.broadcast(1)
        wraps_before = wrap_call_count()
        feed.revoke("accountant")  # the storm, between carousel cycles
        rewraps = wrap_call_count() - wraps_before
        feed.broadcast(1)
        if rewraps != 1:
            result.detail = f"revocation performed {rewraps} wraps, not 1"
            return result
        if not doctor.ok or doctor.view != golden["staff"]:
            result.detail = "the revocation disturbed a same-tier survivor"
            return result
        if not auditor.ok or auditor.view != golden["board"]:
            result.detail = "the revocation disturbed the other tier"
            return result
        # Recovery: a fresh joiner after the storm gets golden bytes.
        community.enroll("fresh", strict_memory=False)
        fresh = feed.subscribe("fresh", "staff")
        feed.broadcast(1)
        if not fresh.ok or fresh.view != golden["staff"]:
            result.detail = "a post-storm joiner did not get golden bytes"
            return result
        result.delivered = True
        result.matched_golden = True
        allowed: tuple[type[BaseException], ...] = (
            (KeyNotGranted, TamperDetected)
            if fault == "tamper"
            else (KeyNotGranted,)
        )
        try:
            accountant.require_ok()
            result.detail = "the revoked member saw no error at all"
        except ReproError as exc:
            result.ok = _expect_error(result, exc, allowed)
    finally:
        result.fault_log = plan.describe()
        community.close()
    return result


def _scenario_republish_race(seed: int, fault: str) -> ScenarioResult:
    """A republish racing an in-flight pull; final view is version 2."""
    result = ScenarioResult("republish-race", fault, seed, ok=False)
    plan = FaultPlan(seed)
    serving = build_world()
    golden_old = golden_views(1)
    golden_new = golden_views(2)
    fired = {"done": False}

    def racer(site: str, index: int) -> None:
        if (
            site.startswith("client.get_chunk")
            and index >= 2
            and not fired["done"]
        ):
            fired["done"] = True
            _republish(serving)

    client = FaultyClient(serving.dsp, plan, before=racer)
    attached = Community.attach(client)
    attached.enroll("doctor")
    document = attached.adopt(DOC_ID, "owner")
    try:
        try:
            view = _pull_attached(attached, document)
            result.delivered = True
            if view not in (golden_old["doctor"], golden_new["doctor"]):
                result.detail = (
                    "the raced pull delivered a splice of two versions"
                )
                return result
            result.matched_golden = True
        except ReproError as exc:
            # The card's chunk MACs bind the version: a splice dies as
            # TamperDetected before any tainted byte is delivered.
            if not _expect_error(result, exc, (TamperDetected, TransportError)):
                return result
        if not fired["done"]:
            result.detail = "the race never fired"
            return result
        final = _pull_attached(attached, document)
        result.ok = final == golden_new["doctor"]
        if not result.ok:
            result.detail = "restarted pull did not deliver version 2"
    finally:
        result.fault_log = plan.describe()
        serving.close()
    return result


def _pull_attached(attached: Community, document: object) -> str:
    with attached.member("doctor").open(document) as session:  # type: ignore[arg-type]
        return session.query().text()


def _scenario_stale_cache(seed: int, fault: str) -> ScenarioResult:
    """A republish racing a *warm* cached query on a reader terminal.

    The terminal's view cache holds version 1; the republish lands
    exactly as the warm query's ``GET_META`` freshness probe leaves.
    The invariant: the raced query must deliver version 2's golden
    bytes (the probe sees the new version, the stale entry is dropped
    and repulled -- never the stale cached view, never a splice), and
    the query after that replays version 2 from cache.
    """
    result = ScenarioResult("stale-cache", fault, seed, ok=False)
    plan = FaultPlan(seed)
    serving = build_world()
    golden_old = golden_views(1)
    golden_new = golden_views(2)
    fired = {"done": False}

    def racer(site: str, index: int) -> None:
        # Probe 0 belongs to the cold, cache-populating pull; the
        # republish lands just before probe 1 -- the warm query.
        if site == "client.get_meta" and index == 1 and not fired["done"]:
            fired["done"] = True
            _republish(serving)

    client = FaultyClient(serving.dsp, plan, before=racer)
    attached = Community.attach(client)
    attached.enroll("doctor")
    document = attached.adopt(DOC_ID, "owner")
    cache = attached.enable_view_cache()
    try:
        cold = _pull_attached(attached, document)
        if cold != golden_old["doctor"]:
            result.detail = "cold pull was not version 1 golden"
            return result
        raced = _pull_attached(attached, document)
        result.delivered = True
        if raced == golden_old["doctor"]:
            result.detail = "the raced warm query served the stale cache"
            return result
        if raced != golden_new["doctor"]:
            result.detail = "the raced warm query delivered a splice"
            return result
        result.matched_golden = True
        if not fired["done"]:
            result.detail = "the race never fired"
            return result
        if cache.stats.invalidations < 1:
            result.detail = "the stale entry was never invalidated"
            return result
        # Recovery: the next query replays version 2 from cache.
        hits_before = cache.stats.hits
        final = _pull_attached(attached, document)
        result.ok = (
            final == golden_new["doctor"]
            and cache.stats.hits == hits_before + 1
        )
        if not result.ok:
            result.detail = "post-race query did not hit on version 2"
    finally:
        result.fault_log = plan.describe()
        serving.close()
    return result


def _scenario_remote_republish(seed: int, fault: str) -> ScenarioResult:
    """Reconnect-and-resume across a republish: the generation guard."""
    result = ScenarioResult("remote-republish", fault, seed, ok=False)
    plan = FaultPlan(seed)
    plan.rules = (FaultRule("socket.recv", "disconnect", at=(12,), limit=1),)
    serving = build_world()
    golden_new = golden_views(2)
    connects = {"count": 0}

    def wrapper(sock: object) -> FaultySocket:
        connects["count"] += 1
        if connects["count"] == 2:
            # The republish lands exactly while the client is down.
            _republish(serving)
        return FaultySocket(sock, plan)

    server = serving.serve()
    client = RemoteDSP.connect(
        server.address,
        timeout=5.0,
        retry=RetryPolicy(attempts=6, backoff=0.01, deadline=30.0, seed=seed),
        socket_wrapper=wrapper,  # type: ignore[arg-type]
    )
    try:
        attached = Community.attach(client)
        attached.enroll("doctor")
        document = attached.adopt(DOC_ID, "owner")
        saw_guard = False
        try:
            view = _pull_attached(attached, document)
            # The disconnect may land outside a chunk request, in
            # which case the resume is legal -- but it must still be a
            # coherent version (never a splice).
            result.delivered = True
            if view != golden_new["doctor"] and view != golden_views(1)["doctor"]:
                result.detail = "resumed pull delivered a splice"
                return result
        except GenerationChanged as exc:
            saw_guard = True
            result.error = type(exc).__name__
        except ReproError as exc:
            if not _expect_error(result, exc, (TamperDetected, TransportError)):
                return result
        if connects["count"] < 2:
            result.detail = "the disconnect never forced a reconnect"
            return result
        final = _pull_attached(attached, document)
        result.matched_golden = final == golden_new["doctor"]
        result.ok = result.matched_golden
        if not result.ok:
            result.detail = "final pull did not deliver version 2"
        elif saw_guard:
            result.detail = "generation guard refused the cross-version resume"
    finally:
        result.fault_log = plan.describe()
        client.close()
        serving.close()
    return result


def _scenario_remote_storm(seed: int, fault: str) -> ScenarioResult:
    """Rules/key churn between pulls on a retrying remote reader."""
    result = ScenarioResult("remote-storm", fault, seed, ok=False)
    plan = FaultPlan(seed)
    if fault == "disconnect":
        plan.rules = (
            FaultRule("socket.recv", "disconnect", at=(6,), limit=1),
        )
    serving = build_world()
    golden = golden_views(1)
    server = serving.serve()
    client = RemoteDSP.connect(
        server.address,
        timeout=5.0,
        retry=RetryPolicy(attempts=6, backoff=0.01, deadline=30.0, seed=seed),
        socket_wrapper=lambda sock: FaultySocket(sock, plan),
    )
    try:
        attached = Community.attach(client)
        attached.enroll("doctor")
        document = attached.adopt(DOC_ID, "owner")
        first = _pull_attached(attached, document)
        owned = serving.document(DOC_ID)
        for _ in range(3):
            owned.update_rules(hospital_rules())
            owned.revoke("accountant")
            owned.grant("accountant")
        second = _pull_attached(attached, document)
        result.delivered = True
        result.matched_golden = (
            first == golden["doctor"] and second == golden["doctor"]
        )
        healed = fault == "none" or client.reconnects >= 1
        result.ok = result.matched_golden and healed
        if not result.matched_golden:
            result.detail = "a pull under the storm was not golden"
        elif not healed:
            result.detail = "fault never fired: the cell proved nothing"
    finally:
        result.fault_log = plan.describe()
        client.close()
        serving.close()
    return result


def _scenario_crash_reopen(seed: int, fault: str) -> ScenarioResult:
    """Concurrent writers, then crash-reopen the SQLite store."""
    result = ScenarioResult("crash-reopen", fault, seed, ok=False)
    plan = FaultPlan(seed)
    golden = golden_views(1)
    with tempfile.TemporaryDirectory() as tmp:
        backend = SQLiteBackend(Path(tmp) / "dsp.db")
        community = build_world(backend=backend)
        try:
            owner = community.member("owner")
            side_ids = [f"side-{index}" for index in range(3)]
            for doc_id in side_ids:
                owner.publish(
                    _events(1),
                    hospital_rules(),
                    to=list(READERS),
                    doc_id=doc_id,
                    chunk_size=_CHUNK_SIZE,
                )
            store = community.store
            assert store is not None
            doc_ids = [DOC_ID, *side_ids]
            # Concurrent writers hammer disjoint keys across documents.
            errors: list[BaseException] = []

            def write(slot: int) -> None:
                try:
                    for index in range(8):
                        doc_id = doc_ids[(slot + index) % len(doc_ids)]
                        store.put_wrapped_key(
                            doc_id,
                            f"writer-{slot}-{index}",
                            bytes([slot, index]) * 16,
                        )
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=write, args=(slot,), daemon=True)
                for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            if errors:
                result.error = type(errors[0]).__name__
                result.detail = f"writer failed: {errors[0]}"
                return result
            snapshot = {
                doc_id: _container_bytes(store.get(doc_id).container)
                for doc_id in doc_ids
            }
            keys_before = {
                doc_id: dict(store.get(doc_id).wrapped_keys)
                for doc_id in doc_ids
            }
            # The crash: the store closed and reopened from disk.
            store.backend = crash_reopen(store.backend)
            for doc_id in doc_ids:
                stored = store.get(doc_id)
                if _container_bytes(stored.container) != snapshot[doc_id]:
                    result.detail = (
                        f"{doc_id!r} not byte-identical after reopen"
                    )
                    return result
                if stored.wrapped_keys != keys_before[doc_id]:
                    result.detail = (
                        f"{doc_id!r} lost acknowledged wrapped keys"
                    )
                    return result
            view = _pull(community, "doctor")
            result.delivered = True
            result.matched_golden = view == golden["doctor"]
            result.ok = result.matched_golden
            if not result.ok:
                result.detail = "post-recovery pull was not golden"
        finally:
            result.fault_log = plan.describe()
            community.close()
    return result


def _scenario_admission_flap(seed: int, fault: str) -> ScenarioResult:
    """A capacity-starved reactor: typed 429s absorbed by retry."""
    result = ScenarioResult("admission-flap", fault, seed, ok=False)
    plan = FaultPlan(seed)
    serving = build_world()
    golden = golden_views(1)
    server = serving.serve(admission=AdmissionPolicy(max_connections=1))
    blocker = RemoteDSP.connect(server.address, timeout=5.0)
    blocker.get_header(DOC_ID)  # the single admitted connection
    release = threading.Timer(0.3, blocker.close)
    release.daemon = True
    release.start()
    client = RemoteDSP.connect(
        server.address,
        timeout=5.0,
        retry=RetryPolicy(
            attempts=12,
            backoff=0.05,
            multiplier=1.3,
            deadline=30.0,
            seed=seed,
        ),
    )
    try:
        attached = Community.attach(client)
        attached.enroll("doctor")
        document = attached.adopt(DOC_ID, "owner")
        view = _pull_attached(attached, document)
        result.delivered = True
        result.matched_golden = view == golden["doctor"]
        result.ok = result.matched_golden and client.retries > 0
        if not result.matched_golden:
            result.detail = "view pulled through the flap was not golden"
        elif client.retries == 0:
            result.detail = "admission control never rejected: no flap"
    finally:
        release.cancel()
        result.fault_log = plan.describe()
        client.close()
        blocker.close()
        serving.close()
    return result


# -- the matrix ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Scenario:
    """One named workload and the fault kinds it composes with."""

    name: str
    faults: tuple[str, ...]
    quick: tuple[str, ...]
    run: Callable[[int, str], ScenarioResult]


SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        "backend-pull",
        ("none", "fail", "stale", "torn"),
        ("fail", "torn"),
        _scenario_backend_pull,
    ),
    Scenario("client-pull", ("none", "fail"), ("fail",), _scenario_client_pull),
    Scenario(
        "card", ("none", "exhaust", "tamper"), ("exhaust",), _scenario_card
    ),
    Scenario(
        "remote-heal",
        ("none", "disconnect", "truncate", "corrupt", "stall"),
        ("disconnect", "corrupt"),
        _scenario_remote_heal,
    ),
    Scenario(
        "revocation-storm",
        ("none", "exhaust", "tamper"),
        ("none", "tamper"),
        _scenario_revocation_storm,
    ),
    Scenario(
        "feed-revoke",
        ("none", "tamper"),
        ("none", "tamper"),
        _scenario_feed_revoke,
    ),
    Scenario("republish-race", ("race",), ("race",), _scenario_republish_race),
    Scenario("stale-cache", ("race",), ("race",), _scenario_stale_cache),
    Scenario(
        "remote-republish",
        ("reconnect-race",),
        ("reconnect-race",),
        _scenario_remote_republish,
    ),
    Scenario(
        "remote-storm",
        ("none", "disconnect"),
        ("disconnect",),
        _scenario_remote_storm,
    ),
    Scenario("crash-reopen", ("crash",), ("crash",), _scenario_crash_reopen),
    Scenario(
        "admission-flap", ("flap",), ("flap",), _scenario_admission_flap
    ),
)


def run_cell(
    scenario: Scenario, fault: str, seed: int, deadline: float = 60.0
) -> ScenarioResult:
    """One matrix cell under a hard watchdog deadline.

    A cell that neither returns nor raises within ``deadline`` seconds
    is reported as a failed (hung) cell -- "no cell may hang" is part
    of the invariant, so a hang can never stall the whole matrix.
    """
    box: list[ScenarioResult] = []

    def target() -> None:
        start = time.monotonic()
        try:
            cell = scenario.run(seed, fault)
        except ReproError as exc:
            cell = ScenarioResult(
                scenario.name,
                fault,
                seed,
                ok=False,
                error=type(exc).__name__,
                detail=f"escaped the scenario harness: {exc}",
            )
        except BaseException as exc:
            cell = ScenarioResult(
                scenario.name,
                fault,
                seed,
                ok=False,
                error=type(exc).__name__,
                detail=f"outside the repro.errors taxonomy: {exc}",
            )
        cell.duration = time.monotonic() - start
        box.append(cell)

    worker = threading.Thread(
        target=target, daemon=True, name=f"chaos-{scenario.name}-{fault}"
    )
    worker.start()
    worker.join(deadline)
    if not box:
        return ScenarioResult(
            scenario.name,
            fault,
            seed,
            ok=False,
            error="Hang",
            detail=f"cell exceeded its {deadline:g}s deadline",
            duration=deadline,
        )
    return box[0]


def run_matrix(
    seeds: Iterable[int] = (0,),
    *,
    quick: bool = False,
    deadline: float = 60.0,
) -> list[ScenarioResult]:
    """The (scenario x fault x seed) grid, every cell deadline-bounded."""
    results: list[ScenarioResult] = []
    for scenario in SCENARIOS:
        for fault in scenario.quick if quick else scenario.faults:
            for seed in seeds:
                results.append(run_cell(scenario, fault, seed, deadline))
    return results
