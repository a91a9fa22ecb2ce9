"""The four E20 workloads.

Every workload drives repro through its public API only (``Community``,
``Session``/``ViewStream``, ``Feed``, ``community.serve()``,
``RemoteDSP`` and the ``repro.workloads`` generators).  The corpus is
fixed; ``--seed`` drives every choice of the operation sequence, so one
seed always replays the same operations.

Each read is checked byte for byte against an oracle the program does
not share: pulls against ``write_string(reference_view(...))`` over
the owner's tree, catch-ups against ``Feed.preview()``, served
responses against the wire bytes recorded from real card pulls.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from stats import OpMix, ZipfSampler, derive_rng, popularity_order
from tracer import OpTrace, Tracer

from repro.community import Community, TierSpec
from repro.core.nfa import compile_call_count
from repro.core.reference import reference_view
from repro.core.rules import AccessRule, RuleSet
from repro.crypto.groupkey import wrap_call_count
from repro.dsp import RemoteDSP
from repro.dsp.wire import (
    GetChunk,
    GetChunkRange,
    GetHeader,
    GetMeta,
    GetRules,
    GetWrappedKey,
    decode_request,
)
from repro.smartcard.resources import SimClock
from repro.terminal.transfer import TransferPolicy
from repro.workloads.docgen import agenda, hospital, video_catalog
from repro.workloads.rulegen import agenda_rules, hospital_rules, parental_rules
from repro.xmlstream.tree import Element, tree_to_events
from repro.xmlstream.writer import write_string

_now = time.perf_counter

HOSPITAL_READERS = ("doctor", "nurse", "accountant", "researcher")
WINDOW = TransferPolicy.windowed(8)


def _events(root: Element) -> list:
    return list(tree_to_events(root))


def _reference(root: Element, rules: RuleSet, subject: str, query: str | None = None) -> str:
    return write_string(reference_view(root, rules, subject, query))


def _rules_variant(variant: int) -> RuleSet:
    """The hospital policy, or a changed one (nurse sees diagnoses,
    doctors lose the free-text notes) -- what ``update_rules`` toggles."""
    rules = list(hospital_rules())
    if variant:
        rules.append(AccessRule.parse("+", "nurse", "//diagnosis", rule_id="V0"))
        rules.append(AccessRule.parse("-", "doctor", "//notes", rule_id="V1"))
    return RuleSet(rules)


@dataclass(slots=True)
class OpResult:
    """One timed operation, before calibration."""

    kind: str  # "read" or "write"
    raw_s: float
    ok: bool = True
    mismatch: bool = False
    error: str | None = None
    client: int = 0
    first_s: float | None = None
    plaintext: int = 0
    dsp_requests: int = 0
    apdus: int = 0
    wraps: int = 0
    compiles: int = 0
    model: dict[str, float] = field(default_factory=dict)
    trace: OpTrace | None = None
    scale: float = 1.0
    traced: bool = False


@dataclass(slots=True)
class Observed:
    """What a read returned, for the oracle to judge after timing."""

    text: str
    expected: Callable[[], str]
    first_at: float | None = None
    plaintext: int = 0
    apdus: int = 0


def _model_delta(clock: SimClock, before: dict[str, float]) -> dict[str, float]:
    """Modeled seconds since ``before``, per-subscriber links folded."""
    delta: dict[str, float] = {}
    for component, seconds in clock.since(before).breakdown().items():
        name = "link" if component.startswith("link") else component
        delta[name] = delta.get(name, 0.0) + seconds
    return delta


class Workload:
    """A world built once per set-up and a seeded sequence of operations.

    Single-client workloads implement ``_choose`` (returning the op
    kind and a zero-argument callable) and inherit the closed loop;
    ``served`` overrides :meth:`run_block` with its two clients.
    """

    name = ""
    #: Client threads issuing operations concurrently.
    CLIENTS = 1

    def __init__(self) -> None:
        self.community: Community | None = None

    # -- lifecycle --------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> list[str]:
        """Oracle checks on the warm-up pass (untimed)."""
        return []

    def close(self) -> None:
        if self.community is not None:
            self.community.close()
            self.community = None

    def extra_rss_kb(self) -> int:
        return 0

    def block_stats(self) -> dict[str, float] | None:
        return None

    # -- the closed loop --------------------------------------------------

    def _choose(self) -> tuple[str, Callable[[], Any]]:
        raise NotImplementedError

    def run_block(self, until: float, tracer: Tracer | None) -> tuple[list[OpResult], float]:
        """Run operations until ``until``; returns them and busy seconds."""
        assert self.community is not None
        clock = self.community.clock
        dsp = self.community.dsp
        results: list[OpResult] = []
        busy = 0.0
        while True:
            kind, run = self._choose()
            model_before = clock.snapshot()
            requests = dsp.requests
            wraps = wrap_call_count()
            compiles = compile_call_count()
            if tracer is not None:
                tracer.begin_op()
            started = _now()
            try:
                observed = run()
                error = None
            except Exception as exc:  # counted as a failed op, the loop goes on
                observed = None
                error = f"{type(exc).__name__}: {exc}"
            raw = _now() - started
            result = OpResult(kind, raw)
            if tracer is not None:
                result.trace = tracer.end_op()
            busy += raw
            result.model = _model_delta(clock, model_before)
            result.dsp_requests = dsp.requests - requests
            result.wraps = wrap_call_count() - wraps
            result.compiles = compile_call_count() - compiles
            if error is not None:
                result.ok = False
                result.error = error
            elif isinstance(observed, Observed):
                if observed.first_at is not None:
                    result.first_s = observed.first_at - started
                result.plaintext = observed.plaintext
                result.apdus = observed.apdus
                if observed.text != observed.expected():
                    result.ok = False
                    result.mismatch = True
                    result.error = "view differs from the oracle"
            results.append(result)
            if _now() >= until:
                return results, busy


# -- pull --------------------------------------------------------------------


def _pull(member: Any, doc_id: str, query: str | None, expected: Callable[[], str]) -> Observed:
    """One pull session, noting when the first view piece arrived."""
    with member.open(doc_id, transfer=WINDOW) as session:
        stream = session.query(query)
        next(iter(stream), None)
        first_at = _now()
        text = stream.text()
        metrics = stream.metrics
    return Observed(text, expected, first_at, metrics.bytes_decrypted, metrics.apdu_count)


class PullWorkload(Workload):
    """Card-path pulls, view cache off, in-process DSP, window 8."""

    name = "pull"

    def __init__(self, seed: int) -> None:
        super().__init__()
        members = ("alice", "bruno", "carla", "deng", "elsa", "farid")  # agenda(6)'s owners
        # (doc_id, root, rules, readers, reads per reader per 100 pulls).
        # The 40-patient record gets 4 pulls, all by the doctor, its
        # costliest reader.  Those pulls take about twice the
        # next-slowest, so the p99 lands inside them and reports the
        # large-document pull, not whichever small pulls a host burst
        # happened to slow.  At 4%, not 2%, a 1,000-read run holds 40
        # of them, and the p99 is not the median of a handful.
        self.corpus: list[tuple[str, Element, RuleSet, tuple[str, ...], int]] = [
            (f"h{patients}", hospital(n_patients=patients), hospital_rules(), HOSPITAL_READERS, 5)
            for patients in (5, 10, 20)
        ]
        self.corpus.append(("h40", hospital(n_patients=40), hospital_rules(), ("doctor",), 4))
        self.corpus.append(
            ("agenda", agenda(n_members=6, events_per_member=4), agenda_rules(list(members)), members, 3)
        )
        self.corpus.append(("video", video_catalog(16), parental_rules("kid"), ("kid",), 18))
        self.mix = OpMix(
            {
                (doc_id, reader): reads
                for doc_id, _, _, readers, reads in self.corpus
                for reader in readers
            },
            derive_rng(seed, "pull"),
        )
        self._expected: dict[tuple[str, str], str] = {}
        self._warm: dict[tuple[str, str], str] = {}

    def build(self) -> None:
        community = self.community = Community()
        owner = community.enroll("owner")
        for doc_id, root, rules, readers, _ in self.corpus:
            members = [community.enroll(name, strict_memory=False) for name in readers]
            owner.publish(_events(root), rules, to=members, doc_id=doc_id)
        for doc_id, _, _, readers, _ in self.corpus:
            for reader in readers:
                with community.member(reader).open(doc_id, transfer=WINDOW) as session:
                    self._warm[doc_id, reader] = session.query().text()

    def _expect(self, doc_id: str, reader: str) -> str:
        key = (doc_id, reader)
        if key not in self._expected:
            for corpus_id, root, rules, _, _ in self.corpus:
                if corpus_id == doc_id:
                    self._expected[key] = _reference(root, rules, reader)
        return self._expected[key]

    def check_setup(self) -> list[str]:
        return [
            f"warm-up pull {doc_id}/{reader}"
            for (doc_id, reader), text in self._warm.items()
            if text != self._expect(doc_id, reader)
        ]

    def _choose(self) -> tuple[str, Callable[[], Any]]:
        doc_id, reader = self.mix()
        assert self.community is not None
        member = self.community.member(reader)
        return "read", lambda: _pull(member, doc_id, None, lambda: self._expect(doc_id, reader))


# -- pull_cached ---------------------------------------------------------------


class PullCachedWorkload(Workload):
    """Warm pulls through the view cache, with invalidating writes."""

    name = "pull_cached"
    DOCS = 12
    QUERIES = (None, "/hospital/ward", "//patient/name", "//episode")

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.sizes = [(5, 10, 15, 20)[index % 4] for index in range(self.DOCS)]
        self.doc_ids = [f"ward-{index:02d}" for index in range(self.DOCS)]
        self.content = [0] * self.DOCS
        self.policy = [0] * self.DOCS
        self.keys = OpMix(
            {
                (index, reader, query): 1
                for index in range(self.DOCS)
                for reader in HOSPITAL_READERS
                for query in self.QUERIES
            },
            derive_rng(seed, "pull_cached"),
        )
        # 1% writes.  Each write invalidates all 16 keys of a document;
        # at 3% a key is re-read about twice between invalidations, exact
        # hits fall to about half the reads and the median flips between
        # the hit and the semantic/miss clusters.  At 1%: about 80% exact
        # hits, 10% semantic answers, 10% repulls.
        self.mix = OpMix(
            {"read": 198, "update_rules": 1, "republish": 1}, derive_rng(seed, "pull_cached-mix")
        )
        self.writes = 0
        self._roots: dict[tuple[int, int], Element] = {}
        self._expected: dict[tuple, str] = {}
        self._warm: dict[tuple[int, str], str] = {}

    def _root(self, index: int, variant: int) -> Element:
        key = (index, variant)
        if key not in self._roots:
            self._roots[key] = hospital(n_patients=self.sizes[index], seed=100 + 2 * index + variant)
        return self._roots[key]

    def build(self) -> None:
        community = self.community = Community()
        owner = community.enroll("owner")
        readers = [community.enroll(name, strict_memory=False) for name in HOSPITAL_READERS]
        for index, doc_id in enumerate(self.doc_ids):
            owner.publish(_events(self._root(index, 0)), _rules_variant(0), to=readers, doc_id=doc_id)
        community.enable_view_cache()
        for index, doc_id in enumerate(self.doc_ids):
            for reader in HOSPITAL_READERS:
                with community.member(reader).open(doc_id, transfer=WINDOW) as session:
                    self._warm[index, reader] = session.query().text()

    def _expect(self, index: int, content: int, policy: int, reader: str, query: str | None) -> str:
        key = (index, content, policy, reader, query)
        if key not in self._expected:
            self._expected[key] = _reference(
                self._root(index, content), _rules_variant(policy), reader, query
            )
        return self._expected[key]

    def check_setup(self) -> list[str]:
        return [
            f"warm-up pull {self.doc_ids[index]}/{reader}"
            for (index, reader), text in self._warm.items()
            if text != self._expect(index, 0, 0, reader, None)
        ]

    def _choose(self) -> tuple[str, Callable[[], Any]]:
        kind = self.mix()
        if kind == "read":
            index, reader, query = self.keys()
            return "read", lambda: self._read(index, reader, query)
        # Writes visit the documents round-robin: which sizes get
        # invalidated, and so what the repulls cost, is the same for
        # every seed.
        index = self.writes % self.DOCS
        self.writes += 1
        if kind == "update_rules":
            return "write", lambda: self._update_rules(index)
        return "write", lambda: self._republish(index)

    def _read(self, index: int, reader: str, query: str | None) -> Observed:
        assert self.community is not None
        content, policy = self.content[index], self.policy[index]
        return _pull(
            self.community.member(reader),
            self.doc_ids[index],
            query,
            lambda: self._expect(index, content, policy, reader, query),
        )

    def _update_rules(self, index: int) -> None:
        assert self.community is not None
        self.policy[index] ^= 1
        self.community.document(self.doc_ids[index]).update_rules(_rules_variant(self.policy[index]))

    def _republish(self, index: int) -> None:
        assert self.community is not None
        self.content[index] ^= 1
        self.community.member("owner").publish(
            _events(self._root(index, self.content[index])),
            _rules_variant(self.policy[index]),
            to=list(HOSPITAL_READERS),
            doc_id=self.doc_ids[index],
        )


# -- feed ----------------------------------------------------------------------


class FeedWorkload(Workload):
    """Parental control on a tiered video feed: late-joiner catch-ups."""

    name = "feed"
    FEED = "tv"
    # The kids and news channels carry the first two catalogues of each
    # cycle, the family channel all six.  A family catch-up costs about
    # three times a kids or news one, and family members make 4 of
    # every 85 catch-ups, so the p99 lands inside them and reports the
    # full-cycle catch-up, not whichever short ones a host burst slowed.
    TIERS = (
        TierSpec("kids", allow=('//segment[meta/rating = "G"]',), quota=2),
        TierSpec("news", allow=("/stream/news", "/stream/documentary"), drop=("rating",), quota=2),
        TierSpec("family", allow=("/stream",), deny=('//segment[meta/rating = "R"]',)),
    )
    DOCS = 6
    VIDEOS = 6
    MEMBERS = 24
    LIVE = 6

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.names = [f"m{index:02d}" for index in range(self.MEMBERS)]
        self.doc_ids = [f"cat-{index}" for index in range(self.DOCS)]
        self.content = [0] * self.DOCS
        self.rng = derive_rng(seed, "feed")
        family = {name for index, name in enumerate(self.names) if self._tier_of(index) == "family"}
        self.readers = OpMix(
            {name: 1 for name in self.names if name not in family}, derive_rng(seed, "feed-readers")
        )
        self.family = OpMix({name: 1 for name in sorted(family)}, derive_rng(seed, "feed-family"))
        self.mix = OpMix(
            {"read": 81, "read_family": 4, "republish": 5, "resubscribe": 5, "broadcast": 5},
            derive_rng(seed, "feed-mix"),
        )
        self.republished = 0
        self.feed: Any = None
        self._preview: dict[str, str] | None = None
        self._warm: list[tuple[str, str]] = []

    def _tier_of(self, index: int) -> str:
        return self.TIERS[index % len(self.TIERS)].name

    def _catalog(self, index: int, variant: int) -> list:
        return _events(video_catalog(self.VIDEOS, seed=300 + 2 * index + variant))

    def build(self) -> None:
        community = self.community = Community()
        owner = community.enroll("owner")
        feed = self.feed = community.feed(self.FEED, owner=owner, tiers=list(self.TIERS))
        for index, doc_id in enumerate(self.doc_ids):
            feed.publish(self._catalog(index, 0), doc_id=doc_id)
        for index, name in enumerate(self.names):
            community.enroll(name, strict_memory=False)
            feed.subscribe(name, self._tier_of(index), attach=index < self.LIVE)
        feed.broadcast()
        for index in range(len(self.TIERS)):
            handle = feed.catch_up(self.names[index])
            self._warm.append((handle.tier, handle.view))

    def preview(self) -> dict[str, str]:
        if self._preview is None:
            self._preview = self.feed.preview()
        return self._preview

    def check_setup(self) -> list[str]:
        preview = self.preview()
        failures = [f"warm-up catch-up on {tier}" for tier, view in self._warm if view != preview[tier]]
        for handle in self.feed.handles():
            if handle.view != preview[handle.tier]:
                failures.append(f"live subscriber {handle.member.name}")
        return failures

    def _choose(self) -> tuple[str, Callable[[], Any]]:
        kind = self.mix()
        if kind in ("read", "read_family"):
            name = self.readers() if kind == "read" else self.family()
            return "read", lambda: self._catch_up(name)
        if kind == "republish":
            index = self.republished % self.DOCS
            self.republished += 1
            return "write", lambda: self._republish(index)
        if kind == "resubscribe":
            name = self.names[self.rng.randrange(self.MEMBERS)]
            return "write", lambda: self._resubscribe(name)
        return "write", self._broadcast

    def _catch_up(self, name: str) -> Observed:
        handle = self.feed.catch_up(name)
        handle.require_ok()
        tier = handle.tier
        docs = [doc.doc_id for doc in self.feed.broadcast_list(tier)]
        metrics = [handle.metrics_for(doc_id) for doc_id in docs]
        return Observed(
            handle.view,
            lambda: self.preview()[tier],
            None,
            sum(m.bytes_decrypted for m in metrics),
            sum(m.apdu_count for m in metrics),
        )

    def _republish(self, index: int) -> None:
        self.content[index] ^= 1
        self._preview = None
        self.feed.publish(self._catalog(index, self.content[index]), doc_id=self.doc_ids[index])

    def _resubscribe(self, name: str) -> None:
        tier = self.feed.members[name]
        self.feed.revoke(name)
        self.feed.subscribe(name, tier, attach=self.names.index(name) < self.LIVE)

    def _broadcast(self) -> None:
        self.feed.broadcast()
        for handle in self.feed.handles():
            handle.require_ok()


# -- served --------------------------------------------------------------------

_U32 = struct.Struct(">I")


def _split_frames(buffer: bytes | bytearray) -> list[bytes]:
    frames = []
    offset = 0
    while offset < len(buffer):
        (length,) = _U32.unpack_from(buffer, offset)
        frames.append(bytes(buffer[offset:offset + 4 + length]))
        offset += 4 + length
    return frames


class _Tap:
    """A socket wrapper (``RemoteDSP.connect(socket_wrapper=...)``) that
    keeps the bytes received, and optionally the bytes sent."""

    def __init__(self, sock: Any, keep_sent: bool) -> None:
        self._sock = sock
        self._keep_sent = keep_sent
        self.sent = bytearray()
        self.received = bytearray()

    def sendall(self, data: bytes) -> None:
        if self._keep_sent:
            self.sent += data
        self._sock.sendall(data)

    def recv(self, bufsize: int) -> bytes:
        data = self._sock.recv(bufsize)
        self.received += data
        return data

    def settimeout(self, value: float | None) -> None:
        self._sock.settimeout(value)

    def close(self) -> None:
        self._sock.close()


def _tapped(address: tuple[str, int], keep_sent: bool) -> tuple[RemoteDSP, _Tap]:
    taps: list[_Tap] = []

    def wrap(sock: Any) -> _Tap:
        taps.append(_Tap(sock, keep_sent))
        return taps[-1]

    client = RemoteDSP.connect(address, timeout=30.0, socket_wrapper=wrap)
    return client, taps[0]


def _as_call(body: bytes) -> tuple[str, tuple]:
    """The RemoteDSP method and arguments that re-issue a recorded request."""
    request = decode_request(body)
    if isinstance(request, GetHeader):
        return "get_header", (request.doc_id,)
    if isinstance(request, GetChunkRange):
        return "get_chunk_range", (request.doc_id, request.start, request.count)
    if isinstance(request, GetChunk):
        return "get_chunk", (request.doc_id, request.index)
    if isinstance(request, GetRules):
        return "get_rules", (request.doc_id,)
    if isinstance(request, GetWrappedKey):
        return "get_wrapped_key", (request.doc_id, request.recipient)
    if isinstance(request, GetMeta):
        return "get_meta", (request.doc_id, request.subject)
    raise ValueError(f"unexpected recorded request {request!r}")


def _serve_child(community: Community, conn: Any) -> None:
    """The server process: serve, apply writes on request, report."""
    server = community.serve()
    conn.send(server.address)
    outside = community.document(ServedWorkload.OUTSIDE)
    flips = 0

    def stats() -> dict[str, float]:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return {
            "requests": server.requests,
            "cache_hits": server.cache_hits,
            "rejected": server.rejected_requests,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }

    try:
        while True:
            try:
                command = conn.recv()
            except EOFError:
                return
            if command == "write":
                flips += 1
                try:
                    outside.update_rules(_rules_variant(flips % 2))
                    conn.send("ok")
                except Exception as exc:  # reported to the client as a failed write
                    conn.send(f"{type(exc).__name__}: {exc}")
            elif command == "stats":
                conn.send(stats())
            elif command == "stop":
                conn.send(stats())
                return
    finally:
        community.close()  # closes the server too


class ServedWorkload(Workload):
    """Recorded card-pull traces replayed against a reactor in a child."""

    name = "served"
    DOCS = 32
    CLIENTS = 2
    WRITE_EVERY = 25
    OUTSIDE = "outside"
    LARGE = "doc-large"

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.doc_ids = [f"doc-{index:02d}" for index in range(self.DOCS)] + [self.LARGE]
        self.roots = [
            hospital(n_patients=(4, 6, 8, 10)[index % 4], seed=500 + index)
            for index in range(self.DOCS)
        ] + [hospital(n_patients=80, seed=498)]
        # The popularity order is fixed, not seeded: which traces are hot
        # sets the mean session size, and seeds must compare like with
        # like.  The seed drives each client's draws.
        self.order = popularity_order(self.DOCS * len(HOSPITAL_READERS), derive_rng(0, "served-popularity"))
        self.samplers = [
            ZipfSampler(len(self.order), 1.0, derive_rng(seed, f"served-client-{client}"))
            for client in range(self.CLIENTS)
        ]
        # 2 of every 100 sessions replay a pull of the 40-patient record,
        # several times longer than any other session, so the p99 lands
        # inside them and reports the large replay, not whichever short
        # session a host burst or the other client happened to delay.
        self.large_share = [
            OpMix({False: 98, True: 2}, derive_rng(seed, f"served-large-{client}"))
            for client in range(self.CLIENTS)
        ]
        self.large_reader = [
            OpMix({index: 1 for index in range(len(HOSPITAL_READERS))},
                  derive_rng(seed, f"served-large-reader-{client}"))
            for client in range(self.CLIENTS)
        ]
        #: Per trace: ((method, args, expected response frame), ...).
        self.traces: list[tuple[tuple[str, tuple, bytes], ...]] = []
        #: The 40-patient record's traces, one per reader.
        self.large: list[tuple[tuple[str, tuple, bytes], ...]] = []
        self._views: list[tuple[int, str, str]] = []
        self._process: Any = None
        self._conn: Any = None
        self._clients: list[tuple[RemoteDSP, _Tap]] = []
        self._threads: list[threading.Thread] = []
        self._start = threading.Barrier(self.CLIENTS + 1)
        self._done = threading.Barrier(self.CLIENTS + 1)
        self._until = 0.0
        self._stop = False
        self._tracer: Tracer | None = None
        self._blocks: list[list[OpResult]] = [[] for _ in range(self.CLIENTS)]
        self._sessions = [0] * self.CLIENTS
        self._child_rss_kb = 0

    def build(self) -> None:
        community = Community()
        owner = community.enroll("owner")
        readers = [community.enroll(name, strict_memory=False) for name in HOSPITAL_READERS]
        for doc_id, root in zip(self.doc_ids, self.roots):
            owner.publish(_events(root), hospital_rules(), to=readers, doc_id=doc_id)
        owner.publish(_events(hospital(n_patients=2, seed=499)), hospital_rules(), to=[owner], doc_id=self.OUTSIDE)
        # Clients and server share one vCPU, the one the calibration
        # probe runs on.  Spread over two, a session's time depends on
        # the speed of a core the probe never sees: same-seed runs then
        # spread by about 8% at p50, pinned by about 1.5%.  Set before
        # any thread exists, so every later thread and the child
        # inherit it.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        # Fork before this process starts any thread.
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(target=_serve_child, args=(community, child_conn), daemon=True)
        self._process.start()
        child_conn.close()
        community.close()
        address = self._conn.recv()
        for reader in HOSPITAL_READERS:
            client, tap = _tapped(address, keep_sent=True)
            try:
                attached = Community.attach(client)
                member = attached.enroll(reader, strict_memory=False)
                for index, doc_id in enumerate(self.doc_ids):
                    document = attached.adopt(doc_id, "owner")
                    sent, received = len(tap.sent), len(tap.received)
                    with member.open(document, transfer=WINDOW) as session:
                        text = session.query().text()
                    requests = _split_frames(tap.sent[sent:])
                    responses = _split_frames(tap.received[received:])
                    (self.large if doc_id == self.LARGE else self.traces).append(tuple(
                        (*_as_call(request[4:]), response)
                        for request, response in zip(requests, responses, strict=True)
                    ))
                    self._views.append((index, reader, text))
            finally:
                client.close()
        self._clients = [_tapped(address, keep_sent=False) for _ in range(self.CLIENTS)]
        client, tap = self._clients[0]
        for trace in self.traces + self.large:  # warm-up: every trace once
            for method, args, _ in trace:
                getattr(client, method)(*args)
            tap.received.clear()

    def check_setup(self) -> list[str]:
        return [
            f"recorded pull {self.doc_ids[index]}/{reader}"
            for index, reader, text in self._views
            if text != _reference(self.roots[index], hospital_rules(), reader)
        ]

    # -- the two clients ----------------------------------------------------

    def _session(self, client_index: int) -> OpResult:
        client, tap = self._clients[client_index]
        if self.large_share[client_index]():
            trace = self.large[self.large_reader[client_index]()]
        else:
            trace = self.traces[self.order[self.samplers[client_index]()]]
        tracer = self._tracer
        if tracer is not None:
            tracer.begin_op()
        got: list[bytes] = []
        error = None
        started = _now()
        try:
            for method, args, _ in trace:
                getattr(client, method)(*args)
                got.append(bytes(tap.received))
                tap.received.clear()
        except Exception as exc:  # counted as a failed session
            error = f"{type(exc).__name__}: {exc}"
        raw = _now() - started
        result = OpResult("read", raw, client=client_index, dsp_requests=len(trace))
        if tracer is not None:
            result.trace = tracer.end_op()
        if error is not None:
            result.ok = False
            result.error = error
        elif got != [expected for _, _, expected in trace]:
            result.ok = False
            result.mismatch = True
            result.error = "response bytes differ from the recording"
        return result

    def _write(self, client_index: int) -> OpResult:
        tracer = self._tracer
        if tracer is not None:
            tracer.begin_op()
        started = _now()
        self._conn.send("write")
        reply = self._conn.recv()
        raw = _now() - started
        result = OpResult("write", raw, client=client_index)
        if tracer is not None:
            result.trace = tracer.end_op()
        if reply != "ok":
            result.ok = False
            result.error = str(reply)
        return result

    def _client_loop(self, client_index: int) -> None:
        while True:
            self._start.wait()
            if self._stop:
                return
            block: list[OpResult] = []
            try:
                while _now() < self._until:
                    block.append(self._session(client_index))
                    self._sessions[client_index] += 1
                    if client_index == 0 and self._sessions[0] % self.WRITE_EVERY == 0:
                        block.append(self._write(client_index))
            finally:
                self._blocks[client_index] = block
                self._done.wait()

    def run_block(self, until: float, tracer: Tracer | None) -> tuple[list[OpResult], float]:
        if not self._threads:
            self._threads = [
                threading.Thread(target=self._client_loop, args=(index,), name=f"e20-client-{index}")
                for index in range(self.CLIENTS)
            ]
            for thread in self._threads:
                thread.start()
        self._until = until
        self._tracer = tracer
        started = _now()
        self._start.wait()
        self._done.wait()
        busy = _now() - started
        results = [result for block in self._blocks for result in block]
        return results, busy

    def block_stats(self) -> dict[str, float] | None:
        self._conn.send("stats")
        return self._conn.recv()

    def extra_rss_kb(self) -> int:
        return self._child_rss_kb

    def close(self) -> None:
        if self._threads:
            self._stop = True
            try:
                self._start.wait(timeout=30)
            except threading.BrokenBarrierError:
                pass  # a client is stuck; its socket timeout ends it
            for thread in self._threads:
                thread.join(timeout=30)
            self._threads = []
        for client, _ in self._clients:
            client.close()
        self._clients = []
        if self._process is not None:
            try:
                self._conn.send("stop")
                if self._conn.poll(30):
                    self._child_rss_kb = int(self._conn.recv()["maxrss_kb"])
            except (OSError, EOFError):
                pass
            self._conn.close()
            self._process.join(timeout=30)
            if self._process.is_alive():
                self._process.kill()
                self._process.join(timeout=30)
            self._process = None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PullWorkload, PullCachedWorkload, ServedWorkload, FeedWorkload)
}
