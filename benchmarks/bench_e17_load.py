"""E17 -- served-DSP load: the reactor under a pulling fleet.

The DSP is the paper's highly-available publication point; this
benchmark is the repo's *load* experiment: real sockets, real wall
time, a fleet of concurrent pulling clients plus one deliberately slow
reader against the event-loop server behind ``community.serve()``
(``repro.dsp.reactor``: per-connection buffering, coalesced writes, a
lock-free response cache checked against the store's
freshness stamp, and admission control).

The fleet speaks the raw wire protocol and pipelines a window of
chunk-range requests per round trip -- the dissemination access
pattern (many readers pulling the same published document) that the
reactor's cache and write coalescing are built for.  Every response
frame is byte-compared against the expected wire bytes, so throughput
can never come from serving wrong data; a separate phase pulls full
authorized views through ``Community.attach`` and compares them to the
in-process path.  A third phase probes admission control:
over-capacity clients must receive typed ``ResourceExhausted`` frames
carrying a capacity report, never a hang.

``--check`` gates the run against the committed ``BENCH_E17.json``:
the aggregate MB/s, normalized by E14's pure-Python calibration loop
(``calibration_s``) so slower machines do not trip it, must stay above
:data:`CHECK_FLOOR` of the committed baseline of the same suite; views
must be byte-identical, every frame byte-exact, the slow reader
served, the honest fleet never rejected, and rejections typed.

Usage::

    python benchmarks/bench_e17_load.py                # full (128 clients)
    python benchmarks/bench_e17_load.py --quick        # CI subset
    python benchmarks/bench_e17_load.py --json out.json
    python benchmarks/bench_e17_load.py --quick --check
"""

import argparse
import json
import multiprocessing
import socket
import struct
import sys
import threading
import time

from pathlib import Path

from _common import emit
from bench_e14_wallclock import calibrate

from repro.community import Community
from repro.dsp import RemoteDSP
from repro.dsp.reactor import AdmissionPolicy
from repro.dsp.remote import FrameReader, write_frame
from repro.dsp.wire import (
    GetChunkRange,
    decode_response,
    encode_request,
    frame,
)
from repro.errors import ResourceExhausted
from repro.terminal.transfer import TransferPolicy
from repro.workloads.docgen import hospital
from repro.workloads.rulegen import hospital_rules
from repro.xmlstream.tree import tree_to_events

DOC_ID = "hospital"
PATIENTS = 20
#: Card-pullable (short-form APDU data caps at 255 B): the views phase
#: streams these same chunks through real card sessions.
CHUNK = 128
READERS = ("doctor", "accountant")

#: Each pulling client pipelines a window of this many chunk-range
#: requests per round trip -- within the default
#: ``AdmissionPolicy.client_inflight`` so the honest fleet is never
#: rejected (the admission phase probes rejection separately).
WINDOW = 32
RANGE_CHUNKS = 8

FULL = {"clients": 128, "procs": 4, "duration_s": 8.0, "views": 16}
QUICK = {"clients": 32, "procs": 2, "duration_s": 2.0, "views": 6}

#: ``--check`` fails when the calibrated aggregate MB/s falls below
#: this fraction of the committed baseline of the same suite.  Socket
#: throughput on shared CI cores moves more than pure-Python speed, so
#: the floor is looser than E14's 0.70.
CHECK_FLOOR = 0.5
COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_E17.json"

_U32 = struct.Struct(">I")


def _build_community() -> Community:
    community = Community()
    owner = community.enroll("owner")
    readers = [community.enroll(name) for name in READERS]
    events = list(tree_to_events(hospital(n_patients=PATIENTS)))
    owner.publish(
        events, hospital_rules(), to=readers, doc_id=DOC_ID, chunk_size=CHUNK
    )
    return community


def _expected_response(address) -> bytes:
    """The framed wire bytes of one window request's response.

    Probed over the wire itself, so client-side verification compares
    against what the protocol actually promises (and the probe warms
    the reactor's response cache exactly as any first puller would).
    """
    sock = socket.create_connection(address, timeout=30)
    try:
        write_frame(
            sock, encode_request(GetChunkRange(DOC_ID, 0, RANGE_CHUNKS))
        )
        body = FrameReader(sock).read()
        assert body is not None
        return frame(body)
    finally:
        sock.close()


def _pull_client(address, duration_s, expected, results, errors):
    """One fleet member: pipelined windows, every frame byte-checked."""
    request_burst = (
        frame(encode_request(GetChunkRange(DOC_ID, 0, RANGE_CHUNKS))) * WINDOW
    )
    frame_size = len(expected)
    try:
        sock = socket.create_connection(address, timeout=60)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        total = 0
        mismatches = 0
        latencies = []
        buf = bytearray()
        deadline = time.monotonic() + duration_s
        while time.monotonic() < deadline:
            started = time.monotonic()
            sock.sendall(request_burst)
            need = WINDOW
            while need:
                data = sock.recv(1 << 18)
                if not data:
                    raise OSError("server closed mid-window")
                buf += data
                offset = 0
                while len(buf) - offset >= 4:
                    (length,) = _U32.unpack_from(buf, offset)
                    if len(buf) - offset < 4 + length:
                        break
                    if buf[offset:offset + 4 + length] != expected:
                        mismatches += 1
                    offset += 4 + length
                    need -= 1
                total += offset
                del buf[:offset]
            latencies.append(time.monotonic() - started)
        sock.close()
        results.append((total, latencies, mismatches, frame_size))
    except Exception as exc:  # surfaced by the parent
        errors.append(repr(exc))


def _fleet_worker(address, duration_s, expected, nclients, queue):
    """One client process: ``nclients`` pulling threads."""
    results = []
    errors = []
    threads = [
        threading.Thread(
            target=_pull_client,
            args=(address, duration_s, expected, results, errors),
        )
        for _ in range(nclients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=duration_s + 120)
    total = sum(r[0] for r in results)
    latencies = [x for r in results for x in r[1]]
    mismatches = sum(r[2] for r in results)
    queue.put((total, latencies, mismatches, len(results), errors))


class _SlowReader(threading.Thread):
    """A connection that asks for the whole document and sips it."""

    def __init__(self, address) -> None:
        super().__init__(daemon=True)
        self.address = address
        self.stop = threading.Event()
        self.bytes_read = 0

    def run(self) -> None:
        try:
            sock = socket.create_connection(self.address, timeout=60)
            write_frame(
                sock, encode_request(GetChunkRange(DOC_ID, 0, 999_999))
            )
            sock.settimeout(0.5)
            while not self.stop.is_set():
                try:
                    data = sock.recv(256)
                except TimeoutError:
                    continue
                if not data:
                    return
                self.bytes_read += len(data)
                time.sleep(0.01)
        except OSError:
            pass


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(len(sorted_values) * fraction)
    )
    return sorted_values[index]


def _measure_fleet(community, config) -> dict:
    server = community.serve()
    slow = _SlowReader(server.address)
    slow.start()
    expected = _expected_response(server.address)
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    per_proc = config["clients"] // config["procs"]
    procs = [
        context.Process(
            target=_fleet_worker,
            args=(
                server.address,
                config["duration_s"],
                expected,
                per_proc,
                queue,
            ),
        )
        for _ in range(config["procs"])
    ]
    started = time.monotonic()
    for proc in procs:
        proc.start()
    gathered = [
        queue.get(timeout=config["duration_s"] + 180) for _ in procs
    ]
    for proc in procs:
        proc.join(timeout=30)
    wall_s = time.monotonic() - started
    slow.stop.set()
    rejected = server.rejected_requests
    cache_hits = server.cache_hits
    requests = server.requests
    server.close()
    errors = [e for g in gathered for e in g[4]]
    if errors:
        raise AssertionError(f"fleet clients failed: {errors[:3]}")
    total_bytes = sum(g[0] for g in gathered)
    latencies = sorted(x for g in gathered for x in g[1])
    return {
        "clients": sum(g[3] for g in gathered),
        "wall_s": wall_s,
        "aggregate_mbps": total_bytes / wall_s / 1e6,
        "bytes_pulled": total_bytes,
        "windows": len(latencies),
        "requests": requests,
        "window_p50_ms": _percentile(latencies, 0.50) * 1e3,
        "window_p99_ms": _percentile(latencies, 0.99) * 1e3,
        "frame_mismatches": sum(g[2] for g in gathered),
        "rejected_requests": rejected,
        "cache_hits": cache_hits,
        "slow_reader_bytes": slow.bytes_read,
    }


def measure_pull(quick: bool = False) -> dict:
    """The headline: the reactor under the pulling fleet."""
    config = QUICK if quick else FULL
    calibration_s = calibrate()
    community = _build_community()
    try:
        fleet = _measure_fleet(community, config)
    finally:
        community.close()
    return {
        "clients": config["clients"],
        "window": WINDOW,
        "range_chunks": RANGE_CHUNKS,
        "duration_s": config["duration_s"],
        "calibration_s": calibration_s,
        # MB/s x calibration seconds: a faster machine shrinks the
        # second factor as it grows the first.
        "normalized_mbps": fleet["aggregate_mbps"] * calibration_s,
        **fleet,
    }


def measure_views(quick: bool = False) -> dict:
    """Full facade pulls over the reactor vs the in-process path."""
    config = QUICK if quick else FULL
    community = _build_community()
    try:
        reference = {}
        for name in READERS:
            with community.member(name).open(DOC_ID) as session:
                reference[name] = session.query().text()
        results = {}
        failures = []

        def pull(slot: int) -> None:
            reader = READERS[slot % len(READERS)]
            transfer = TransferPolicy.windowed(4) if slot % 2 else None
            try:
                with RemoteDSP.connect(server.address) as client:
                    attached = Community.attach(client)
                    member = attached.enroll(reader)
                    document = attached.adopt(DOC_ID, "owner")
                    with member.open(document, transfer=transfer) as session:
                        results[slot] = (reader, session.query().text())
            except Exception as exc:
                failures.append(repr(exc))

        with community.serve() as server:
            threads = [
                threading.Thread(target=pull, args=(slot,))
                for slot in range(config["views"])
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        if failures:
            raise AssertionError(f"view sessions failed: {failures[:3]}")
        identical = len(results) == config["views"] and all(
            view == reference[reader] for reader, view in results.values()
        )
        return {"sessions": config["views"], "identical": identical}
    finally:
        community.close()


def measure_admission() -> dict:
    """Over-capacity clients get typed frames with capacity reports."""
    community = _build_community()
    try:
        result = {}
        # Connection cap: connection N+1 is told, then shown the door.
        policy = AdmissionPolicy(max_connections=2)
        with community.serve(admission=policy) as server:
            keep = [RemoteDSP.connect(server.address) for _ in range(2)]
            over = RemoteDSP.connect(server.address)
            try:
                over.get_header(DOC_ID)
                result["connections"] = {"typed": False}
            except ResourceExhausted as exc:
                report = exc.capacity
                result["connections"] = {
                    "typed": report is not None,
                    "scope": report.scope if report else None,
                    "limit": report.limit if report else None,
                    "current": report.current if report else None,
                }
            finally:
                over.close()
                for client in keep:
                    client.close()
        # In-flight cap: a flood pipelined past the window is rejected
        # request by request, each with a typed capacity report.
        policy = AdmissionPolicy(client_inflight=4, sndbuf=16384)
        with community.serve(admission=policy) as server:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
            sock.settimeout(60)
            sock.connect(server.address)
            flood = 400
            request = encode_request(GetChunkRange(DOC_ID, 0, 999))
            for _ in range(flood):
                write_frame(sock, request)
            served = rejected = 0
            report = None
            reader = FrameReader(sock)
            for _ in range(flood):
                body = reader.read()
                assert body is not None
                try:
                    decode_response(GetChunkRange(DOC_ID, 0, 999), body)
                    served += 1
                except ResourceExhausted as exc:
                    rejected += 1
                    if report is None:
                        report = exc.capacity
            sock.close()
            result["inflight"] = {
                "typed": report is not None,
                "scope": report.scope if report else None,
                "limit": report.limit if report else None,
                "current": report.current if report else None,
                "served": served,
                "rejected": rejected,
            }
        return result
    finally:
        community.close()


def measure_all(quick: bool = False) -> dict:
    return {
        "experiment": "E17",
        "suite": "quick" if quick else "full",
        "pull": measure_pull(quick=quick),
        "views": measure_views(quick=quick),
        "admission": measure_admission(),
    }


_TITLE = "E17: served-DSP load (reactor; pulling fleet)"
_HEADERS = ["measurement", "MB/s", "p50 ms", "p99 ms", "notes"]


def _table(result: dict):
    rows = []
    pull = result["pull"]
    rows.append([
        "fleet pull", pull["aggregate_mbps"],
        pull["window_p50_ms"], pull["window_p99_ms"],
        f"{pull['windows']} windows, {pull['clients']} clients, "
        f"{pull['cache_hits']} cache hits of {pull['requests']} requests",
    ])
    rows.append([
        "calibrated", pull["normalized_mbps"], "", "",
        f"MB/s x calibration_s ({pull['calibration_s']:.4f} s)",
    ])
    views = result["views"]
    rows.append([
        "views", "", "", "",
        f"{views['sessions']} sessions byte-identical: {views['identical']}",
    ])
    admission = result["admission"]
    rows.append([
        "admission", "", "", "",
        f"connections typed: {admission['connections']['typed']}, "
        f"inflight typed: {admission['inflight']['typed']} "
        f"({admission['inflight']['rejected']} rejections)",
    ])
    return _TITLE, _HEADERS, rows


def run_experiment(quick: bool = False):
    return _table(measure_all(quick=quick))


def check(result: dict, committed_path: Path = COMMITTED) -> int:
    """CI / acceptance gate against the committed baseline."""
    with open(committed_path) as handle:
        committed = json.load(handle)
    suite = result["suite"]
    baseline = committed[suite]["pull"]["normalized_mbps"]
    pull = result["pull"]
    floor = CHECK_FLOOR * baseline
    checks = [
        ("calibrated MB/s", pull["normalized_mbps"] >= floor,
         f"{pull['normalized_mbps']:.3f} (floor {floor:.3f} = "
         f"{CHECK_FLOOR:.2f} x committed {suite} {baseline:.3f})"),
        ("views byte-identical", result["views"]["identical"],
         f"{result['views']['sessions']} sessions"),
        ("connection rejection typed",
         result["admission"]["connections"]["typed"]
         and result["admission"]["connections"]["scope"] == "connections",
         str(result["admission"]["connections"])),
        ("inflight rejection typed",
         result["admission"]["inflight"]["typed"]
         and result["admission"]["inflight"]["scope"] == "client-inflight"
         and result["admission"]["inflight"]["rejected"] > 0,
         f"{result['admission']['inflight']['rejected']} rejections"),
    ]
    checks.append((
        "frames byte-exact", pull["frame_mismatches"] == 0,
        f"{pull['frame_mismatches']} mismatches",
    ))
    checks.append((
        "slow reader served", pull["slow_reader_bytes"] > 0,
        f"{pull['slow_reader_bytes']} B trickled",
    ))
    checks.append((
        "honest fleet never rejected",
        pull["rejected_requests"] == 0,
        f"{pull['rejected_requests']} rejections",
    ))
    failures = 0
    for name, passed, detail in checks:
        print(f"{name}: {detail} -> {'ok' if passed else 'FAIL'}")
        if not passed:
            failures += 1
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke subset")
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when the calibrated MB/s falls below "
        f"{CHECK_FLOOR:.2f}x the committed baseline of the same suite, "
        "frames or views diverge, or rejections are not typed",
    )
    args = parser.parse_args()
    result = measure_all(quick=args.quick)
    emit(*_table(result))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.check:
        return check(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
