"""The measurement loop: set-ups, calibrated blocks, the run's record.

Per-op result objects live only for one block.  Each block is folded
into compact arrays and running totals, so the benchmark's own memory
(and the garbage collector's work on it) does not grow with how many
operations a run completes; otherwise a faster program would show a
higher ``peak_rss_mb`` and longer collector pauses in its tail.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from array import array

from calibrate import Calibrator
from stats import MIN_READS, latency_summary
from tracer import Tracer, instrument
from workloads import WORKLOADS, OpResult, Workload

_now = time.perf_counter

#: Operations between two calibration probes run for about this long.
BLOCK_S = 0.2
#: Exact counts are summed over this many leading operations of the
#: seeded sequence (client 0's, for ``served``), so they repeat exactly.
EXACT_OPS = 50
#: SimClock components summed into the exact counts.
MODEL_COMPONENTS = ("card_cpu", "link", "network", "eeprom")


class Tally:
    """Everything a run's record needs, folded block by block."""

    def __init__(self) -> None:
        self.read_ms = array("d")  # calibrated, untraced blocks
        self.traced_read_ms = array("d")
        self.write_ms = array("d")
        self.first_ms = array("d")
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: set[str] = set()
        self.busy_s = 0.0
        self.read_s = 0.0
        self.plaintext = 0
        self.model_s = 0.0
        self.writes = 0
        self.write_wraps = 0
        self.compiles = 0
        self.leading: list[OpResult] = []
        self.traced: list[OpResult] = []
        self.server: list[tuple[bool, dict[str, float]]] = []

    def add(self, ops: list[OpResult], busy_s: float, scale: float, traced: bool) -> None:
        self.busy_s += busy_s * scale
        for op in ops:
            op.scale = scale
            op.traced = traced
            ms = op.raw_s * scale * 1e3
            self.attempted += 1
            self.compiles += op.compiles
            if not op.ok:
                self.failed += 1
                if op.mismatch:
                    self.mismatches += 1
                if len(self.errors) < 5 and op.error:
                    self.errors.add(op.error)
            if op.kind == "read":
                (self.traced_read_ms if traced else self.read_ms).append(ms)
                self.read_s += op.raw_s * scale
                self.plaintext += op.plaintext
                self.model_s += sum(op.model.values())
                if op.first_s is not None:
                    self.first_ms.append(op.first_s * scale * 1e3)
            else:
                self.write_ms.append(ms)
                self.writes += 1
                self.write_wraps += op.wraps
            if op.client == 0 and len(self.leading) < EXACT_OPS:
                self.leading.append(op)
            if traced:
                self.traced.append(op)

    @property
    def reads(self) -> int:
        return len(self.read_ms) + len(self.traced_read_ms)


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    setups: int,
    min_reads: int = MIN_READS,
    trace_path: str | None = None,
) -> dict:
    """Build the world ``setups`` times, then measure for ``seconds``
    and until ``min_reads`` untraced reads are timed.

    In a traced run, blocks alternate between untraced and traced, so
    the tracing overhead is measured in the same run under the same
    drift; the kept spans go to ``trace_path`` as a Chrome trace.
    """
    cls = WORKLOADS[name]
    calibrator = Calibrator()
    setup_s: list[float] = []
    world: Workload | None = None
    for _ in range(setups):
        if world is not None:
            world.close()
        # The previous world's garbage is not this set-up's work.
        gc.collect()
        world = cls(seed)
        setup_s.append(calibrator.timed(world.build)[1])
    assert world is not None
    tally = Tally()
    tracer = None
    try:
        setup_mismatches = world.check_setup()
        before = calibrator.probe()
        if trace:
            tracer = Tracer(threaded=cls.CLIENTS > 1)
            reference_probe = before
        stats_before = world.block_stats() if trace else None
        deadline = _now() + seconds
        block = 0
        while True:
            traced = tracer is not None and block % 2 == 1
            restore = None
            if traced:
                tracer.scale_costs(before / reference_probe)
                restore = instrument(tracer)
            try:
                ops, busy = world.run_block(_now() + BLOCK_S, tracer if traced else None)
            finally:
                if restore is not None:
                    restore()
            after = calibrator.probe()
            scale = calibrator.factor(before, after)
            before = after
            tally.add(ops, busy, scale, traced)
            if stats_before is not None:
                stats_after = world.block_stats()
                assert stats_after is not None
                delta = {key: stats_after[key] - stats_before[key] for key in stats_after}
                delta["cpu_s"] *= scale
                tally.server.append((traced, delta))
                stats_before = stats_after
            block += 1
            if (
                _now() >= deadline
                and len(tally.read_ms) >= min_reads
                and len(tally.leading) >= EXACT_OPS
                and (tracer is None or block >= 2)
            ):
                break
    finally:
        world.close()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = (usage.ru_maxrss + world.extra_rss_kb()) / 1024.0
    if tracer is not None and trace_path is not None:
        with open(trace_path, "w") as handle:
            json.dump(tracer.chrome_trace(), handle)
    record = summarize(name, seed, seconds, tally, setup_s, setup_mismatches, calibrator.probes, peak_rss_mb)
    if tracer is not None:
        record["per_layer"], record["layers"] = per_layer(tally)
        record["trace_spans"] = len(tracer.spans)
    return record


def summarize(
    name: str,
    seed: int,
    seconds: float,
    tally: Tally,
    setup_s: list[float],
    setup_mismatches: list[str],
    probes: list[float],
    peak_rss_mb: float,
) -> dict:
    untraced = latency_summary(tally.read_ms)
    mismatches = tally.mismatches + len(setup_mismatches)
    reads = tally.reads
    e2e = {
        "setup_s": statistics.median(setup_s),
        "op_p50_ms": untraced["p50"],
        "op_p99_ms": untraced["tail"],
        "ops_per_s": tally.attempted / tally.busy_s if tally.busy_s else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "reads": reads,
        "writes": tally.writes,
        "untraced_reads": untraced["n"],
        "op_tail_pct": untraced["tail_pct"],
        "first_piece_p50_ms": statistics.median(tally.first_ms) if tally.first_ms else None,
        "plaintext_mbps": (
            tally.plaintext / tally.read_s / 1e6 if tally.read_s and tally.plaintext else None
        ),
        "write_p50_ms": statistics.median(tally.write_ms) if tally.write_ms else None,
        "modeled_ms_per_op": tally.model_s * 1e3 / reads if reads and tally.model_s else None,
        "fail_ratio": tally.failed / tally.attempted if tally.attempted else 0.0,
        "setup_runs_s": setup_s,
        "probe_ms": {
            "median": statistics.median(probes),
            "min": min(probes),
            "max": max(probes),
            "count": len(probes),
        },
    }
    exact: dict[str, float] = {
        "ops": len(tally.leading),
        "terminal.dsp_requests": sum(op.dsp_requests for op in tally.leading),
        "smartcard.apdus": sum(op.apdus for op in tally.leading),
        "feeds.wraps": sum(op.wraps for op in tally.leading),
        "feeds.compiles": sum(op.compiles for op in tally.leading),
    }
    for component in MODEL_COMPONENTS:
        exact[f"model.{component}_s"] = sum(op.model.get(component, 0.0) for op in tally.leading)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "correct": tally.failed == 0 and not setup_mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "mismatches": mismatches,
        "errors": sorted(tally.errors) + setup_mismatches[:5],
        "end_to_end": e2e,
        "detail": detail,
        "exact": exact,
    }


#: Wall layers, in pull-path order, and the SimClock charges modeling
#: each (the paper's claim: decryption and communication dominate).
LAYERS = (
    ("terminal", ()),
    ("smartcard", ("link", "eeprom")),
    ("crypto", ("decrypt", "mac")),
    ("skipindex", ("decode",)),
    ("core", ("engine",)),
    ("xmlstream", ("output",)),
    ("cache", ()),
    ("dsp", ("network",)),
    ("dsp.wire", ()),
    ("dsp.remote", ()),
    ("feeds", ()),
    ("dissemination", ()),
    ("write.encode", ()),
    ("write.seal", ()),
    ("write.store", ()),
    ("write.invalidate", ()),
    ("trace", ()),
    ("other", ()),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tally: Tally) -> tuple[dict[str, float], list[dict]]:
    """Per-layer metrics from the traced blocks, per read op unless named."""
    reads = [op for op in tally.traced if op.kind == "read" and op.trace is not None]
    writes = [op for op in tally.traced if op.kind == "write" and op.trace is not None]
    n = max(1, len(reads))

    def self_ms(layer: str, ops: list[OpResult]) -> float:
        total = sum(op.trace.self_s.get(layer, 0.0) * op.scale for op in ops if op.trace)
        return total * 1e3 / max(1, len(ops))

    def total(key: str) -> float:
        return sum(op.trace.counts.get(key, 0.0) for op in reads if op.trace)

    model = {
        component: sum(op.model.get(component, 0.0) for op in reads) * 1e3 / n
        for component in MODEL_COMPONENTS
    }
    split = {kind: total(f"model.{kind}_s") * 1e3 / n for kind in ("decrypt", "mac", "decode", "output")}
    split["engine"] = max(0.0, model["card_cpu"] - sum(split.values()))
    reactor = {
        key: sum(delta[key] for traced, delta in tally.server if traced)
        for key in ("requests", "cache_hits", "rejected", "cpu_s")
    }
    metrics = {
        "terminal.self_ms": self_ms("terminal", reads),
        "terminal.dsp_requests": total("terminal.dsp_requests") / n,
        "terminal.wasted_chunk_ratio": _ratio(total("terminal.chunks_wasted"), total("terminal.chunks_fetched")),
        "smartcard.self_ms": self_ms("smartcard", reads),
        "smartcard.apdus": total("smartcard.apdus") / n,
        "smartcard.link_bytes": total("smartcard.link_bytes") / n,
        "crypto.self_ms": self_ms("crypto", reads),
        "crypto.calls": total("calls:crypto") / n,
        "crypto.bytes_decrypted": total("crypto.bytes_decrypted") / n,
        "skipindex.self_ms": self_ms("skipindex", reads),
        "skipindex.items": total("skipindex.items") / n,
        "skipindex.skip_ratio": _ratio(
            total("skipindex.bytes_skipped"),
            total("skipindex.bytes_skipped") + total("skipindex.bytes_pushed"),
        ),
        "core.self_ms": self_ms("core", reads),
        "core.events": total("core.events") / n,
        "core.tokens_per_event": _ratio(total("core.tokens_touched"), total("core.events_pumped")),
        "core.product_ratio": _ratio(total("core.product_sessions"), total("core.sessions")),
        "xmlstream.self_ms": self_ms("xmlstream", reads),
        "xmlstream.output_bytes": total("xmlstream.output_bytes") / n,
        "cache.self_ms": self_ms("cache", reads),
        "cache.hit_ratio": _ratio(total("cache.hits"), total("cache.lookups")),
        "cache.semantic_ratio": _ratio(total("cache.semantic_hits"), total("cache.lookups")),
        "cache.evictions": total("cache.evictions") / n,
        "dsp.self_ms": self_ms("dsp", reads),
        "dsp.calls": total("calls:dsp") / n,
        "dsp.bytes": total("dsp.bytes") / n,
        "dsp.wire.self_ms": self_ms("dsp.wire", reads),
        "dsp.remote.wait_ms": self_ms("dsp.remote", reads),
        "dsp.reactor.cpu_ms": reactor["cpu_s"] * 1e3 / n,
        "dsp.reactor.cache_hit_ratio": _ratio(reactor["cache_hits"], reactor["requests"]),
        "dsp.reactor.requests": reactor["requests"] / n,
        "dsp.reactor.rejected": reactor["rejected"] / n,
        "feeds.self_ms": self_ms("feeds", reads),
        "feeds.wraps_per_write": _ratio(tally.write_wraps, tally.writes),
        "feeds.compiles": _ratio(tally.compiles, tally.attempted),
        "dissemination.self_ms": self_ms("dissemination", reads),
        "dissemination.frames": total("calls:dissemination") / n,
        "dissemination.frames_dropped_ratio": _ratio(
            total("dissemination.frames_dropped"), total("calls:dissemination")
        ),
        "write.encode_ms": self_ms("write.encode", writes),
        "write.seal_ms": self_ms("write.seal", writes),
        "write.store_ms": self_ms("write.store", writes),
        "write.invalidate_ms": self_ms("write.invalidate", writes),
        "other.self_ms": self_ms("other", reads),
        "model.card_cpu_ms": model["card_cpu"],
        "model.link_ms": model["link"],
        "model.network_ms": model["network"],
        "model.eeprom_ms": model["eeprom"],
        **{f"model.{kind}_ms": value for kind, value in split.items()},
    }
    metrics["trace.overhead"] = (
        statistics.median(tally.traced_read_ms) / statistics.median(tally.read_ms) - 1.0
        if tally.traced_read_ms and tally.read_ms
        else 0.0
    )
    wall_total = sum(self_ms(layer, reads) for layer, _ in LAYERS)
    model_parts = {"network": model["network"], "link": model["link"], "eeprom": model["eeprom"], **split}
    model_total = sum(model_parts.values())
    table = []
    for layer, charges in LAYERS:
        wall = self_ms(layer, reads)
        modeled = sum(model_parts.get(charge, 0.0) for charge in charges)
        table.append({
            "layer": layer,
            "calls": total("calls:" + layer) / n,
            "self_ms": wall,
            "wall_share": _ratio(wall, wall_total),
            "modeled_ms": modeled,
            "modeled_share": _ratio(modeled, model_total),
        })
    return metrics, table
