"""E18 -- tiered feeds: dissemination cost that stays flat at 1,000+ members.

The flat ``Channel`` pays one PKI wrap per (document, member) at
publish time, so growing the audience grows the publisher's bill.  A
``Feed`` tier is ONE group key: a member costs one PKI wrap at join --
ever -- and a carousel cycle costs the publisher zero wraps and zero
policy compiles regardless of membership (the per-event costs are
asserted through the process-wide ``wrap_call_count`` /
``compile_call_count`` counters, not inferred from wall time).

The headline is the subscribers-vs-cost curve: per-cycle publisher
cost (compile + parse + wrap + frame emission) at 10 / 100 / 1,000 /
2,000 registered members, which must stay near-flat -- the CI gate
(``--check``) fails if going from 100 to 1,000 members raises
per-cycle cost by 2x or more.  A correctness phase broadcasts to live
probe subscribers on every tier and byte-compares their views against
an equivalent flat-``Channel`` broadcast of the same composed policy,
so the key-hierarchy savings can never come from serving different
bytes.  Key-economics phases assert the exact wrap counts: 1 per join,
one per tier per publish (vs one per *member* flat), and 0 per
revocation, which deletes the member's key blob.

Usage::

    python benchmarks/bench_e18_feeds.py               # full curve
    python benchmarks/bench_e18_feeds.py --quick       # CI subset
    python benchmarks/bench_e18_feeds.py --json out.json
    python benchmarks/bench_e18_feeds.py --quick --check
"""

import argparse
import json
import sys
import time

from _common import emit

from repro.community import Community, TierSpec
from repro.core.nfa import compile_call_count
from repro.crypto.groupkey import wrap_call_count
from repro.feeds import compose_rules, feed_doc_id
from repro.feeds.keys import member_recipient
from repro.workloads.docgen import video_catalog
from repro.xmlstream.tree import tree_to_events

FEED = "wire"
TIERS = [
    TierSpec("public", allow=("//meta",)),
    TierSpec("partner", allow=("/stream/news",), drop=("rating",)),
    TierSpec("internal", allow=("/stream",)),
]
DOCS = 2
CHANNELS = 12
CHUNK = 96

SIZES_FULL = (10, 100, 1000, 2000)
SIZES_QUICK = (100, 1000)
CYCLES_FULL = 50
CYCLES_QUICK = 20
REPEATS = 3


def _build_feed(members: int):
    community = Community()
    owner = community.enroll("owner")
    feed = community.feed(FEED, owner=owner, tiers=TIERS)
    for index in range(DOCS):
        feed.publish(
            list(tree_to_events(video_catalog(CHANNELS))),
            doc_id=f"cat-{index}",
            chunk_size=CHUNK,
        )
    tier_names = [spec.name for spec in TIERS]
    names = [f"m{index:05d}" for index in range(members)]
    for name in names:
        community.enroll(name, strict_memory=False)
    wraps_before = wrap_call_count()
    join_started = time.perf_counter()
    for index, name in enumerate(names):
        # attach=False: membership is real (blobs at the DSP, catch-up
        # works) but no simulated receiver loop rides the lane -- the
        # point is the PUBLISHER's bill, which members never appear on.
        feed.subscribe(name, tier_names[index % len(tier_names)], attach=False)
    join_s = time.perf_counter() - join_started
    join_wraps = wrap_call_count() - wraps_before
    return community, feed, {
        "members": members,
        "join_wraps_per_member": join_wraps / members if members else 0.0,
        "join_ms_per_member": join_s * 1e3 / members if members else 0.0,
    }


def _measure_size(members: int, cycles: int) -> dict:
    community, feed, stats = _build_feed(members)
    try:
        feed.broadcast()  # warm the compiled-policy cache
        best = float("inf")
        for _ in range(REPEATS):
            wraps = wrap_call_count()
            compiles = compile_call_count()
            started = time.perf_counter()
            feed.broadcast(cycles=cycles)
            elapsed = time.perf_counter() - started
            stats["cycle_wraps"] = wrap_call_count() - wraps
            stats["cycle_compiles"] = compile_call_count() - compiles
            best = min(best, elapsed / cycles)
        stats["per_cycle_ms"] = best * 1e3
        # Key economics at this membership: publishing one more
        # document costs one wrap per TIER (the flat model pays one per
        # MEMBER); revoking deletes one blob and wraps nothing.
        wraps = wrap_call_count()
        feed.publish(
            list(tree_to_events(video_catalog(CHANNELS))),
            doc_id="cat-extra",
            chunk_size=CHUNK,
        )
        stats["publish_wraps"] = wrap_call_count() - wraps
        stats["flat_publish_wraps"] = members  # one per member, per doc
        if members:
            wraps = wrap_call_count()
            feed.revoke("m00000")
            stats["revoke_wraps"] = wrap_call_count() - wraps
            stats["revoke_blob_removed"] = (
                member_recipient(FEED, "public", "m00000")
                not in community.store.get(feed_doc_id(FEED)).wrapped_keys
            )
    finally:
        community.close()
    return stats


def measure_scale(quick: bool = False) -> list[dict]:
    sizes = SIZES_QUICK if quick else SIZES_FULL
    cycles = CYCLES_QUICK if quick else CYCLES_FULL
    return [_measure_size(members, cycles) for members in sizes]


def measure_parity() -> dict:
    """Live probes on every tier vs an equivalent flat-Channel broadcast."""
    community, feed, __ = _build_feed(9)
    try:
        probes = {}
        for spec in TIERS:
            name = f"probe-{spec.name}"
            community.enroll(name, strict_memory=False)
            probes[spec.name] = feed.subscribe(name, spec.name)
        feed.broadcast()
        for handle in probes.values():
            handle.require_ok()
        preview = feed.preview()

        flat = Community()
        owner = flat.enroll("owner")
        readers = {
            spec.name: flat.enroll(
                f"probe-{spec.name}", strict_memory=False
            )
            for spec in TIERS
        }
        wraps_before = wrap_call_count()
        rules = compose_rules(FEED, TIERS)
        documents = [
            owner.publish(
                list(tree_to_events(video_catalog(CHANNELS))),
                rules,
                to=list(readers.values()),
                doc_id=f"cat-{index}",
                chunk_size=CHUNK,
            )
            for index in range(DOCS)
        ]
        flat_wraps = wrap_call_count() - wraps_before
        flat_views = {spec.name: "" for spec in TIERS}
        for document in documents:
            channel = flat.channel(document)
            handles = {
                spec.name: channel.subscribe(
                    readers[spec.name],
                    groups=frozenset({spec.group(FEED)}),
                )
                for spec in TIERS
            }
            channel.broadcast()
            for tier, handle in handles.items():
                handle.require_ok()
                flat_views[tier] += handle.view
        flat.close()
        return {
            "tiers": len(TIERS),
            "views_identical": all(
                probes[tier].view == flat_views[tier] for tier in flat_views
            ),
            "preview_identical": all(
                probes[tier].view == preview[tier] for tier in preview
            ),
            "tiers_distinct": len(
                {probes[spec.name].view for spec in TIERS}
            ) == len(TIERS),
            "flat_publish_wraps": flat_wraps,
            "feed_publish_wraps_per_doc": len(TIERS),
        }
    finally:
        community.close()


def measure_all(quick: bool = False) -> dict:
    return {
        "experiment": "E18",
        "suite": "quick" if quick else "full",
        "scale": measure_scale(quick=quick),
        "parity": measure_parity(),
    }


_TITLE = "E18: tiered feeds (per-cycle publisher cost vs membership)"
_HEADERS = [
    "members", "cycle ms", "cycle wraps", "cycle compiles",
    "join wraps/m", "publish wraps (flat)", "revoke wraps",
]


def _table(result: dict):
    rows = []
    for stats in result["scale"]:
        rows.append([
            stats["members"],
            stats["per_cycle_ms"],
            stats["cycle_wraps"],
            stats["cycle_compiles"],
            stats["join_wraps_per_member"],
            f"{stats['publish_wraps']} ({stats['flat_publish_wraps']})",
            stats.get("revoke_wraps", ""),
        ])
    parity = result["parity"]
    rows.append([
        "parity", "", "", "",
        "",
        f"{parity['feed_publish_wraps_per_doc']}/doc vs "
        f"{parity['flat_publish_wraps']} flat total",
        f"views==flat: {parity['views_identical']}",
    ])
    return _TITLE, _HEADERS, rows


def run_experiment(quick: bool = False):
    return _table(measure_all(quick=quick))


def check(result: dict) -> int:
    """CI / acceptance gate: flat curve, exact key economics, parity."""
    by_size = {stats["members"]: stats for stats in result["scale"]}
    small, large = by_size[100], by_size[1000]
    ratio = (
        large["per_cycle_ms"] / small["per_cycle_ms"]
        if small["per_cycle_ms"]
        else float("inf")
    )
    parity = result["parity"]
    checks = [
        ("per-cycle cost flat 100 -> 1000", ratio < 2.0,
         f"{small['per_cycle_ms']:.3f}ms -> {large['per_cycle_ms']:.3f}ms "
         f"({ratio:.2f}x, floor <2x)"),
        ("tier views byte-identical to flat channel",
         parity["views_identical"], f"{parity['tiers']} tiers"),
        ("preview matches delivered views",
         parity["preview_identical"], f"{parity['tiers']} lanes"),
        ("tiers actually differ", parity["tiers_distinct"],
         "sanitization observed"),
    ]
    for stats in result["scale"]:
        n = stats["members"]
        checks.extend([
            (f"cycle wraps zero at {n}", stats["cycle_wraps"] == 0,
             str(stats["cycle_wraps"])),
            (f"cycle compiles zero at {n}", stats["cycle_compiles"] == 0,
             str(stats["cycle_compiles"])),
            (f"one wrap per join at {n}",
             stats["join_wraps_per_member"] == 1.0,
             f"{stats['join_wraps_per_member']:.2f}"),
            (f"publish wraps == tiers at {n}",
             stats["publish_wraps"] == len(TIERS),
             f"{stats['publish_wraps']} (flat would pay {n})"),
            (f"revocation is zero wraps and one removed blob at {n}",
             stats.get("revoke_wraps") == 0
             and stats.get("revoke_blob_removed") is True,
             f"{stats.get('revoke_wraps')} wraps, "
             f"blob removed: {stats.get('revoke_blob_removed')}"),
        ])
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
        help="exit 1 when the 100 -> 1,000 member per-cycle cost ratio "
        "reaches 2x, any cycle wraps or compiles, join costs more than "
        "one wrap, or tier views diverge from the flat-channel baseline",
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
