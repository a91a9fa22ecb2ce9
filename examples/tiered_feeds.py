"""Tiered feeds: one publisher, three audiences, flat broadcast cost.

A CTI-style bulletin desk publishes one report stream to three tiers:

* ``public``   -- headline summaries only;
* ``partner``  -- full reports, with ``<secret>`` elements sanitized
  away by the tier's ``drop`` filter (sanitization IS card policy,
  not a text pass);
* ``internal`` -- everything.

Each tier is ONE content key: a member costs one PKI wrap at join, a
carousel cycle costs the publisher zero wraps and zero policy
compiles, and revoking a member deletes its key blob and wraps
nothing -- however many members and documents exist.  A late joiner
replays one cycle rebuilt from the stored containers and sees
byte-identical views; a revoked member's next catch-up dies with
``KeyNotGranted``.

Run with::

    python examples/tiered_feeds.py
"""

from repro.community import Community, TierSpec
from repro.crypto.groupkey import wrap_call_count
from repro.errors import KeyNotGranted

REPORTS = [
    (
        "flash-077",
        "<report><summary>phishing wave targeting registrars</summary>"
        "<body>lure domains rotate hourly"
        "<secret>source: partner intercept TANGO</secret></body></report>",
    ),
    (
        "flash-078",
        "<report><summary>patched VPN appliance exploited</summary>"
        "<body>scanning observed from three ranges"
        "<secret>honeypot fingerprint HX-9</secret></body></report>",
    ),
]


def main() -> None:
    community = Community()
    desk = community.enroll("desk")
    feed = community.feed(
        "bulletins",
        owner=desk,
        tiers=[
            TierSpec("public", allow=("/report/summary",)),
            TierSpec("partner", allow=("/report",), drop=("secret",)),
            TierSpec("internal", allow=("/report",)),
        ],
    )
    for doc_id, xml in REPORTS:
        feed.publish(xml, doc_id=doc_id)

    members = {
        "mirror": "public",
        "isac-a": "partner",
        "isac-b": "partner",
        "analyst": "internal",
    }
    handles = {}
    for name, tier in members.items():
        community.enroll(name, strict_memory=False)
        wraps = wrap_call_count()
        handles[name] = feed.subscribe(name, tier)
        print(f"join {name:8s} -> {tier:8s} ({wrap_call_count() - wraps} wrap)")

    wraps = wrap_call_count()
    feed.broadcast(cycles=2)
    print(f"\nbroadcast 2 cycles x {len(feed.documents)} documents to "
          f"{len(members)} members: {wrap_call_count() - wraps} wraps\n")

    for name, handle in handles.items():
        handle.require_ok()
        secrets = handle.view.count("<secret>")
        print(f"{name:8s} [{handle.tier:8s}] {len(handle.view):4d} B, "
              f"secrets visible: {secrets}")

    # A late joiner replays one cycle from the stored containers --
    # byte-identical to having listened live.
    community.enroll("late-isac", strict_memory=False)
    feed.subscribe("late-isac", "partner", attach=False)
    late = feed.catch_up("late-isac")
    late.require_ok()
    print(f"\nlate joiner caught up byte-identical: "
          f"{late.view == handles['isac-a'].view}")

    # Tier revocation: one blob deleted, zero wraps, nobody else moves.
    wraps = wrap_call_count()
    feed.revoke("isac-b")
    print(f"revoked isac-b: {wrap_call_count() - wraps} wraps")
    try:
        feed.catch_up("isac-b")
        raise AssertionError("revoked member caught up")
    except KeyNotGranted as exc:
        print(f"isac-b catch-up refused: {type(exc).__name__}")

    feed.broadcast()
    handles["isac-a"].require_ok()
    print(f"surviving partner still golden: "
          f"{handles['isac-a'].view == feed.preview()['partner']}")
    community.close()


if __name__ == "__main__":
    main()
