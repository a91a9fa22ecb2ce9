"""The card pump's Python calls per decoded item stay on budget.

Per decoded item the pump calls ``SXSDecoder.next_item`` and
``AccessController.feed`` and nothing else of its own; everything else
it needs (the decoder's frame stack, the controller's delivery records)
it holds in locals.  ``sys.setprofile`` counts the ``call`` events of
``repro`` frames while a pump runs, for five fixed E20 sessions (three
pulls and the two pending feed tiers, pulled by one card),
after a warm-up pull of the same session (so the policy is compiled
and the engine's tables are solved).  Two budgets per session, per
decoded item (a non-``None`` ``next_item`` result):

* ``direct`` -- calls made by the pump frame itself: two per item, plus
  the skip tests of indexed undelivered opens and the bookkeeping once
  per chunk;
* ``total`` -- every call under the pump, the evaluator's included.

The bounds were set from the counts with about 5% headroom.  A later
CPython only ever makes fewer calls here (3.12 inlines
comprehensions), so the bounds hold on 3.10 to 3.12.
"""

import os
import sys

import pytest

from repro.community import Community
from repro.core.rules import AccessRule, RuleSet
from repro.skipindex.decoder import SXSDecoder
from repro.smartcard.applet import CardApplet
from repro.terminal.transfer import TransferPolicy
from repro.workloads.docgen import agenda, hospital, video_catalog
from repro.workloads.rulegen import agenda_rules, hospital_rules, parental_rules
from repro.xmlstream.tree import tree_to_events

AGENDA_MEMBERS = ["alice", "bruno", "carla", "deng", "elsa", "farid"]

#: name -> (document, rules, reader, direct and total calls per item).
SESSIONS = {
    "hospital-doctor": (
        lambda: hospital(n_patients=10), hospital_rules, "doctor", 2.85, 7.02
    ),
    "agenda-member": (
        lambda: agenda(n_members=6, events_per_member=4),
        lambda: agenda_rules(AGENDA_MEMBERS),
        "alice",
        2.43,
        7.15,
    ),
    "video-kid": (
        lambda: video_catalog(16), lambda: parental_rules("kid"), "kid", 2.85, 15.83
    ),
    # The E20 feed tiers that go pending, pulled by one card.
    "video-kids-tier": (
        lambda: video_catalog(16),
        lambda: RuleSet(
            [AccessRule.parse("+", "kid", '//segment[meta/rating = "G"]', rule_id="K0")]
        ),
        "kid",
        2.81,
        12.62,
    ),
    "video-family": (
        lambda: video_catalog(16),
        lambda: RuleSet([
            AccessRule.parse("+", "family", "/stream", rule_id="F0"),
            AccessRule.parse("-", "family", '//segment[meta/rating = "R"]', rule_id="F1"),
        ]),
        "family",
        2.76,
        11.73,
    ),
}

PUMP = CardApplet._pump.__code__
NEXT_ITEM = SXSDecoder.next_item.__code__
REPRO = f"{os.sep}repro{os.sep}"


def _pump_calls(pull) -> dict[str, int]:
    """Run ``pull()`` and count, inside every pump it runs, the decoded
    items, the pump's own calls and all ``repro`` calls."""
    counts = {"items": 0, "direct": 0, "total": 0, "pumps": 0}
    pumps = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code is PUMP:
                pumps.append(frame)
                counts["pumps"] += 1
            elif pumps and REPRO in code.co_filename:
                counts["total"] += 1
                counts["direct"] += frame.f_back is pumps[-1]
        elif event == "return" and pumps:
            if frame is pumps[-1]:
                pumps.pop()
            elif frame.f_code is NEXT_ITEM and arg is not None:
                counts["items"] += frame.f_back is pumps[-1]

    sys.setprofile(profile)
    try:
        pull()
    finally:
        sys.setprofile(None)
    return counts


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_pump_calls_per_item_stay_on_budget(name):
    build, rules, reader, direct_bound, total_bound = SESSIONS[name]
    community = Community()
    owner = community.enroll("owner")
    member = community.enroll(reader, strict_memory=False)
    owner.publish(list(tree_to_events(build())), rules(), to=[member], doc_id="doc")
    views = []

    def pull():
        with member.open("doc", transfer=TransferPolicy.windowed(8)) as session:
            views.append(session.query().text())

    pull()  # compile the policy and solve the engine's tables
    counts = _pump_calls(pull)
    assert views[0] == views[1]
    items = counts["items"]
    assert items > 100 and counts["pumps"] > 1
    assert counts["direct"] / items <= direct_bound, counts
    assert counts["total"] / items <= total_bound, counts
