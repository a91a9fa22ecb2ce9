"""Trusted-server filtering: the architecture the paper rejects.

If the server were trusted, it could evaluate the view in plaintext
and ship only the result.  The paper's whole point is that servers and
DSPs are *not* trusted; this baseline exists as the latency floor in
experiment E6's comparison table.
"""

from __future__ import annotations

from repro.core.delivery import ViewMode
from repro.core.reference import reference_view
from repro.core.rules import RuleSet, Sign
from repro.smartcard.resources import NetworkModel, SimClock
from repro.xmlstream.tree import Element
from repro.xmlstream.writer import write_string


def trusted_server_query(
    root: Element,
    rules: RuleSet,
    subject: str,
    query: str | None = None,
    mode: ViewMode = ViewMode.SKELETON,
    default: Sign = Sign.DENY,
    network: NetworkModel | None = None,
    clock: SimClock | None = None,
) -> tuple[str, SimClock]:
    """Compute the view server-side and charge only the result transfer."""
    network = network or NetworkModel()
    clock = clock or SimClock()
    view = write_string(
        reference_view(root, rules, subject, query=query, mode=mode, default=default)
    )
    payload = view.encode("utf-8")
    clock.add("network", network.request_overhead_seconds)
    clock.add("network", network.transfer_seconds(len(payload)))
    return view, clock

