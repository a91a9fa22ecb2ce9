"""``repro.community`` -- the facade API over the whole architecture.

The paper's pitch is an *end-user* system: a community of members
safely sharing and disseminating XML through smart devices.  This
package is that surface.  One :class:`Community` owns the shared
infrastructure (simulated PKI, DSP store + server, one clock, one
compiled-policy registry) and hands out composable handles::

    from repro.community import Community

    community = Community()
    alice = community.enroll("alice")
    bob = community.enroll("bob")
    doc = alice.publish(
        "<notes><work>plan</work><diary>secret</diary></notes>",
        [("+", "bob", "/notes"), ("-", "bob", "//diary")],
        to=[bob],
    )
    with bob.open(doc) as session:
        print(session.query().text())   # bob's authorized view

Handles:

=================  ====================================================
:class:`Community`  shared infrastructure; ``enroll``/``channel``
:class:`Member`     a principal: ``publish``/``open`` + its card
:class:`Document`   owner handle: ``update_rules``/``grant``/``revoke``
:class:`Session`    one pull session (context manager), ``query``
:class:`ViewStream` incremental authorized view; ``text``/``events``
:class:`Channel`    push/carousel path; ``subscribe``/``broadcast``
:class:`Feed`       tiered dissemination; ``publish``/``subscribe``/
                    ``broadcast``/``catch_up``/``revoke``
:class:`SubscriberHandle`  a member's end of a Channel or Feed lane;
                    ``view``/``views``/``metrics``/``require_ok``
=================  ====================================================

Views stream: ``session.query(xpath)`` returns a :class:`ViewStream`
whose first fragment is available before the document has been fully
pulled from the DSP, and whose refetched subtrees settle by document
position.  Failures raise the :mod:`repro.errors` taxonomy.
"""

from repro.cache.viewcache import ViewCache
from repro.community.channels import Channel
from repro.community.facade import Community, Document, Member
from repro.community.session import Session, ViewStream
from repro.dissemination import SubscriberHandle
from repro.feeds import Feed, TierSpec
from repro.terminal.proxy import ViewPiece

__all__ = [
    "Channel",
    "Community",
    "Document",
    "Feed",
    "Member",
    "Session",
    "SubscriberHandle",
    "TierSpec",
    "ViewCache",
    "ViewPiece",
    "ViewStream",
]
