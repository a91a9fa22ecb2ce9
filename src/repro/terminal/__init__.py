"""The user terminal: the card driver, the card proxy and its chunk
transport plan.

"a terminal connected to the smart card.  It contains a proxy allowing
the applications to communicate easily with the different elements of
the architecture through an XML API independent of the underlying
protocols (JDBC, APDU)" (Section 3).  That one XML API is the
:mod:`repro.community` facade: each member holds its card and its
:class:`CardProxy`, and :mod:`repro.terminal.api` is the facade's
owner-side sealing code.  :class:`CardLink` is the APDU half, shared
by the pull proxy and the push subscriber.
"""

from repro.terminal.cardlink import CardLink
from repro.terminal.proxy import CardProxy, ProxyError
from repro.terminal.transfer import SEQUENTIAL, TransferPolicy

__all__ = [
    "CardLink",
    "CardProxy",
    "ProxyError",
    "SEQUENTIAL",
    "TransferPolicy",
]
