"""The user terminal: the card proxy and its chunk transport plan.

"a terminal connected to the smart card.  It contains a proxy allowing
the applications to communicate easily with the different elements of
the architecture through an XML API independent of the underlying
protocols (JDBC, APDU)" (Section 3).  That one XML API is the
:mod:`repro.community` facade: each member holds its card and its
:class:`CardProxy`, and :mod:`repro.terminal.api` is the facade's
owner-side sealing code.
"""

from repro.terminal.proxy import CardProxy, ProxyError
from repro.terminal.transfer import SEQUENTIAL, TransferPolicy

__all__ = [
    "CardProxy",
    "ProxyError",
    "SEQUENTIAL",
    "TransferPolicy",
]
