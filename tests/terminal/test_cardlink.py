"""Unit tests for the host-side card driver."""

import pytest

from repro.core.delivery import ViewMode
from repro.errors import ResourceExhausted, TamperDetected, TransportError
from repro.smartcard.apdu import StatusWord
from repro.smartcard.applet import PendingStrategy
from repro.smartcard.card import SmartCard
from repro.smartcard.resources import SessionMetrics, SimClock
from repro.terminal.cardlink import (
    CardLink,
    CardOutOfResources,
    CardTampered,
    ProxyError,
    card_error,
)

SECRET = b"link-test-secret"


@pytest.mark.parametrize(
    "status, kind, family",
    [
        (StatusWord.SECURITY_STATUS_NOT_SATISFIED, CardTampered, TamperDetected),
        (StatusWord.MEMORY_FAILURE, CardOutOfResources, ResourceExhausted),
        (StatusWord.CONDITIONS_NOT_SATISFIED, ProxyError, TransportError),
        (None, ProxyError, TransportError),
    ],
)
def test_status_words_map_to_one_typed_error_table(status, kind, family):
    error = card_error("refused", status, "put chunk 3", subject="ann")
    assert type(error) is kind
    assert isinstance(error, family)
    assert (error.status, error.context, error.subject) == (
        status, "put chunk 3", "ann",
    )


def test_select_on_first_use_and_the_session_flags_reach_the_card():
    card = SmartCard()
    clock = SimClock()
    link = CardLink(card, clock=clock, component="link:ann")
    metrics = SessionMetrics()
    link.provision_key("doc", SECRET, metrics)
    assert metrics.apdu_count == 2  # SELECT + provision
    link.open_session(
        metrics,
        "doc",
        "ann",
        query="//a",
        strategy=PendingStrategy.REFETCH,
        view_mode=ViewMode.PRUNE,
        groups=frozenset({"staff"}),
    )
    assert metrics.apdu_count == 3  # no second SELECT
    assert card.applet.view_mode is ViewMode.PRUNE
    assert clock.breakdown().keys() == {"link:ann"}
    assert metrics.bytes_to_card > 0 and metrics.bytes_from_card > 0


def test_a_refused_apdu_raises_with_its_context_after_being_charged():
    link = CardLink(SmartCard())
    metrics = SessionMetrics()
    with pytest.raises(ProxyError) as info:
        link.open_session(metrics, "never-provisioned", "ann")
    assert info.value.status == StatusWord.CONDITIONS_NOT_SATISFIED
    assert info.value.context == "begin session"
    assert metrics.apdu_count == 2
