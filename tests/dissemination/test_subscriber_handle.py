"""SubscriberHandle.require_ok on a handle that never saw a document."""

import pytest

from repro.community import Community
from repro.errors import TransportError


def test_require_ok_without_header_raises_transport_error():
    community = Community()
    owner = community.enroll("owner")
    member = community.enroll("sub", strict_memory=False)
    doc = owner.publish(
        "<tv><show>x</show></tv>", [("+", "viewers", "/tv")], to=[member], doc_id="tv"
    )
    handle = community.channel(doc).subscribe(member, groups=frozenset({"viewers"}))
    assert not handle.ok
    with pytest.raises(TransportError, match="never saw a header frame") as caught:
        handle.require_ok()
    assert caught.value.subject == "sub"
