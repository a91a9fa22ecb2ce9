"""Unit tests for the delivery engine (views, holes, streaming)."""

from repro.core import AccessRule, RuleSet
from repro.core.delivery import ViewMode
from repro.core.pipeline import AccessController
from repro.core.reference import reference_view
from repro.workloads.docgen import video_catalog
from repro.workloads.rulegen import parental_rules
from repro.xmlstream.events import CloseEvent, OpenEvent, ValueEvent
from repro.xmlstream.parser import parse_string
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string


def _controller(rule_defs, query=None, mode=ViewMode.SKELETON):
    rules = RuleSet([
        AccessRule.parse(sign, "u", path, rule_id=f"D{i}")
        for i, (sign, path) in enumerate(rule_defs)
    ])
    return AccessController(rules, "u", query=query, mode=mode)


def test_streaming_emits_before_document_end():
    """Delivered content must not wait for the root to close."""
    controller = _controller([("+", "/r")])
    out = controller.feed(OpenEvent("r"))
    assert out == [OpenEvent("r")]
    out = controller.feed(ValueEvent("x"))
    assert out == [ValueEvent("x")]


def test_skeleton_ancestors_stream_too():
    """A denied ancestor's skeleton appears as soon as content flows."""
    controller = _controller([("+", "//leaf")])
    assert controller.feed(OpenEvent("root")) == []
    assert controller.feed(OpenEvent("mid")) == []
    out = controller.feed(OpenEvent("leaf"))
    assert out == [OpenEvent("root"), OpenEvent("mid"), OpenEvent("leaf")]


def test_denied_subtree_with_no_content_vanishes():
    controller = _controller([("+", "//x")])
    output = []
    for event in parse_string("<r><a><b/></a><x/></r>"):
        output.extend(controller.feed(event))
    output.extend(controller.finish())
    assert write_string(output) == "<r><x></x></r>"


def test_attributes_only_on_delivered_elements():
    controller = _controller([("+", "//b")])
    output = []
    for event in parse_string('<r id="secret"><b id="mine"/></r>'):
        output.extend(controller.feed(event))
    output.extend(controller.finish())
    assert write_string(output) == '<r><b id="mine"></b></r>'


def test_text_of_denied_skeleton_dropped():
    controller = _controller([("+", "//b")])
    output = []
    for event in parse_string("<r>secret<b>ok</b>more</r>"):
        output.extend(controller.feed(event))
    output.extend(controller.finish())
    assert write_string(output) == "<r><b>ok</b></r>"


def test_pending_blocks_following_output_until_resolution():
    """Order preservation: output after a hole waits for the hole."""
    controller = _controller([("+", "/r"), ("-", "//b[x]")])
    events = parse_string("<r><b><k>inside</k></b><after>tail</after></r>")
    collected = []
    release_points = []
    for index, event in enumerate(events):
        out = controller.feed(event)
        collected.extend(out)
        if out:
            release_points.append(index)
    collected.extend(controller.finish())
    # <b> is pending on [x]; everything from <b> onward is held until
    # b closes (x never arrives -> b delivered by fallback /r permit).
    text = write_string(collected)
    assert text == "<r><b><k>inside</k></b><after>tail</after></r>"


def test_prune_mode_reparents():
    controller = _controller([("+", "//leaf")], mode=ViewMode.PRUNE)
    output = []
    for event in parse_string("<r><mid><leaf>x</leaf></mid></r>"):
        output.extend(controller.feed(event))
    output.extend(controller.finish())
    assert write_string(output) == "<leaf>x</leaf>"


def test_query_restricts_delivery():
    controller = _controller([("+", "/r")], query="//b")
    output = []
    for event in parse_string("<r><a>no</a><b>yes</b></r>"):
        output.extend(controller.feed(event))
    output.extend(controller.finish())
    assert write_string(output) == "<r><b>yes</b></r>"


def test_query_with_no_matches_yields_empty():
    controller = _controller([("+", "/r")], query="//zzz")
    output = []
    for event in parse_string("<r><a>no</a></r>"):
        output.extend(controller.feed(event))
    output.extend(controller.finish())
    assert output == []


def test_max_pending_bytes_tracked_with_memory():
    from repro.smartcard.memory import MemoryMeter

    rules = RuleSet([AccessRule.parse("+", "u", "//b[c]/d", rule_id="p")])
    meter = MemoryMeter(quota=None)
    controller = AccessController(rules, "u", memory=meter)
    for event in parse_string("<r><b><d>0123456789</d><c/></b></r>"):
        controller.feed(event)
    controller.finish()
    assert controller.max_pending_bytes >= 10


def test_pending_descendants_without_matches_share_the_parents_fate():
    """Only an element with direct matches watches conditions; the
    elements inside it that match nothing join its resolution."""
    controller = _controller([("+", '//b[x = "1"]')])
    events = parse_string("<r><b><c><d>t</d></c><x>1</x></b></r>")
    output = []
    for event in events[:5]:  # up to the text of <d>
        output.extend(controller.feed(event))
    records = controller.records
    assert [record.kind for record in records] == [
        "drop", "pending", "pending", "pending"
    ]
    fates = {id(record.sink.fate) for record in records[1:]}
    assert len(fates) == 1
    for event in events[5:]:
        output.extend(controller.feed(event))
    output.extend(controller.finish())
    assert write_string(output) == "<r><b><c><d>t</d></c><x>1</x></b></r>"


def test_settled_pending_region_stops_draining():
    """Once a drain empties the root buffer no hole is left anywhere
    (each one sits in that buffer or inside a hole there), so ``feed``
    hands back the root buffer again and calls no drain until the next
    pending region opens."""
    events = list(tree_to_events(video_catalog(8)))
    controller = AccessController(parental_rules("kid"), "kid")
    delivery = controller._delivery
    drains = 0
    drain = delivery.drain

    def counting_drain():
        nonlocal drains
        drains += 1
        return drain()

    delivery.drain = counting_drain
    output, fast_after_pending, pending_seen = [], 0, False
    for event in events:
        before = drains
        released = controller.feed(event)
        output.extend(released)
        if delivery.released is not delivery._root_items:
            pending_seen = True
        elif released is delivery._root_items and drains == before:
            fast_after_pending += pending_seen
    output.extend(controller.finish())
    assert pending_seen and fast_after_pending > 0
    assert write_string(output) == write_string(
        reference_view(video_catalog(8), parental_rules("kid"), "kid")
    )


def test_feed_drains_only_when_a_hole_can_settle():
    """Holes nested in an unsettled one cannot change the output: under
    the kids tier every segment's holes sit in the stream's shell, so
    ``feed`` drains once, when the stream closes, and releases the
    whole view there."""
    rules = RuleSet([AccessRule.parse("+", "u", '//segment[meta/rating = "G"]')])
    events = list(tree_to_events(video_catalog(8)))
    controller = AccessController(rules, "u")
    delivery = controller._delivery
    drains = []
    drain = delivery.drain

    def counting_drain():
        drains.append(len(controller.records))
        return drain()

    delivery.drain = counting_drain
    output = []
    for event in events:
        output.extend(controller.feed(event))
    assert drains == [0]  # the root's close, nothing before
    output.extend(controller.finish())
    assert write_string(output) == write_string(
        reference_view(video_catalog(8), rules, "u")
    )


def test_feed_after_finish_rejected():
    import pytest

    controller = _controller([("+", "/r")])
    for event in parse_string("<r/>"):
        controller.feed(event)
    controller.finish()
    with pytest.raises(RuntimeError):
        controller.feed(OpenEvent("r"))


def test_unbalanced_close_rejected():
    import pytest

    controller = _controller([("+", "/r")])
    with pytest.raises(ValueError):
        controller.feed(CloseEvent("r"))


def test_finish_with_open_elements_rejected():
    import pytest

    controller = _controller([("+", "/r")])
    controller.feed(OpenEvent("r"))
    with pytest.raises(ValueError):
        controller.finish()
