"""The frozen E20 tracer still finds every seam it patches.

``benchmarks/e20/tracer.py`` wraps library entry points by name
(``CardProxy.stream_query``, ``SmartCard.process``,
``Subscriber.on_frame``, the DSP request methods, ...) and reads a few
attributes (``subscriber.state.document_done``,
``subscriber.metrics.chunks_skipped``, ``EngineStats.events_pumped``).
Renaming any of them breaks only the traced benchmark run, so this
test loads the tracer by path, instruments a pull and a feed broadcast,
and restores the originals.  The pull must still route the card's
output through the ``write_string`` and ``charge_output`` seams and its
decoding through ``charge_decode``, and every item the pull and the
feed decode must pass ``SXSDecoder.next_item``.
"""

import importlib.util
import pathlib

from repro.community import Community, TierSpec
from repro.dissemination.subscriber import Subscriber
from repro.smartcard.card import SmartCard
from repro.terminal.proxy import CardProxy

TRACER_PATH = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "e20" / "tracer.py"
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("e20_tracer", TRACER_PATH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _community():
    community = Community()
    owner = community.enroll("owner")
    reader = community.enroll("reader", strict_memory=False)
    community.enroll("listener", strict_memory=False)
    body = "".join(
        f"<item><title>t{i}</title><secret>{'x' * 80}</secret></item>"
        for i in range(6)
    )
    doc = owner.publish(
        f"<list>{body}</list>",
        [("+", "reader", "/list"), ("-", "reader", "//secret")],
        to=[reader],
        doc_id="list",
        chunk_size=32,
    )
    feed = community.feed(
        "news",
        owner=owner,
        tiers=[TierSpec("lite", allow=("/list",), drop=("secret",))],
    )
    feed.publish(f"<list>{body}</list>", doc_id="news-1", chunk_size=32)
    return community, reader, doc, feed


def test_tracer_instruments_a_pull_and_a_feed_broadcast():
    tracer_module = _load_tracer()
    community, reader, doc, feed = _community()
    handle = feed.subscribe("listener", "lite")
    seams = (
        CardProxy.stream_query,
        SmartCard.process,
        Subscriber.on_frame,
    )
    tracer = tracer_module.Tracer()
    # ``instrument`` raises AttributeError on any renamed seam.
    restore = tracer_module.instrument(tracer)
    try:
        tracer.begin_op()
        with reader.open(doc) as session:
            stream = session.query()
            view = stream.text()
            card_output = stream.metrics.output_bytes
        pull = tracer.end_op()
        tracer.begin_op()
        feed.broadcast()
        push = tracer.end_op()
    finally:
        restore()
    assert (
        CardProxy.stream_query,
        SmartCard.process,
        Subscriber.on_frame,
    ) == seams

    assert "<secret>" not in view
    assert pull.counts["terminal.dsp_requests"] > 0
    assert pull.counts["smartcard.apdus"] > 0
    assert pull.counts["core.events_pumped"] > 0
    assert pull.counts["skipindex.items"] > 0
    # Every decoded item goes through ``SXSDecoder.next_item`` once and
    # reaches the evaluator once, so the two layers count alike; a
    # decoder that stopped decoding in ``next_item`` would zero the
    # skipindex layer here first.
    assert pull.counts["skipindex.items"] == pull.counts["core.events"]
    # The card's output goes through the module-level ``write_string``
    # and ``charge_output`` seams, and decoding through ``charge_decode``.
    assert pull.counts["xmlstream.output_bytes"] == card_output > 0
    assert pull.counts["model.output_s"] > 0
    assert pull.counts["model.decode_s"] > 0
    handle.require_ok()
    assert "<secret>" not in handle.view
    assert push.counts["calls:dissemination"] > 0
    assert push.counts["calls:feeds"] > 0
    assert push.counts["dissemination.frames_dropped"] > 0
    assert push.counts["smartcard.apdus"] > 0
    assert push.counts["skipindex.items"] == push.counts["core.events"] > 0
