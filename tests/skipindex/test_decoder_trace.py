"""Per-push trace goldens of the streaming skip-index decoder.

Three documents x three index modes x three chunk sizes are fed to
:class:`~repro.skipindex.decoder.SXSDecoder` the way the card is fed:
chunk ``i`` covers ``[i * size, (i + 1) * size)``, and the next chunk
pushed is always the one holding ``next_needed_offset``, so a skip that
lands beyond the buffer jumps over whole chunks.  A fixed oracle skips
some indexed opens (never the root).  After every push the trace
records one row::

    offset items digest bytes_decoded position next_needed_offset skips

``digest`` hashes the kind, tag, attributes and text of the items that
push released, and ``skips`` lists each skip's resume offset with
``in`` (it landed inside the buffer) or ``beyond``.  One extra case
replays the largest skipped subtree of ``hospital/RECURSIVE/64`` through
:meth:`SXSDecoder.for_region`.  Any change to where decoding stops, to
what it counts as decoded, or to where a skip resumes shows up as a row
diff.

Regenerate (only when the decoder is meant to change behaviour, in a
commit of its own)::

    PYTHONPATH=src python -m tests.skipindex.test_decoder_trace
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import zlib

import pytest

from repro.skipindex.decoder import SXSDecoder
from repro.skipindex.encoder import IndexMode, encode_document
from repro.workloads.docgen import agenda, hospital, video_catalog
from repro.xmlstream.events import CloseEvent, OpenEvent
from repro.xmlstream.tree import tree_to_events

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "goldens" / "decoder_trace.json"
)

DOCUMENTS = {
    "hospital": lambda: hospital(n_patients=3, episodes_per_patient=2),
    "agenda": lambda: agenda(n_members=3, events_per_member=3),
    "video_catalog": lambda: video_catalog(n_videos=6, payload=40),
}
CHUNK_SIZES = (7, 64, 96)
REGION_CASE = "hospital/RECURSIVE/64"
CASES = [
    f"{name}/{mode.name}/{chunk}"
    for name in DOCUMENTS
    for mode in IndexMode
    for chunk in CHUNK_SIZES
] + [f"{REGION_CASE}/region"]


def _skip(tag: str, ordinal: int) -> bool:
    """The fixed skip oracle: about one indexed open in three."""
    return zlib.crc32(f"{tag}#{ordinal}".encode()) % 3 == 0


def _describe(event) -> str:
    if isinstance(event, OpenEvent):
        return f"<{event.tag}{event.attributes!r}"
    if isinstance(event, CloseEvent):
        return f"/{event.tag}"
    return f"={event.text}"


def _trace(decoder: SXSDecoder, data: bytes, chunk: int):
    """Feed ``data`` chunk by chunk; return the rows and the largest skip.

    The largest skip is the innermost frame just before the decoder
    skipped its longest subtree (what a refetch replays).
    """
    rows = []
    largest = None
    ordinal = 0
    while not decoder.document_done:
        offset = decoder.next_needed_offset // chunk * chunk
        assert offset < len(data), "decoder starved at the end of the data"
        decoder.push(data[offset:offset + chunk], offset)
        described = []
        skips = []
        while (event := decoder.next_item()) is not None:
            described.append(_describe(event))
            if type(event) is not OpenEvent:
                continue
            ordinal += 1
            indexed = decoder.mode is not IndexMode.NONE
            if indexed and len(decoder.frames) > 1 and _skip(event.tag, ordinal):
                frame = decoder.frames[-1]
                if largest is None or frame.content_size > largest.content_size:
                    largest = frame
                buffered_end = decoder.next_needed_offset
                resume = decoder.skip_open_subtree()
                where = "in" if resume <= buffered_end else "beyond"
                skips.append(f"{resume}:{where}")
        digest = hashlib.sha256("\n".join(described).encode()).hexdigest()
        rows.append(
            f"{offset} {len(described)} {digest[:12]} {decoder.bytes_decoded}"
            f" {decoder.position} {decoder.next_needed_offset}"
            f" [{','.join(skips)}]"
        )
    return rows, largest


def run_all() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for name, build in DOCUMENTS.items():
        events = list(tree_to_events(build()))
        for mode in IndexMode:
            data = encode_document(events, mode)
            for chunk in CHUNK_SIZES:
                key = f"{name}/{mode.name}/{chunk}"
                decoder = SXSDecoder()
                cases[key], largest = _trace(decoder, data, chunk)
                if key == REGION_CASE:
                    region = SXSDecoder.for_region(
                        decoder.dictionary, decoder.mode, largest
                    )
                    cases[f"{key}/region"], _ = _trace(region, data, chunk)
    return cases


@pytest.fixture(scope="module")
def traces() -> dict[str, list[str]]:
    return run_all()


@pytest.fixture(scope="module")
def golden() -> dict[str, list[str]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_holds_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", CASES)
def test_decoder_trace_matches_golden(traces, golden, key):
    assert traces[key] == golden[key]


def test_golden_covers_both_skip_landings(golden):
    rows = [row for case in golden.values() for row in case]
    assert any(":in" in row for row in rows)
    assert any(":beyond" in row for row in rows)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
