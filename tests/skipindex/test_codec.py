"""Encoder/decoder round trips and skipping semantics."""

import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.skipindex.bitset import peel_ids, relative_width
from repro.skipindex.decoder import (
    SXSDecoder,
    SXSFormatError,
    decode_document,
)
from repro.skipindex.encoder import IndexMode, encode_document, encoded_size
from repro.skipindex.tagdict import TagDictionary
from repro.workloads.docgen import agenda, hospital, video_catalog
from repro.xmlstream.events import CloseEvent, OpenEvent, ValueEvent
from repro.xmlstream.parser import parse_string
from repro.xmlstream.tree import tree_to_events

from tests.skipindex.oracles import decode_relative, ids_from_bitmap
from tests.strategies import elements


every_mode = pytest.mark.parametrize(
    "mode", list(IndexMode), ids=lambda mode: mode.name
)


@settings(max_examples=80, deadline=None)
@given(root=elements(), mode=st.sampled_from(list(IndexMode)))
def test_round_trip_all_modes(root, mode):
    events = list(tree_to_events(root))
    assert decode_document(encode_document(events, mode)) == events


@settings(max_examples=60, deadline=None)
@given(
    root=elements(),
    mode=st.sampled_from(list(IndexMode)),
    chunk=st.integers(min_value=1, max_value=17),
)
def test_incremental_push_equals_bulk(root, mode, chunk):
    events = list(tree_to_events(root))
    data = encode_document(events, mode)
    decoder = SXSDecoder()
    out = []
    for start in range(0, len(data), chunk):
        decoder.push(data[start:start + chunk], start)
        out.extend(iter(decoder.next_item, None))
    assert out == events


def _decode_with_skips(data, pieces, seed):
    """Decode ``data`` pushed as ``pieces``, skipping seeded random opens.

    ``pieces`` are ``(start, end)`` byte ranges covering ``data``; the
    next piece pushed is the one holding ``next_needed_offset``, so a
    skip past the buffer jumps over whole pieces.  One random draw per
    indexed non-root open decides whether to skip it.  Returns the
    events, ``bytes_decoded`` and every skip's resume offset.
    """
    rng = random.Random(seed)
    starts = [start for start, _ in pieces]
    decoder = SXSDecoder()
    events, resumes = [], []
    while not decoder.document_done:
        need = decoder.next_needed_offset
        assert need < len(data), "decoder starved at the end of the data"
        start, end = pieces[bisect_right(starts, need) - 1]
        decoder.push(data[start:end], start)
        while (event := decoder.next_item()) is not None:
            events.append(event)
            if (
                type(event) is OpenEvent
                and decoder.mode is not IndexMode.NONE
                and len(decoder.frames) > 1
                and rng.random() < 0.3
            ):
                resumes.append(decoder.skip_open_subtree())
    return events, decoder.bytes_decoded, resumes


def _pieces(size, bounds):
    bounds = sorted({0, *bounds})
    return list(zip(bounds, bounds[1:] + [size]))


@settings(max_examples=80, deadline=None)
@given(
    root=elements(),
    mode=st.sampled_from(list(IndexMode)),
    cuts=st.lists(st.integers(min_value=1, max_value=4096), max_size=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_split_pushes_with_skips_equal_one_push(root, mode, cuts, seed):
    data = encode_document(list(tree_to_events(root)), mode)
    pieces = _pieces(len(data), [cut % len(data) for cut in cuts])
    whole = _decode_with_skips(data, [(0, len(data))], seed)
    assert _decode_with_skips(data, pieces, seed) == whole


@every_mode
def test_chunked_skips_equal_one_push_on_corpus(mode):
    documents = [
        hospital(n_patients=3, episodes_per_patient=2),
        agenda(n_members=3, events_per_member=3),
        video_catalog(n_videos=6, payload=40),
    ]
    for root in documents:
        data = encode_document(list(tree_to_events(root)), mode)
        for chunk in (1, 7, 16, 64, 96, 256):
            pieces = _pieces(len(data), range(0, len(data), chunk))
            for seed in range(5):
                whole = _decode_with_skips(data, [(0, len(data))], seed)
                assert _decode_with_skips(data, pieces, seed) == whole


def test_attributes_survive():
    events = parse_string('<a x="1"><b y="2" z="3">t</b></a>')
    assert decode_document(encode_document(events)) == events


def test_index_metadata_contents():
    events = parse_string("<a><b><c/></b><d>t</d></a>")
    data = encode_document(events, IndexMode.RECURSIVE)
    decoder = SXSDecoder()
    decoder.push(data)
    assert decoder.next_item() == OpenEvent("a")
    frame = decoder.frames[-1]
    assert decoder.dictionary.ids_to_names(frame.tags_inside) == {"b", "c", "d"}
    assert frame.content_start + frame.content_size == len(data)
    assert decoder.next_item() == OpenEvent("b")
    assert decoder.dictionary.ids_to_names(decoder.frames[-1].tags_inside) == {"c"}


def test_no_index_mode_has_no_metadata():
    events = parse_string("<a><b/></a>")
    data = encode_document(events, IndexMode.NONE)
    decoder = SXSDecoder()
    decoder.push(data)
    assert decoder.next_item() == OpenEvent("a")
    assert decoder.frames[-1].tags_inside is None
    assert decoder.frames[-1].content_size is None


def test_skip_synthesizes_close_and_lands_after_subtree():
    events = parse_string("<a><skipme><deep>x</deep></skipme><next/></a>")
    data = encode_document(events, IndexMode.RECURSIVE)
    decoder = SXSDecoder()
    decoder.push(data)
    decoder.next_item()  # a
    assert decoder.next_item() == OpenEvent("skipme")
    decoded = decoder.bytes_decoded
    decoder.skip_open_subtree()
    assert decoder.next_item() == CloseEvent("skipme")
    assert decoder.bytes_decoded == decoded  # the close costs no bytes
    assert decoder.next_item() == OpenEvent("next")


def test_skip_without_index_rejected():
    events = parse_string("<a><b/></a>")
    data = encode_document(events, IndexMode.NONE)
    decoder = SXSDecoder()
    decoder.push(data)
    decoder.next_item()
    with pytest.raises(RuntimeError):
        decoder.skip_open_subtree()


def test_skip_too_late_rejected():
    events = parse_string("<a><b><c/></b></a>")
    data = encode_document(events, IndexMode.RECURSIVE)
    decoder = SXSDecoder()
    decoder.push(data)
    decoder.next_item()  # a
    decoder.next_item()  # b
    decoder.next_item()  # c -- b's content started
    decoder.frames.pop()  # force the b frame on top
    with pytest.raises(RuntimeError):
        decoder.skip_open_subtree()


def test_recursive_not_larger_than_flat():
    """Recursive compression must pay off on deep documents."""
    deep = parse_string(
        "<a><b><c><d><e>x</e></d></c></b>" * 3 + "</a>"
        if False
        else "<a>" + "<b><c><d><e>x</e></d></c></b>" * 5 + "</a>"
    )
    flat_size = encoded_size(deep, IndexMode.FLAT)
    recursive_size = encoded_size(deep, IndexMode.RECURSIVE)
    none_size = encoded_size(deep, IndexMode.NONE)
    assert none_size < recursive_size <= flat_size


def test_bad_magic_rejected():
    decoder = SXSDecoder()
    decoder.push(b"XXXX\x00\x00")
    with pytest.raises(SXSFormatError):
        decoder.next_item()


def test_unknown_opcode_rejected():
    events = parse_string("<a/>")
    data = bytearray(encode_document(events, IndexMode.NONE))
    data[-1] = 0x7F  # clobber the final CLOSE opcode
    decoder = SXSDecoder()
    decoder.push(bytes(data))
    decoder.next_item()
    with pytest.raises(SXSFormatError):
        while decoder.next_item() is not None:
            pass


#: Two accented letters: four UTF-8 bytes to overwrite with invalid ones.
ACCENTS = "\u00e9\u00e9"


def _corrupt(xml, mode, old, new):
    """Encode ``xml`` and replace the one occurrence of ``old`` by ``new``."""
    data = encode_document(parse_string(xml), mode)
    assert data.count(old) == 1
    return data.replace(old, new)


def _decode_all(data):
    decoder = SXSDecoder()
    decoder.push(data)
    return list(iter(decoder.next_item, None))


@every_mode
def test_invalid_utf8_attribute_is_malformed(mode):
    data = _corrupt(f'<a k="{ACCENTS}"/>', mode, ACCENTS.encode(), b"\xff" * 4)
    with pytest.raises(SXSFormatError):
        _decode_all(data)


@every_mode
def test_invalid_utf8_text_is_malformed(mode):
    data = _corrupt(f"<a>{ACCENTS}</a>", mode, ACCENTS.encode(), b"\xff" * 4)
    with pytest.raises(SXSFormatError):
        _decode_all(data)


@every_mode
def test_overlong_varint_is_malformed(mode):
    # The text length 1 becomes eleven continuation bytes: every byte
    # is present, but no 64-bit varint is that long.
    data = _corrupt("<a>q</a>", mode, b"\x01q", b"\x80" * 11 + b"\x01q")
    with pytest.raises(SXSFormatError):
        _decode_all(data)


@every_mode
@pytest.mark.parametrize("name", [b"\xff\xfe", b"ab"], ids=["utf8", "repeated"])
def test_bad_dictionary_name_is_malformed(mode, name):
    # A repeated name would shift every later tag id, so the header
    # itself is rejected, before any element is decoded.
    decoder = SXSDecoder()
    decoder.push(_corrupt("<ab><cd/><ef/></ab>", mode, b"cd", name))
    with pytest.raises(SXSFormatError):
        decoder.next_item()


@every_mode
def test_trailing_bytes_are_malformed(mode):
    data = encode_document(parse_string("<a>x</a>"), mode)
    with pytest.raises(SXSFormatError):
        decode_document(data + b"\x03")


def test_non_contiguous_push_rejected():
    decoder = SXSDecoder()
    decoder.push(b"SXS1")
    with pytest.raises(SXSFormatError):
        decoder.push(b"zz", offset=10)


def test_truncated_document_not_done():
    """Every proper prefix starves: no error, a prefix of the events."""
    events = parse_string(f'<a k="{ACCENTS}"><b>t{ACCENTS}</b><c/></a>')
    for mode in IndexMode:
        data = encode_document(events, mode)
        for end in range(len(data)):
            decoder = SXSDecoder()
            decoder.push(data[:end])
            decoded = list(iter(decoder.next_item, None))
            assert decoded == events[:len(decoded)]
            assert not decoder.document_done


def test_shared_dictionary_reused():
    dictionary = TagDictionary(["a", "b"])
    events = parse_string("<a><b/></a>")
    encode_document(events, IndexMode.RECURSIVE, dictionary)
    assert len(dictionary) == 2  # nothing new interned


def test_for_region_decodes_subtree():
    events = parse_string("<a><mid><x>1</x><y>2</y></mid><z/></a>")
    data = encode_document(events, IndexMode.RECURSIVE)
    decoder = SXSDecoder()
    decoder.push(data)
    decoder.next_item()  # a
    assert decoder.next_item() == OpenEvent("mid")
    frame = decoder.frames[-1]
    resume = decoder.skip_open_subtree()
    region = SXSDecoder.for_region(decoder.dictionary, decoder.mode, frame)
    region.push(data[frame.content_start:resume], frame.content_start)
    tags = [
        event.text if type(event) is ValueEvent else event.tag
        for event in iter(region.next_item, None)
    ]
    assert tags == ["x", "1", "x", "y", "2", "y", "mid"]
    assert region.document_done


# -- tag-id sets: the decoded ids against an eager decode of the bytes ----


def _eager_ids(data, frame, parent_ids, universe):
    """Decode ``frame``'s bitmap straight from ``data``, eagerly.

    An open's bitmap ends where its content starts: the root's spans the
    whole dictionary, a child's is relative to its parent's ids.
    """
    if parent_ids is None:
        width = (universe + 7) // 8
        start = frame.content_start - width
        return ids_from_bitmap(data[start:frame.content_start], universe)
    ids, end = decode_relative(
        data, frame.content_start - relative_width(parent_ids), parent_ids
    )
    assert end == frame.content_start
    return ids


def _opens_with_ids(data, chunk, decoder=None):
    """Decode ``data`` in ``chunk``-byte pushes; yield each open's frame
    with the eager ids of its bitmap."""
    decoder = decoder or SXSDecoder()
    stack = []
    for start in range(0, len(data), chunk):
        decoder.push(data[start:start + chunk], start)
        while (event := decoder.next_item()) is not None:
            if type(event) is OpenEvent:
                frame = decoder.frames[-1]
                parent = stack[-1] if stack else None
                ids = _eager_ids(data, frame, parent, len(decoder.dictionary))
                stack.append(ids)
                yield frame, ids
            elif type(event) is CloseEvent:
                stack.pop()


@pytest.mark.parametrize("chunk", [7, 64, 96])
def test_tags_inside_equals_eager_decode_on_corpus(chunk):
    documents = [
        hospital(n_patients=3, episodes_per_patient=2),
        agenda(n_members=3, events_per_member=3),
        video_catalog(n_videos=6, payload=40),
    ]
    for root in documents:
        data = encode_document(list(tree_to_events(root)), IndexMode.RECURSIVE)
        opens = list(_opens_with_ids(data, chunk))
        assert len(opens) > 10
        for frame, ids in opens:
            assert frame.tags_inside == ids


def _stray_padding_stream():
    """A stream whose relative bitmap for ``b`` sets every padding bit.

    The root holds nine ids, so a child's bitmap spans two bytes with
    seven padding bits.  ``b`` holds two ids; counting the padding would
    give it nine and widen its child's bitmap to two bytes.
    """
    xml = "<a><b><c1><c2/></c1></b>" + "".join(f"<t{i}/>" for i in range(6)) + "</a>"
    data = bytearray(encode_document(parse_string(xml), IndexMode.RECURSIVE))
    decoder = SXSDecoder()
    decoder.push(bytes(data))
    decoder.next_item()  # a
    assert len(decoder.frames[-1].tags_inside) == 9
    decoder.next_item()  # b
    bitmap_end = decoder.frames[-1].content_start
    data[bitmap_end - 1] |= 0xFE  # bits 9..15 of b's two-byte bitmap
    return parse_string(xml), bytes(data), decoder.dictionary


def test_stray_padding_bits_are_ignored():
    events, data, dictionary = _stray_padding_stream()
    decoder = SXSDecoder()
    decoder.push(data)
    names = []
    while (event := decoder.next_item()) is not None:
        if type(event) is OpenEvent:
            names.append(dictionary.ids_to_names(decoder.frames[-1].tags_inside))
    assert decoder.document_done and decoder.position == len(data)
    assert names[:3] == [
        frozenset({"b", "c1", "c2", *(f"t{i}" for i in range(6))}),
        frozenset({"c1", "c2"}),
        frozenset({"c2"}),
    ]
    assert decode_document(data) == events


def test_for_region_replay_decodes_the_same_ids():
    root = hospital(n_patients=3, episodes_per_patient=2)
    data = encode_document(list(tree_to_events(root)), IndexMode.RECURSIVE)
    expected = {frame.content_start: ids for frame, ids in _opens_with_ids(data, 64)}
    decoder = SXSDecoder()
    decoder.push(data)
    decoder.next_item()  # the root
    decoder.next_item()  # its first child, which has children of its own
    frame = decoder.frames[-1]
    resume = decoder.skip_open_subtree()
    region = SXSDecoder.for_region(decoder.dictionary, decoder.mode, frame)
    region.push(data[frame.content_start:resume], frame.content_start)
    replayed = 0
    while (event := region.next_item()) is not None:
        if type(event) is OpenEvent:
            start = region.frames[-1].content_start
            assert region.frames[-1].tags_inside == expected[start]
            replayed += 1
    assert region.document_done and replayed > 3
    assert frame.tags_inside == expected[frame.content_start]


def test_decoding_builds_no_id_set_until_one_is_read(monkeypatch):
    import repro.skipindex.decoder as decoder_module

    calls = []

    def counting(bits, support=None):
        calls.append(bits)
        return peel_ids(bits, support)

    monkeypatch.setattr(decoder_module, "peel_ids", counting)
    root = hospital(n_patients=3, episodes_per_patient=2)
    data = encode_document(list(tree_to_events(root)), IndexMode.RECURSIVE)
    frames = []
    for chunk in (7, 64, len(data)):
        decoder = SXSDecoder()
        for start in range(0, len(data), chunk):
            decoder.push(data[start:start + chunk], start)
            while (event := decoder.next_item()) is not None:
                if type(event) is OpenEvent:
                    frames.append(decoder.frames[-1])
        assert decoder.document_done
    assert len(frames) > 30 and calls == []
    # Reading a leaf's ids decodes its chain of supports, once each.
    leaf = frames[-1]
    depth = 0
    node = leaf
    while node is not None:
        depth += 1
        node = node.parent
    assert leaf.tags_inside is leaf.tags_inside
    assert len(calls) == depth
