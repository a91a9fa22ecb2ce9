"""Unit tests for the tag dictionary."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.skipindex.tagdict import TagDictionary


def id_of(dictionary: TagDictionary, name: str) -> int:
    """Id of a known tag (KeyError if absent), from iteration order."""
    return {tag: tag_id for tag_id, tag in enumerate(dictionary)}[name]


def name_of(dictionary: TagDictionary, tag_id: int) -> str:
    """Name of a known id (IndexError if out of range)."""
    return list(dictionary)[tag_id]


def test_intern_assigns_sequential_ids():
    dictionary = TagDictionary()
    assert dictionary.intern("a") == 0
    assert dictionary.intern("b") == 1
    assert dictionary.intern("a") == 0
    assert len(dictionary) == 2


def test_lookup_both_directions():
    dictionary = TagDictionary(["x", "y"])
    assert id_of(dictionary, "y") == 1
    assert name_of(dictionary, 0) == "x"
    assert "x" in dictionary and "z" not in dictionary


def test_unknown_lookups_raise():
    dictionary = TagDictionary(["x"])
    with pytest.raises(KeyError):
        id_of(dictionary, "nope")
    with pytest.raises(IndexError):
        name_of(dictionary, 5)


def test_ids_to_names():
    dictionary = TagDictionary(["a", "b", "c"])
    assert dictionary.ids_to_names([0, 2]) == frozenset({"a", "c"})


@given(st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=8), unique=True))
def test_encode_decode_round_trip(names):
    dictionary = TagDictionary(names)
    encoded = dictionary.encode()
    decoded, offset = TagDictionary.decode(encoded)
    assert offset == len(encoded)
    assert list(decoded) == list(dictionary)


def test_decode_rejects_truncated():
    dictionary = TagDictionary(["abcdef"])
    encoded = dictionary.encode()
    with pytest.raises(ValueError):
        TagDictionary.decode(encoded[:-2])


def test_decode_rejects_repeated_names():
    encoded = TagDictionary(["ab", "cd", "ef"]).encode().replace(b"cd", b"ab")
    with pytest.raises(ValueError):
        TagDictionary.decode(encoded)


def test_unicode_tags_survive():
    dictionary = TagDictionary(["élément"])
    decoded, __ = TagDictionary.decode(dictionary.encode())
    assert name_of(decoded, 0) == "élément"
