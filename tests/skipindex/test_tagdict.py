"""Unit tests for the tag dictionary."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.skipindex.tagdict import TagDictionary


def test_intern_assigns_sequential_ids():
    dictionary = TagDictionary()
    assert dictionary.intern("a") == 0
    assert dictionary.intern("b") == 1
    assert dictionary.intern("a") == 0
    assert len(dictionary) == 2


def test_lookup_both_directions():
    dictionary = TagDictionary(["x", "y"])
    assert dictionary.id_of("y") == 1
    assert dictionary.name_of(0) == "x"
    assert "x" in dictionary and "z" not in dictionary


def test_unknown_lookups_raise():
    dictionary = TagDictionary(["x"])
    with pytest.raises(KeyError):
        dictionary.id_of("nope")
    with pytest.raises(IndexError):
        dictionary.name_of(5)


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
    assert decoded.name_of(0) == "élément"
