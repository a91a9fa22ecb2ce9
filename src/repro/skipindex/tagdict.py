"""Tag dictionary: structure compression via tag ids.

"For ensuring compactness, we compress the document structure using a
dictionary of tags [XGRIND] and encode the set of tags thanks to a bit
array referring to the tag dictionary." (Section 2.3)

The dictionary is built at encryption time by the document owner and
shipped in the (authenticated) stream header, so the card can map tag
ids back to names and evaluate node tests.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.skipindex.varint import Truncated, decode_varint, encode_varint


class TagDictionary:
    """A bidirectional tag-name <-> tag-id mapping.

    Ids are assigned in first-seen order, which keeps encoding
    deterministic for a given document.
    """

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        # id-set -> name-set memo: sibling subtrees repeat the same tag
        # sets, so the streaming decoder resolves each distinct set once.
        self._sets: dict[frozenset[int], frozenset[str]] = {}
        for name in names:
            self.intern(name)

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def intern(self, name: str) -> int:
        """Return the id of ``name``, assigning one if new."""
        existing = self._ids.get(name)
        if existing is not None:
            return existing
        tag_id = len(self._names)
        self._names.append(name)
        self._ids[name] = tag_id
        self._sets.clear()  # ids shifted into existence; drop stale memo
        return tag_id

    def ids_to_names(self, ids: Iterable[int]) -> frozenset[str]:
        if isinstance(ids, frozenset):
            cached = self._sets.get(ids)
            if cached is None:
                cached = frozenset(map(self._names.__getitem__, ids))
                self._sets[ids] = cached
            return cached
        return frozenset(map(self._names.__getitem__, ids))

    # -- serialization ---------------------------------------------------

    def encode(self) -> bytes:
        """Serialize for the stream header."""
        out = bytearray(encode_varint(len(self._names)))
        for name in self._names:
            raw = name.encode("utf-8")
            out.extend(encode_varint(len(raw)))
            out.extend(raw)
        return bytes(out)

    @classmethod
    def decode(
        cls, data: "bytes | bytearray", offset: int = 0
    ) -> tuple["TagDictionary", int]:
        """Deserialize; return ``(dictionary, next_offset)``.

        Raises :class:`~repro.skipindex.varint.Truncated` when ``data``
        ends early and ``ValueError`` on a name that is not UTF-8 or
        that repeats (which would shift every later tag id).
        """
        count, offset = decode_varint(data, offset)
        names: list[str] = []
        for _ in range(count):
            length, offset = decode_varint(data, offset)
            if offset + length > len(data):
                raise Truncated("truncated tag dictionary")
            names.append(data[offset:offset + length].decode("utf-8"))
            offset += length
        dictionary = cls(names)
        if len(dictionary) != count:
            raise ValueError("repeated tag name in dictionary")
        return dictionary, offset
