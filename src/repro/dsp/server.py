"""The DSP's network front: ranged chunk service with cost accounting."""

from __future__ import annotations

from repro.crypto.container import DocumentHeader
from repro.dsp.store import DSPStore
from repro.dsp.wire import DocMeta
from repro.errors import KeyNotGranted
from repro.smartcard.card import encode_header
from repro.smartcard.resources import NetworkModel, SimClock

# -- pure reads --------------------------------------------------------------
#
# The serving logic itself, free of accounting: DSPServer wraps these
# with its SimClock/counter charges for the simulated deployments, the
# reactor server (repro.dsp.reactor) serves them straight -- real
# traffic is measured in wall time, not simulated network seconds.


def fetch_header(store: DSPStore, doc_id: str) -> DocumentHeader:
    return store.get(doc_id).container.header


def fetch_chunk(store: DSPStore, doc_id: str, index: int) -> bytes:
    return store.get(doc_id).container.chunks[index]


def fetch_chunk_range(
    store: DSPStore, doc_id: str, start: int, count: int
) -> list[bytes]:
    """``count`` consecutive chunks, clipped to the document.

    Callers may over-ask near the end; asking entirely past the last
    chunk is still an ``IndexError``, and a degenerate range a
    ``ValueError`` -- the typed errors the wire codec carries.
    """
    if count < 1:
        raise ValueError("chunk range must cover at least one chunk")
    chunks = store.get(doc_id).container.chunks
    if not 0 <= start < len(chunks):
        raise IndexError(f"chunk range starts out of bounds: {start}")
    return list(chunks[start:start + count])


def fetch_rules(store: DSPStore, doc_id: str) -> tuple[int, list[bytes]]:
    stored = store.get(doc_id)
    return stored.rules_version, list(stored.rule_records)


def fetch_meta(store: DSPStore, doc_id: str, subject: str) -> DocMeta:
    """The cache-freshness probe: version vector plus grant bit.

    One tiny frame instead of a full header pull: the document and
    rules versions (the per-document validators), the store-wide
    ``(generation, boot)`` stamp, and whether ``subject``'s wrapped key
    is still present -- key-level revocation bumps neither version, so
    the grant bit is the only cheap way a cache can notice it.
    """
    stored = store.get(doc_id)
    return DocMeta(
        doc_version=stored.container.header.version,
        rules_version=stored.rules_version,
        generation=store.generation,
        boot=store.boot,
        has_key=subject in stored.wrapped_keys,
    )


def fetch_wrapped_key(store: DSPStore, doc_id: str, recipient: str) -> bytes:
    blob = store.get(doc_id).wrapped_keys.get(recipient)
    if blob is None:
        raise KeyNotGranted(
            f"document {doc_id!r} has no key wrapped for "
            f"recipient {recipient!r}",
            doc_id=doc_id,
            subject=recipient,
        )
    return blob


class DSPServer:
    """Serves encrypted headers, chunks, rules and wrapped keys.

    Every response is charged to the shared clock's ``network``
    component and counted in ``bytes_served`` -- benchmark E2 reads the
    transfer saving of the skip index from here.  The per-request
    overhead is charged once per *request*, so the ranged chunk API
    (:meth:`get_chunk_range`) amortizes it across a whole window;
    ``requests``/``served_ranges`` let benchmarks read round-trip
    counts directly (E13).
    """

    def __init__(
        self,
        store: DSPStore | None = None,
        network: NetworkModel | None = None,
        clock: SimClock | None = None,
    ) -> None:
        self.store = store or DSPStore()
        self.network = network or NetworkModel()
        self.clock = clock or SimClock()
        self.bytes_served = 0
        self.requests = 0
        self.chunks_served = 0
        #: Every chunk request as ``(doc_id, start, count)`` -- single
        #: chunk fetches appear as ranges of count 1.
        self.served_ranges: list[tuple[str, int, int]] = []

    def _charge(self, nbytes: int) -> None:
        self.bytes_served += nbytes
        self.requests += 1
        self.clock.add("network", self.network.request_overhead_seconds)
        self.clock.add("network", self.network.transfer_seconds(nbytes))

    # -- document service ------------------------------------------------

    def get_header(self, doc_id: str) -> DocumentHeader:
        header = fetch_header(self.store, doc_id)
        self._charge(len(encode_header(header)))
        return header

    def get_chunk(self, doc_id: str, index: int) -> bytes:
        blob = fetch_chunk(self.store, doc_id, index)
        self._charge(len(blob))
        self.chunks_served += 1
        self.served_ranges.append((doc_id, index, 1))
        return blob

    def get_chunk_range(
        self, doc_id: str, start: int, count: int
    ) -> list[bytes]:
        """Serve ``count`` consecutive chunks as ONE request.

        The request overhead is charged once for the whole range --
        that is the DSP half of the E13 batching win.  The range is
        clipped to the document, so callers may over-ask near the end;
        asking entirely past the last chunk is still an error.
        """
        blobs = fetch_chunk_range(self.store, doc_id, start, count)
        self._charge(sum(len(blob) for blob in blobs))
        self.chunks_served += len(blobs)
        self.served_ranges.append((doc_id, start, len(blobs)))
        return blobs

    def get_rules(self, doc_id: str) -> tuple[int, list[bytes]]:
        version, records = fetch_rules(self.store, doc_id)
        self._charge(sum(len(r) for r in records))
        return version, records

    def get_wrapped_key(self, doc_id: str, recipient: str) -> bytes:
        blob = fetch_wrapped_key(self.store, doc_id, recipient)
        self._charge(len(blob))
        return blob

    def get_meta(self, doc_id: str, subject: str) -> DocMeta:
        meta = fetch_meta(self.store, doc_id, subject)
        self._charge(meta.wire_size)
        return meta

