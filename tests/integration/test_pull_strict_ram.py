"""Secure RAM of every E20 ``pull`` session on a strict 1 KB card.

E20 enrolls its readers with ``strict_memory=False``, because a
prefetch window of 8 once pushed the researcher past the e-gate's
1,024 bytes.  This test answers whether that still holds: every
``(document, reader)`` pair of the ``pull`` corpus (``PullWorkload``
in ``benchmarks/e20/workloads.py``, rebuilt here from the same
generators) runs once, with the same window, on a fresh strict card
with the default 1,024-byte quota.  The golden pins each session's
``ram_high_water`` and ``max_pending_bytes`` and, for a session the
card refuses, the ``CardMemoryError`` arguments ``(requested, used,
quota)``.

Regenerate (only when a change is meant to move secure RAM, in a
commit of its own)::

    PYTHONPATH=src python -m tests.integration.test_pull_strict_ram
"""

from __future__ import annotations

import json
import pathlib

from repro.community import Community
from repro.errors import ResourceExhausted
from repro.smartcard.memory import CardMemoryError
from repro.terminal.transfer import TransferPolicy
from repro.workloads.docgen import agenda, hospital, video_catalog
from repro.workloads.rulegen import agenda_rules, hospital_rules, parental_rules
from repro.xmlstream.tree import tree_to_events

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "goldens" / "pull_strict_ram.json"

HOSPITAL_READERS = ("doctor", "nurse", "accountant", "researcher")
AGENDA_OWNERS = ("alice", "bruno", "carla", "deng", "elsa", "farid")
WINDOW = TransferPolicy.windowed(8)


def _corpus():
    """E20 ``pull``'s documents: (doc_id, root, rules, readers)."""
    corpus = [
        (f"h{patients}", hospital(n_patients=patients), hospital_rules(), HOSPITAL_READERS)
        for patients in (5, 10, 20)
    ]
    corpus.append(("h40", hospital(n_patients=40), hospital_rules(), ("doctor",)))
    corpus.append((
        "agenda",
        agenda(n_members=6, events_per_member=4),
        agenda_rules(list(AGENDA_OWNERS)),
        AGENDA_OWNERS,
    ))
    corpus.append(("video", video_catalog(16), parental_rules("kid"), ("kid",)))
    return corpus


def _record_faults(card) -> list[tuple[int, int, int]]:
    """Note the arguments of each ``CardMemoryError`` the card raises
    before it becomes a status word."""
    faults: list[tuple[int, int, int]] = []
    dispatch = card._dispatch

    def recorded(command):
        try:
            return dispatch(command)
        except CardMemoryError as error:
            faults.append((error.requested, error.used, error.quota))
            raise

    card._dispatch = recorded
    return faults


def survey() -> dict[str, dict]:
    """One pull per ``(doc_id, reader)``, each on a fresh strict card."""
    results: dict[str, dict] = {}
    for doc_id, root, rules, readers in _corpus():
        events = list(tree_to_events(root))
        for reader in readers:
            community = Community()
            owner = community.enroll("owner")
            member = community.enroll(reader)  # strict, 1,024 bytes
            owner.publish(events, rules, to=[member], doc_id=doc_id)
            faults = _record_faults(member.card)
            memory = member.card.soe.memory
            assert memory.strict and memory.quota == 1024
            try:
                with member.open(doc_id, transfer=WINDOW) as session:
                    stream = session.query(None)
                    stream.text()
                    metrics = stream.metrics
            except ResourceExhausted:
                results[f"{doc_id}/{reader}"] = {
                    "fault": list(faults[-1]),
                    "ram_high_water": memory.high_water,
                }
                continue
            results[f"{doc_id}/{reader}"] = {
                "fault": None,
                "max_pending_bytes": metrics.max_pending_bytes,
                "ram_high_water": metrics.ram_high_water,
            }
    return results


def test_every_pull_session_fits_a_strict_card_as_pinned():
    assert survey() == json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(survey(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
