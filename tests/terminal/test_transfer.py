"""Transfer-layer mechanics: prefetch windows, batches, skip reconciliation.

The contract of the batched transport is *observational equivalence*:
whatever the TransferPolicy, the authorized view must be byte-identical
to the sequential path and the card-side byte metrics must not move --
speculation may only shift cost between the ``chunks_skipped`` (never
fetched) and ``chunks_wasted`` (fetched in vain) buckets.
"""

import pytest

from repro.bench.harness import PullSetup, run_pull_session
from repro.smartcard.applet import PendingStrategy
from repro.terminal.transfer import TransferPolicy
from repro.workloads.docgen import _CATEGORIES, hospital, video_catalog
from repro.workloads.rulegen import hospital_rules, subscription_rules
from repro.xmlstream.parser import parse_string
from repro.xmlstream.tree import tree_to_events

WINDOWED = [TransferPolicy.windowed(2), TransferPolicy.windowed(4),
            TransferPolicy.windowed(8), TransferPolicy(window=8, apdu_batch=2)]


def _hospital_setup(subject, transfer=None, **kwargs):
    events = list(tree_to_events(hospital(n_patients=6)))
    return PullSetup(
        events=events,
        rules=hospital_rules(),
        subject=subject,
        chunk_size=64,
        transfer=transfer,
        **kwargs,
    )


# -- policy object ----------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        TransferPolicy(window=0)
    with pytest.raises(ValueError):
        TransferPolicy(window=2, apdu_batch=0)
    with pytest.raises(ValueError):
        TransferPolicy(window=2, apdu_batch=4)  # batch cannot outrun window


def test_degenerate_policy_matches_sequential_exactly():
    """window=1, batch=1 IS the sequential path, metric for metric."""
    base = run_pull_session(_hospital_setup("accountant"))
    degenerate = run_pull_session(
        _hospital_setup("accountant", transfer=TransferPolicy())
    )
    assert degenerate.xml == base.xml
    assert degenerate.metrics.as_dict() == base.metrics.as_dict()


# -- mid-window skip reconciliation -----------------------------------------


def test_mid_window_skip_counts_waste_and_transmits_no_skipped_chunk():
    """A skip directive landing mid-window turns prefetch into waste.

    The accountant is forbidden large contiguous regions, so every
    window overruns a skip.  Wasted chunks must be accounted, and a
    chunk the proxy *knew* was skipped must never cross the card link:
    the card decrypts exactly the bytes the sequential session does.
    """
    seq = run_pull_session(_hospital_setup("accountant"))
    win = run_pull_session(
        _hospital_setup("accountant", transfer=TransferPolicy.windowed(8))
    )
    assert win.xml == seq.xml
    assert win.metrics.chunks_wasted > 0
    assert win.metrics.bytes_wasted > 0
    # Speculation only moves skipped chunks into the wasted bucket.
    assert (
        win.metrics.chunks_skipped + win.metrics.chunks_wasted
        == seq.metrics.chunks_skipped
    )
    # The card consumed the same chunks and decrypted the same bytes:
    # nothing the skip index ruled out was processed on-card.
    assert win.metrics.chunks_sent == seq.metrics.chunks_sent
    assert win.metrics.bytes_decrypted == seq.metrics.bytes_decrypted
    assert win.metrics.bytes_skipped == seq.metrics.bytes_skipped
    # Sequential transport never speculates.
    assert seq.metrics.chunks_wasted == 0
    assert seq.metrics.bytes_wasted == 0


def test_batching_cuts_round_trips():
    seq = run_pull_session(_hospital_setup("doctor"))
    win = run_pull_session(
        _hospital_setup("doctor", transfer=TransferPolicy.windowed(8))
    )
    assert win.metrics.dsp_requests < seq.metrics.dsp_requests / 2
    assert win.metrics.apdu_count < seq.metrics.apdu_count


def test_strict_memory_ram_accounting_unchanged():
    """Batching stages frames in the I/O buffer, not in secure RAM."""
    seq = run_pull_session(
        _hospital_setup("doctor", ram_quota=1024, strict_memory=True)
    )
    win = run_pull_session(
        _hospital_setup(
            "doctor",
            transfer=TransferPolicy.windowed(8),
            ram_quota=1024,
            strict_memory=True,
        )
    )
    assert win.xml == seq.xml
    assert win.metrics.ram_high_water == seq.metrics.ram_high_water


# -- refetch mechanics -------------------------------------------------------

# Sixteen notes whose <body> precedes the <to> that decides it: at each
# <body> the [to="alice"] predicate is still open, the subtree is
# irrelevant to it, so under REFETCH the card skips and re-requests all
# sixteen -- more than one 13-entry END_DOCUMENT page.
_MANY_PENDING = "<notes>" + "".join(
    f"<note><body>body text number {i:02d}</body><to>alice</to></note>"
    for i in range(16)
) + "</notes>"


def _refetch_setup(transfer=None):
    from repro.core.rules import AccessRule, RuleSet

    rules = RuleSet([
        AccessRule.parse(
            "+", "alice", '//note[to = "alice"]/body', rule_id="R0"
        ),
    ])
    return PullSetup(
        events=list(parse_string(_MANY_PENDING)),
        rules=rules,
        subject="alice",
        chunk_size=32,
        strategy=PendingStrategy.REFETCH,
        transfer=transfer,
    )


def test_refetch_pages_span_multiple_continuation_apdus():
    outcome = run_pull_session(_refetch_setup())
    assert outcome.metrics.refetch_count == 16  # needs two result pages
    texts = [text for __, text in outcome.fragments]
    assert len(texts) == 16
    for i in range(16):
        assert f"body text number {i:02d}" in texts[i]


@pytest.mark.parametrize("policy", WINDOWED, ids=str)
def test_refetch_fragments_identical_under_windowing(policy):
    seq = run_pull_session(_refetch_setup())
    win = run_pull_session(_refetch_setup(transfer=policy))
    assert win.xml == seq.xml
    assert win.fragments == seq.fragments
    assert win.metrics.refetch_count == seq.metrics.refetch_count
    assert win.metrics.refetch_bytes == seq.metrics.refetch_bytes


# -- differential sweep over the docgen corpus ------------------------------


def _corpus():
    yield (
        "hospital",
        list(tree_to_events(hospital(n_patients=5))),
        hospital_rules(),
        ["doctor", "accountant", "nurse"],
    )
    yield (
        "videos",
        list(tree_to_events(video_catalog(n_videos=20))),
        subscription_rules("sub", list(_CATEGORIES[:2])),
        ["sub"],
    )


@pytest.mark.parametrize("policy", WINDOWED, ids=str)
def test_windowed_views_byte_identical_over_corpus(policy):
    for name, events, rules, subjects in _corpus():
        for subject in subjects:
            seq = run_pull_session(
                PullSetup(events=events, rules=rules, subject=subject)
            )
            win = run_pull_session(
                PullSetup(
                    events=events,
                    rules=rules,
                    subject=subject,
                    transfer=policy,
                )
            )
            context = f"{name}/{subject}/{policy}"
            assert win.xml == seq.xml, context
            assert win.fragments == seq.fragments, context
            assert (
                win.metrics.bytes_skipped == seq.metrics.bytes_skipped
            ), context
            assert (
                win.metrics.bytes_decrypted == seq.metrics.bytes_decrypted
            ), context
            assert (
                win.metrics.chunks_skipped + win.metrics.chunks_wasted
                == seq.metrics.chunks_skipped
            ), context
