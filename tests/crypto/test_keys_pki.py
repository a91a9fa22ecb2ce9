"""Unit tests for key management and the simulated PKI."""

import pytest

from repro.crypto.keys import DocumentKeys, KeyRing, derive_key, random_key
from repro.crypto.pki import KeyPair, SimulatedPKI, shared_secret


def test_derive_key_deterministic_and_separated():
    secret = b"s" * 16
    assert derive_key(secret, "enc") == derive_key(secret, "enc")
    assert derive_key(secret, "enc") != derive_key(secret, "mac")
    assert derive_key(b"t" * 16, "enc") != derive_key(secret, "enc")


def test_document_keys_derivations():
    keys = DocumentKeys(b"s" * 16)
    assert keys.encryption != keys.mac
    assert keys.iv("d", 1, 0) != keys.iv("d", 1, 1)
    assert keys.iv("d", 1, 0) != keys.iv("d", 2, 0)
    assert len(keys.iv("d", 1, 0)) == 8


def test_random_key_size_and_uniqueness():
    assert len(random_key()) == 16
    assert random_key() != random_key()


def test_keyring_grant_revoke():
    ring = KeyRing()
    ring.grant("doc", b"s" * 16)
    assert "doc" in ring and len(ring) == 1
    assert ring.keys_for("doc").secret == b"s" * 16
    ring.revoke("doc")
    assert "doc" not in ring
    with pytest.raises(KeyError):
        ring.keys_for("doc")


def test_dh_key_agreement():
    alice = KeyPair.generate(b"alice-seed")
    bob = KeyPair.generate(b"bob-seed")
    assert shared_secret(alice, bob.public) == shared_secret(bob, alice.public)


def test_dh_different_peers_different_secrets():
    alice = KeyPair.generate(b"a")
    bob = KeyPair.generate(b"b")
    carol = KeyPair.generate(b"c")
    assert shared_secret(alice, bob.public) != shared_secret(alice, carol.public)


def test_pki_wrap_unwrap():
    pki = SimulatedPKI()
    pki.enroll("owner")
    pki.enroll("reader")
    secret = b"d" * 16
    wrapped = pki.wrap_secret("owner", "reader", secret)
    assert wrapped != secret
    assert pki.unwrap_secret("reader", "owner", wrapped) == secret


def test_pki_publish_to_many():
    pki = SimulatedPKI()
    pki.enroll("owner")
    for name in ("a", "b", "c"):
        pki.enroll(name)
    secret = b"x" * 16
    blobs = pki.publish_secret("owner", ["a", "b", "c"], secret)
    assert set(blobs) == {"a", "b", "c"}
    for name, blob in blobs.items():
        assert pki.unwrap_secret(name, "owner", blob) == secret


def test_pki_wrong_recipient_cannot_unwrap():
    pki = SimulatedPKI()
    for name in ("owner", "reader", "eve"):
        pki.enroll(name)
    wrapped = pki.wrap_secret("owner", "reader", b"s" * 16)
    from repro.crypto.xtea import PaddingError

    try:
        result = pki.unwrap_secret("eve", "owner", wrapped)
    except PaddingError:
        result = None
    assert result != b"s" * 16


def test_enrollment_is_deterministic_per_principal():
    pki_a, pki_b = SimulatedPKI(), SimulatedPKI()
    assert pki_a.enroll("x").public == pki_b.enroll("x").public


def test_reenroll_invalidates_cached_keks():
    """Key rotation must not reuse KEKs derived from the old private key."""
    from repro.crypto.pki import SimulatedPKI

    pki = SimulatedPKI()
    pki.enroll("alice")
    pki.enroll("bob")
    secret = bytes(range(16))
    wrapped = pki.wrap_secret("alice", "bob", secret)
    # Warm both directions of the KEK cache.
    assert pki.unwrap_secret("bob", "alice", wrapped) == secret
    # Rotate bob's key pair; alice re-wraps against the new public key.
    pki.enroll("bob", seed=b"rotated")
    rewrapped = pki.wrap_secret("alice", "bob", secret)
    assert pki.unwrap_secret("bob", "alice", rewrapped) == secret
