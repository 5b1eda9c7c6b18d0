"""AEAD interface and the FastAead simulation cipher."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import _SHARED_AEADS, FastAead, new_aead, shared_aead
from repro.crypto.gcm import AesGcm
from repro.errors import AuthenticationError, CryptoError
from repro.tls.record import RecordProtection

NONCE = bytes(12)


class TestFactory:
    def test_aes_128(self):
        assert isinstance(new_aead("aes-128-gcm", bytes(16)), AesGcm)

    def test_aes_256(self):
        assert isinstance(new_aead("aes-256-gcm", bytes(32)), AesGcm)

    def test_fast(self):
        assert isinstance(new_aead("fast", bytes(16)), FastAead)

    def test_unknown_kind(self):
        with pytest.raises(CryptoError):
            new_aead("rot13", bytes(16))

    def test_wrong_key_size(self):
        with pytest.raises(CryptoError):
            new_aead("aes-128-gcm", bytes(32))


class TestFastAead:
    def test_roundtrip(self):
        f = FastAead(bytes(16))
        out = f.seal(NONCE, b"payload", b"aad")
        assert f.open(NONCE, out, b"aad") == b"payload"

    def test_overhead_is_tag_size(self):
        f = FastAead(bytes(16))
        assert len(f.seal(NONCE, b"x" * 100)) == 100 + f.tag_size

    def test_ciphertext_differs_from_plaintext(self):
        f = FastAead(bytes(16))
        assert f.seal(NONCE, b"secret" * 10)[:60] != b"secret" * 10

    def test_tamper_detected(self):
        f = FastAead(bytes(16))
        out = bytearray(f.seal(NONCE, b"payload"))
        out[0] ^= 1
        with pytest.raises(AuthenticationError):
            f.open(NONCE, bytes(out))

    def test_wrong_aad_detected(self):
        f = FastAead(bytes(16))
        out = f.seal(NONCE, b"payload", b"a")
        with pytest.raises(AuthenticationError):
            f.open(NONCE, out, b"b")

    def test_nonce_binds_ciphertext(self):
        f = FastAead(bytes(16))
        out = f.seal(NONCE, b"payload")
        with pytest.raises(AuthenticationError):
            f.open(b"\x01" + NONCE[1:], out)

    def test_same_interface_as_gcm(self):
        for cls in (FastAead, AesGcm):
            obj = cls(bytes(16))
            assert obj.nonce_size == 12
            assert obj.tag_size == 16

    @given(st.binary(min_size=0, max_size=200), st.binary(min_size=0, max_size=32))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, plaintext, aad):
        f = FastAead(b"\x05" * 16)
        assert f.open(NONCE, f.seal(NONCE, plaintext, aad), aad) == plaintext


class TestFastAeadMemo:
    """The seal->open memo must be invisible to tampering and nonce reuse."""

    def test_tamper_on_shared_instance_detected(self):
        # One instance sealing and opening (the shared_aead topology): the
        # memo matches only byte-identical records, so every tamper falls
        # through to the full verify path.
        f = FastAead(bytes(16))
        sealed = f.seal(NONCE, b"payload" * 100, b"aad")
        assert f.open(NONCE, sealed, b"aad") == b"payload" * 100  # memo hit
        for i in (0, len(sealed) // 2, len(sealed) - 1):
            bad = bytearray(sealed)
            bad[i] ^= 1
            with pytest.raises(AuthenticationError):
                f.open(NONCE, bytes(bad), b"aad")

    def test_memo_checks_aad(self):
        f = FastAead(bytes(16))
        sealed = f.seal(NONCE, b"payload", b"right")
        with pytest.raises(AuthenticationError):
            f.open(NONCE, sealed, b"wrong")

    def test_memo_overwrite_still_opens_older_record(self):
        # Re-sealing under the same nonce evicts the memo entry; the older
        # record must still open via the full decrypt path.
        f = FastAead(bytes(16))
        first = f.seal(NONCE, b"first message")
        f.seal(NONCE, b"second message")
        assert f.open(NONCE, first) == b"first message"

    def test_memoryview_inputs_match_memo(self):
        f = FastAead(bytes(16))
        sealed = f.seal(NONCE, memoryview(b"zero-copy plaintext"), b"aad")
        assert f.open(memoryview(NONCE), memoryview(sealed), b"aad") == (
            b"zero-copy plaintext"
        )


class TestSharedAead:
    def test_same_key_shares_instance(self):
        assert shared_aead("fast", b"\x09" * 16) is shared_aead("fast", b"\x09" * 16)

    def test_different_key_or_kind_distinct(self):
        a = shared_aead("fast", b"\x0a" * 16)
        assert shared_aead("fast", b"\x0b" * 16) is not a
        assert shared_aead("aes-128-gcm", b"\x0a" * 16) is not a

    def test_shared_instance_roundtrips(self):
        sealer = shared_aead("fast", b"\x0c" * 16)
        opener = shared_aead("fast", b"\x0c" * 16)
        assert opener.open(NONCE, sealer.seal(NONCE, b"hello", b"x"), b"x") == b"hello"

    def test_entry_lives_exactly_as_long_as_its_sessions(self):
        key = b"\x0d" * 16
        iv = bytes(12)
        client = RecordProtection(shared_aead("aes-128-gcm", key), iv)
        server = RecordProtection(shared_aead("aes-128-gcm", key), iv)
        assert client._aead is server._aead
        assert ("aes-128-gcm", key) in _SHARED_AEADS
        del client, server
        gc.collect()
        assert ("aes-128-gcm", key) not in _SHARED_AEADS
