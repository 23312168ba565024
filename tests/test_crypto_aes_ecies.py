"""AES (FIPS-197 / SP 800-38A vectors), concat-KDF, and ECIES tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import AES, AESCTR, aes_ctr
from repro.crypto.ecies import ECIES_OVERHEAD, ecies_decrypt, ecies_encrypt
from repro.crypto.kdf import concat_kdf
from repro.crypto.keys import PrivateKey
from repro.errors import CryptoError, DecryptionError


class TestAESBlock:
    def test_fips197_aes128(self):
        cipher = AES(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        ciphertext = cipher.encrypt_block(plaintext)
        assert ciphertext.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_fips197_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        cipher = AES(key)
        ciphertext = cipher.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert ciphertext.hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_fips197_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        cipher = AES(key)
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        ciphertext = cipher.encrypt_block(plaintext)
        assert ciphertext.hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_bad_key_length(self):
        with pytest.raises(CryptoError):
            AES(b"short")

    def test_bad_block_length(self):
        with pytest.raises(CryptoError):
            AES(b"\x00" * 16).encrypt_block(b"short")

    def test_cross_check_with_cryptography(self):
        algorithms = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

        key = bytes(range(32))
        block = bytes(range(16, 32))
        theirs = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        assert AES(key).encrypt_block(block) == theirs.update(block)


class TestAESCTR:
    def test_sp800_38a_f51(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        plaintext = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
        )
        expected = (
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
        )
        assert aes_ctr(key, counter, plaintext).hex() == expected

    def test_streaming_continues_keystream(self):
        key, counter = b"\x01" * 16, b"\x00" * 16
        stream = AESCTR(key, counter)
        combined = stream.process(b"abc") + stream.process(b"defgh")
        assert combined == aes_ctr(key, counter, b"abcdefgh")

    def test_ctr_is_self_inverse(self):
        key, counter = b"\x07" * 32, b"\x09" * 16
        data = bytes(range(256)) * 3
        assert aes_ctr(key, counter, aes_ctr(key, counter, data)) == data

    def test_counter_wraps(self):
        key = b"\x01" * 16
        counter = b"\xff" * 16
        # processing 32 bytes forces the 128-bit counter to wrap to zero
        out = AESCTR(key, counter).process(b"\x00" * 32)
        assert out[16:] == AES(key).encrypt_block(b"\x00" * 16)

    def test_bad_counter_length(self):
        with pytest.raises(CryptoError):
            AESCTR(b"\x00" * 16, b"\x00" * 8)


class TestConcatKDF:
    def test_deterministic(self):
        assert concat_kdf(b"secret", 32) == concat_kdf(b"secret", 32)

    def test_length_control(self):
        for length in (1, 16, 32, 33, 64, 100):
            assert len(concat_kdf(b"z", length)) == length

    def test_prefix_property(self):
        assert concat_kdf(b"s", 64)[:32] == concat_kdf(b"s", 32)

    def test_shared_info_changes_output(self):
        assert concat_kdf(b"s", 32) != concat_kdf(b"s", 32, shared_info=b"x")

    def test_invalid_length(self):
        with pytest.raises(CryptoError):
            concat_kdf(b"s", 0)


class TestECIES:
    def test_roundtrip(self):
        key = PrivateKey(0xBEEF)
        for message in (b"", b"x", b"hello" * 100):
            assert ecies_decrypt(ecies_encrypt(message, key.public_key), key) == message

    def test_overhead_constant(self):
        key = PrivateKey(0xBEEF)
        message = b"payload"
        assert len(ecies_encrypt(message, key.public_key)) == len(message) + ECIES_OVERHEAD

    def test_mac_tamper_detected(self):
        key = PrivateKey(0xBEEF)
        ciphertext = bytearray(ecies_encrypt(b"payload", key.public_key))
        ciphertext[-1] ^= 0x01
        with pytest.raises(DecryptionError):
            ecies_decrypt(bytes(ciphertext), key)

    def test_body_tamper_detected(self):
        key = PrivateKey(0xBEEF)
        ciphertext = bytearray(ecies_encrypt(b"payload", key.public_key))
        ciphertext[90] ^= 0x01
        with pytest.raises(DecryptionError):
            ecies_decrypt(bytes(ciphertext), key)

    def test_wrong_recipient_fails(self):
        ciphertext = ecies_encrypt(b"payload", PrivateKey(1).public_key)
        with pytest.raises(DecryptionError):
            ecies_decrypt(ciphertext, PrivateKey(2))

    def test_shared_mac_data_must_match(self):
        key = PrivateKey(0xBEEF)
        ciphertext = ecies_encrypt(b"payload", key.public_key, shared_mac_data=b"ad")
        assert ecies_decrypt(ciphertext, key, shared_mac_data=b"ad") == b"payload"
        with pytest.raises(DecryptionError):
            ecies_decrypt(ciphertext, key, shared_mac_data=b"other")

    def test_truncated_message_rejected(self):
        with pytest.raises(DecryptionError):
            ecies_decrypt(b"\x04" + b"\x00" * 50, PrivateKey(1))

    def test_bad_prefix_rejected(self):
        key = PrivateKey(0xBEEF)
        ciphertext = bytearray(ecies_encrypt(b"payload", key.public_key))
        ciphertext[0] = 0x02
        with pytest.raises(DecryptionError):
            ecies_decrypt(bytes(ciphertext), key)

    def test_deterministic_with_pinned_randomness(self):
        key = PrivateKey(0xBEEF)
        ephemeral = PrivateKey(0x1234)
        first = ecies_encrypt(b"m", key.public_key, ephemeral_key=ephemeral, iv=b"\x00" * 16)
        second = ecies_encrypt(b"m", key.public_key, ephemeral_key=ephemeral, iv=b"\x00" * 16)
        assert first == second

    @settings(max_examples=6, deadline=None)
    @given(st.binary(max_size=300))
    def test_roundtrip_property(self, message):
        key = PrivateKey(0x777)
        assert ecies_decrypt(ecies_encrypt(message, key.public_key), key) == message
