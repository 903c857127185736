"""Tests for XTS, CTR, and the AEAD construction.

The XTS implementation is cross-checked against an independent
straight-line reference implementation written here with plain Python
integers, so a bug would have to appear identically in two very
different codebases to slip through.
"""

import pytest

from repro.crypto.aes import AES, AesError
from repro.crypto.drbg import HmacDrbg
from repro.crypto.modes import AeadCipher, AeadError, CtrCipher, XtsCipher


def _reference_xts_encrypt(key: bytes, sector: int, plaintext: bytes) -> bytes:
    """Naive per-block XTS-plain64 for cross-checking."""
    half = len(key) // 2
    data_aes = AES(key[:half])
    tweak_aes = AES(key[half:])
    tweak = int.from_bytes(
        tweak_aes.encrypt_block(sector.to_bytes(8, "little") + b"\x00" * 8),
        "little",
    )
    out = bytearray()
    for offset in range(0, len(plaintext), 16):
        tweak_bytes = tweak.to_bytes(16, "little")
        block = bytes(a ^ b for a, b in zip(plaintext[offset : offset + 16], tweak_bytes))
        enc = data_aes.encrypt_block(block)
        out += bytes(a ^ b for a, b in zip(enc, tweak_bytes))
        # Multiply tweak by alpha in GF(2^128), little-endian convention.
        carry = tweak >> 127
        tweak = (tweak << 1) & ((1 << 128) - 1)
        if carry:
            tweak ^= 0x87
    return bytes(out)


class TestXts:
    @pytest.fixture
    def rng(self):
        return HmacDrbg(b"xts-tests")

    # 48-byte sectors are three blocks (not a power of two); 4096-byte
    # sectors, dm-crypt's size here, cross the tweak chain's doubling
    # steps at 32, 64 and 128 blocks.
    @pytest.mark.parametrize("first_sector", [7, 2**32 + 5])
    @pytest.mark.parametrize("sector_size", [48, 512, 4096])
    @pytest.mark.parametrize("key_size", [32, 64])
    def test_matches_reference(self, rng, key_size, sector_size, first_sector):
        key = rng.generate(key_size)
        xts = XtsCipher(key, sector_size=sector_size)
        data = rng.generate(sector_size * 3)
        got = xts.encrypt(data, first_sector=first_sector)
        expected = b"".join(
            _reference_xts_encrypt(
                key, first_sector + i, data[sector_size * i : sector_size * (i + 1)]
            )
            for i in range(3)
        )
        assert got == expected
        assert xts.decrypt(got, first_sector=first_sector) == data

    def test_ieee1619_vector_2(self):
        # IEEE 1619-2007 XTS-AES-128 test vector 2: data unit 0x3333333333,
        # one 32-byte data unit of 0x44.
        xts = XtsCipher(b"\x11" * 16 + b"\x22" * 16, sector_size=32)
        plaintext = b"\x44" * 32
        ciphertext = bytes.fromhex(
            "c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0"
        )
        assert xts.encrypt(plaintext, 0x3333333333) == ciphertext
        assert xts.decrypt(ciphertext, 0x3333333333) == plaintext

    def test_round_trip(self, rng):
        xts = XtsCipher(rng.generate(64))
        data = rng.generate(4096 * 5)
        assert xts.decrypt(xts.encrypt(data, 3), 3) == data

    def test_sector_number_matters(self, rng):
        xts = XtsCipher(rng.generate(64))
        data = rng.generate(4096)
        assert xts.encrypt(data, 0) != xts.encrypt(data, 1)

    def test_identical_sectors_encrypt_differently(self, rng):
        xts = XtsCipher(rng.generate(64))
        data = b"\x00" * (4096 * 2)
        ciphertext = xts.encrypt(data, 0)
        assert ciphertext[:4096] != ciphertext[4096:]

    def test_batch_equals_sector_by_sector(self, rng):
        xts = XtsCipher(rng.generate(64))
        data = rng.generate(4096 * 4)
        batch = xts.encrypt(data, 10)
        pieces = b"".join(
            xts.encrypt(data[4096 * i : 4096 * (i + 1)], 10 + i) for i in range(4)
        )
        assert batch == pieces

    def test_empty_input(self, rng):
        xts = XtsCipher(rng.generate(64))
        assert xts.encrypt(b"", 0) == b""
        assert xts.decrypt(b"", 0) == b""

    def test_partial_sector_rejected(self, rng):
        xts = XtsCipher(rng.generate(64))
        with pytest.raises(AesError):
            xts.encrypt(b"\x00" * 100, 0)

    def test_negative_sector_rejected(self, rng):
        xts = XtsCipher(rng.generate(64))
        with pytest.raises(AesError):
            xts.encrypt(b"\x00" * 4096, -1)

    def test_equal_half_keys_rejected(self, rng):
        half = rng.generate(32)
        with pytest.raises(AesError):
            XtsCipher(half + half)

    @pytest.mark.parametrize("size", [0, 16, 31, 48, 65])
    def test_bad_key_size(self, size):
        with pytest.raises(AesError):
            XtsCipher(b"\x01" * size if size else b"")

    def test_bad_sector_size(self, rng):
        with pytest.raises(AesError):
            XtsCipher(rng.generate(64), sector_size=100)


class TestCtr:
    def test_involution(self):
        rng = HmacDrbg(b"ctr")
        ctr = CtrCipher(rng.generate(32))
        counter = rng.generate(16)
        data = rng.generate(1000)  # deliberately not a block multiple
        assert ctr.process(ctr.process(data, counter), counter) == data

    def test_counter_wraparound(self):
        ctr = CtrCipher(b"k" * 32)
        near_max = b"\xff" * 16
        # Must not raise and must still round-trip across the wrap.
        data = b"payload-across-counter-wrap" * 4
        assert ctr.process(ctr.process(data, near_max), near_max) == data

    def test_bad_counter_size(self):
        ctr = CtrCipher(b"k" * 32)
        with pytest.raises(AesError):
            ctr.process(b"data", b"\x00" * 8)

    def test_empty(self):
        ctr = CtrCipher(b"k" * 32)
        assert ctr.process(b"", b"\x00" * 16) == b""


class TestAead:
    @pytest.fixture
    def aead(self):
        return AeadCipher(b"K" * 32)

    def test_round_trip(self, aead):
        nonce = b"n" * 12
        sealed = aead.seal(nonce, b"secret payload", aad=b"header")
        assert aead.open(nonce, sealed, aad=b"header") == b"secret payload"

    def test_tampered_ciphertext_rejected(self, aead):
        nonce = b"n" * 12
        sealed = bytearray(aead.seal(nonce, b"secret"))
        sealed[0] ^= 1
        with pytest.raises(AeadError):
            aead.open(nonce, bytes(sealed))

    def test_tampered_tag_rejected(self, aead):
        nonce = b"n" * 12
        sealed = bytearray(aead.seal(nonce, b"secret"))
        sealed[-1] ^= 1
        with pytest.raises(AeadError):
            aead.open(nonce, bytes(sealed))

    def test_wrong_aad_rejected(self, aead):
        nonce = b"n" * 12
        sealed = aead.seal(nonce, b"secret", aad=b"right")
        with pytest.raises(AeadError):
            aead.open(nonce, sealed, aad=b"wrong")

    def test_wrong_nonce_rejected(self, aead):
        sealed = aead.seal(b"n" * 12, b"secret")
        with pytest.raises(AeadError):
            aead.open(b"m" * 12, sealed)

    def test_wrong_key_rejected(self):
        sealed = AeadCipher(b"K" * 32).seal(b"n" * 12, b"secret")
        with pytest.raises(AeadError):
            AeadCipher(b"J" * 32).open(b"n" * 12, sealed)

    def test_too_short_rejected(self, aead):
        with pytest.raises(AeadError):
            aead.open(b"n" * 12, b"short")

    def test_empty_plaintext(self, aead):
        nonce = b"n" * 12
        assert aead.open(nonce, aead.seal(nonce, b"")) == b""

    def test_bad_key_size(self):
        with pytest.raises(AesError):
            AeadCipher(b"short")
