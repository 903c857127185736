"""AES known-answer tests (FIPS-197), batch consistency checks, and an
equality check of the table-driven core against a byte-wise reference.

The reference below is the textbook round structure — SubBytes,
ShiftRows, MixColumns and AddRoundKey one byte at a time, with its own
key expansion — so the fused column tables, the equivalent inverse cipher
and the word-oriented key schedule of :mod:`repro.crypto.aes` are all
checked against code that shares nothing with them but the S-box.
"""

import numpy as np
import pytest

from repro.crypto.aes import AES, INV_SBOX, SBOX, AesError
from repro.crypto.drbg import HmacDrbg


def _xtime_mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = ((a << 1) ^ 0x1B) & 0xFF if a & 0x80 else a << 1
        b >>= 1
    return result


_MUL = {
    factor: np.array([_xtime_mul(x, factor) for x in range(256)], dtype=np.uint8)
    for factor in (2, 3, 9, 11, 13, 14)
}

# Flat state layout: index = 4*column + row (matches input byte order).
_SHIFT_ROWS = np.array([4 * ((i // 4 + i % 4) % 4) + i % 4 for i in range(16)])
_INV_SHIFT_ROWS = np.array([4 * ((i // 4 - i % 4) % 4) + i % 4 for i in range(16)])


def _reference_round_keys(key: bytes) -> np.ndarray:
    """FIPS-197 key expansion, byte-wise -> (rounds+1, 16) round keys."""
    nk = len(key) // 4
    rounds = {4: 10, 6: 12, 8: 14}[nk]
    rcon = 1
    words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = [int(SBOX[b]) for b in temp[1:] + temp[:1]]
            temp[0] ^= rcon
            rcon = _xtime_mul(rcon, 2)
        elif nk > 6 and i % nk == 4:
            temp = [int(SBOX[b]) for b in temp]
        words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
    flat = [b for word in words for b in word]
    return np.array(flat, dtype=np.uint8).reshape(rounds + 1, 16)


def _mix_columns(state: np.ndarray) -> np.ndarray:
    cols = state.reshape(-1, 4, 4)  # (n, column, row)
    a0, a1, a2, a3 = cols[:, :, 0], cols[:, :, 1], cols[:, :, 2], cols[:, :, 3]
    m2, m3 = _MUL[2], _MUL[3]
    out = np.empty_like(cols)
    out[:, :, 0] = m2[a0] ^ m3[a1] ^ a2 ^ a3
    out[:, :, 1] = a0 ^ m2[a1] ^ m3[a2] ^ a3
    out[:, :, 2] = a0 ^ a1 ^ m2[a2] ^ m3[a3]
    out[:, :, 3] = m3[a0] ^ a1 ^ a2 ^ m2[a3]
    return out.reshape(-1, 16)


def _inv_mix_columns(state: np.ndarray) -> np.ndarray:
    cols = state.reshape(-1, 4, 4)
    a0, a1, a2, a3 = cols[:, :, 0], cols[:, :, 1], cols[:, :, 2], cols[:, :, 3]
    m9, m11, m13, m14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
    out = np.empty_like(cols)
    out[:, :, 0] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
    out[:, :, 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
    out[:, :, 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
    out[:, :, 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]
    return out.reshape(-1, 16)


def _reference_encrypt(key: bytes, data: bytes) -> bytes:
    """FIPS-197 cipher, one transformation at a time."""
    round_keys = _reference_round_keys(key)
    rounds = len(round_keys) - 1
    state = np.frombuffer(data, dtype=np.uint8).reshape(-1, 16) ^ round_keys[0]
    for round_index in range(1, rounds):
        state = SBOX[state][:, _SHIFT_ROWS]
        state = _mix_columns(state) ^ round_keys[round_index]
    state = SBOX[state][:, _SHIFT_ROWS] ^ round_keys[rounds]
    return state.tobytes()


def _reference_decrypt(key: bytes, data: bytes) -> bytes:
    """FIPS-197 inverse cipher, one transformation at a time."""
    round_keys = _reference_round_keys(key)
    rounds = len(round_keys) - 1
    state = np.frombuffer(data, dtype=np.uint8).reshape(-1, 16) ^ round_keys[rounds]
    for round_index in range(rounds - 1, 0, -1):
        state = INV_SBOX[state[:, _INV_SHIFT_ROWS]] ^ round_keys[round_index]
        state = _inv_mix_columns(state)
    state = INV_SBOX[state[:, _INV_SHIFT_ROWS]] ^ round_keys[0]
    return state.tobytes()

# FIPS-197 appendix C example vectors.
_FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
_FIPS_VECTORS = [
    ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]


class TestKnownAnswers:
    @pytest.mark.parametrize("key_hex,ct_hex", _FIPS_VECTORS)
    def test_fips197_encrypt(self, key_hex, ct_hex):
        cipher = AES(bytes.fromhex(key_hex))
        assert cipher.encrypt_block(_FIPS_PLAINTEXT) == bytes.fromhex(ct_hex)

    @pytest.mark.parametrize("key_hex,ct_hex", _FIPS_VECTORS)
    def test_fips197_decrypt(self, key_hex, ct_hex):
        cipher = AES(bytes.fromhex(key_hex))
        assert cipher.decrypt_block(bytes.fromhex(ct_hex)) == _FIPS_PLAINTEXT

    @pytest.mark.parametrize("key_hex,ct_hex", _FIPS_VECTORS)
    def test_reference_matches_fips197(self, key_hex, ct_hex):
        key = bytes.fromhex(key_hex)
        assert _reference_encrypt(key, _FIPS_PLAINTEXT) == bytes.fromhex(ct_hex)
        assert _reference_decrypt(key, bytes.fromhex(ct_hex)) == _FIPS_PLAINTEXT

    def test_sbox_round_trip(self):
        assert sorted(SBOX.tolist()) == list(range(256))
        for value in range(256):
            assert INV_SBOX[SBOX[value]] == value
        # Spot checks against the published table.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16


class TestTableCore:
    @pytest.mark.parametrize("blocks", [1, 2, 7, 256, 1000])
    @pytest.mark.parametrize("key_size", [16, 24, 32])
    def test_matches_reference(self, key_size, blocks):
        rng = HmacDrbg(b"aes-reference:%d:%d" % (key_size, blocks))
        key = rng.generate(key_size)
        data = rng.generate(16 * blocks)
        cipher = AES(key)
        assert cipher.encrypt_blocks(data) == _reference_encrypt(key, data)
        assert cipher.decrypt_blocks(data) == _reference_decrypt(key, data)

    def test_state_entry_points_match_bytes(self):
        rng = HmacDrbg(b"aes-state")
        cipher = AES(rng.generate(32))
        data = rng.generate(16 * 5)
        state = np.frombuffer(data, dtype=np.uint8).reshape(-1, 16)
        encrypted = cipher.encrypt_state(state)
        assert encrypted.shape == (5, 16) and encrypted.dtype == np.uint8
        assert encrypted.tobytes() == cipher.encrypt_blocks(data)
        assert cipher.decrypt_state(encrypted).tobytes() == data


class TestBatchConsistency:
    def test_batch_matches_per_block(self):
        rng = HmacDrbg(b"aes-batch")
        cipher = AES(rng.generate(32))
        blocks = [rng.generate(16) for _ in range(37)]
        batch = cipher.encrypt_blocks(b"".join(blocks))
        singles = b"".join(cipher.encrypt_block(b) for b in blocks)
        assert batch == singles

    def test_round_trip_large(self):
        rng = HmacDrbg(b"aes-roundtrip")
        cipher = AES(rng.generate(16))
        data = rng.generate(16 * 1024)
        assert cipher.decrypt_blocks(cipher.encrypt_blocks(data)) == data

    def test_different_keys_differ(self):
        data = b"\x00" * 16
        assert AES(b"k" * 16).encrypt_block(data) != AES(b"j" * 16).encrypt_block(data)

    def test_empty_input(self):
        cipher = AES(b"k" * 16)
        assert cipher.encrypt_blocks(b"") == b""
        assert cipher.decrypt_blocks(b"") == b""


class TestErrors:
    @pytest.mark.parametrize("size", [0, 8, 15, 17, 33])
    def test_bad_key_size(self, size):
        with pytest.raises(AesError):
            AES(b"\x00" * size)

    def test_bad_block_size(self):
        cipher = AES(b"k" * 16)
        with pytest.raises(AesError):
            cipher.encrypt_block(b"short")
        with pytest.raises(AesError):
            cipher.encrypt_blocks(b"\x00" * 17)
