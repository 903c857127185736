"""AES-128/192/256 implemented from scratch as one table-driven numpy core.

The dm-crypt substrate (``repro.storage.dm_crypt``) encrypts whole disk
volumes and every TLS record is AES-CTR, so single-block Python AES
would be hopeless.  This module implements the Rijndael cipher exactly
(the S-box and round constants are *derived*, not pasted, and validated
against FIPS-197 vectors and a byte-wise reference in the test suite)
and applies every round to an ``(n, 16)`` array of blocks at once.

SubBytes, ShiftRows and MixColumns are fused into one 1 Ki-entry
``<u4`` column table per direction (the classic T-tables: entry
``256*r + x`` is row ``r``'s contribution of ``S[x]`` to its output
column).  A round is one ``take`` along the ShiftRows source order, one
add of the row offsets, one gather, one XOR-reduce over each column's
four contributions and the round key.  Decryption is the equivalent
inverse cipher (FIPS-197 section 5.3.5) on the same round loop, so one
block and 65,536 blocks cost the same ~6 numpy calls per round.  The
tables are 4 KiB per direction and stay in L1, so a round's cost
follows the core's speed, not how busy the shared caches are.  Tables
indexed by byte pairs (64 Ki entries) would halve the gathers of a
large request, but they live in L2, where their speed follows the load
on neighbouring cores more than the machine's speed.
"""

from __future__ import annotations

import numpy as np


class AesError(ValueError):
    """Raised for invalid key or block sizes."""


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> "tuple[np.ndarray, np.ndarray]":
    # Multiplicative inverses via brute force (the table is tiny),
    # followed by the affine transformation of FIPS-197 section 5.1.1.
    inverse = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if _gf_mul(x, y) == 1:
                inverse[x] = y
                break
    sbox = np.zeros(256, dtype=np.uint8)
    for x in range(256):
        b = inverse[x]
        result = 0
        for bit in range(8):
            value = (
                (b >> bit)
                ^ (b >> ((bit + 4) % 8))
                ^ (b >> ((bit + 5) % 8))
                ^ (b >> ((bit + 6) % 8))
                ^ (b >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            result |= value << bit
        sbox[x] = result
    inv_sbox = np.zeros(256, dtype=np.uint8)
    inv_sbox[sbox] = np.arange(256, dtype=np.uint8)
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()
_SBOX_BYTES = SBOX.tobytes()

# Flat state layout: index = 4*column + row (matches input byte order).
_SHIFT_ROWS = np.array(
    [4 * ((i // 4 + i % 4) % 4) + i % 4 for i in range(16)], dtype=np.intp
)
_INV_SHIFT_ROWS = np.array(
    [4 * ((i // 4 - i % 4) % 4) + i % 4 for i in range(16)], dtype=np.intp
)


def _column_table(sbox: np.ndarray, column: "tuple[int, ...]") -> np.ndarray:
    """Fused S-box + MixColumns table, ``256*r + x`` -> row ``r``'s part.

    ``column`` is the first column of the (inverse) MixColumns matrix;
    row ``r`` of a column contributes ``column`` rotated by ``r`` times
    ``sbox[x]``, as a ``<u4`` whose little-endian bytes are the output
    column in row order.
    """
    row0 = np.array(
        [[_gf_mul(int(s), c) for c in column] for s in sbox], dtype=np.uint8
    )
    return np.concatenate(
        [np.roll(row0, r, axis=1).view("<u4").ravel() for r in range(4)]
    )


#: Table offset of each flat state byte (``256 * row``).
_ROW_OFFSETS = np.tile(np.arange(4, dtype="<u2") * 256, 4)

#: (ShiftRows source order, column table, final-round S-box) per direction.
_ENCRYPT = (_SHIFT_ROWS, _column_table(SBOX, (2, 1, 1, 3)), SBOX)
_DECRYPT = (_INV_SHIFT_ROWS, _column_table(INV_SBOX, (14, 9, 13, 11)), INV_SBOX)

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 2))


def _expand_key(key: bytes) -> "list[int]":
    """FIPS-197 key expansion -> 4*(rounds+1) little-endian column words."""
    nk = len(key) // 4
    rounds = {4: 10, 6: 12, 8: 14}[nk]
    words = [int.from_bytes(key[4 * i : 4 * i + 4], "little") for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            temp = (temp >> 8) | ((temp & 0xFF) << 24)  # RotWord
            temp = _sub_word(temp) ^ _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append(words[i - nk] ^ temp)
    return words


def _sub_word(word: int) -> int:
    """SubWord: the S-box on each byte of a little-endian column word."""
    return int.from_bytes(word.to_bytes(4, "little").translate(_SBOX_BYTES), "little")


def _mix(table: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Look up every byte of an (n, 16) uint8 state in a column table
    and XOR each column's four parts: (n, 4) ``<u4`` columns."""
    parts = table.take(state + _ROW_OFFSETS)
    return np.bitwise_xor.reduce(parts.reshape(-1, 4, 4), axis=2)


def _rounds(state: np.ndarray, keys: np.ndarray, tables) -> np.ndarray:
    """Run every round of one direction over an (n, 16) uint8 state.

    ``keys`` is the (rounds+1, 4) ``<u4`` schedule in the order it is
    applied; ``tables`` is :data:`_ENCRYPT` or :data:`_DECRYPT`.
    """
    order, table, sbox = tables
    columns = state.view("<u4") ^ keys[0]
    for key in keys[1:-1]:
        columns = _mix(table, columns.view(np.uint8).take(order, axis=1)) ^ key
    shifted = columns.view(np.uint8).take(order, axis=1)
    return (sbox.take(shifted).view("<u4") ^ keys[-1]).view(np.uint8)


class AES:
    """The AES block cipher for a fixed key.

    ``encrypt_blocks``/``decrypt_blocks`` operate on any number of
    16-byte blocks at once (ECB permutation), ``encrypt_state``/
    ``decrypt_state`` on (n, 16) uint8 arrays; chaining modes live in
    :mod:`repro.crypto.modes`.
    """

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise AesError(f"invalid AES key size {len(key)}")
        words = np.array(_expand_key(key), dtype="<u4").reshape(-1, 4)
        self.key_size = len(key)
        self._encrypt_keys = words
        # Equivalent inverse cipher: the middle round keys, last first,
        # pass through InvMixColumns.  The decryption tables apply
        # InvMixColumns after InvSubBytes, so feed them S(key bytes).
        middle = _mix(_DECRYPT[1], SBOX.take(words[-2:0:-1].view(np.uint8)))
        self._decrypt_keys = np.concatenate((words[-1:], middle, words[:1]))

    def encrypt_blocks(self, data: bytes) -> bytes:
        """Encrypt ``len(data)/16`` blocks independently (raw ECB)."""
        return self.encrypt_state(self._to_state(data)).tobytes()

    def decrypt_blocks(self, data: bytes) -> bytes:
        """Invert :meth:`encrypt_blocks`."""
        return self.decrypt_state(self._to_state(data)).tobytes()

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block."""
        if len(block) != 16:
            raise AesError("block must be 16 bytes")
        return self.encrypt_blocks(block)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block."""
        if len(block) != 16:
            raise AesError("block must be 16 bytes")
        return self.decrypt_blocks(block)

    def encrypt_state(self, state: np.ndarray) -> np.ndarray:
        """Encrypt an (n, 16) uint8 array with contiguous rows; returns a
        new array."""
        return _rounds(state, self._encrypt_keys, _ENCRYPT)

    def decrypt_state(self, state: np.ndarray) -> np.ndarray:
        """Invert :meth:`encrypt_state`."""
        return _rounds(state, self._decrypt_keys, _DECRYPT)

    @staticmethod
    def _to_state(data: bytes) -> np.ndarray:
        if len(data) % 16:
            raise AesError("data length must be a multiple of 16")
        return np.frombuffer(data, dtype=np.uint8).reshape(-1, 16)
