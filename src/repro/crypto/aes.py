"""AES-128/192/256 implemented from scratch as one table-driven numpy core.

The dm-crypt substrate (``repro.storage.dm_crypt``) encrypts whole disk
volumes and every TLS record is AES-CTR, so single-block Python AES
would be hopeless.  This module implements the Rijndael cipher exactly
(the S-box and round constants are *derived*, not pasted, and validated
against FIPS-197 vectors and a byte-wise reference in the test suite)
and applies every round to all the blocks of a request at once.

SubBytes, ShiftRows and MixColumns are fused into one 1 Ki-entry
``<u4`` column table per direction (the classic T-tables: entry
``256*r + x`` is row ``r``'s contribution of ``S[x]`` to its output
column).  Decryption is the equivalent inverse cipher (FIPS-197 section
5.3.5) on the same round loop.  The tables are 4 KiB per direction and
stay in L1, so a round's cost follows the core's speed, not how busy
the shared caches are.  Tables indexed by byte pairs (64 Ki entries)
would halve the gathers of a large request, but they live in L2, where
their speed follows the load on neighbouring cores more than the
machine's speed.

The loop holds the state *lane-major*.  Between rounds it is four
``<u4`` column words per block, kept as a ``(4, n)`` array whose bytes
are read through a ``(column, block, row)`` view.  A middle round is
four numpy calls:

1. one fixed gather makes 16 lanes, where lane ``4*r + c`` holds, for
   every block, the byte that row ``r`` of output column ``c`` looks up
   (ShiftRows plus the grouping of each column's parts by row);
2. one XOR adds each lane's row offset ``256*r`` and the previous
   round's key byte at once (``(b ^ k) + 256*r == b ^ (k + 256*r)`` for
   bytes ``b`` and ``k``), so the round key costs no pass of its own;
3. one ``take`` fetches the 16 parts from the column table into a
   ``(4, 4, n)`` buffer;
4. one ``bitwise_xor.reduce`` over that buffer's outer axis of length 4
   folds the rows into the next ``(4, n)`` column words.

The first round gathers straight from the caller's ``(n, 16)`` bytes
and the last one gathers back into that order, so there is no
transpose.  The lane-major key schedule is built once per key (the
decryption one on first use).  An
``(n, 16)`` state would fold over a trailing axis of length 4, numpy's
slow inner loop, and spend about six calls a round.  Against that
row-major loop, through ``encrypt_state``/``decrypt_state`` on a 2-vCPU
Xeon VM (interleaved calls, fastest of 300, 16/24/32-byte keys, both
directions, two sessions), the lane-major loop was 1.01-1.15x as fast
at 1-6 blocks, 1.1-1.3x at 8-16, 1.3-1.9x at 32-65, 2.4-2.8x at 256,
3.1-4.0x at 4,096 and 2.7-3.5x at 65,536, so it replaced that loop at
every size.

Every round runs over slabs of at most ``SLAB_BLOCKS`` blocks.  A round
keeps 128 bytes of buffers a block (gathered lanes, indices, parts and
column words), so a 1 MiB request (65,536 blocks) would sweep 8 MiB per
round and spill a 2 MiB L2.  The buffers are allocated once per call
and reused by every slab, and each slab's last round writes its rows of
one ``(n, 16)`` result.  A 64 KiB request (4,096 blocks) is one slab:
every request up to that size runs each round as one pass.  In a
sweep on a 2-vCPU Xeon VM (2 MiB L2 a core; AES-256, interleaved calls,
fastest of 6 rounds) slabs of 2,048-8,192 blocks ran 16,384 and 65,536
blocks within 5% of each other and 20-25% faster than one slab of the
whole request (65,536-block encrypt: 18.3-19.4 ms against 24.6 ms); on
a busier host, in two earlier sessions, their order changed from run to
run.  4,096 is the smallest slab that keeps a 64 KiB request whole.
"""

from __future__ import annotations

from functools import cached_property

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

#: Table offset of each lane ``4*r + c`` (``256 * r``), as a column.
_LANE_OFFSETS = np.repeat(np.arange(4, dtype="<u2") * 256, 4)[:, None]


def _direction(order: np.ndarray, sbox: np.ndarray, column) -> tuple:
    """One direction's constants: (column table, final-round S-box,
    (column, row) source of each lane, (column, row) source of each
    flat byte after ShiftRows), from its ShiftRows source order."""
    lanes = order.reshape(4, 4).T.ravel()  # lane 4*r + c <- order[4*c + r]
    return _column_table(sbox, column), sbox, np.divmod(lanes, 4), np.divmod(order, 4)


#: Blocks per slab of :func:`_rounds` (see the module docstring).
SLAB_BLOCKS = 4096

_ENCRYPT = _direction(_SHIFT_ROWS, SBOX, (2, 1, 1, 3))
_DECRYPT = _direction(_INV_SHIFT_ROWS, INV_SBOX, (14, 9, 13, 11))

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


def _lane_schedule(keys: np.ndarray, tables) -> tuple:
    """Lay a (rounds+1, 4) ``<u4`` key schedule, in the order it is
    applied, out the way :func:`_rounds` applies it.

    Key ``j`` rides on round ``j + 1``'s table indices, as a (16, 1)
    ``<u2`` lane column with the row offsets folded in; the last middle
    key on the final round's S-box indices, in ShiftRows order; the last
    key is XORed into the output words.
    """
    _, _, (lane_columns, lane_rows), (shift_columns, shift_rows) = tables
    key_bytes = keys.view(np.uint8).reshape(-1, 4, 4)  # (key, column, row)
    lane_keys = key_bytes[:-2, lane_columns, lane_rows, None] ^ _LANE_OFFSETS
    return lane_keys, key_bytes[-2, shift_columns, shift_rows], keys[-1]


def _rounds(state: np.ndarray, schedule: tuple, tables) -> np.ndarray:
    """Run every round of one direction over an (n, 16) uint8 state, in
    slabs of at most :data:`SLAB_BLOCKS` blocks.

    ``schedule`` comes from :func:`_lane_schedule`; ``tables`` is
    :data:`_ENCRYPT` or :data:`_DECRYPT`.
    """
    table, sbox, (lane_columns, lane_rows), (shift_columns, shift_rows) = tables
    lane_keys, shift_key, last_key = schedule
    n = state.shape[0]
    width = min(n, SLAB_BLOCKS)
    out = np.empty((n, 16), dtype=np.uint8)
    index = np.empty((16, width), dtype="<u2")
    parts = np.empty((4, 4, width), dtype="<u4")
    columns = np.empty((4, width), dtype="<u4")
    for start in range(0, n, SLAB_BLOCKS):
        if n - start < width:  # a short last slab uses each buffer's front
            width = n - start
            index, parts, columns = index[:, :width], parts[..., :width], columns[:, :width]
        stop = start + width
        lane_parts = parts.reshape(16, width)
        column_bytes = columns.view(np.uint8).reshape(4, width, 4)
        # (column, block, row)
        state_bytes = state[start:stop].reshape(width, 4, 4).transpose(1, 0, 2)
        for key in lane_keys:
            np.bitwise_xor(state_bytes[lane_columns, :, lane_rows], key, out=index)
            # Indices never exceed 1023, so "clip" never clips; unlike the
            # default "raise" it writes straight into ``out``.
            table.take(index, out=lane_parts, mode="clip")
            np.bitwise_xor.reduce(parts, axis=0, out=columns)
            state_bytes = column_bytes
        shifted = state_bytes.transpose(1, 0, 2)[:, shift_columns, shift_rows]
        slab = sbox.take(np.bitwise_xor(shifted, shift_key, out=shifted),
                         out=out[start:stop], mode="clip")
        words = slab.view("<u4")
        words ^= last_key
    return out


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
        self.key_size = len(key)
        self._words = np.array(_expand_key(key), dtype="<u4").reshape(-1, 4)
        self._encrypt_keys = _lane_schedule(self._words, _ENCRYPT)

    @cached_property
    def _decrypt_keys(self) -> tuple:
        # Built on first use: CTR and the XTS tweak cipher only encrypt.
        # Equivalent inverse cipher: the middle round keys, last first,
        # pass through InvMixColumns.  The decryption table applies
        # InvMixColumns after InvSubBytes, so feed it S(key bytes) and
        # XOR each column's four parts.
        words = self._words
        parts = _DECRYPT[0].take(SBOX.take(words[-2:0:-1].view(np.uint8)) + _ROW_OFFSETS)
        middle = np.bitwise_xor.reduce(parts.reshape(-1, 4, 4), axis=2)
        return _lane_schedule(np.concatenate((words[-1:], middle, words[:1])), _DECRYPT)

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
