"""Block cipher modes of operation: XTS-plain64, CTR, and an AEAD.

``XtsCipher`` is the construction dm-crypt uses as ``aes-xts-plain64``
(the exact cipher spec the paper configures in section 6.3.1): each
sector's tweak is the little-endian sector number encrypted under the
second key, advancing by multiplication with alpha in GF(2^128) per
16-byte block.  The tweak chain is built by doubling (the k tweaks
already known, times alpha^k) across every sector at once, so a request
of any size costs two AES passes (sector numbers, then data) plus
O(log blocks-per-sector) numpy passes for the tweaks, and stays on
arrays end to end.

``AeadCipher`` is an encrypt-then-MAC AEAD (AES-CTR + HMAC-SHA-256) used
for sealed storage payloads and TLS records.
"""

from __future__ import annotations

import hmac as _hmac
from hashlib import sha256

import numpy as np

from .aes import AES, AesError


def _times_x_power(lo: np.ndarray, hi: np.ndarray, power: int):
    """Multiply GF(2^128) elements, given as little-endian 64-bit limbs,
    by x^power (XTS's alpha^power).

    Shifts in steps of at most 32 bits, so the bits carried out of the
    top, reduced by x^128 = x^7 + x^2 + x + 1 (feedback byte 0x87),
    land in the low limb without overflowing it.
    """
    while power:
        shift = min(power, 32)
        carry = hi >> (64 - shift)
        hi = (hi << shift) | (lo >> (64 - shift))
        lo = (lo << shift) ^ carry ^ (carry << 1) ^ (carry << 2) ^ (carry << 7)
        power -= shift
    return lo, hi


class XtsCipher:
    """AES-XTS with plain64 sector tweaks (dm-crypt compatible shape).

    Parameters
    ----------
    key:
        Concatenation of the data key and the tweak key; 32 bytes for
        AES-128-XTS or 64 bytes for AES-256-XTS.
    sector_size:
        Bytes per sector; must be a multiple of 16.  dm-crypt uses 512 or
        4096.
    """

    def __init__(self, key: bytes, sector_size: int = 4096):
        if len(key) not in (32, 64):
            raise AesError("XTS key must be 32 or 64 bytes (two AES keys)")
        if sector_size % 16 or sector_size <= 0:
            raise AesError("sector size must be a positive multiple of 16")
        half = len(key) // 2
        if key[:half] == key[half:]:
            raise AesError("XTS data and tweak keys must differ")
        self._data_cipher = AES(key[:half])
        self._tweak_cipher = AES(key[half:])
        self.sector_size = sector_size
        self._blocks_per_sector = sector_size // 16

    def _tweaks(self, first_sector: int, num_sectors: int) -> np.ndarray:
        """Return (num_sectors * blocks_per_sector, 16) tweak array."""
        seed = np.zeros((num_sectors, 2), dtype="<u8")
        seed[:, 0] = np.arange(first_sector, first_sector + num_sectors, dtype=np.uint64)
        bps = self._blocks_per_sector
        # Each tweak is two little-endian 64-bit limbs (lo, hi).  Block j
        # of a sector is tweaked by T * x^j: double the known prefix of
        # the chain until it covers the sector.
        chain = np.empty((num_sectors, bps, 2), dtype="<u8")
        chain[:, 0] = self._tweak_cipher.encrypt_state(seed.view(np.uint8)).view("<u8")
        known = 1
        while known < bps:
            count = min(known, bps - known)
            lo, hi = _times_x_power(chain[:, :count, 0], chain[:, :count, 1], known)
            chain[:, known : known + count, 0] = lo
            chain[:, known : known + count, 1] = hi
            known += count
        return chain.view(np.uint8).reshape(num_sectors * bps, 16)

    def _check(self, data: bytes, first_sector: int) -> int:
        if first_sector < 0:
            raise AesError("sector index must be non-negative")
        if len(data) % self.sector_size:
            raise AesError(
                f"data length {len(data)} is not a multiple of the "
                f"sector size {self.sector_size}"
            )
        return len(data) // self.sector_size

    def encrypt(self, plaintext: bytes, first_sector: int = 0) -> bytes:
        """Encrypt whole sectors starting at *first_sector*."""
        num_sectors = self._check(plaintext, first_sector)
        if num_sectors == 0:
            return b""
        tweaks = self._tweaks(first_sector, num_sectors)
        state = np.frombuffer(plaintext, dtype=np.uint8).reshape(-1, 16) ^ tweaks
        return (self._data_cipher.encrypt_state(state) ^ tweaks).tobytes()

    def decrypt(self, ciphertext: bytes, first_sector: int = 0) -> bytes:
        """Invert :meth:`encrypt` for the same sector range."""
        num_sectors = self._check(ciphertext, first_sector)
        if num_sectors == 0:
            return b""
        tweaks = self._tweaks(first_sector, num_sectors)
        state = np.frombuffer(ciphertext, dtype=np.uint8).reshape(-1, 16) ^ tweaks
        return (self._data_cipher.decrypt_state(state) ^ tweaks).tobytes()


class CtrCipher:
    """AES in counter mode with a 128-bit big-endian counter block."""

    def __init__(self, key: bytes):
        self._cipher = AES(key)

    def _keystream(self, initial_counter: bytes, length: int) -> bytes:
        if len(initial_counter) != 16:
            raise AesError("counter block must be 16 bytes")
        num_blocks = (length + 15) // 16
        base = int.from_bytes(initial_counter, "big")
        counters = b"".join(
            ((base + i) % (1 << 128)).to_bytes(16, "big") for i in range(num_blocks)
        )
        return self._cipher.encrypt_blocks(counters)[:length]

    def process(self, data: bytes, initial_counter: bytes) -> bytes:
        """Encrypt or decrypt (CTR is an involution) *data*."""
        stream = self._keystream(initial_counter, len(data))
        return (
            np.frombuffer(data, dtype=np.uint8)
            ^ np.frombuffer(stream, dtype=np.uint8)
        ).tobytes() if data else b""


class AeadError(ValueError):
    """Raised when AEAD authentication fails."""


class AeadCipher:
    """Encrypt-then-MAC AEAD: AES-CTR for confidentiality, HMAC-SHA-256
    over (aad, nonce, ciphertext) for integrity.

    The 32-byte key is split by HKDF-style labelled hashing into an
    encryption key and a MAC key so the two uses never share key bits.
    """

    TAG_SIZE = 32
    NONCE_SIZE = 12

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise AesError("AEAD key must be 32 bytes")
        self._enc_key = sha256(b"aead-enc" + key).digest()
        self._mac_key = sha256(b"aead-mac" + key).digest()
        self._ctr = CtrCipher(self._enc_key)

    def _counter_block(self, nonce: bytes) -> bytes:
        if len(nonce) != self.NONCE_SIZE:
            raise AesError(f"nonce must be {self.NONCE_SIZE} bytes")
        return nonce + b"\x00\x00\x00\x01"

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        mac = _hmac.new(self._mac_key, digestmod=sha256)
        mac.update(len(aad).to_bytes(8, "big"))
        mac.update(aad)
        mac.update(nonce)
        mac.update(ciphertext)
        return mac.digest()

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ciphertext || tag."""
        ciphertext = self._ctr.process(plaintext, self._counter_block(nonce))
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`AeadError` on any tampering."""
        if len(sealed) < self.TAG_SIZE:
            raise AeadError("sealed message too short")
        ciphertext, tag = sealed[: -self.TAG_SIZE], sealed[-self.TAG_SIZE :]
        expected = self._tag(nonce, ciphertext, aad)
        if not _hmac.compare_digest(tag, expected):
            raise AeadError("authentication tag mismatch")
        return self._ctr.process(ciphertext, self._counter_block(nonce))
