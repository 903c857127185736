"""Attestation bundles and public-key encryption for TLS key sharing.

Implements the wire structures and cryptography of the mutual
attestation + key distribution protocol (paper Fig. 4 / section 5.3.1):

* :class:`ReportBundle` — an attestation report plus the payload it
  endorses (a CSR or a public key), with the binding rule that the
  report's ``REPORT_DATA`` equals the payload's SHA-256 hash,
* :func:`encrypt_to_public_key` / :func:`decrypt_with_private_key` —
  ECIES-style hybrid encryption (ephemeral ECDH + AEAD) used by the
  leader to wrap the shared TLS private key for each attested peer,
* :func:`verify_report_bundle` — the common verification routine run by
  the SP node, the leader, and the peers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional

from ..amd.report import AttestationReport
from ..amd.tcb import TcbVersion
from ..attest import (
    AttestationVerifier,
    VerificationOutcome,
    VerificationPolicy,
    snp_evidence,
)
from ..crypto import encoding
from ..crypto.drbg import HmacDrbg
from ..crypto.ec import P256
from ..crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey
from ..crypto.kdf import hkdf
from ..crypto.modes import AeadCipher, AeadError
from .kds_client import KdsClient

BUNDLE_KIND_CSR = "csr"
BUNDLE_KIND_PUBLIC_KEY = "public_key"


class KeySharingError(RuntimeError):
    """Raised on malformed bundles or failed unwrapping."""


def report_data_for(payload_digest: bytes) -> bytes:
    """Embed a 32-byte digest in the 64-byte REPORT_DATA field."""
    if len(payload_digest) != 32:
        raise KeySharingError("payload digest must be 32 bytes")
    return payload_digest + b"\x00" * 32


@dataclass(frozen=True)
class ReportBundle:
    """An attestation report plus the payload its REPORT_DATA endorses."""

    kind: str  # BUNDLE_KIND_CSR or BUNDLE_KIND_PUBLIC_KEY
    report: AttestationReport
    payload: bytes  # encoded CSR or encoded public key

    def encode(self) -> bytes:
        """Serialise to canonical TLV bytes."""
        return encoding.encode(
            {"kind": self.kind, "report": self.report.encode(), "payload": self.payload}
        )

    @classmethod
    def decode(cls, data: bytes) -> "ReportBundle":
        """Parse an instance back out of canonical TLV bytes."""
        try:
            decoded = encoding.decode(data)
            return cls(
                kind=decoded["kind"],
                report=AttestationReport.decode(decoded["report"]),
                payload=decoded["payload"],
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise KeySharingError(f"malformed report bundle: {exc}") from exc

    def payload_digest(self) -> bytes:
        """SHA-256 of the attached payload."""
        return hashlib.sha256(self.payload).digest()

    def binding_ok(self) -> bool:
        """Does REPORT_DATA endorse this payload?"""
        return self.report.report_data == report_data_for(self.payload_digest())


def bundle_policy(
    bundle: ReportBundle,
    expected_measurements: Iterable[bytes],
    allowed_chip_ids: Optional[Iterable[bytes]] = None,
    minimum_tcb: Optional[TcbVersion] = None,
) -> VerificationPolicy:
    """The pipeline policy a bundle must satisfy: golden set, the
    REPORT_DATA = H(payload) binding, and any platform constraints."""
    return VerificationPolicy(
        golden_measurements=expected_measurements,
        expected_report_data=report_data_for(bundle.payload_digest()),
        allowed_chip_ids=allowed_chip_ids,
        minimum_tcb=minimum_tcb,
    )


def verify_report_bundle(
    bundle: ReportBundle,
    kds: KdsClient,
    now: int,
    expected_measurements: Iterable[bytes],
    allowed_chip_ids: Optional[Iterable[bytes]] = None,
    minimum_tcb: Optional[TcbVersion] = None,
    verifier: Optional[AttestationVerifier] = None,
) -> VerificationOutcome:
    """Full bundle verification through the unified pipeline: KDS chain
    + signature + measurement against the golden set + REPORT_DATA/
    payload binding.

    Callers that hold their own :class:`AttestationVerifier` (for a
    per-site trace label) pass it as *verifier*; otherwise one is built
    over *kds*.  Returns the passing outcome; raises
    :class:`~repro.amd.verify.AttestationError` with the failing step's
    stable reason code.
    """
    if verifier is None:
        verifier = AttestationVerifier(kds, site="key_sharing")
    policy = bundle_policy(
        bundle, expected_measurements, allowed_chip_ids, minimum_tcb
    )
    outcome = verifier.verify(snp_evidence(bundle.report), now, policy=policy)
    outcome.raise_for_failure()
    return outcome


# -- ECIES-style hybrid encryption -------------------------------------------


def encrypt_to_public_key(
    recipient: EcdsaPublicKey, plaintext: bytes, rng: HmacDrbg
) -> bytes:
    """Encrypt *plaintext* so only the holder of the matching private
    key can read it (ephemeral ECDH + HKDF + AEAD)."""
    ephemeral = EcdsaPrivateKey.generate(P256, rng)
    shared = ephemeral.ecdh(recipient)
    key = hkdf(shared, info=b"revelio-ecies" + recipient.encode(), length=32)
    sealed = AeadCipher(key).seal(b"\x00" * 12, plaintext, aad=b"tls-key-wrap")
    return encoding.encode(
        {"epk": ephemeral.public_key().encode(), "ct": sealed}
    )


def decrypt_with_private_key(private_key: EcdsaPrivateKey, blob: bytes) -> bytes:
    """Invert :func:`encrypt_to_public_key`."""
    try:
        decoded = encoding.decode(blob)
        ephemeral_public = EcdsaPublicKey.decode(decoded["epk"])
        sealed = decoded["ct"]
    except (ValueError, KeyError, TypeError) as exc:
        raise KeySharingError("malformed encrypted blob") from exc
    shared = private_key.ecdh(ephemeral_public)
    key = hkdf(
        shared,
        info=b"revelio-ecies" + private_key.public_key().encode(),
        length=32,
    )
    try:
        return AeadCipher(key).open(b"\x00" * 12, sealed, aad=b"tls-key-wrap")
    except AeadError as exc:
        raise KeySharingError("decryption failed (wrong recipient?)") from exc
