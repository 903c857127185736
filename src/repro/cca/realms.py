"""Simulated ARM CCA: realms, RMM measurements, and two-level tokens.

The third VM-model TEE the paper names ("ARM's Confidential Compute
Architecture (CCA)").  CCA's attestation differs structurally from
SEV-SNP's and TDX's single signed report: evidence is a **pair of
tokens** —

* a **realm token**: the realm's initial measurement (RIM), its
  runtime-extensible measurements (REMs), and the verifier's challenge,
  signed by a per-realm attestation key (RAK);
* a **platform token**: binds the RAK (by hash) to the platform,
  signed by the CCA Platform Attestation Key (CPAK) whose certificate
  chains to ARM.

The verifier checks the platform token against the ARM trust anchor,
checks the RAK binding, then verifies the realm token with the RAK —
reproducing the CCA token-chaining design faithfully enough that
:mod:`repro.attest` treats it as just another
:class:`~repro.attest.Evidence` family.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..crypto import encoding, sigcache
from ..crypto.drbg import HmacDrbg
from ..crypto.ec import P384
from ..crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey
from ..crypto.kdf import hkdf
from ..crypto.keys import PrivateKey
from ..crypto.x509 import Certificate, CertificateIssuer, Name

NUM_REMS = 4
MEASUREMENT_SIZE = 48
CHALLENGE_SIZE = 64

_CERT_NOT_BEFORE = 0
_CERT_NOT_AFTER = 2**62


class CcaError(RuntimeError):
    """Invalid CCA operations or failed token verification."""


@dataclass(frozen=True)
class RealmToken:
    """The realm's half of the evidence, signed by its RAK."""

    rim: bytes  # realm initial measurement
    rems: Tuple[bytes, ...]  # realm extensible measurements
    challenge: bytes  # verifier nonce / REPORT_DATA analogue
    rak_public: bytes  # encoded RAK public key
    signature: bytes = b""

    def signed_payload(self) -> bytes:
        """The canonical byte string covered by the signature."""
        return encoding.encode(
            {
                "rim": self.rim,
                "rems": list(self.rems),
                "challenge": self.challenge,
                "rak": self.rak_public,
            }
        )


@dataclass(frozen=True)
class PlatformToken:
    """The platform's half: binds the RAK to genuine CCA hardware."""

    platform_id: bytes
    lifecycle_state: str  # "secured" on honest platforms
    rak_hash: bytes  # sha256 over the realm token's RAK
    signature: bytes = b""
    platform_svn: int = 1  # security version of the monitor/RMM firmware

    def signed_payload(self) -> bytes:
        """The canonical byte string covered by the signature."""
        return encoding.encode(
            {
                "platform": self.platform_id,
                "lifecycle": self.lifecycle_state,
                "rak_hash": self.rak_hash,
                "svn": self.platform_svn,
            }
        )


@dataclass(frozen=True)
class CcaToken:
    """The complete evidence bundle a realm hands to a verifier."""

    realm_token: RealmToken
    platform_token: PlatformToken

    def encode(self) -> bytes:
        """Serialise to canonical TLV bytes."""
        return encoding.encode(
            {
                "realm": {
                    "payload": self.realm_token.signed_payload(),
                    "sig": self.realm_token.signature,
                },
                "platform": {
                    "payload": self.platform_token.signed_payload(),
                    "sig": self.platform_token.signature,
                },
            }
        )

    @classmethod
    def decode(cls, data: bytes) -> "CcaToken":
        """Parse an instance back out of canonical TLV bytes."""
        try:
            outer = encoding.decode(data)
            realm_payload = encoding.decode(outer["realm"]["payload"])
            platform_payload = encoding.decode(outer["platform"]["payload"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CcaError("malformed CCA token") from exc
        realm = RealmToken(
            rim=realm_payload["rim"],
            rems=tuple(realm_payload["rems"]),
            challenge=realm_payload["challenge"],
            rak_public=realm_payload["rak"],
            signature=outer["realm"]["sig"],
        )
        platform = PlatformToken(
            platform_id=platform_payload["platform"],
            lifecycle_state=platform_payload["lifecycle"],
            rak_hash=platform_payload["rak_hash"],
            signature=outer["platform"]["sig"],
            platform_svn=platform_payload.get("svn", 1),
        )
        return cls(realm_token=realm, platform_token=platform)


class ArmInfrastructure:
    """ARM + the device maker: the CPAK endorsement hierarchy."""

    def __init__(self, rng: Optional[HmacDrbg] = None):
        self._rng = rng if rng is not None else HmacDrbg(b"arm-default")
        root_key = PrivateKey.generate_ecdsa(self._rng.fork(b"root"), "P-384")
        self.root = CertificateIssuer.self_signed_root(
            Name("ARM CCA Root CA", organization="Arm Ltd"),
            root_key,
            _CERT_NOT_BEFORE,
            _CERT_NOT_AFTER,
        )
        self._master = self._rng.fork(b"platforms").generate(48)
        self._platforms: Dict[bytes, bytes] = {}

    def provision_platform(self, serial: str) -> "CcaPlatform":
        """Manufacture a platform: fuse a unique secret, register its id."""
        secret = hkdf(self._master, info=serial.encode(), length=48)
        platform_id = hashlib.sha256(b"cca-platform" + secret).digest()
        self._platforms[platform_id] = secret
        return CcaPlatform(platform_id=platform_id, platform_secret=secret)

    def cpak_certificate(self, platform: "CcaPlatform") -> Certificate:
        """Endorse a platform's CPAK (done at manufacture)."""
        if platform.platform_id not in self._platforms:
            raise CcaError("unknown platform")
        from ..crypto.keys import PublicKey

        return self.root.issue(
            Name("CCA Platform Attestation Key", organization="Arm Ltd"),
            PublicKey("ecdsa", platform.cpak_private().public_key()),
            _CERT_NOT_BEFORE,
            _CERT_NOT_AFTER,
            extensions=(("arm.platform_id", platform.platform_id),),
        )


@dataclass
class RealmContext:
    """One running realm's handle on the RMM."""

    platform: "CcaPlatform"
    rim: bytes
    rak: EcdsaPrivateKey
    _rems: List[bytes] = field(
        default_factory=lambda: [b"\x00" * MEASUREMENT_SIZE] * NUM_REMS
    )

    def rem(self, index: int) -> bytes:
        """Current value of the indexed REM."""
        self._check_rem(index)
        return self._rems[index]

    def extend_rem(self, index: int, digest: bytes) -> None:
        """REM <- sha384(REM || digest)."""
        self._check_rem(index)
        if len(digest) != MEASUREMENT_SIZE:
            raise CcaError("REM extend digest must be 48 bytes")
        self._rems[index] = hashlib.sha384(self._rems[index] + digest).digest()

    def attest(self, challenge: bytes) -> CcaToken:
        """Produce the two-token evidence bundle for *challenge*."""
        if len(challenge) != CHALLENGE_SIZE:
            raise CcaError("challenge must be 64 bytes")
        rak_public = self.rak.public_key().encode()
        realm_unsigned = RealmToken(
            rim=self.rim,
            rems=tuple(self._rems),
            challenge=challenge,
            rak_public=rak_public,
        )
        realm = replace(
            realm_unsigned,
            signature=self.rak.sign(realm_unsigned.signed_payload(), "sha384"),
        )
        platform_unsigned = PlatformToken(
            platform_id=self.platform.platform_id,
            lifecycle_state=self.platform.lifecycle_state,
            rak_hash=hashlib.sha256(rak_public).digest(),
            platform_svn=self.platform.platform_svn,
        )
        platform = replace(
            platform_unsigned,
            signature=self.platform.cpak_private().sign(
                platform_unsigned.signed_payload(), "sha384"
            ),
        )
        return CcaToken(realm_token=realm, platform_token=platform)

    def derive_sealing_key(self, context: bytes = b"") -> bytes:
        """Measurement-bound sealing key (32 bytes)."""
        return self.platform.derive_key(self.rim, context)

    @staticmethod
    def _check_rem(index: int) -> None:
        if not (0 <= index < NUM_REMS):
            raise CcaError(f"REM index {index} out of range")


class CcaPlatform:
    """One CCA-capable device (monitor + RMM)."""

    def __init__(self, platform_id: bytes, platform_secret: bytes,
                 lifecycle_state: str = "secured", platform_svn: int = 1):
        self.platform_id = platform_id
        self._secret = platform_secret
        self.lifecycle_state = lifecycle_state
        self.platform_svn = platform_svn
        self._realm_counter = 0

    def cpak_private(self) -> EcdsaPrivateKey:
        """The platform's CCA Platform Attestation Key (never exported)."""
        material = hkdf(self._secret, info=b"cpak", length=72)
        return EcdsaPrivateKey(P384, 1 + int.from_bytes(material, "big") % (P384.n - 1))

    def launch_realm(self, initial_state: bytes) -> RealmContext:
        """Measure the realm's initial state into the RIM and launch."""
        rim = hashlib.sha384(b"cca-rim" + initial_state).digest()
        self._realm_counter += 1
        rak_material = hkdf(
            self._secret,
            info=b"rak" + rim + self._realm_counter.to_bytes(8, "big"),
            length=40,
        )
        from ..crypto.ec import P256

        rak = EcdsaPrivateKey(
            P256, 1 + int.from_bytes(rak_material, "big") % (P256.n - 1)
        )
        return RealmContext(platform=self, rim=rim, rak=rak)

    def derive_key(self, rim: bytes, context: bytes) -> bytes:
        """Measurement-bound key derivation."""
        sealing_root = hkdf(self._secret, info=b"cca-sealing", length=32)
        return hkdf(sealing_root, info=b"seal" + rim + context, length=32)


def verify_cca_token(
    token: CcaToken,
    cpak_certificate: Certificate,
    trust_anchors: List[Certificate],
    now: int,
    expected_rim: Optional[bytes] = None,
    expected_challenge: Optional[bytes] = None,
) -> None:
    """Full CCA token verification; raises :class:`CcaError` on failure."""
    from ..crypto.x509 import CertificateError, validate_chain

    try:
        validate_chain([cpak_certificate], trust_anchors, now=now)
    except CertificateError as exc:
        raise CcaError(f"CPAK chain invalid: {exc}") from exc

    platform = token.platform_token
    cert_platform = cpak_certificate.extension("arm.platform_id")
    if cert_platform != platform.platform_id:
        raise CcaError("CPAK certificate is for a different platform")
    if not cpak_certificate.public_key.verify(
        platform.signed_payload(), platform.signature, "sha384"
    ):
        raise CcaError("platform token signature invalid")
    if platform.lifecycle_state != "secured":
        raise CcaError(
            f"platform lifecycle is {platform.lifecycle_state!r}, not secured"
        )

    realm = token.realm_token
    if hashlib.sha256(realm.rak_public).digest() != platform.rak_hash:
        raise CcaError("platform token does not endorse this realm's RAK")
    rak = EcdsaPublicKey.decode(realm.rak_public)
    if not sigcache.cached_verify(
        rak, realm.signed_payload(), realm.signature, "sha384"
    ):
        raise CcaError("realm token signature invalid")

    if expected_rim is not None and realm.rim != expected_rim:
        raise CcaError("RIM does not match the golden measurement")
    if expected_challenge is not None and realm.challenge != expected_challenge:
        raise CcaError("challenge mismatch (replay?)")
