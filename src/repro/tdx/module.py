"""Simulated Intel TDX: trust domains, TD reports, and quotes.

The paper claims Revelio is TEE-agnostic ("upcoming VM-based TEEs, such
as TDX and ARM's CCA can also be alternatives for our approach").  This
module backs that claim with a second, independently-implemented
VM-model TEE: Intel TDX with its different measurement register model
(MRTD + four runtime-extendable RTMRs), its quoting flow (TD report ->
quote signed by the platform's quoting key), and its certificate
hierarchy (Intel SGX Root CA -> PCK Platform CA -> per-platform PCK),
served by a simulated Provisioning Certification Service (PCS).

:mod:`repro.attest` verifies both SNP reports and TDX quotes through
one engine: :class:`~repro.attest.AttestationVerifier` over the
:class:`~repro.attest.Evidence` envelope.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..crypto.drbg import HmacDrbg
from ..crypto.ec import P384
from ..crypto.ecdsa import EcdsaPrivateKey
from ..crypto import encoding
from ..crypto.kdf import hkdf
from ..crypto.keys import PrivateKey, PublicKey
from ..crypto.x509 import Certificate, CertificateIssuer, Name

NUM_RTMRS = 4
MEASUREMENT_SIZE = 48
REPORT_DATA_SIZE = 64

_CERT_NOT_BEFORE = 0
_CERT_NOT_AFTER = 2**62


class TdxError(RuntimeError):
    """Invalid TDX operations."""


@dataclass(frozen=True)
class TdQuote:
    """A TDX quote: the TD's measured state signed by the platform's
    certified quoting key."""

    version: int
    mrtd: bytes  # build-time measurement (like SNP's launch digest)
    rtmrs: Tuple[bytes, ...]  # runtime-extendable registers
    report_data: bytes
    tee_tcb_svn: int
    platform_id: bytes
    signature: bytes = b""

    def signed_payload(self) -> bytes:
        """The canonical byte string covered by the signature."""
        return encoding.encode(
            {
                "version": self.version,
                "mrtd": self.mrtd,
                "rtmrs": list(self.rtmrs),
                "report_data": self.report_data,
                "tcb_svn": self.tee_tcb_svn,
                "platform": self.platform_id,
            }
        )

    def encode(self) -> bytes:
        """Serialise to canonical TLV bytes."""
        return encoding.encode(
            {"payload": self.signed_payload(), "sig": self.signature}
        )

    @classmethod
    def decode(cls, data: bytes) -> "TdQuote":
        """Parse an instance back out of canonical TLV bytes."""
        outer = encoding.decode(data)
        payload = encoding.decode(outer["payload"])
        return cls(
            version=payload["version"],
            mrtd=payload["mrtd"],
            rtmrs=tuple(payload["rtmrs"]),
            report_data=payload["report_data"],
            tee_tcb_svn=payload["tcb_svn"],
            platform_id=payload["platform"],
            signature=outer["sig"],
        )


class IntelInfrastructure:
    """Intel the manufacturer: the SGX/TDX certificate hierarchy."""

    def __init__(self, rng: Optional[HmacDrbg] = None):
        self._rng = rng if rng is not None else HmacDrbg(b"intel-default")
        root_key = PrivateKey.generate_ecdsa(self._rng.fork(b"root"), "P-384")
        self.root = CertificateIssuer.self_signed_root(
            Name("Intel SGX Root CA", organization="Intel Corporation"),
            root_key,
            _CERT_NOT_BEFORE,
            _CERT_NOT_AFTER,
        )
        platform_ca_key = PrivateKey.generate_ecdsa(self._rng.fork(b"pca"))
        platform_ca_cert = self.root.issue(
            Name("Intel SGX PCK Platform CA", organization="Intel Corporation"),
            platform_ca_key.public_key(),
            _CERT_NOT_BEFORE,
            _CERT_NOT_AFTER,
            is_ca=True,
            path_length=0,
        )
        self.platform_ca = CertificateIssuer(platform_ca_cert, platform_ca_key)
        self._platforms: Dict[bytes, bytes] = {}
        self._master = self._rng.fork(b"platforms").generate(48)

    def provision_platform(self, serial: str) -> "TdxPlatform":
        """Manufacture a platform: fuse a unique secret, register its id."""
        secret = hkdf(self._master, info=serial.encode(), length=48)
        platform_id = hashlib.sha256(b"tdx-platform" + secret).digest()
        self._platforms[platform_id] = secret
        return TdxPlatform(platform_id=platform_id, platform_secret=secret)

    def pck_public_key(self, platform_id: bytes, tcb_svn: int) -> PublicKey:
        """Derive the PCK public key for certification (Intel side)."""
        try:
            secret = self._platforms[platform_id]
        except KeyError:
            raise TdxError("unknown platform") from None
        scalar = _pck_scalar(secret, tcb_svn)
        return PublicKey("ecdsa", EcdsaPrivateKey(P384, scalar).public_key())


def _pck_scalar(platform_secret: bytes, tcb_svn: int) -> int:
    material = hkdf(
        platform_secret, info=b"pck" + tcb_svn.to_bytes(4, "little"), length=72
    )
    return 1 + int.from_bytes(material, "big") % (P384.n - 1)


class ProvisioningCertificationService:
    """Intel's PCS: serves PCK certificates and the CA chain."""

    def __init__(self, infrastructure: IntelInfrastructure):
        self._infrastructure = infrastructure
        self._cache: Dict[Tuple[bytes, int], Certificate] = {}

    @property
    def root_certificate(self) -> Certificate:
        """The root trust anchor certificate."""
        return self._infrastructure.root.certificate

    def cert_chain(self) -> List[Certificate]:
        """The intermediate-to-root certificate chain served to verifiers."""
        return [
            self._infrastructure.platform_ca.certificate,
            self._infrastructure.root.certificate,
        ]

    def get_pck_certificate(self, platform_id: bytes, tcb_svn: int) -> Certificate:
        """Issue or re-serve a platform's PCK certificate."""
        key = (bytes(platform_id), tcb_svn)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        public_key = self._infrastructure.pck_public_key(platform_id, tcb_svn)
        certificate = self._infrastructure.platform_ca.issue(
            Name("Intel SGX PCK Certificate", organization="Intel Corporation"),
            public_key,
            _CERT_NOT_BEFORE,
            _CERT_NOT_AFTER,
            extensions=(
                ("intel.platform_id", bytes(platform_id)),
                ("intel.tcb_svn", tcb_svn.to_bytes(4, "little")),
            ),
        )
        self._cache[key] = certificate
        return certificate


@dataclass
class TdContext:
    """One running trust domain's view of the TDX module."""

    platform: "TdxPlatform"
    mrtd: bytes
    _rtmrs: List[bytes] = field(
        default_factory=lambda: [b"\x00" * MEASUREMENT_SIZE] * NUM_RTMRS
    )

    def rtmr(self, index: int) -> bytes:
        """Current value of the indexed RTMR."""
        self._check_rtmr(index)
        return self._rtmrs[index]

    def extend_rtmr(self, index: int, digest: bytes) -> None:
        """Runtime measurement: RTMR <- sha384(RTMR || digest)."""
        self._check_rtmr(index)
        if len(digest) != MEASUREMENT_SIZE:
            raise TdxError("RTMR extend digest must be 48 bytes")
        self._rtmrs[index] = hashlib.sha384(self._rtmrs[index] + digest).digest()

    def get_quote(self, report_data: bytes) -> TdQuote:
        """TD report -> quote, signed by the platform quoting key."""
        if len(report_data) != REPORT_DATA_SIZE:
            raise TdxError("REPORT_DATA must be 64 bytes")
        unsigned = TdQuote(
            version=4,
            mrtd=self.mrtd,
            rtmrs=tuple(self._rtmrs),
            report_data=report_data,
            tee_tcb_svn=self.platform.tcb_svn,
            platform_id=self.platform.platform_id,
        )
        signature = self.platform.pck_private().sign(
            unsigned.signed_payload(), "sha384"
        )
        return replace(unsigned, signature=signature)

    def derive_sealing_key(self, context: bytes = b"") -> bytes:
        """Measurement-bound sealing, mirroring the SNP capability."""
        return self.platform.derive_key(self.mrtd, context)

    @staticmethod
    def _check_rtmr(index: int) -> None:
        if not (0 <= index < NUM_RTMRS):
            raise TdxError(f"RTMR index {index} out of range")


class TdxPlatform:
    """One TDX-capable host (the TDX module + quoting enclave)."""

    def __init__(self, platform_id: bytes, platform_secret: bytes,
                 tcb_svn: int = 3):
        self.platform_id = platform_id
        self._secret = platform_secret
        self.tcb_svn = tcb_svn

    def pck_private(self) -> EcdsaPrivateKey:
        """The platform's certified quoting key (never exported)."""
        return EcdsaPrivateKey(P384, _pck_scalar(self._secret, self.tcb_svn))

    def launch_td(self, initial_state: bytes) -> TdContext:
        """Build-time measurement into MRTD, then launch."""
        mrtd = hashlib.sha384(b"tdx-mrtd" + initial_state).digest()
        return TdContext(platform=self, mrtd=mrtd)

    def derive_key(self, mrtd: bytes, context: bytes) -> bytes:
        """Measurement-bound key derivation."""
        sealing_root = hkdf(self._secret, info=b"tdx-sealing", length=32)
        return hkdf(sealing_root, info=b"seal" + mrtd + context, length=32)


def verify_td_quote(
    quote: TdQuote,
    pck_certificate: Certificate,
    cert_chain: List[Certificate],
    trust_anchors: List[Certificate],
    now: int,
    expected_mrtd: Optional[bytes] = None,
    expected_report_data: Optional[bytes] = None,
) -> None:
    """Quote verification (the go-tdx-guest analogue).

    Raises :class:`TdxError` on the first failed check.
    """
    from ..crypto.x509 import CertificateError, validate_chain

    try:
        validate_chain([pck_certificate, *cert_chain], trust_anchors, now=now)
    except CertificateError as exc:
        raise TdxError(f"PCK chain invalid: {exc}") from exc
    cert_platform = pck_certificate.extension("intel.platform_id")
    if cert_platform != quote.platform_id:
        raise TdxError("PCK certificate is for a different platform")
    cert_svn = pck_certificate.extension("intel.tcb_svn")
    if cert_svn is None or int.from_bytes(cert_svn, "little") != quote.tee_tcb_svn:
        raise TdxError("PCK certificate TCB SVN mismatch")
    if not pck_certificate.public_key.verify(
        quote.signed_payload(), quote.signature, "sha384"
    ):
        raise TdxError("quote signature invalid")
    if expected_mrtd is not None and quote.mrtd != expected_mrtd:
        raise TdxError("MRTD does not match the golden measurement")
    if expected_report_data is not None and quote.report_data != expected_report_data:
        raise TdxError("REPORT_DATA mismatch")
