"""Certificates, certificate chains, and certificate signing requests.

A simplified but complete X.509 analogue over the canonical TLV encoding:
subject/issuer names, validity windows, subject-alternative names, basic
constraints (CA flag + path length), key usage, serial numbers, and
chain validation up to a set of trust anchors.  This is the PKI both the
web TLS stack (``repro.net.tls``) and the AMD VCEK chain
(``repro.amd.kds``) are built on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Optional, Sequence

from . import encoding
from .keys import PrivateKey, PublicKey


class CertificateError(ValueError):
    """Raised on malformed certificates or failed chain validation."""


@dataclass(frozen=True)
class Name:
    """A distinguished name, reduced to the fields the system uses."""

    common_name: str
    organization: str = ""
    country: str = ""

    def to_dict(self) -> dict:
        """Dict form for canonical TLV embedding."""
        return {
            "cn": self.common_name,
            "o": self.organization,
            "c": self.country,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Name":
        """Rebuild from the dict form."""
        return cls(
            common_name=data["cn"],
            organization=data.get("o", ""),
            country=data.get("c", ""),
        )


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a subject name to a public key."""

    subject: Name
    issuer: Name
    public_key: PublicKey
    serial: int
    not_before: int  # simulated epoch seconds
    not_after: int
    is_ca: bool = False
    path_length: Optional[int] = None
    san: tuple = ()  # subject alternative names (DNS names)
    key_usage: tuple = ()
    extensions: tuple = ()  # ((name, bytes), ...) opaque extensions
    signature: bytes = b""
    signature_hash: str = "sha256"

    def tbs_bytes(self) -> bytes:
        """The to-be-signed canonical serialisation.

        Encoded once per instance from its frozen fields, never taken
        from received bytes, so a signature always covers the canonical
        re-encoding.  The bytes are kept outside the dataclass fields:
        ``dataclasses.replace`` builds a copy that encodes its own.
        """
        return self._tbs

    @cached_property
    def _tbs(self) -> bytes:
        return encoding.encode(
            {
                "subject": self.subject.to_dict(),
                "issuer": self.issuer.to_dict(),
                "public_key": self.public_key.encode(),
                "serial": self.serial,
                "not_before": self.not_before,
                "not_after": self.not_after,
                "is_ca": self.is_ca,
                "path_length": self.path_length,
                "san": list(self.san),
                "key_usage": list(self.key_usage),
                "extensions": [[name, value] for name, value in self.extensions],
                "signature_hash": self.signature_hash,
            }
        )

    def encode(self) -> bytes:
        """Serialise to canonical TLV bytes."""
        return encoding.encode({"tbs": self.tbs_bytes(), "sig": self.signature})

    @classmethod
    def decode(cls, data: bytes) -> "Certificate":
        """Parse an instance back out of canonical TLV bytes."""
        outer = encoding.decode(data)
        if not isinstance(outer, dict) or set(outer) != {"tbs", "sig"}:
            raise CertificateError("malformed certificate envelope")
        tbs = encoding.decode(outer["tbs"])
        if not isinstance(tbs, dict):
            raise CertificateError("malformed certificate body")
        try:
            cert = cls(
                subject=Name.from_dict(tbs["subject"]),
                issuer=Name.from_dict(tbs["issuer"]),
                public_key=PublicKey.decode(tbs["public_key"]),
                serial=tbs["serial"],
                not_before=tbs["not_before"],
                not_after=tbs["not_after"],
                is_ca=tbs["is_ca"],
                path_length=tbs["path_length"],
                san=tuple(tbs["san"]),
                key_usage=tuple(tbs["key_usage"]),
                extensions=tuple((n, v) for n, v in tbs["extensions"]),
                signature=outer["sig"],
                signature_hash=tbs["signature_hash"],
            )
        except (KeyError, TypeError) as exc:
            raise CertificateError("missing certificate field") from exc
        return cert

    def fingerprint(self) -> bytes:
        """SHA-256 over the full (signed) certificate."""
        return hashlib.sha256(self.encode()).digest()

    def verify_signature(self, issuer_key: PublicKey) -> bool:
        """Check this certificate's signature against *issuer_key*."""
        if not self.signature:
            return False
        return issuer_key.verify(self.tbs_bytes(), self.signature, self.signature_hash)

    def is_valid_at(self, now: int) -> bool:
        """Whether *now* falls inside the validity window."""
        return self.not_before <= now <= self.not_after

    def matches_hostname(self, hostname: str) -> bool:
        """True if *hostname* is covered by CN or a SAN entry
        (supports a single leading ``*.`` wildcard label)."""
        candidates = [self.common_name_str()] + list(self.san)
        for pattern in candidates:
            if _hostname_matches(pattern, hostname):
                return True
        return False

    def common_name_str(self) -> str:
        """The subject common name."""
        return self.subject.common_name

    def extension(self, name: str) -> Optional[bytes]:
        """Look up an opaque extension value by name."""
        for ext_name, value in self.extensions:
            if ext_name == name:
                return value
        return None


def _hostname_matches(pattern: str, hostname: str) -> bool:
    pattern = pattern.lower()
    hostname = hostname.lower()
    if pattern == hostname:
        return True
    if pattern.startswith("*."):
        suffix = pattern[1:]
        return hostname.endswith(suffix) and hostname.count(".") == pattern.count(".")
    return False


@dataclass(frozen=True)
class CertificateSigningRequest:
    """A CSR: the subject's name, public key, and SANs, self-signed to
    prove possession of the private key (PKCS#10 analogue, section 2.2
    of the paper)."""

    subject: Name
    public_key: PublicKey
    san: tuple = ()
    signature: bytes = b""

    def tbs_bytes(self) -> bytes:
        """The to-be-signed canonical serialisation."""
        return encoding.encode(
            {
                "subject": self.subject.to_dict(),
                "public_key": self.public_key.encode(),
                "san": list(self.san),
            }
        )

    @classmethod
    def create(
        cls,
        subject: Name,
        private_key: PrivateKey,
        san: Sequence[str] = (),
    ) -> "CertificateSigningRequest":
        """Construct and validate an instance."""
        unsigned = cls(subject=subject, public_key=private_key.public_key(),
                       san=tuple(san))
        signature = private_key.sign(unsigned.tbs_bytes())
        return replace(unsigned, signature=signature)

    def verify(self) -> bool:
        """Proof-of-possession check: the CSR signature must verify
        under the embedded public key."""
        if not self.signature:
            return False
        return self.public_key.verify(self.tbs_bytes(), self.signature)

    def encode(self) -> bytes:
        """Serialise to canonical TLV bytes."""
        return encoding.encode({"tbs": self.tbs_bytes(), "sig": self.signature})

    @classmethod
    def decode(cls, data: bytes) -> "CertificateSigningRequest":
        """Parse an instance back out of canonical TLV bytes."""
        outer = encoding.decode(data)
        if not isinstance(outer, dict) or set(outer) != {"tbs", "sig"}:
            raise CertificateError("malformed CSR envelope")
        tbs = encoding.decode(outer["tbs"])
        return cls(
            subject=Name.from_dict(tbs["subject"]),
            public_key=PublicKey.decode(tbs["public_key"]),
            san=tuple(tbs["san"]),
            signature=outer["sig"],
        )

    def fingerprint(self) -> bytes:
        """SHA-256 over the signed CSR — what goes into REPORT_DATA."""
        return hashlib.sha256(self.encode()).digest()


@dataclass
class CertificateIssuer:
    """A signing identity (key + certificate) that can issue children."""

    certificate: Certificate
    private_key: PrivateKey
    _next_serial: int = field(default=1)

    def issue(
        self,
        subject: Name,
        public_key: PublicKey,
        not_before: int,
        not_after: int,
        is_ca: bool = False,
        path_length: Optional[int] = None,
        san: Sequence[str] = (),
        key_usage: Sequence[str] = (),
        extensions: Sequence[tuple] = (),
    ) -> Certificate:
        """Issue and sign a child certificate."""
        if not self.certificate.is_ca:
            raise CertificateError("issuer certificate is not a CA")
        hash_name = self.private_key.preferred_hash
        unsigned = Certificate(
            subject=subject,
            issuer=self.certificate.subject,
            public_key=public_key,
            serial=self._next_serial,
            not_before=not_before,
            not_after=not_after,
            is_ca=is_ca,
            path_length=path_length,
            san=tuple(san),
            key_usage=tuple(key_usage),
            extensions=tuple(extensions),
            signature_hash=hash_name,
        )
        self._next_serial += 1
        signature = self.private_key.sign(unsigned.tbs_bytes(), hash_name)
        return replace(unsigned, signature=signature)

    @classmethod
    def self_signed_root(
        cls,
        subject: Name,
        private_key: PrivateKey,
        not_before: int,
        not_after: int,
        path_length: Optional[int] = None,
    ) -> "CertificateIssuer":
        """Create a self-signed root CA."""
        hash_name = private_key.preferred_hash
        unsigned = Certificate(
            subject=subject,
            issuer=subject,
            public_key=private_key.public_key(),
            serial=0,
            not_before=not_before,
            not_after=not_after,
            is_ca=True,
            path_length=path_length,
            key_usage=("cert_sign",),
            signature_hash=hash_name,
        )
        signature = private_key.sign(unsigned.tbs_bytes(), hash_name)
        return cls(replace(unsigned, signature=signature), private_key)


def validate_chain(
    chain: Sequence[Certificate],
    trust_anchors: Sequence[Certificate],
    now: int,
    hostname: Optional[str] = None,
) -> None:
    """Validate *chain* (leaf first) up to one of *trust_anchors*.

    Checks signatures link by link, validity windows, CA flags, path
    length constraints, and (if given) hostname coverage of the leaf.
    Raises :class:`CertificateError` describing the first failure.
    """
    if not chain:
        raise CertificateError("empty certificate chain")
    anchors: Dict[bytes, Certificate] = {a.fingerprint(): a for a in trust_anchors}

    for index, cert in enumerate(chain):
        if not cert.is_valid_at(now):
            raise CertificateError(
                f"certificate {cert.subject.common_name!r} expired or not yet valid"
            )
        if index > 0:
            if not cert.is_ca:
                raise CertificateError(
                    f"intermediate {cert.subject.common_name!r} is not a CA"
                )
            if cert.path_length is not None and index - 1 > cert.path_length:
                raise CertificateError(
                    f"path length constraint violated at {cert.subject.common_name!r}"
                )

    for child, parent in zip(chain, chain[1:]):
        if child.issuer != parent.subject:
            raise CertificateError(
                f"issuer mismatch: {child.subject.common_name!r} not issued by "
                f"{parent.subject.common_name!r}"
            )
        if not child.verify_signature(parent.public_key):
            raise CertificateError(
                f"bad signature on {child.subject.common_name!r}"
            )

    top = chain[-1]
    if top.fingerprint() in anchors:
        pass  # the chain terminates at a trust anchor included verbatim
    else:
        anchor = _find_anchor_for(top, anchors.values())
        if anchor is None:
            raise CertificateError("chain does not terminate at a trust anchor")
        if not top.verify_signature(anchor.public_key):
            raise CertificateError("top of chain not signed by trust anchor")

    if hostname is not None and not chain[0].matches_hostname(hostname):
        raise CertificateError(
            f"leaf certificate does not cover hostname {hostname!r}"
        )


def _find_anchor_for(cert: Certificate, anchors) -> Optional[Certificate]:
    for anchor in anchors:
        if anchor.subject == cert.issuer and anchor.is_ca:
            return anchor
        if anchor.subject == cert.subject and anchor.is_ca and cert.is_ca:
            # Self-signed root presented in-chain but trusted via store.
            return anchor
    return None
