"""RA-TLS: attestation evidence embedded in the TLS certificate.

The paper's related-work section notes that RA-TLS-style approaches
(Knauth et al. [26], RATLS [40]) "could be integrated with Revelio".
This module provides that integration as an *alternative transport* for
the attestation evidence: instead of (or in addition to) the well-known
URL, a Revelio VM can serve TLS with a **self-signed certificate that
carries its attestation report as a certificate extension**, where the
report's ``REPORT_DATA`` binds the certificate's public key.

Clients then need no certificate authority at all: the chain of trust
runs AMD ARK -> VCEK -> report -> certificate key.  This suits
machine-to-machine callers (monitoring agents, other services) that
don't have a browser extension but do pin the AMD root and a golden
measurement.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..amd.report import AttestationReport
from ..amd.tcb import TcbVersion
from ..attest import AttestationVerifier, VerificationPolicy, snp_evidence
from ..crypto.drbg import HmacDrbg
from ..crypto.keys import PrivateKey
from ..crypto.x509 import Certificate, Name
from ..net.simnet import Host
from ..net.tls import TlsConnection, tls_connect
from .kds_client import KdsClient
from .key_sharing import report_data_for

#: The certificate extension carrying the encoded attestation report.
REPORT_EXTENSION = "revelio.attestation_report"
#: Default port for the RA-TLS endpoint (must be allowed by the image's
#: measured network policy).
RA_TLS_PORT = 8443

#: RA-TLS certificates are identity containers, not CA-validated
#: artifacts; give them a wide validity window and validate the report
#: instead.
_NOT_BEFORE = 0
_NOT_AFTER = 2**62


class RaTlsError(ConnectionError):
    """RA-TLS validation failures.

    Carries the unified pipeline's stable *reason* code when the
    failure came out of a verification step (``ra_tls_error`` for
    transport-local problems such as a malformed extension).
    """

    def __init__(self, message: str, reason: str = "ra_tls_error"):
        super().__init__(message)
        self.reason = reason


def issue_ra_tls_certificate(
    guest_context,
    private_key: PrivateKey,
    subject_name: str,
    san: Iterable[str] = (),
) -> Certificate:
    """Create the self-signed RA-TLS certificate for a guest.

    Asks the AMD-SP for a fresh report whose ``REPORT_DATA`` is the
    certificate key's fingerprint, then self-signs a certificate with
    the report embedded as an extension.
    """
    public_key = private_key.public_key()
    report = guest_context.get_report(report_data_for(public_key.fingerprint()))
    unsigned = Certificate(
        subject=Name(subject_name),
        issuer=Name(subject_name),
        public_key=public_key,
        serial=1,
        not_before=_NOT_BEFORE,
        not_after=_NOT_AFTER,
        san=tuple(san) or (subject_name,),
        key_usage=("digital_signature",),
        extensions=((REPORT_EXTENSION, report.encode()),),
    )
    from dataclasses import replace

    return replace(unsigned, signature=private_key.sign(unsigned.tbs_bytes()))


def extract_report(certificate: Certificate) -> AttestationReport:
    """Pull the embedded attestation report out of a certificate."""
    raw = certificate.extension(REPORT_EXTENSION)
    if raw is None:
        raise RaTlsError("certificate carries no attestation report")
    try:
        return AttestationReport.decode(raw)
    except Exception as exc:
        raise RaTlsError(f"embedded report is malformed: {exc}") from exc


def validate_ra_tls_certificate(
    certificate: Certificate,
    kds: KdsClient,
    now: int,
    expected_measurements: Iterable[bytes],
    allowed_chip_ids: Optional[Iterable[bytes]] = None,
    minimum_tcb: Optional[TcbVersion] = None,
    verifier: Optional[AttestationVerifier] = None,
) -> AttestationReport:
    """The client-side RA-TLS check.

    1. the certificate must be self-signed by its own key (possession),
    2. the embedded report must verify against the AMD hierarchy,
    3. the report's REPORT_DATA must bind the certificate key,
    4. the measurement must be in the golden set.

    Steps 2-4 run through the unified :mod:`repro.attest` pipeline; a
    failing step surfaces as :class:`RaTlsError` carrying the step's
    stable reason code.
    """
    if not certificate.verify_signature(certificate.public_key):
        raise RaTlsError(
            "RA-TLS certificate is not self-signed by its key",
            reason="not_self_signed",
        )
    report = extract_report(certificate)
    if verifier is None:
        verifier = AttestationVerifier(kds, site="ra_tls")
    policy = VerificationPolicy(
        golden_measurements=expected_measurements,
        expected_report_data=report_data_for(
            certificate.public_key.fingerprint()
        ),
        allowed_chip_ids=allowed_chip_ids,
        minimum_tcb=minimum_tcb,
    )
    outcome = verifier.verify(snp_evidence(report), now=now, policy=policy)
    if not outcome.ok:
        if outcome.reason == "report_data_mismatch":
            raise RaTlsError(
                "embedded report does not endorse the certificate key",
                reason=outcome.reason,
            )
        raise RaTlsError(
            "embedded report failed verification: "
            f"{outcome.reason}: {outcome.detail}",
            reason=outcome.reason,
        )
    return report


def serve_ra_tls(node, port: int = RA_TLS_PORT) -> Certificate:
    """Expose a node's HTTPS application over an RA-TLS endpoint.

    Reuses the node's VM identity key; returns the issued certificate.
    The image's network policy must allow *port* (it is measured, so
    enabling RA-TLS is itself attested configuration).
    """
    vm = node.vm
    certificate = issue_ra_tls_certificate(
        vm.guest,
        vm.identity.wrapped_private_key,
        subject_name=f"{vm.name}.ra-tls",
        san=(f"{vm.name}.ra-tls",),
    )
    node.https.serve_tls(
        node.host,
        [certificate],
        vm.identity.wrapped_private_key,
        vm.rng.fork(b"ra-tls"),
        port=port,
    )
    return certificate


def ra_tls_connect(
    client_host: Host,
    dst_ip: str,
    port: int,
    server_name: str,
    kds: KdsClient,
    expected_measurements: Iterable[bytes],
    rng: HmacDrbg,
    allowed_chip_ids: Optional[Iterable[bytes]] = None,
    minimum_tcb: Optional[TcbVersion] = None,
) -> TlsConnection:
    """Connect with attestation-based (CA-less) authentication.

    The TLS handshake runs unauthenticated at the PKI level
    (``verify=False``); the peer certificate is then validated purely
    through its embedded attestation report.  Raises
    :class:`RaTlsError` and closes the connection on failure.
    """
    connection = tls_connect(
        client_host,
        dst_ip,
        port,
        server_name,
        trust_anchors=[],
        rng=rng,
        now=client_host.network.clock.epoch_seconds(),
        verify=False,
    )
    try:
        validate_ra_tls_certificate(
            connection.peer_certificate,
            kds,
            now=client_host.network.clock.epoch_seconds(),
            expected_measurements=expected_measurements,
            allowed_chip_ids=allowed_chip_ids,
            minimum_tcb=minimum_tcb,
        )
    except RaTlsError:
        connection.close()
        raise
    return connection
