"""Attestation report verification — the verifier side of SEV-SNP.

This module holds the *authenticity* checks every Revelio verifier
runs on a received report, each exposed as a primitive with a stable
machine-readable failure ``reason``:

1. certificate-chain validation of VCEK -> ASK -> ARK against pinned
   trust anchors,
2. cross-checks of the VCEK certificate's embedded chip id / TCB
   against the report fields,
3. ECDSA P-384 verification of the report signature,
4. policy sanity (no debug-enabled guests).

The SNP report steps of :mod:`repro.attest.families` are their only
composer: :class:`repro.attest.AttestationVerifier` runs them as an
observable step pipeline, followed by the policy checks (measurement,
REPORT_DATA, chip-id allow-list, TCB floor) every TEE family shares.

Failures raise :class:`AttestationError` with a machine-readable
``reason`` so callers (and tests) can distinguish failure modes.
"""

from __future__ import annotations

from typing import Sequence

from ..crypto.x509 import Certificate, CertificateError, validate_chain
from .report import AttestationReport
from .tcb import TcbVersion


class AttestationError(Exception):
    """A failed report verification, with a stable ``reason`` code."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


# -- check primitives ----------------------------------------------------------


def check_certificate_chain(
    vcek_certificate: Certificate,
    cert_chain: Sequence[Certificate],
    trust_anchors: Sequence[Certificate],
    now: int,
) -> None:
    """VCEK -> ASK -> ARK must chain to a pinned trust anchor."""
    try:
        validate_chain(
            [vcek_certificate, *cert_chain], trust_anchors, now=now
        )
    except CertificateError as exc:
        raise AttestationError("bad_cert_chain", str(exc)) from exc


def check_chip_id_binding(
    report: AttestationReport, vcek_certificate: Certificate
) -> None:
    """The VCEK certificate must be issued for the reporting chip."""
    cert_chip_id = vcek_certificate.extension("amd.chip_id")
    if cert_chip_id is None or cert_chip_id != report.chip_id:
        raise AttestationError(
            "chip_id_mismatch",
            "VCEK certificate chip id does not match the report",
        )


def check_tcb_binding(
    report: AttestationReport, vcek_certificate: Certificate
) -> None:
    """The VCEK certificate must be derived for the reported TCB."""
    cert_tcb = vcek_certificate.extension("amd.tcb")
    if cert_tcb is None or TcbVersion.decode(cert_tcb) != report.reported_tcb:
        raise AttestationError(
            "tcb_mismatch", "VCEK certificate TCB does not match the report"
        )


def check_signature(
    report: AttestationReport, vcek_certificate: Certificate
) -> None:
    """The report signature must verify under the VCEK public key."""
    vcek_key = vcek_certificate.public_key
    if vcek_key.algorithm != "ecdsa" or not report.verify_signature(vcek_key.inner):
        raise AttestationError(
            "bad_signature", "report signature does not verify under the VCEK"
        )


def check_debug_policy(report: AttestationReport, allow_debug: bool = False) -> None:
    """Debug-enabled guests are rejected unless explicitly allowed."""
    if report.policy.debug_allowed and not allow_debug:
        raise AttestationError(
            "debug_policy", "guest was launched with debugging enabled"
        )
