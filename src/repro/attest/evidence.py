"""TEE families and the generic evidence envelope.

The paper argues Revelio's verification procedure is TEE-agnostic: any
VM-model TEE that binds (measurement, report_data) to a genuine
platform can back the design.  This module is the neutral vocabulary
the unified pipeline dispatches on:

* :class:`TeeFamily` — the supported technologies (AMD SEV-SNP, Intel
  TDX, ARM CCA, and the SNP-endorsed e-vTPM quote bundle),
* :class:`Evidence` — a tagged envelope wrapping one family's native
  evidence bytes (an encoded ``AttestationReport``, ``TdQuote``,
  ``CcaToken``, or ``MonitoringEvidence``); it is the only input
  :class:`~repro.attest.AttestationVerifier` takes and, encoded, the
  only payload a node serves at the well-known attestation URL,
* the ``*_evidence`` helpers producing envelopes from native objects.

The family tag strings are wire-stable: they appear in served
envelopes, trace events and per-family counters, and key the
``family -> goldens`` / ``family -> floor`` maps of the gateway and the
web extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..crypto import encoding


class EvidenceError(ValueError):
    """Malformed evidence envelopes or unknown families."""


class TeeFamily(str, Enum):
    """The VM-model TEE technologies the unified pipeline can verify.

    A ``str`` subclass so family values compare equal to their stable
    wire names (``TeeFamily.TDX == "tdx"``) and serialise directly.
    """

    SEV_SNP = "sev-snp"
    TDX = "tdx"
    CCA = "arm-cca"
    VTPM = "e-vtpm"

    def __str__(self) -> str:
        return self.value


#: Every family, in canonical (documentation) order.
ALL_FAMILIES = (TeeFamily.SEV_SNP, TeeFamily.TDX, TeeFamily.CCA, TeeFamily.VTPM)


def family_of(value) -> TeeFamily:
    """Coerce a family name (or :class:`TeeFamily`) to the enum."""
    try:
        return TeeFamily(value)
    except ValueError:
        raise EvidenceError(f"unknown TEE family {value!r}") from None


@dataclass(frozen=True)
class Evidence:
    """A tagged envelope around one family's native evidence bytes."""

    family: TeeFamily
    body: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", family_of(self.family))
        # Checked, not coerced: bytes(n) of a wire integer n would
        # allocate n zero bytes.
        if not isinstance(self.body, (bytes, bytearray)):
            raise EvidenceError(
                f"evidence body must be bytes, not {type(self.body).__name__}"
            )
        object.__setattr__(self, "body", bytes(self.body))

    def encode(self) -> bytes:
        """Serialise to canonical TLV bytes."""
        return encoding.encode({"family": self.family.value, "body": self.body})

    @classmethod
    def decode(cls, data: bytes) -> "Evidence":
        """Parse an instance back out of canonical TLV bytes."""
        try:
            decoded = encoding.decode(data)
            return cls(family=decoded["family"], body=decoded["body"])
        except EvidenceError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise EvidenceError("malformed evidence envelope") from exc


def snp_evidence(report) -> Evidence:
    """Wrap an SNP :class:`~repro.amd.report.AttestationReport`."""
    return Evidence(TeeFamily.SEV_SNP, report.encode())


def tdx_evidence(quote) -> Evidence:
    """Wrap a TDX :class:`~repro.tdx.module.TdQuote`."""
    return Evidence(TeeFamily.TDX, quote.encode())


def cca_evidence(token) -> Evidence:
    """Wrap a CCA :class:`~repro.cca.realms.CcaToken` bundle."""
    return Evidence(TeeFamily.CCA, token.encode())


def vtpm_evidence(monitoring_evidence) -> Evidence:
    """Wrap an e-vTPM
    :class:`~repro.vtpm.monitoring.MonitoringEvidence` bundle."""
    return Evidence(TeeFamily.VTPM, monitoring_evidence.encode())
