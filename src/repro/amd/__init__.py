"""Simulated AMD SEV-SNP hardware: AMD-SP, attestation, VCEK, KDS.

The substitution rationale is documented in DESIGN.md: the AMD-SP here
signs real ECDSA P-384 reports over the real SNP report layout, so all
verifier code paths are exercised faithfully even though no SEV silicon
is present.
"""

from .kds import KdsError, KeyDistributionServer
from .policy import REVELIO_POLICY, GuestPolicy
from .report import AttestationReport, ReportError
from .secure_processor import (
    AmdKeyInfrastructure,
    GuestContext,
    SecureProcessor,
    SevError,
)
from .tcb import TcbVersion
from .verify import AttestationError

__all__ = [
    "AmdKeyInfrastructure",
    "AttestationError",
    "AttestationReport",
    "GuestContext",
    "GuestPolicy",
    "KdsError",
    "KeyDistributionServer",
    "REVELIO_POLICY",
    "ReportError",
    "SecureProcessor",
    "SevError",
    "TcbVersion",
]
