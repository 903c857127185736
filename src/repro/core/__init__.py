"""Revelio's core: the paper's primary contribution.

Guest services (measured init, identity, attestation endpoint), the SP
node's fleet provisioning, TLS-key sharing with mutual attestation, the
end-user browser + web extension, delegated verification registries,
and end-to-end deployment orchestration.
"""

from .browser import Browser, NavigationBlocked, PageResult
from .deployment import (
    MINIMAL_PAGE,
    DeployedNode,
    RevelioDeployment,
    default_app,
)
from .guest import (
    BOOTSTRAP_PORT,
    WELL_KNOWN_ATTESTATION_PATH,
    GuestError,
    RevelioNode,
    VmIdentity,
    golden_measurements_for,
)
from .kds_client import KdsClient
from .key_sharing import (
    BUNDLE_KIND_CSR,
    BUNDLE_KIND_PUBLIC_KEY,
    KeySharingError,
    ReportBundle,
    decrypt_with_private_key,
    encrypt_to_public_key,
    report_data_for,
    verify_report_bundle,
)
from .rollout import (
    RolloutError,
    RolloutResult,
    export_sealed_master_key,
    import_sealed_state,
    migrate_sealed_state,
    renew_certificate,
    roll_out_image,
)
from .sp_node import (
    AttestedNode,
    PhaseTiming,
    ProvisioningError,
    ProvisioningResult,
    ServiceProviderNode,
)
from .trusted_registry import (
    AuditStatement,
    Auditor,
    AuditorRegistry,
    DaoRegistry,
    Proposal,
    RegistryError,
    StaticRegistry,
    TrustedRegistry,
)
from .web_extension import (
    AttestationEvent,
    RevelioExtension,
    SiteRegistration,
    Verdict,
)

__all__ = [
    "AttestationEvent",
    "AttestedNode",
    "AuditStatement",
    "Auditor",
    "AuditorRegistry",
    "BOOTSTRAP_PORT",
    "BUNDLE_KIND_CSR",
    "BUNDLE_KIND_PUBLIC_KEY",
    "Browser",
    "DaoRegistry",
    "DeployedNode",
    "GuestError",
    "KdsClient",
    "KeySharingError",
    "MINIMAL_PAGE",
    "NavigationBlocked",
    "PageResult",
    "PhaseTiming",
    "Proposal",
    "ProvisioningError",
    "ProvisioningResult",
    "RegistryError",
    "ReportBundle",
    "RevelioDeployment",
    "RevelioExtension",
    "RevelioNode",
    "RolloutError",
    "RolloutResult",
    "renew_certificate",
    "roll_out_image",
    "ServiceProviderNode",
    "SiteRegistration",
    "StaticRegistry",
    "TrustedRegistry",
    "Verdict",
    "VmIdentity",
    "WELL_KNOWN_ATTESTATION_PATH",
    "decrypt_with_private_key",
    "default_app",
    "encrypt_to_public_key",
    "export_sealed_master_key",
    "import_sealed_state",
    "migrate_sealed_state",
    "golden_measurements_for",
    "report_data_for",
    "verify_report_bundle",
]
