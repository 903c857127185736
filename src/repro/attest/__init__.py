"""The unified attestation verification pipeline (SNPGuard-style).

Every Revelio verifier — the web extension, the fleet gateway, RA-TLS
peers, the SP node, the vTPM monitor, key-sharing recipients — runs the
*same* procedure with different expectations.  This package makes that
one observable pipeline:

* :class:`TeeFamily` / :class:`Evidence` — the TEE vocabulary and the
  tagged envelope the engine dispatches on (SEV-SNP, TDX, CCA, e-vTPM);
  the envelope is the engine's only input and, encoded, what every node
  serves at the well-known attestation URL,
* :class:`VerificationPolicy` — the expectations, declaratively, as
  one flat value that means the same thing for every family,
* :class:`AttestationVerifier` — the engine: runs the registered
  :mod:`repro.attest.families` step provider for the evidence's family
  as an ordered step list, with the policy checks shared by every
  family,
* :class:`VerificationOutcome` — per-step results with stable reason
  codes and simulated-clock costs,
* :mod:`repro.attest.trace` — pluggable sinks, ring buffer, counters
  (globally and per family).
"""

from .engine import (
    AttestationVerifier,
    StepRecord,
    VerificationOutcome,
)
from .evidence import (
    ALL_FAMILIES,
    Evidence,
    EvidenceError,
    TeeFamily,
    cca_evidence,
    family_of,
    snp_evidence,
    tdx_evidence,
    vtpm_evidence,
)
from .families import (
    STEP_AK_ENDORSEMENT,
    STEP_BATCH_PREPARE,
    STEP_CERT_CHAIN,
    STEP_CHIP_ID_ALLOWLIST,
    STEP_CHIP_ID_BINDING,
    STEP_DEBUG_POLICY,
    STEP_ENDORSEMENT_FETCH,
    STEP_EVIDENCE_DECODE,
    STEP_FAMILY_ALLOWED,
    STEP_LIFECYCLE,
    STEP_MEASUREMENT,
    STEP_ORDER,
    STEP_PLATFORM_SIGNATURE,
    STEP_QUOTE_LOG,
    STEP_QUOTE_SIGNATURE,
    STEP_RAK_BINDING,
    STEP_REPORT_DATA,
    STEP_REVOCATION,
    STEP_SERVICE_ALLOWLIST,
    STEP_SIGNATURE,
    STEP_TCB_BINDING,
    STEP_TCB_FLOOR,
    STEP_TRUST_CONTEXT,
    STEP_VCEK_FETCH,
    CcaTrust,
    StepProvider,
    TdxTrust,
    VtpmTrust,
    provider_for,
    register_step_provider,
)
from .farm import FarmJob, VerifyFarm
from .policy import AMD_FAMILIES, VerificationPolicy, amd_tcb_floors
from .reasons import ATTEST_REASON_CODES
from .trace import (
    AttestationTracer,
    CounterRegistry,
    FarmCounters,
    Histogram,
    RingBufferSink,
    StorageCounters,
    TraceEvent,
    TraceSink,
    UpdateCounters,
    get_tracer,
    reset_tracer,
    set_tracer,
)

__all__ = [
    "ALL_FAMILIES",
    "AMD_FAMILIES",
    "ATTEST_REASON_CODES",
    "AttestationTracer",
    "AttestationVerifier",
    "CcaTrust",
    "CounterRegistry",
    "Evidence",
    "EvidenceError",
    "FarmCounters",
    "FarmJob",
    "Histogram",
    "RingBufferSink",
    "STEP_AK_ENDORSEMENT",
    "STEP_BATCH_PREPARE",
    "STEP_CERT_CHAIN",
    "STEP_CHIP_ID_ALLOWLIST",
    "STEP_CHIP_ID_BINDING",
    "STEP_DEBUG_POLICY",
    "STEP_ENDORSEMENT_FETCH",
    "STEP_EVIDENCE_DECODE",
    "STEP_FAMILY_ALLOWED",
    "STEP_LIFECYCLE",
    "STEP_MEASUREMENT",
    "STEP_ORDER",
    "STEP_PLATFORM_SIGNATURE",
    "STEP_QUOTE_LOG",
    "STEP_QUOTE_SIGNATURE",
    "STEP_RAK_BINDING",
    "STEP_REPORT_DATA",
    "STEP_REVOCATION",
    "STEP_SERVICE_ALLOWLIST",
    "STEP_SIGNATURE",
    "STEP_TCB_BINDING",
    "STEP_TCB_FLOOR",
    "STEP_TRUST_CONTEXT",
    "STEP_VCEK_FETCH",
    "StepProvider",
    "StepRecord",
    "StorageCounters",
    "TdxTrust",
    "TeeFamily",
    "TraceEvent",
    "TraceSink",
    "UpdateCounters",
    "VerificationOutcome",
    "VerificationPolicy",
    "VerifyFarm",
    "VtpmTrust",
    "amd_tcb_floors",
    "cca_evidence",
    "family_of",
    "get_tracer",
    "provider_for",
    "register_step_provider",
    "reset_tracer",
    "set_tracer",
    "snp_evidence",
    "tdx_evidence",
    "vtpm_evidence",
]
