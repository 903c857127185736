"""The canonical attestation reason-code taxonomy.

Every verification failure the unified pipeline can produce carries one
of these stable, machine-readable codes (PR-2 introduced the SNP set;
PR-6 extended it across TEE families).  The set is *closed* in both
directions: `tests/attest/test_reasons.py` asserts that the codes the
pipeline modules raise are exactly this set, and the campaign taxonomy
test (`tests/scenarios/test_campaigns.py::TestTaxonomyCompleteness`)
asserts every code is reached by at least one adversary scenario — an
unreachable code is either dead or untested, and both fail loudly.
"""

from __future__ import annotations

#: Codes producible by the family step providers
#: (:mod:`repro.attest.families`), the dispatch engine
#: (:mod:`repro.attest.engine`), and the SNP checker the SNP provider
#: delegates to (:mod:`repro.amd.verify`).
ATTEST_REASON_CODES = frozenset({
    # dispatch / envelope
    "evidence_malformed",     # undecodable evidence body
    "family_not_allowed",     # family outside the policy's admissible set
    "no_trust_context",       # verifier has no trust material for the family
    # endorsement chain
    "unknown_platform",       # KDS/PCS/CPAK lookup has no such platform
    "bad_cert_chain",         # endorsement chain fails to validate
    "chip_id_mismatch",       # endorsement bound to a different platform
    "chip_id_not_allowed",    # platform outside the chip-id allow-list
    "tcb_mismatch",           # endorsement TCB != reported TCB (stale replay)
    # report / token content
    "bad_signature",          # report/quote/token signature invalid
    "debug_policy",           # debug-enabled guest against a no-debug policy
    "measurement_mismatch",   # launch measurement not in the golden set
    "measurement_revoked",    # measurement revoked after a rollout
    "report_data_mismatch",   # REPORT_DATA / nonce does not bind the key
    "tcb_too_old",            # reported TCB below the policy floor
    # family-specific integrity
    "ak_not_endorsed",        # e-vTPM AK not bound by the SNP endorsement
    "lifecycle_not_secured",  # CCA platform not in the secured lifecycle
    "quote_log_mismatch",     # TPM quote PCRs disagree with the event log
    "rak_not_endorsed",       # CCA platform token does not endorse the RAK
    "service_not_allowed",    # runtime service event outside the allow-list
})
