"""The built-in campaign catalog.

Three campaigns together sweep the entire stable reason-code taxonomy
(``tests/scenarios/test_campaigns.py::TestTaxonomyCompleteness`` fails
loudly if any code in the attest, gateway, or gossip namespaces is
missed):

* ``storm-core`` — every attack that makes sense against a *live*
  fleet, fired mid-storm: hypervisor kills, KDS blackholes and
  stale-chain replays, TCB rollbacks, family revocations, the rogue
  backend menagerie, web-PKI mis-issuance, gossip forgeries, runtime
  storage bit-flips, cache poisoning, and gateway envelope abuse.
* ``pipeline-tail`` — the long tail of per-family pipeline codes that
  need crafted evidence rather than traffic (cert-chain forgeries,
  chip-id games, vTPM log tampering, CCA lifecycle/RAK attacks).
* ``launch-61`` — the section-6.1 boot-time matrix against fresh
  one-node deployments (kernel substitution, malicious firmware,
  offline disk tampering).

Scenario parameters are data; everything here is declarative.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .spec import CampaignSpec, ScenarioSpec, scenario


def _storm_scenarios() -> Tuple[ScenarioSpec, ...]:
    specs = [
        scenario(
            "backend-kill", "hypervisor", "backend_kill",
            "gateway:backend_unreachable",
            benign={"probe_only": True},
            trigger_at=4.0, dwell=2.0,
            title="victim host killed mid-storm",
        ),
        scenario(
            "kds-blackhole-cold", "kds", "kds_blackhole",
            "gateway:kds_unreachable",
            params={"clear_cache": True}, benign={"clear_cache": False},
            trigger_at=6.0, blast_radius="none",
            title="KDS blackholed with a cold endorsement cache",
        ),
        scenario(
            "stale-chain-replay", "kds", "stale_chain_replay",
            "attest:tcb_mismatch",
            params={"stale": True}, benign={"stale": False},
            trigger_at=8.0,
            title="MITM replays a VCEK for an older TCB",
        ),
        scenario(
            "tcb-rollback", "policy", "tcb_rollback", "attest:tcb_too_old",
            params={"floor": [255, 255, 255, 255]},
            benign={"floor": [0, 0, 0, 0]},
            trigger_at=10.0,
            title="fleet TCB floor above a rolled-back platform",
        ),
        scenario(
            "family-floor", "policy", "tcb_rollback", "attest:tcb_too_old",
            params={"families": ["sev-snp"], "floor": [255, 255, 255, 255]},
            benign={"families": ["sev-snp"], "floor": [0, 0, 0, 0]},
            trigger_at=12.0,
            title="per-family TCB floor above the family's platforms",
        ),
        scenario(
            "family-revocation", "policy", "family_revocation",
            "attest:family_not_allowed",
            params={"family": "tdx"}, benign={"family": "arm-cca"},
            trigger_at=14.0, blast_radius="family",
            title="one TEE family revoked fleet-wide",
        ),
    ]
    rogues = [
        ("tampered-image", "tampered_image", "attest:measurement_mismatch"),
        ("revoked-image", "revoked_image", "attest:measurement_revoked"),
        ("forged-signature", "forged_signature", "attest:bad_signature"),
        ("debug-guest", "debug_guest", "attest:debug_policy"),
        ("foreign-chip", "foreign_chip", "attest:unknown_platform"),
        ("junk-evidence", "junk_evidence", "gateway:malformed_report"),
        ("missing-endpoint", "missing_endpoint", "gateway:report_unavailable"),
        ("wrong-family", "wrong_family", "gateway:family_mismatch"),
    ]
    for offset, (tag, mode, expect) in enumerate(rogues):
        specs.append(scenario(
            f"rogue-{tag}", "gateway", "rogue_backend", expect,
            params={"mode": mode}, benign={"mode": "honest"},
            trigger_at=16.0 + offset, blast_radius="none",
            title=f"rogue backend: {tag.replace('-', ' ')}",
        ))
    specs.append(scenario(
        "cert-misissuance", "pki", "cert_misissuance",
        "attest:report_data_mismatch",
        params={"impostor": True}, benign={"impostor": False},
        trigger_at=24.0, blast_radius="none",
        title="mis-issued web-PKI leaf fronting replayed evidence",
    ))
    gossips = [
        ("stale", "stale"),
        ("unknown-backend", "unknown_backend"),
        ("family-mismatch", "family_mismatch"),
        ("older", "older"),
        ("family-not-allowed", "family_not_allowed"),
    ]
    for offset, (tag, mode) in enumerate(gossips):
        specs.append(scenario(
            f"gossip-{tag}", "mesh", "gossip_forgery", f"mesh:{mode}",
            params={"mode": mode}, benign={"mode": "fresh"},
            trigger_at=25.0 + offset, blast_radius="none",
            title=f"gossip forgery: {tag.replace('-', ' ')} record",
        ))
    specs += [
        scenario(
            "storage-bitflip", "storage", "storage_bitflip",
            "storage:corruption_rejections",
            params={"flip": True}, benign={"flip": False},
            trigger_at=30.0, dwell=0.5,
            title="host flips rootfs bits under a running guest",
        ),
        scenario(
            "cache-poison", "cache", "cache_poison", "attest:bad_signature",
            params={"mode": "forged_signature"}, benign={"mode": "honest"},
            trigger_at=31.0, blast_radius="none",
            title="verdict caches thrashed, then forged evidence",
        ),
        scenario(
            "slow-backend", "network", "slow_backend",
            "gateway:health_timeout",
            params={"delay": 5.0}, benign={"delay": 0.1},
            trigger_at=32.0,
            title="report endpoint slowed past the health budget",
        ),
    ]
    abuses = [
        ("malformed", "malformed_envelope", "malformed_request"),
        ("forged-session", "forged_session", "session_severed"),
        ("empty-tier", "empty_tier", "no_healthy_backend"),
        ("unknown-backend", "unknown_backend", "unknown_backend"),
    ]
    for offset, (tag, mode, code) in enumerate(abuses):
        specs.append(scenario(
            f"abuse-{tag}", "gateway", "gateway_abuse", f"gateway:{code}",
            params={"mode": mode}, benign={"mode": "reattest_victim"},
            trigger_at=33.0 + offset, blast_radius="none",
            title=f"gateway envelope abuse: {tag.replace('-', ' ')}",
        ))
    updates = [
        ("rollback-stale", "update_rollback_replay", "stale_epoch", "fresh",
         "re-served old signed manifest (epoch replay)"),
        ("rollback-base", "update_rollback_replay", "base_mismatch", "fresh",
         "old manifest against a node that already moved"),
        ("unsigned-delta", "update_unsigned_delta", "bad_signature", "honest",
         "delta re-signed by an attacker key"),
        ("corrupt-delta", "update_unsigned_delta", "delta_corrupt", "honest",
         "shipped delta block flipped in transit"),
        ("lying-target", "update_unsigned_delta", "digest_mismatch", "honest",
         "signed manifest lies about the target measurement"),
    ]
    for offset, (tag, injector, mode, benign_mode, title) in enumerate(updates):
        specs.append(scenario(
            f"update-{tag}", "update", injector, f"update:{mode}",
            params={"mode": mode}, benign={"mode": benign_mode},
            trigger_at=37.0 + offset, blast_radius="none",
            title=f"update channel: {title}",
        ))
    return tuple(specs)


def _pipeline_scenarios() -> Tuple[ScenarioSpec, ...]:
    # (scenario name, expected attest code, benign mode); the attack
    # mode is the name in snake case.
    tail = [
        ("evidence-malformed", "evidence_malformed", "honest_snp"),
        ("family-not-allowed", "family_not_allowed", "honest_snp"),
        ("no-trust-context", "no_trust_context", "honest_tdx"),
        ("unknown-platform", "unknown_platform", "honest_snp"),
        ("bad-cert-chain", "bad_cert_chain", "honest_snp"),
        ("chip-id-mismatch", "chip_id_mismatch", "honest_snp"),
        ("chip-id-not-allowed", "chip_id_not_allowed", "honest_snp"),
        ("tcb-mismatch", "tcb_mismatch", "honest_snp"),
        ("tcb-too-old", "tcb_too_old", "honest_snp"),
        ("debug-policy", "debug_policy", "honest_snp"),
        ("tdx-tcb-floor", "tcb_too_old", "honest_tdx"),
        ("ak-not-endorsed", "ak_not_endorsed", "honest_vtpm"),
        ("quote-log-mismatch", "quote_log_mismatch", "honest_vtpm"),
        ("service-not-allowed", "service_not_allowed", "honest_vtpm"),
        ("lifecycle-not-secured", "lifecycle_not_secured", "honest_cca"),
        ("rak-not-endorsed", "rak_not_endorsed", "honest_cca"),
    ]
    return tuple(
        scenario(
            name, "pipeline", "pipeline_attack", f"attest:{code}",
            params={"mode": name.replace("-", "_")}, benign={"mode": honest},
            blast_radius="none",
            title=f"pipeline: {name.replace('-', ' ')}",
        )
        for name, code, honest in tail
    )


def _launch_scenarios() -> Tuple[ScenarioSpec, ...]:
    matrix = [
        ("kernel-substitution-honest-table",
         "kernel_substitution_honest_table", "launch:boot_failure", "sm1"),
        ("kernel-substitution-matching-hashes",
         "kernel_substitution_matching_hashes",
         "attest:measurement_mismatch", "sm2"),
        ("malicious-firmware", "malicious_firmware",
         "attest:measurement_mismatch", "sm3"),
        ("rootfs-bitflip", "rootfs_bitflip", "launch:boot_failure", "sm4"),
    ]
    return tuple(
        scenario(
            name, "launch", "launch_attack", expect,
            params={"mode": mode, "seed": seed},
            benign={"mode": "clean", "seed": seed + "-clean"},
            title=f"launch: {name.replace('-', ' ')}",
        )
        for name, mode, expect, seed in matrix
    )


CAMPAIGNS: Dict[str, CampaignSpec] = {
    spec.name: spec
    for spec in (
        CampaignSpec(
            name="storm-core",
            arena="storm",
            scenarios=_storm_scenarios(),
            description=(
                "Every live-fleet attack fired into one seeded session "
                "storm; containment, recovery, and benign-traffic SLOs "
                "asserted together."
            ),
        ),
        CampaignSpec(
            name="pipeline-tail",
            arena="pipeline",
            scenarios=_pipeline_scenarios(),
            description=(
                "The long tail of per-family pipeline reason codes, "
                "driven with crafted evidence against a bare verifier."
            ),
        ),
        CampaignSpec(
            name="launch-61",
            arena="launch",
            scenarios=_launch_scenarios(),
            description=(
                "The section-6.1 boot-time matrix: each launch attack "
                "against a fresh one-node deployment."
            ),
        ),
    )
}


def get_campaign(name: str) -> CampaignSpec:
    try:
        return CAMPAIGNS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; available: {sorted(CAMPAIGNS)}"
        ) from None


def campaign_names() -> Tuple[str, ...]:
    return tuple(sorted(CAMPAIGNS))
