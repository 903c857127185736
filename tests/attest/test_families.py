"""Cross-family parity: the same policy violation yields the same
stable reason code whether the evidence is SEV-SNP, TDX, CCA, or an
SNP-endorsed e-vTPM — the heterogeneous-fleet promise of the verdict
seam."""

import hashlib

import pytest

from repro.amd.policy import GuestPolicy
from repro.amd.kds import KeyDistributionServer
from repro.amd.secure_processor import AmdKeyInfrastructure
from repro.amd.tcb import TcbVersion
from repro.attest import (
    AttestationTracer,
    AttestationVerifier,
    CcaTrust,
    Evidence,
    TdxTrust,
    TeeFamily,
    VerificationPolicy,
    VtpmTrust,
)
from repro.cca.realms import ArmInfrastructure
from repro.core.kds_client import KdsClient
from repro.crypto.drbg import HmacDrbg
from repro.net.latency import LatencyModel, SimClock
from repro.tdx.module import IntelInfrastructure, ProvisioningCertificationService
from repro.vtpm.monitoring import MonitoringEvidence
from repro.vtpm.vtpm import PCR_SERVICES, Vtpm

NOW = 1_000_000
BINDING = hashlib.sha256(b"family-parity").digest() + b"\x00" * 32
WRONG_BINDING = hashlib.sha256(b"someone-else").digest() + b"\x00" * 32


class FamilyCase:
    """One family's evidence factory plus the knobs the matrix turns."""

    def __init__(self, family, make_evidence, measurement, platform_id,
                 floor_met, floor_too_high):
        self.family = str(family)
        self.make_evidence = make_evidence
        self.measurement = bytes(measurement)
        self.platform_id = bytes(platform_id)
        self.floor_met = floor_met
        self.floor_too_high = floor_too_high


@pytest.fixture(scope="module")
def harness():
    """One backend per family, all bound to the same challenge, and a
    verifier holding every family's trust material."""
    rng = HmacDrbg(b"family-parity")
    amd = AmdKeyInfrastructure(rng.fork(b"amd"))
    kds = KdsClient(KeyDistributionServer(amd), SimClock(), LatencyModel())

    snp_guest = amd.provision_chip("parity-snp").launch_vm(
        b"parity-snp-image", GuestPolicy()
    )

    intel = IntelInfrastructure(rng.fork(b"intel"))
    pcs = ProvisioningCertificationService(intel)
    td = intel.provision_platform("parity-tdx").launch_td(b"parity-td-image")

    arm = ArmInfrastructure(rng.fork(b"arm"))
    cca_platform = arm.provision_platform("parity-cca")
    cpak = arm.cpak_certificate(cca_platform)
    realm = cca_platform.launch_realm(b"parity-realm-image")

    vtpm_guest = amd.provision_chip("parity-vtpm").launch_vm(
        b"parity-vtpm-image", GuestPolicy()
    )
    vtpm = Vtpm(rng.fork(b"vtpm"))
    ak_endorsement = vtpm_guest.get_report(
        hashlib.sha256(vtpm.ak_public.encode()).digest() + b"\x00" * 32
    )

    def vtpm_evidence(binding):
        return MonitoringEvidence(
            quote=vtpm.quote(binding, [PCR_SERVICES]),
            event_log=list(vtpm.event_log),
            ak_public=vtpm.ak_public,
            ak_endorsement=ak_endorsement,
        ).encode()

    cases = [
        FamilyCase(
            TeeFamily.SEV_SNP,
            lambda binding: snp_guest.get_report(binding).encode(),
            snp_guest.measurement,
            snp_guest.get_report(BINDING).chip_id,
            TcbVersion(0, 0, 0, 0),
            TcbVersion(99, 0, 8, 115),
        ),
        FamilyCase(
            TeeFamily.TDX,
            lambda binding: td.get_quote(binding).encode(),
            td.mrtd,
            td.get_quote(BINDING).platform_id,
            0,
            99,
        ),
        FamilyCase(
            TeeFamily.CCA,
            lambda binding: realm.attest(binding).encode(),
            realm.rim,
            cca_platform.platform_id,
            0,
            99,
        ),
        FamilyCase(
            TeeFamily.VTPM,
            vtpm_evidence,
            vtpm_guest.measurement,
            ak_endorsement.chip_id,
            TcbVersion(0, 0, 0, 0),
            TcbVersion(99, 0, 8, 115),
        ),
    ]
    verifier = AttestationVerifier(
        kds,
        site="parity",
        tracer=AttestationTracer(),
        contexts={
            str(TeeFamily.TDX): TdxTrust(pcs),
            str(TeeFamily.CCA): CcaTrust(
                lambda platform_id: cpak, (arm.root.certificate,)
            ),
            str(TeeFamily.VTPM): VtpmTrust(kds),
        },
    )
    return verifier, cases


def _verify(verifier, case, binding=BINDING, **policy_overrides):
    kwargs = dict(
        golden_measurements=(case.measurement,),
        expected_report_data=BINDING,
    )
    kwargs.update(policy_overrides)
    evidence = Evidence(case.family, case.make_evidence(binding))
    return verifier.verify(
        evidence, now=NOW, policy=VerificationPolicy(**kwargs)
    )


class TestParityMatrix:
    def test_honest_evidence_passes_in_every_family(self, harness):
        verifier, cases = harness
        for case in cases:
            outcome = _verify(verifier, case)
            assert outcome.ok, (case.family, outcome.reason, outcome.detail)
            assert outcome.family == case.family

    def test_family_not_allowed_is_uniform(self, harness):
        verifier, cases = harness
        for case in cases:
            others = tuple(
                c.family for c in cases if c.family != case.family
            )
            outcome = _verify(verifier, case, allowed_families=others)
            assert not outcome.ok, case.family
            assert outcome.reason == "family_not_allowed", case.family
            assert case.family in outcome.detail

    def test_measurement_mismatch_is_uniform(self, harness):
        verifier, cases = harness
        for case in cases:
            outcome = _verify(
                verifier, case, golden_measurements=(b"\x99" * 48,)
            )
            assert not outcome.ok, case.family
            assert outcome.reason == "measurement_mismatch", case.family

    def test_measurement_revoked_is_uniform(self, harness):
        verifier, cases = harness
        for case in cases:
            outcome = _verify(
                verifier, case, revoked_measurements=(case.measurement,)
            )
            assert not outcome.ok, case.family
            assert outcome.reason == "measurement_revoked", case.family

    def test_report_data_mismatch_is_uniform(self, harness):
        verifier, cases = harness
        for case in cases:
            outcome = _verify(verifier, case, binding=WRONG_BINDING)
            assert not outcome.ok, case.family
            assert outcome.reason == "report_data_mismatch", case.family

    def test_tcb_floor_is_uniform(self, harness):
        verifier, cases = harness
        for case in cases:
            outcome = _verify(verifier, case, minimum_tcb=case.floor_too_high)
            assert not outcome.ok, case.family
            assert outcome.reason == "tcb_too_old", case.family
            assert outcome.failure.name == "tcb_floor", case.family
            assert _verify(verifier, case, minimum_tcb=case.floor_met).ok

    def test_chip_id_allowlist_is_uniform(self, harness):
        verifier, cases = harness
        for case in cases:
            outcome = _verify(
                verifier, case, allowed_chip_ids=(b"\x01" * 64,)
            )
            assert not outcome.ok, case.family
            assert outcome.reason == "chip_id_not_allowed", case.family
            assert _verify(
                verifier, case, allowed_chip_ids=(case.platform_id,)
            ).ok, case.family

    def test_policy_checks_run_in_one_order(self, harness):
        """Every expectation set: the policy steps run in the same order
        in every family, revocation first and the TCB floor after every
        authenticity step."""
        verifier, cases = harness
        policy_steps = [
            "revocation", "measurement", "report_data", "chip_id_allowlist",
            "tcb_floor",
        ]
        for case in cases:
            outcome = _verify(
                verifier,
                case,
                revoked_measurements=(b"\x0d" * 48,),
                allowed_chip_ids=(case.platform_id,),
                minimum_tcb=case.floor_met,
            )
            assert outcome.ok, (case.family, outcome.reason)
            names = [record.name for record in outcome.steps]
            assert [n for n in names if n in policy_steps] == policy_steps
            provider = names[names.index("evidence_decode") + 1:]
            assert provider[0] == "revocation", case.family
            authenticity = provider[1:provider.index("measurement")]
            assert "signature" in authenticity, case.family

    def test_per_family_counters_track_each_family(self, harness):
        verifier, cases = harness
        counters = verifier.tracer.counters
        for case in cases:
            assert counters.verifications_by_family[case.family]["pass"] >= 1
            assert (
                counters.failures_by_family[case.family]["family_not_allowed"]
                >= 1
            )
