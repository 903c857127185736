"""ARM CCA substrate tests + multi-family verification through
:mod:`repro.attest`."""

import hashlib

import pytest

from repro.attest import (
    AttestationVerifier,
    CcaTrust,
    TeeFamily,
    VerificationPolicy,
    cca_evidence,
)
from repro.cca import (
    ArmInfrastructure,
    CcaError,
    CcaToken,
    verify_cca_token,
)
from repro.crypto.drbg import HmacDrbg

CHALLENGE = b"\x13" * 64


@pytest.fixture(scope="module")
def arm():
    return ArmInfrastructure(HmacDrbg(b"cca-tests"))


@pytest.fixture(scope="module")
def platform(arm):
    return arm.provision_platform("cca-host-1")


@pytest.fixture(scope="module")
def cpak(arm, platform):
    return arm.cpak_certificate(platform)


@pytest.fixture
def realm(platform):
    return platform.launch_realm(b"revelio-realm-image")


class TestRealmLifecycle:
    def test_rim_deterministic_and_portable(self, arm):
        a = arm.provision_platform("h-a").launch_realm(b"image").rim
        b = arm.provision_platform("h-b").launch_realm(b"image").rim
        assert a == b
        assert arm.provision_platform("h-c").launch_realm(b"other").rim != a

    def test_rem_extension(self, realm):
        digest = hashlib.sha384(b"event").digest()
        zero = realm.rem(0)
        realm.extend_rem(0, digest)
        assert realm.rem(0) == hashlib.sha384(zero + digest).digest()

    def test_rem_validation(self, realm):
        with pytest.raises(CcaError):
            realm.extend_rem(4, b"\x00" * 48)
        with pytest.raises(CcaError):
            realm.extend_rem(0, b"short")

    def test_raks_unique_per_realm(self, platform):
        first = platform.launch_realm(b"image")
        second = platform.launch_realm(b"image")
        assert first.rak.d != second.rak.d

    def test_sealing_bound_to_rim(self, platform):
        good = platform.launch_realm(b"image")
        same = platform.launch_realm(b"image")
        evil = platform.launch_realm(b"tampered")
        assert good.derive_sealing_key() == same.derive_sealing_key()
        assert good.derive_sealing_key() != evil.derive_sealing_key()


class TestTokens:
    def test_token_verifies(self, arm, cpak, realm):
        token = realm.attest(CHALLENGE)
        verify_cca_token(
            token, cpak, [arm.root.certificate], now=0,
            expected_rim=realm.rim, expected_challenge=CHALLENGE,
        )

    def test_token_codec(self, realm):
        token = realm.attest(CHALLENGE)
        assert CcaToken.decode(token.encode()) == token

    def test_bad_challenge_size(self, realm):
        with pytest.raises(CcaError):
            realm.attest(b"short")

    def test_tampered_rim_rejected(self, arm, cpak, realm):
        from dataclasses import replace

        token = realm.attest(CHALLENGE)
        forged = replace(
            token,
            realm_token=replace(token.realm_token, rim=b"\xff" * 48),
        )
        with pytest.raises(CcaError, match="signature"):
            verify_cca_token(forged, cpak, [arm.root.certificate], now=0)

    def test_swapped_rak_rejected(self, arm, cpak, platform, realm):
        # An attacker realm presents its own realm token with a genuine
        # platform token of another realm: the RAK hash binding fails.
        from dataclasses import replace

        victim_token = realm.attest(CHALLENGE)
        attacker_realm = platform.launch_realm(b"attacker-image")
        attacker_token = attacker_realm.attest(CHALLENGE)
        grafted = replace(
            attacker_token, platform_token=victim_token.platform_token
        )
        with pytest.raises(CcaError, match="endorse"):
            verify_cca_token(grafted, cpak, [arm.root.certificate], now=0)

    def test_unsecured_lifecycle_rejected(self, arm):
        platform = arm.provision_platform("debug-host")
        platform.lifecycle_state = "debug"
        cpak = arm.cpak_certificate(platform)
        realm = platform.launch_realm(b"image")
        with pytest.raises(CcaError, match="lifecycle"):
            verify_cca_token(
                realm.attest(CHALLENGE), cpak, [arm.root.certificate], now=0
            )

    def test_foreign_arm_rejected(self, arm, realm):
        fake_arm = ArmInfrastructure(HmacDrbg(b"fake-arm"))
        fake_platform = fake_arm.provision_platform("fake")
        fake_cpak = fake_arm.cpak_certificate(fake_platform)
        fake_realm = fake_platform.launch_realm(b"revelio-realm-image")
        token = fake_realm.attest(CHALLENGE)
        with pytest.raises(CcaError, match="chain"):
            verify_cca_token(
                token, fake_cpak, [arm.root.certificate], now=0
            )

    def test_wrong_rim_rejected(self, arm, cpak, realm):
        with pytest.raises(CcaError, match="RIM"):
            verify_cca_token(
                realm.attest(CHALLENGE), cpak, [arm.root.certificate], now=0,
                expected_rim=b"\x00" * 48,
            )

    def test_replayed_challenge_rejected(self, arm, cpak, realm):
        with pytest.raises(CcaError, match="challenge"):
            verify_cca_token(
                realm.attest(CHALLENGE), cpak, [arm.root.certificate], now=0,
                expected_challenge=b"\x99" * 64,
            )


class TestTeeLayer:
    def test_cca_through_generic_verifier(self, arm, platform, cpak, realm):
        cpaks = {platform.platform_id: cpak}
        verifier = AttestationVerifier(
            None,
            contexts={
                TeeFamily.CCA: CcaTrust(
                    lambda pid: cpaks[pid], (arm.root.certificate,)
                )
            },
        )
        outcome = verifier.verify(
            cca_evidence(realm.attest(CHALLENGE)),
            now=0,
            policy=VerificationPolicy(
                golden_measurements=[realm.rim], expected_report_data=CHALLENGE
            ),
        )
        assert outcome.ok and outcome.family == TeeFamily.CCA
        assert outcome.report.realm_token.rim == realm.rim

    def test_all_three_technologies_coexist(self, arm, platform, cpak):
        from repro.amd.kds import KeyDistributionServer
        from repro.amd.policy import REVELIO_POLICY
        from repro.amd.secure_processor import AmdKeyInfrastructure
        from repro.attest import TdxTrust, provider_for, snp_evidence, tdx_evidence
        from repro.core.kds_client import KdsClient
        from repro.net.latency import ZERO_LATENCY, SimClock
        from repro.tdx import IntelInfrastructure, ProvisioningCertificationService

        amd = AmdKeyInfrastructure(HmacDrbg(b"tri-amd"))
        chip = amd.provision_chip("tri-chip")
        intel = IntelInfrastructure(HmacDrbg(b"tri-intel"))
        tdx_platform = intel.provision_platform("tri-tdx")
        cpaks = {platform.platform_id: cpak}

        verifier = AttestationVerifier(
            KdsClient(KeyDistributionServer(amd), SimClock(), ZERO_LATENCY),
            contexts={
                TeeFamily.TDX: TdxTrust(ProvisioningCertificationService(intel)),
                TeeFamily.CCA: CcaTrust(
                    lambda pid: cpaks[pid], (arm.root.certificate,)
                ),
            },
        )

        guest = chip.launch_vm(b"image", REVELIO_POLICY)
        td = tdx_platform.launch_td(b"image")
        realm = platform.launch_realm(b"image")
        challenge = b"\x77" * 64
        for evidence, golden in (
            (snp_evidence(guest.get_report(challenge)), guest.measurement),
            (tdx_evidence(td.get_quote(challenge)), td.mrtd),
            (cca_evidence(realm.attest(challenge)), realm.rim),
        ):
            outcome = verifier.verify(
                evidence,
                now=0,
                policy=VerificationPolicy(
                    golden_measurements=[golden], expected_report_data=challenge
                ),
            )
            assert outcome.ok and outcome.family == evidence.family
            provider = provider_for(evidence.family)
            assert provider.measurement(outcome.report) == golden
            assert provider.report_data(outcome.report) == challenge
