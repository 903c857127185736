"""KDS certificate issuance and end-to-end report verification."""

import pytest

from repro.amd.kds import KdsError, KeyDistributionServer
from repro.amd.policy import REVELIO_POLICY, GuestPolicy
from repro.amd.secure_processor import AmdKeyInfrastructure
from repro.amd.tcb import TcbVersion
from repro.amd.verify import AttestationError
from repro.attest import (
    STEP_CHIP_ID_ALLOWLIST,
    STEP_MEASUREMENT,
    STEP_REPORT_DATA,
    STEP_TCB_FLOOR,
    AttestationVerifier,
    VerificationPolicy,
    snp_evidence,
)
from repro.core.kds_client import KdsClient
from repro.crypto.drbg import HmacDrbg
from repro.crypto.x509 import validate_chain
from repro.net.latency import ZERO_LATENCY, SimClock
from repro.scenarios.injectors import SubstituteKds

NOW = 1_000_000


@pytest.fixture(scope="module")
def amd():
    return AmdKeyInfrastructure(HmacDrbg(b"kds-tests"))


@pytest.fixture(scope="module")
def kds(amd):
    return KeyDistributionServer(amd)


@pytest.fixture(scope="module")
def chip(amd):
    return amd.provision_chip("kds-chip-1")


@pytest.fixture
def guest(chip):
    return chip.launch_vm(b"revelio-firmware", REVELIO_POLICY)


def _client(kds):
    return KdsClient(kds, SimClock(), ZERO_LATENCY)


def _verify(report, client, now=NOW, **policy):
    """Run the engine on *report*; raise the failing step's
    :class:`AttestationError`, return the passing outcome."""
    outcome = AttestationVerifier(client).verify(
        snp_evidence(report), now=now, policy=VerificationPolicy(**policy)
    )
    outcome.raise_for_failure()
    return outcome


class TestKds:
    def test_vcek_chain_validates(self, kds, chip):
        vcek = kds.get_vcek_certificate(chip.chip_id, chip.current_tcb)
        validate_chain([vcek, *kds.cert_chain()], [kds.ark_certificate], now=NOW)

    def test_unknown_chip_rejected(self, kds):
        with pytest.raises(KdsError):
            kds.get_vcek_certificate(b"\x00" * 64, TcbVersion())

    def test_vcek_cached(self, kds, chip):
        first = kds.get_vcek_certificate(chip.chip_id, chip.current_tcb)
        second = kds.get_vcek_certificate(chip.chip_id, chip.current_tcb)
        assert first is second

    def test_vcek_embeds_platform_identity(self, kds, chip):
        vcek = kds.get_vcek_certificate(chip.chip_id, chip.current_tcb)
        assert vcek.extension("amd.chip_id") == chip.chip_id
        assert TcbVersion.decode(vcek.extension("amd.tcb")) == chip.current_tcb

    def test_different_tcb_different_vcek(self, kds, chip, amd):
        current = kds.get_vcek_certificate(chip.chip_id, chip.current_tcb)
        newer_tcb = TcbVersion(9, 9, 9, 200)
        chip2 = amd.provision_chip("kds-chip-tcb")
        older = kds.get_vcek_certificate(chip2.chip_id, newer_tcb)
        assert current.public_key != older.public_key


class TestVerifyHappyPath:
    def test_full_verification(self, kds, chip, guest):
        report = guest.get_report(b"\x11" * 64)
        outcome = _verify(
            report,
            _client(kds),
            golden_measurements=(guest.measurement,),
            expected_report_data=b"\x11" * 64,
            allowed_chip_ids=(chip.chip_id,),
            minimum_tcb=TcbVersion(1, 0, 0, 0),
        )
        for name in (
            STEP_MEASUREMENT, STEP_REPORT_DATA, STEP_CHIP_ID_ALLOWLIST,
            STEP_TCB_FLOOR,
        ):
            assert outcome.step(name).passed

    def test_minimal_verification(self, kds, guest):
        report = guest.get_report(b"\x00" * 64)
        outcome = _verify(report, _client(kds))
        assert outcome.step(STEP_MEASUREMENT) is None


class TestVerifyFailures:
    def test_wrong_measurement(self, kds, guest):
        report = guest.get_report(b"\x00" * 64)
        with pytest.raises(AttestationError) as excinfo:
            _verify(report, _client(kds), golden_measurements=(b"\xff" * 48,))
        assert excinfo.value.reason == "measurement_mismatch"

    def test_wrong_report_data(self, kds, guest):
        report = guest.get_report(b"\x00" * 64)
        with pytest.raises(AttestationError) as excinfo:
            _verify(report, _client(kds), expected_report_data=b"\xff" * 64)
        assert excinfo.value.reason == "report_data_mismatch"

    def test_chip_not_on_allowlist(self, kds, guest):
        report = guest.get_report(b"\x00" * 64)
        with pytest.raises(AttestationError) as excinfo:
            _verify(report, _client(kds), allowed_chip_ids=(b"\xaa" * 64,))
        assert excinfo.value.reason == "chip_id_not_allowed"

    def test_tcb_too_old(self, kds, guest):
        report = guest.get_report(b"\x00" * 64)
        with pytest.raises(AttestationError) as excinfo:
            _verify(
                report, _client(kds), minimum_tcb=TcbVersion(255, 255, 255, 255)
            )
        assert excinfo.value.reason == "tcb_too_old"

    def test_debug_guest_rejected(self, kds, chip):
        debug_guest = chip.launch_vm(b"fw", GuestPolicy(debug_allowed=True))
        report = debug_guest.get_report(b"\x00" * 64)
        with pytest.raises(AttestationError) as excinfo:
            _verify(report, _client(kds))
        assert excinfo.value.reason == "debug_policy"
        # ... unless the verifier explicitly allows debug guests.
        _verify(report, _client(kds), allow_debug=True)

    def test_tampered_report_signature(self, kds, guest):
        from dataclasses import replace

        report = guest.get_report(b"\x00" * 64)
        tampered = replace(report, measurement=b"\xee" * 48)
        with pytest.raises(AttestationError) as excinfo:
            _verify(tampered, _client(kds))
        assert excinfo.value.reason == "bad_signature"

    def test_vcek_for_other_chip_rejected(self, kds, amd, guest):
        other_chip = amd.provision_chip("kds-chip-2")
        report = guest.get_report(b"\x00" * 64)
        wrong_vcek = kds.get_vcek_certificate(other_chip.chip_id, report.reported_tcb)
        with pytest.raises(AttestationError) as excinfo:
            _verify(report, SubstituteKds(_client(kds), vcek=wrong_vcek))
        assert excinfo.value.reason == "chip_id_mismatch"

    def test_forged_root_rejected(self, kds, chip, guest):
        # An attacker running their own "AMD" cannot satisfy a verifier
        # that pins the genuine ARK.
        fake_amd = AmdKeyInfrastructure(HmacDrbg(b"fake-amd"))
        fake_kds = KeyDistributionServer(fake_amd)
        fake_chip = fake_amd.provision_chip("fake-chip")
        fake_guest = fake_chip.launch_vm(b"revelio-firmware", REVELIO_POLICY)
        report = fake_guest.get_report(b"\x00" * 64)
        with pytest.raises(AttestationError) as excinfo:
            _verify(
                report,
                _client(fake_kds),
                trust_anchors=(kds.ark_certificate,),  # genuine anchor
            )
        assert excinfo.value.reason == "bad_cert_chain"

    def test_report_from_expired_chain_perspective(self, kds, guest):
        report = guest.get_report(b"\x00" * 64)
        with pytest.raises(AttestationError) as excinfo:
            # beyond certificate validity
            _verify(report, _client(kds), now=2**63)
        assert excinfo.value.reason == "bad_cert_chain"
