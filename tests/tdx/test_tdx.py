"""Intel TDX substrate tests + multi-family verification through
:mod:`repro.attest`."""

import pytest

from repro.amd.policy import REVELIO_POLICY
from repro.amd.secure_processor import AmdKeyInfrastructure
from repro.amd.kds import KeyDistributionServer
from repro.attest import (
    AttestationVerifier,
    Evidence,
    EvidenceError,
    TdxTrust,
    TeeFamily,
    VerificationPolicy,
    cca_evidence,
    snp_evidence,
    tdx_evidence,
)
from repro.cca import ArmInfrastructure
from repro.core.kds_client import KdsClient
from repro.crypto import encoding
from repro.crypto.drbg import HmacDrbg
from repro.net.latency import ZERO_LATENCY, SimClock
from repro.tdx import (
    IntelInfrastructure,
    ProvisioningCertificationService,
    TdQuote,
    TdxError,
    verify_td_quote,
)


@pytest.fixture(scope="module")
def intel():
    return IntelInfrastructure(HmacDrbg(b"tdx-tests"))


@pytest.fixture(scope="module")
def pcs(intel):
    return ProvisioningCertificationService(intel)


@pytest.fixture(scope="module")
def platform(intel):
    return intel.provision_platform("tdx-host-1")


@pytest.fixture
def td(platform):
    return platform.launch_td(b"revelio-td-image")


class TestTdLifecycle:
    def test_mrtd_deterministic(self, platform):
        first = platform.launch_td(b"image").mrtd
        second = platform.launch_td(b"image").mrtd
        assert first == second
        assert platform.launch_td(b"other").mrtd != first

    def test_mrtd_portable_across_platforms(self, intel):
        a = intel.provision_platform("host-a").launch_td(b"image").mrtd
        b = intel.provision_platform("host-b").launch_td(b"image").mrtd
        assert a == b

    def test_rtmr_extension(self, td):
        import hashlib

        zero = td.rtmr(0)
        digest = hashlib.sha384(b"runtime event").digest()
        td.extend_rtmr(0, digest)
        assert td.rtmr(0) == hashlib.sha384(zero + digest).digest()
        assert td.rtmr(1) == b"\x00" * 48

    def test_rtmr_validation(self, td):
        with pytest.raises(TdxError):
            td.extend_rtmr(4, b"\x00" * 48)
        with pytest.raises(TdxError):
            td.extend_rtmr(0, b"short")

    def test_sealing_bound_to_mrtd(self, platform):
        a = platform.launch_td(b"image")
        b = platform.launch_td(b"image")
        c = platform.launch_td(b"tampered")
        assert a.derive_sealing_key() == b.derive_sealing_key()
        assert a.derive_sealing_key() != c.derive_sealing_key()


class TestQuotes:
    def test_quote_verifies(self, pcs, td):
        quote = td.get_quote(b"\x11" * 64)
        pck = pcs.get_pck_certificate(quote.platform_id, quote.tee_tcb_svn)
        verify_td_quote(
            quote, pck, pcs.cert_chain(), [pcs.root_certificate], now=0,
            expected_mrtd=td.mrtd, expected_report_data=b"\x11" * 64,
        )

    def test_quote_codec(self, td):
        quote = td.get_quote(b"\x22" * 64)
        assert TdQuote.decode(quote.encode()) == quote

    def test_bad_report_data_size(self, td):
        with pytest.raises(TdxError):
            td.get_quote(b"short")

    def test_tampered_mrtd_rejected(self, pcs, td):
        from dataclasses import replace

        quote = replace(td.get_quote(b"\x00" * 64), mrtd=b"\xff" * 48)
        pck = pcs.get_pck_certificate(quote.platform_id, quote.tee_tcb_svn)
        with pytest.raises(TdxError, match="signature"):
            verify_td_quote(quote, pck, pcs.cert_chain(), [pcs.root_certificate], 0)

    def test_wrong_platform_pck_rejected(self, intel, pcs, td):
        other = intel.provision_platform("tdx-host-2")
        quote = td.get_quote(b"\x00" * 64)
        wrong_pck = pcs.get_pck_certificate(other.platform_id, other.tcb_svn)
        with pytest.raises(TdxError, match="different platform"):
            verify_td_quote(
                quote, wrong_pck, pcs.cert_chain(), [pcs.root_certificate], 0
            )

    def test_foreign_intel_rejected(self, td, pcs):
        fake = IntelInfrastructure(HmacDrbg(b"fake-intel"))
        fake_pcs = ProvisioningCertificationService(fake)
        fake_platform = fake.provision_platform("fake-host")
        fake_td = fake_platform.launch_td(b"revelio-td-image")
        quote = fake_td.get_quote(b"\x00" * 64)
        pck = fake_pcs.get_pck_certificate(quote.platform_id, quote.tee_tcb_svn)
        with pytest.raises(TdxError, match="chain"):
            verify_td_quote(
                quote, pck, fake_pcs.cert_chain(),
                [pcs.root_certificate],  # genuine Intel anchor
                now=0,
            )

    def test_unknown_platform(self, intel):
        with pytest.raises(TdxError):
            intel.pck_public_key(b"\x00" * 32, 1)


def _verify(verifier, evidence, goldens, report_data=None):
    return verifier.verify(
        evidence,
        now=0,
        policy=VerificationPolicy(
            golden_measurements=goldens, expected_report_data=report_data
        ),
    )


class TestTeeAbstraction:
    @pytest.fixture(scope="class")
    def verifier(self, pcs):
        amd = AmdKeyInfrastructure(HmacDrbg(b"tee-amd"))
        kds = KeyDistributionServer(amd)
        self_chip = amd.provision_chip("tee-chip")
        kds_client = KdsClient(kds, SimClock(), ZERO_LATENCY)
        verifier = AttestationVerifier(
            kds_client, site="tee", contexts={TeeFamily.TDX: TdxTrust(pcs)}
        )
        return verifier, self_chip

    def test_verify_snp_evidence(self, verifier):
        tee_verifier, chip = verifier
        guest = chip.launch_vm(b"fw", REVELIO_POLICY)
        evidence = snp_evidence(guest.get_report(b"\x33" * 64))
        outcome = _verify(
            tee_verifier, evidence, [guest.measurement], b"\x33" * 64
        )
        assert outcome.ok and outcome.family == TeeFamily.SEV_SNP
        assert outcome.report.measurement == guest.measurement

    def test_verify_tdx_evidence(self, verifier, td):
        tee_verifier, _ = verifier
        evidence = tdx_evidence(td.get_quote(b"\x44" * 64))
        outcome = _verify(tee_verifier, evidence, [td.mrtd])
        assert outcome.ok and outcome.family == TeeFamily.TDX
        assert outcome.report.mrtd == td.mrtd

    def test_envelope_round_trip(self, td):
        evidence = tdx_evidence(td.get_quote(b"\x00" * 64))
        assert Evidence.decode(evidence.encode()) == evidence

    def test_wrong_golden_rejected_uniformly(self, verifier, td):
        tee_verifier, chip = verifier
        guest = chip.launch_vm(b"fw", REVELIO_POLICY)
        for evidence in (
            snp_evidence(guest.get_report(b"\x00" * 64)),
            tdx_evidence(td.get_quote(b"\x00" * 64)),
        ):
            outcome = _verify(tee_verifier, evidence, [b"\x99" * 48])
            assert outcome.reason == "measurement_mismatch"
            assert "golden" in outcome.detail

    def test_unknown_kind_rejected(self, verifier):
        tee_verifier, _ = verifier
        realm = (
            ArmInfrastructure(HmacDrbg(b"tee-arm"))
            .provision_platform("tee-cca")
            .launch_realm(b"fw")
        )
        outcome = _verify(
            tee_verifier, cca_evidence(realm.attest(b"\x00" * 64)), []
        )
        assert outcome.reason == "no_trust_context"

    def test_cross_technology_report_data_check(self, verifier, td):
        tee_verifier, _ = verifier
        evidence = tdx_evidence(td.get_quote(b"\x55" * 64))
        outcome = _verify(tee_verifier, evidence, [td.mrtd], b"\x66" * 64)
        assert outcome.reason == "report_data_mismatch"
        assert "REPORT_DATA" in outcome.detail

    def test_malformed_envelope(self):
        with pytest.raises(EvidenceError):
            Evidence.decode(b"junk")

    @pytest.mark.parametrize("body", [7, [1, 2], "text", None])
    def test_envelope_body_must_be_bytes(self, body):
        wire = encoding.encode({"family": "sev-snp", "body": body})
        with pytest.raises(EvidenceError, match="must be bytes"):
            Evidence.decode(wire)
