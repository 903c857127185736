"""Failure-injection matrix: every stable reason code, end to end.

Each case injects one fault and drives it through the unified pipeline,
asserting the outcome carries the expected stable reason code; a second
set asserts the migrated call sites (key sharing, RA-TLS, evidence
dispatch) surface the *same* code.
"""

from dataclasses import replace

import pytest

from repro.amd.kds import KeyDistributionServer
from repro.amd.policy import REVELIO_POLICY, GuestPolicy
from repro.amd.secure_processor import AmdKeyInfrastructure
from repro.amd.tcb import TcbVersion
from repro.amd.verify import AttestationError
from repro.attest import (
    AttestationTracer,
    AttestationVerifier,
    VerificationPolicy,
    snp_evidence,
)
from repro.core.kds_client import KdsClient
from repro.crypto.drbg import HmacDrbg
from repro.net.latency import ZERO_LATENCY, SimClock

NOW = 1_000_000
REPORT_DATA = b"\x42" * 64


class SubstituteVcekKds:
    """A KDS client that serves a substituted VCEK (fault injection)."""

    def __init__(self, inner, vcek):
        self._inner = inner
        self._vcek = vcek

    def get_vcek(self, chip_id, tcb):
        return self._vcek

    def cert_chain(self):
        return self._inner.cert_chain()

    @property
    def trust_anchor(self):
        return self._inner.trust_anchor

    @property
    def clock(self):
        return self._inner.clock

    @property
    def fetches(self):
        return self._inner.fetches

    @property
    def cache_hits(self):
        return self._inner.cache_hits


@pytest.fixture(scope="module")
def world():
    amd = AmdKeyInfrastructure(HmacDrbg(b"attest-matrix"))
    kds_server = KeyDistributionServer(amd)
    chip = amd.provision_chip("fm-chip")
    other_chip = amd.provision_chip("fm-chip-2")
    guest = chip.launch_vm(b"revelio-fw", REVELIO_POLICY)
    client = KdsClient(kds_server, SimClock(), ZERO_LATENCY)
    return {
        "amd": amd,
        "kds_server": kds_server,
        "chip": chip,
        "other_chip": other_chip,
        "guest": guest,
        "client": client,
    }


def base_policy(world, **overrides):
    kwargs = dict(
        golden_measurements=(world["guest"].measurement,),
        expected_report_data=REPORT_DATA,
        allowed_chip_ids=(world["chip"].chip_id,),
        minimum_tcb=TcbVersion(1, 0, 0, 0),
    )
    kwargs.update(overrides)
    return VerificationPolicy(**kwargs)


def inject_measurement_revoked(world):
    report = world["guest"].get_report(REPORT_DATA)
    policy = base_policy(
        world, revoked_measurements=(bytes(world["guest"].measurement),)
    )
    return world["client"], report, policy


def inject_unknown_platform(world):
    foreign_amd = AmdKeyInfrastructure(HmacDrbg(b"foreign"))
    foreign_chip = foreign_amd.provision_chip("foreign-chip")
    foreign_guest = foreign_chip.launch_vm(b"revelio-fw", REVELIO_POLICY)
    report = foreign_guest.get_report(REPORT_DATA)
    return world["client"], report, base_policy(world)


def inject_bad_cert_chain(world):
    fake = KeyDistributionServer(AmdKeyInfrastructure(HmacDrbg(b"fake-root")))
    report = world["guest"].get_report(REPORT_DATA)
    policy = base_policy(world, trust_anchors=(fake.ark_certificate,))
    return world["client"], report, policy


def inject_chip_id_mismatch(world):
    report = world["guest"].get_report(REPORT_DATA)
    wrong_vcek = world["kds_server"].get_vcek_certificate(
        world["other_chip"].chip_id, report.reported_tcb
    )
    return SubstituteVcekKds(world["client"], wrong_vcek), report, base_policy(world)


def inject_tcb_mismatch(world):
    report = world["guest"].get_report(REPORT_DATA)
    wrong_vcek = world["kds_server"].get_vcek_certificate(
        world["chip"].chip_id, TcbVersion(9, 9, 9, 200)
    )
    return SubstituteVcekKds(world["client"], wrong_vcek), report, base_policy(world)


def inject_bad_signature(world):
    report = replace(
        world["guest"].get_report(REPORT_DATA), measurement=b"\xee" * 48
    )
    return world["client"], report, base_policy(world)


def inject_debug_policy(world):
    debug_guest = world["chip"].launch_vm(
        b"revelio-fw", GuestPolicy(debug_allowed=True)
    )
    report = debug_guest.get_report(REPORT_DATA)
    return world["client"], report, base_policy(world)


def inject_measurement_mismatch(world):
    report = world["guest"].get_report(REPORT_DATA)
    policy = base_policy(world, golden_measurements=(b"\xff" * 48,))
    return world["client"], report, policy


def inject_report_data_mismatch(world):
    report = world["guest"].get_report(REPORT_DATA)
    policy = base_policy(world, expected_report_data=b"\xff" * 64)
    return world["client"], report, policy


def inject_chip_id_not_allowed(world):
    report = world["guest"].get_report(REPORT_DATA)
    policy = base_policy(world, allowed_chip_ids=(b"\xaa" * 64,))
    return world["client"], report, policy


def inject_tcb_too_old(world):
    report = world["guest"].get_report(REPORT_DATA)
    policy = base_policy(world, minimum_tcb=TcbVersion(255, 255, 255, 255))
    return world["client"], report, policy


INJECTORS = {
    "measurement_revoked": inject_measurement_revoked,
    "unknown_platform": inject_unknown_platform,
    "bad_cert_chain": inject_bad_cert_chain,
    "chip_id_mismatch": inject_chip_id_mismatch,
    "tcb_mismatch": inject_tcb_mismatch,
    "bad_signature": inject_bad_signature,
    "debug_policy": inject_debug_policy,
    "measurement_mismatch": inject_measurement_mismatch,
    "report_data_mismatch": inject_report_data_mismatch,
    "chip_id_not_allowed": inject_chip_id_not_allowed,
    "tcb_too_old": inject_tcb_too_old,
}


@pytest.mark.parametrize("code", sorted(INJECTORS))
def test_reason_code_through_pipeline(world, code):
    kds, report, policy = INJECTORS[code](world)
    tracer = AttestationTracer()
    verifier = AttestationVerifier(kds, tracer=tracer, site=f"matrix:{code}")

    evidence = snp_evidence(report)
    outcome = verifier.verify(evidence, now=NOW, policy=policy)
    assert not outcome.ok
    assert outcome.reason == code
    failing = outcome.steps[-1]
    assert not failing.passed and failing.reason == code
    # Everything before the failing step passed.
    assert all(step.passed for step in outcome.steps[:-1])
    # The tracer counted the failure under the same code.
    assert tracer.counters.verifications_by_verdict["fail"] == 1
    assert tracer.counters.failures_by_reason == {code: 1}
    assert tracer.ring.events[-1].reason == code

    # Raising surfaces the identical stable code.
    with pytest.raises(AttestationError) as excinfo:
        outcome.raise_for_failure()
    assert excinfo.value.reason == code


class TestCallSiteParity:
    """Migrated call sites surface the pipeline's stable codes."""

    def test_key_sharing_bundle(self, world):
        from repro.core.key_sharing import (
            BUNDLE_KIND_PUBLIC_KEY,
            ReportBundle,
            report_data_for,
            verify_report_bundle,
        )
        from repro.crypto.keys import PrivateKey

        key = PrivateKey.generate_ecdsa(HmacDrbg(b"parity-key"))
        payload = key.public_key().encode()
        report = world["guest"].get_report(
            report_data_for(key.public_key().fingerprint())
        )
        bundle = ReportBundle(BUNDLE_KIND_PUBLIC_KEY, report, payload)
        with pytest.raises(AttestationError) as excinfo:
            verify_report_bundle(
                bundle, world["client"], NOW,
                expected_measurements=[b"\xff" * 48],
            )
        assert excinfo.value.reason == "measurement_mismatch"

        # Payload swap breaks the REPORT_DATA binding.
        other = PrivateKey.generate_ecdsa(HmacDrbg(b"other-key"))
        swapped = replace(bundle, payload=other.public_key().encode())
        with pytest.raises(AttestationError) as excinfo:
            verify_report_bundle(
                swapped, world["client"], NOW,
                expected_measurements=[world["guest"].measurement],
            )
        assert excinfo.value.reason == "report_data_mismatch"

    def test_ra_tls(self, world):
        from repro.core.ra_tls import (
            REPORT_EXTENSION,
            RaTlsError,
            issue_ra_tls_certificate,
            validate_ra_tls_certificate,
        )
        from repro.crypto.keys import PrivateKey
        from repro.crypto.x509 import Certificate, Name

        key = PrivateKey.generate_ecdsa(HmacDrbg(b"ra-tls-key"))
        certificate = issue_ra_tls_certificate(
            world["guest"], key, subject_name="parity.ra-tls"
        )
        with pytest.raises(RaTlsError, match="golden") as excinfo:
            validate_ra_tls_certificate(
                certificate, world["client"], NOW,
                expected_measurements=[b"\xff" * 48],
            )
        assert excinfo.value.reason == "measurement_mismatch"

        # A report stolen into a certificate for a different key breaks
        # the REPORT_DATA binding.
        attacker = PrivateKey.generate_ecdsa(HmacDrbg(b"attacker"))
        unsigned = Certificate(
            subject=Name("attacker"), issuer=Name("attacker"),
            public_key=attacker.public_key(), serial=1,
            not_before=0, not_after=2**61,
            extensions=(
                (REPORT_EXTENSION, certificate.extension(REPORT_EXTENSION)),
            ),
        )
        forged = replace(
            unsigned, signature=attacker.sign(unsigned.tbs_bytes())
        )
        with pytest.raises(RaTlsError, match="does not endorse") as excinfo:
            validate_ra_tls_certificate(
                forged, world["client"], NOW,
                expected_measurements=[world["guest"].measurement],
            )
        assert excinfo.value.reason == "report_data_mismatch"

    def test_tee_dispatch(self, world):
        verifier = AttestationVerifier(world["client"], site="dispatch")
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        outcome = verifier.verify(
            evidence, NOW,
            policy=VerificationPolicy(golden_measurements=[b"\xff" * 48]),
        )
        with pytest.raises(AttestationError) as excinfo:
            outcome.raise_for_failure()
        assert excinfo.value.reason == "measurement_mismatch"

    def test_tcb_too_old_shared_code(self, world):
        from repro.core.key_sharing import (
            BUNDLE_KIND_PUBLIC_KEY,
            ReportBundle,
            report_data_for,
            verify_report_bundle,
        )
        from repro.crypto.keys import PrivateKey

        key = PrivateKey.generate_ecdsa(HmacDrbg(b"tcb-key"))
        report = world["guest"].get_report(
            report_data_for(key.public_key().fingerprint())
        )
        bundle = ReportBundle(
            BUNDLE_KIND_PUBLIC_KEY, report, key.public_key().encode()
        )
        with pytest.raises(AttestationError) as excinfo:
            verify_report_bundle(
                bundle, world["client"], NOW,
                expected_measurements=[world["guest"].measurement],
                minimum_tcb=TcbVersion(255, 255, 255, 255),
            )
        assert excinfo.value.reason == "tcb_too_old"
