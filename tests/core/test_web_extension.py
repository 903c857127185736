"""Web extension unit tests (registration, discovery, verdicts)."""

import pytest

from repro.attest import amd_tcb_floors
from repro.build import build_revelio_image
from repro.core import RevelioDeployment
from repro.core.trusted_registry import StaticRegistry
from repro.core.web_extension import RevelioExtension
from repro.net.latency import ZERO_LATENCY
from tests.conftest import make_spec


@pytest.fixture(scope="module")
def deployment(registry_and_pins):
    registry, pins = registry_and_pins
    build = build_revelio_image(make_spec(registry, pins))
    return RevelioDeployment(
        build, num_nodes=1, latency=ZERO_LATENCY, seed=b"ext-tests"
    ).deploy()


class TestRegistration:
    def test_register_accumulates_measurements(self, deployment):
        extension = RevelioExtension(deployment._new_kds_client())
        extension.register_site("a.example", [b"\x01" * 48])
        extension.register_site("a.example", [b"\x02" * 48])
        registration = extension._sites["a.example"]
        assert registration.measurements == {
            "sev-snp": {b"\x01" * 48, b"\x02" * 48}
        }

    def test_registration_case_insensitive(self, deployment):
        extension = RevelioExtension(deployment._new_kds_client())
        extension.register_site("A.Example", [b"\x01" * 48])
        assert extension.is_registered("a.example")

    def test_unregistered_site_not_intercepted(self, deployment):
        browser, extension = deployment.make_user(
            "ext-u1", "10.3.0.1", register_service=False
        )
        extension.opportunistic_discovery = False
        result = browser.navigate(f"https://{deployment.domain}/")
        assert not result.blocked
        assert extension.events == []
        assert extension.pinned_key_fingerprint(deployment.domain) is None

    def test_no_golden_value_blocks(self, deployment):
        browser, extension = deployment.make_user(
            "ext-u2", "10.3.0.2", register_service=False
        )
        extension.register_site(deployment.domain)  # registered, no golden
        result = browser.navigate(f"https://{deployment.domain}/")
        assert result.blocked
        assert "golden" in result.block_reason


class TestDiscovery:
    def test_probe_only_once_per_session(self, deployment):
        browser, extension = deployment.make_user(
            "ext-u3", "10.3.0.3", register_service=False
        )
        browser.navigate(f"https://{deployment.domain}/")
        browser.navigate(f"https://{deployment.domain}/")
        discovered = [e for e in extension.events if e.kind == "discovered"]
        assert len(discovered) == 1

    def test_non_revelio_site_not_discovered(self, deployment):
        from repro.crypto.drbg import HmacDrbg
        from repro.crypto.keys import PrivateKey
        from repro.net.http import HttpResponse, HttpServer

        rng = HmacDrbg(b"plain-site")
        key = PrivateKey.generate_ecdsa(rng)
        cert = deployment.web_pki.intermediate.issue(
            __import__("repro.crypto.x509", fromlist=["Name"]).Name("plain.example"),
            key.public_key(), 0, 2**61, san=("plain.example",),
        )
        host = deployment.network.add_host("plain-site", "10.3.9.1")
        server = HttpServer("plain")
        server.add_route("GET", "/", lambda r, c: HttpResponse.ok(b"no revelio"))
        server.serve_tls(host, [cert, deployment.web_pki.intermediate.certificate],
                         key, rng.fork(b"tls"))
        deployment.network.dns.register("plain.example", "10.3.9.1")

        browser, extension = deployment.make_user(
            "ext-u4", "10.3.0.4", register_service=False
        )
        result = browser.navigate("https://plain.example/")
        assert not result.blocked
        assert not any(e.kind == "discovered" for e in extension.events)

    def test_discovery_can_be_disabled(self, deployment):
        browser, extension = deployment.make_user(
            "ext-u5", "10.3.0.5", register_service=False
        )
        extension.opportunistic_discovery = False
        browser.navigate(f"https://{deployment.domain}/")
        assert extension.events == []


class TestRegistryIntegration:
    def test_registry_supplies_golden(self, deployment):
        registry = StaticRegistry(
            golden={deployment.domain: [deployment.build.expected_measurement]}
        )
        browser, extension = deployment.make_user(
            "ext-u6", "10.3.0.6", register_service=False,
            trusted_registry=registry,
        )
        extension.register_site(deployment.domain, use_registry=True)
        result = browser.navigate(f"https://{deployment.domain}/")
        assert not result.blocked

    def test_manual_and_registry_combine(self, deployment):
        registry = StaticRegistry(golden={deployment.domain: [b"\x09" * 48]})
        browser, extension = deployment.make_user(
            "ext-u7", "10.3.0.7", register_service=False,
            trusted_registry=registry,
        )
        extension.register_site(
            deployment.domain,
            [deployment.build.expected_measurement],
            use_registry=True,
        )
        assert not browser.navigate(f"https://{deployment.domain}/").blocked

    def test_registry_revocation_beats_manual_golden(self, deployment):
        registry = StaticRegistry(
            revoked={deployment.domain: [deployment.build.expected_measurement]}
        )
        browser, extension = deployment.make_user(
            "ext-u8", "10.3.0.8", register_service=False,
            trusted_registry=registry,
        )
        extension.register_site(
            deployment.domain,
            [deployment.build.expected_measurement],
            use_registry=True,
        )
        result = browser.navigate(f"https://{deployment.domain}/")
        assert result.blocked


class TestEventLog:
    def test_validated_event_recorded(self, deployment):
        browser, extension = deployment.make_user("ext-u9", "10.3.0.9")
        browser.navigate(f"https://{deployment.domain}/")
        kinds = [e.kind for e in extension.events]
        assert kinds == ["validated"]

    def test_violation_then_block_events(self, deployment):
        browser, extension = deployment.make_user(
            "ext-u10", "10.3.0.10", register_service=False
        )
        extension.register_site(deployment.domain, [b"\xff" * 48])
        browser.navigate(f"https://{deployment.domain}/")
        kinds = [e.kind for e in extension.events]
        assert kinds == ["violation", "blocked"]

    def test_override_records_warning_path(self, deployment):
        browser, extension = deployment.make_user(
            "ext-u11", "10.3.0.11", register_service=False,
            user_override=lambda domain, reason: True,
        )
        extension.register_site(deployment.domain, [b"\xff" * 48])
        result = browser.navigate(f"https://{deployment.domain}/")
        assert not result.blocked
        assert result.warnings
        kinds = [e.kind for e in extension.events]
        assert "violation" in kinds and "blocked" not in kinds


class TestTcbFloor:
    """minimum_tcb threading: extension-wide and per-registration."""

    def test_registration_floor_satisfied(self, deployment):
        from repro.amd.tcb import TcbVersion

        browser, extension = deployment.make_user("ext-t1", "10.3.2.1")
        extension.register_site(
            deployment.domain, minimum_tcb=TcbVersion(1, 0, 0, 0)
        )
        assert not browser.navigate(f"https://{deployment.domain}/").blocked

    def test_registration_floor_blocks_old_tcb(self, deployment):
        from repro.amd.tcb import TcbVersion

        browser, extension = deployment.make_user("ext-t2", "10.3.2.2")
        extension.register_site(
            deployment.domain, minimum_tcb=TcbVersion(255, 255, 255, 255)
        )
        verdict = extension.before_request(
            browser, deployment.domain, f"https://{deployment.domain}/"
        )
        assert verdict.blocked
        assert verdict.reason_code == "tcb_too_old"
        assert "tcb_too_old" in verdict.reason

    def test_extension_wide_floor(self, deployment):
        from repro.amd.tcb import TcbVersion

        browser, extension = deployment.make_user("ext-t3", "10.3.2.3")
        extension.tcb_floors = amd_tcb_floors(TcbVersion(255, 255, 255, 255))
        verdict = extension.before_request(
            browser, deployment.domain, f"https://{deployment.domain}/"
        )
        assert verdict.blocked and verdict.reason_code == "tcb_too_old"

    def test_per_site_floor_overrides_extension_floor(self, deployment):
        from repro.amd.tcb import TcbVersion

        browser, extension = deployment.make_user("ext-t4", "10.3.2.4")
        extension.tcb_floors = amd_tcb_floors(TcbVersion(255, 255, 255, 255))
        extension.register_site(
            deployment.domain, minimum_tcb=TcbVersion(1, 0, 0, 0)
        )
        assert not browser.navigate(f"https://{deployment.domain}/").blocked

    def test_non_bytes_evidence_body_is_malformed_report(self, deployment):
        from repro.core import WELL_KNOWN_ATTESTATION_PATH
        from repro.crypto import encoding
        from repro.crypto.drbg import HmacDrbg
        from repro.crypto.keys import PrivateKey
        from repro.crypto.x509 import Name
        from repro.net.http import HttpResponse, HttpServer

        rng = HmacDrbg(b"int-body-site")
        key = PrivateKey.generate_ecdsa(rng)
        cert = deployment.web_pki.intermediate.issue(
            Name("int-body.example"), key.public_key(), 0, 2**61,
            san=("int-body.example",),
        )
        payload = encoding.encode({"family": "sev-snp", "body": 7})
        host = deployment.network.add_host("int-body-site", "10.3.9.7")
        server = HttpServer("int-body")
        server.add_route(
            "GET", WELL_KNOWN_ATTESTATION_PATH,
            lambda r, c: HttpResponse.ok(payload),
        )
        server.serve_tls(host, [cert, deployment.web_pki.intermediate.certificate],
                         key, rng.fork(b"tls"))
        deployment.network.dns.register("int-body.example", "10.3.9.7")

        browser, extension = deployment.make_user(
            "ext-t7", "10.3.2.7", register_service=False
        )
        extension.register_site("int-body.example", [b"\xff" * 48])
        verdict = extension.before_request(
            browser, "int-body.example", "https://int-body.example/"
        )
        assert verdict.blocked
        assert verdict.reason_code == "malformed_report"

    def test_measurement_violation_carries_stable_code(self, deployment):
        browser, extension = deployment.make_user(
            "ext-t5", "10.3.2.5", register_service=False
        )
        extension.register_site(deployment.domain, [b"\xff" * 48])
        verdict = extension.before_request(
            browser, deployment.domain, f"https://{deployment.domain}/"
        )
        assert verdict.blocked
        assert verdict.reason_code == "measurement_mismatch"


class TestFamilyGoldens:
    def test_snp_report_blocked_by_non_snp_goldens_only(self, deployment):
        """Goldens registered for other families only: the SNP evidence
        is checked against an empty SNP set and fails closed."""
        browser, extension = deployment.make_user(
            "ext-f1", "10.3.4.1", register_service=False
        )
        extension.register_site(
            deployment.domain,
            family_measurements={
                "tdx": [bytes(deployment.build.expected_measurement)]
            },
        )
        verdict = extension.before_request(
            browser, deployment.domain, f"https://{deployment.domain}/"
        )
        assert verdict.blocked
        assert verdict.reason_code == "measurement_mismatch"
