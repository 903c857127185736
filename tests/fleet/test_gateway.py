"""Gateway admission, routing policies, affinity, and counters."""

import pytest

from repro.core import WELL_KNOWN_ATTESTATION_PATH
from repro.core.deployment import MINIMAL_PAGE
from repro.crypto import encoding
from repro.crypto.keys import PrivateKey
from repro.fleet import FleetGateway, GatewayError
from repro.fleet.gateway import BackendState
from repro.net.http import HttpResponse, HttpServer
from tests.fleet.conftest import make_world


def fresh_browser(deployment, name, ip):
    browser, _ = deployment.make_user(name=name, ip_address=ip)
    return browser


class TestAdmission:
    def test_admit_all_admits_the_whole_fleet(self, sync_world):
        deployment, gateway, _ = sync_world
        assert len(gateway.backends) == 3
        for backend in gateway.backends.values():
            assert backend.state == "admitted"
            assert backend.verdict_ok
        assert gateway.counters["attestations_ok"] == 3

    def test_backend_with_unknown_measurement_is_rejected(self, fleet_build):
        deployment, gateway, _ = make_world(fleet_build, num_nodes=2)
        # A gateway that expects a different golden refuses everyone.
        strict = FleetGateway(
            network=deployment.network,
            ip_address="10.9.0.2",
            domain=deployment.domain,
            kds=deployment._new_kds_client(),
            trust_anchors=[deployment.web_pki.trust_anchor],
            golden_measurements={"sev-snp": [b"\x00" * 48]},
            rng=deployment.rng.fork(b"strict-gw"),
            name="strict-gateway",
        )
        for deployed in deployment.nodes:
            strict.add_backend(deployed.host.ip_address)
        verdicts = strict.admit_all()
        assert all(not v.ok for v in verdicts)
        assert {v.reason for v in verdicts} == {"measurement_mismatch"}
        assert all(b.state == "rejected" for b in strict.backends.values())
        with pytest.raises(GatewayError, match="no_healthy_backend"):
            strict._route_new_session(b"")

    def test_non_bytes_evidence_body_is_malformed_report(self, sync_world):
        """An envelope whose body is an integer n is refused as
        malformed, not zero-filled to n bytes and refused later."""
        deployment, gateway, _ = sync_world
        leader = deployment.nodes[0].node
        payload = encoding.encode({"family": "sev-snp", "body": 7})
        host = deployment.network.add_host("rogue-int-body", "10.66.1.7")
        server = HttpServer("rogue-int-body")
        server.add_route(
            "GET", WELL_KNOWN_ATTESTATION_PATH,
            lambda request, context: HttpResponse.ok(payload),
        )
        server.serve_tls(
            host, leader.certificate_chain,
            PrivateKey("ecdsa", leader.tls_private_key),
            deployment.rng.fork(b"rogue-int-body"),
        )
        gateway.add_backend("10.66.1.7")
        verdict = gateway.attest_and_admit("10.66.1.7")
        assert not verdict.ok
        assert verdict.reason == "malformed_report"
        assert "must be bytes" in verdict.detail

    def test_unknown_backend_raises(self, sync_world):
        _, gateway, _ = sync_world
        with pytest.raises(GatewayError, match="unknown_backend"):
            gateway.attest_and_admit("10.0.0.99")

    def test_unknown_balancer_refused(self, sync_world):
        deployment, _, _ = sync_world
        with pytest.raises(ValueError, match="unknown balancer"):
            FleetGateway.for_deployment(
                deployment, ip_address="10.9.0.3", balancer="random",
                register_dns=False,
            )


class TestVerdictFreshness:
    def test_stale_verdict_stops_new_sessions(self, fleet_build):
        deployment, gateway, _ = make_world(fleet_build, verdict_ttl=10.0)
        browser = fresh_browser(deployment, "alice", "10.2.9.1")
        assert browser.navigate(f"https://{deployment.domain}/").response.body == MINIMAL_PAGE

        deployment.network.clock.advance(11.0)  # every verdict now stale
        browser.new_session()
        # The extension's attested fetch finds no admittable backend and
        # blocks the page (report_unavailable).
        result = browser.navigate(f"https://{deployment.domain}/")
        assert result.blocked
        assert gateway.counters["routing_failed.no_healthy_backend"] >= 1

        # Re-attestation refreshes the verdicts and service resumes.
        for ip in sorted(gateway.backends):
            assert gateway.attest_and_admit(ip).ok
        browser.new_session()
        assert browser.navigate(f"https://{deployment.domain}/").response.body == MINIMAL_PAGE


class TestBalancers:
    def test_round_robin_spreads_sessions(self, sync_world):
        deployment, gateway, _ = sync_world
        for index in range(6):
            browser = fresh_browser(deployment, f"rr-{index}", f"10.2.8.{index + 1}")
            browser.navigate(f"https://{deployment.domain}/")
        counts = [b.requests_forwarded for b in gateway.backends.values()]
        # 6 first visits over 3 backends: an even 2-2-2 split of sessions
        # (each visit = handshake + well-known + page on one backend).
        assert all(count == counts[0] for count in counts)

    def test_least_outstanding_prefers_idle_backends(self):
        gateway = object.__new__(FleetGateway)  # policy logic only
        gateway.balancer = "least_outstanding"

        class FakeServer:
            def __init__(self, outstanding):
                self.outstanding = outstanding

        busy = BackendState("10.0.0.1", server=FakeServer(5))
        idle = BackendState("10.0.0.2", server=FakeServer(0))
        mid = BackendState("10.0.0.3", server=FakeServer(2))
        order = gateway._preference_order([busy, idle, mid])
        assert [b.ip_address for b in order] == ["10.0.0.2", "10.0.0.3", "10.0.0.1"]

    def test_weighted_latency_prefers_fast_then_unsampled(self):
        gateway = object.__new__(FleetGateway)
        gateway.balancer = "weighted_latency"
        fast = BackendState("10.0.0.1", ewma_latency=0.010)
        slow = BackendState("10.0.0.2", ewma_latency=0.200)
        unsampled = BackendState("10.0.0.3")
        order = gateway._preference_order([fast, slow, unsampled])
        assert [b.ip_address for b in order] == ["10.0.0.3", "10.0.0.1", "10.0.0.2"]


class TestAffinityAndSevering:
    def test_records_follow_their_session_backend(self, sync_world):
        deployment, gateway, _ = sync_world
        browser = fresh_browser(deployment, "bob", "10.2.9.2")
        browser.navigate(f"https://{deployment.domain}/")
        assert len(gateway._affinity) == 1
        (backend_ip,) = set(gateway._affinity.values())
        before = gateway.backends[backend_ip].requests_forwarded
        browser.navigate(f"https://{deployment.domain}/")  # cached revisit
        assert gateway.backends[backend_ip].requests_forwarded > before

    def test_eviction_severs_sessions_and_clients_rehandshake(self, sync_world):
        deployment, gateway, _ = sync_world
        browser = fresh_browser(deployment, "carol", "10.2.9.3")
        browser.navigate(f"https://{deployment.domain}/")
        (victim_ip,) = set(gateway._affinity.values())

        gateway.evict(victim_ip, "backend_unreachable", "test")
        assert gateway._affinity == {}
        assert gateway.counters["sessions_severed"] == 1

        # The revisit's first record bounces (session_severed), the
        # client transparently re-handshakes onto a healthy peer — the
        # shared fleet TLS key keeps its pin valid — and succeeds.
        result = browser.navigate(f"https://{deployment.domain}/")
        assert result.response.body == MINIMAL_PAGE
        assert not result.blocked
        assert gateway.counters["records_severed"] >= 1
        (new_ip,) = set(gateway._affinity.values())
        assert new_ip != victim_ip


class TestCounters:
    def test_snapshot_is_sorted_and_tracks_retirement_guard(self, sync_world):
        _, gateway, _ = sync_world
        snapshot = gateway.counters_snapshot()
        assert list(snapshot) == sorted(snapshot)
        for ip in gateway.backends:
            assert snapshot[f"backend.{ip}.requests_after_retired"] == 0

    def test_malformed_payload_is_rejected(self, sync_world):
        _, gateway, _ = sync_world
        with pytest.raises(GatewayError, match="malformed_request"):
            gateway._handle(b"\xffgarbage", None)
        assert gateway.counters["requests_malformed"] == 1
