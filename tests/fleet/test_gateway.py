"""Gateway admission, round-robin routing, affinity, and counters."""

import pytest

from repro.core import WELL_KNOWN_ATTESTATION_PATH
from repro.core.deployment import MINIMAL_PAGE
from repro.crypto import encoding
from repro.crypto.keys import PrivateKey
from repro.fleet import FleetGateway, GatewayError
from repro.fleet.gateway import BackendState
from repro.net.http import HTTPS_PORT, HttpResponse, HttpServer
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


class TestUntrustedEnvelope:
    """Cleartext routing fields come from the client: a payload the
    gateway cannot route is refused ``malformed_request``, never a
    crash inside ``_handle``."""

    def _send(self, deployment, gateway, payload):
        attacker = deployment.network.add_host("envelope-abuser", "10.66.2.1")
        before = gateway.counters.get("requests_malformed", 0)
        with pytest.raises(GatewayError) as caught:
            attacker.request(gateway.host.ip_address, HTTPS_PORT, payload)
        return caught.value, gateway.counters.get("requests_malformed", 0) - before

    def test_deeply_nested_payload_is_malformed_request(self, sync_world):
        deployment, gateway, _ = sync_world
        payload = b""
        for _ in range(600):  # 600 nested lists: 3,000 bytes
            payload = (
                bytes([encoding.TAG_LIST]) + len(payload).to_bytes(4, "big")
                + payload
            )
        error, malformed = self._send(deployment, gateway, payload)
        assert error.reason == "malformed_request"
        assert malformed == 1

    @pytest.mark.parametrize(
        "message",
        [
            {"type": "record", "session_id": [1, 2]},
            {"type": "record", "session_id": "not-bytes"},
            {"type": "client_hello", "tier": ["high"]},
            {"type": "client_hello", "tier": 7},
        ],
    )
    def test_wrongly_typed_routing_field_is_malformed_request(
        self, sync_world, message
    ):
        deployment, gateway, _ = sync_world
        error, malformed = self._send(
            deployment, gateway, encoding.encode(message)
        )
        assert error.reason == "malformed_request"
        assert malformed == 1

    @pytest.mark.parametrize(
        "message",
        [
            {"type": "client_hello"},
            {"type": "record", "session_id": "live"},
            {"type": "record", "session_id": "live", "data": bytes(64)},
        ],
        ids=["hello-without-fields", "record-without-data", "forged-record"],
    )
    def test_backend_tls_refusal_is_malformed_request_and_evicts_nobody(
        self, sync_world, message
    ):
        deployment, gateway, _ = sync_world
        victim = fresh_browser(deployment, "victim", "10.2.9.9")
        victim.navigate(f"https://{deployment.domain}/")
        ((session_id, backend_ip),) = gateway._affinity.items()
        if message.get("session_id") == "live":
            message = dict(message, session_id=session_id)
        opened = gateway.counters["sessions_opened"]

        error, malformed = self._send(deployment, gateway, encoding.encode(message))
        assert error.reason == "malformed_request"
        assert malformed == 1
        assert all(b.state == "admitted" for b in gateway.backends.values())
        assert gateway.counters.get("evictions.backend_unreachable", 0) == 0
        assert gateway._affinity == {session_id: backend_ip}

        # The refused record advanced no sequence number: the victim's
        # next request rides the same session, without a new handshake.
        result = victim.navigate(f"https://{deployment.domain}/")
        assert result.response.body == MINIMAL_PAGE
        assert not result.blocked
        assert gateway.counters["sessions_opened"] == opened
        assert gateway._affinity == {session_id: backend_ip}

    @pytest.mark.parametrize(
        "reply",
        [b"\xff\xff", encoding.encode({"session_id": [1]})],
        ids=["undecodable", "session-id-not-bytes"],
    )
    def test_unreadable_hello_reply_evicts_the_backend(self, fleet_build, reply):
        """No honest backend answers a hello like this, so the backend
        is evicted as unreachable and the next candidate is tried; with
        none left the hello fails ``no_healthy_backend``."""
        deployment, gateway, _ = make_world(fleet_build, num_nodes=2)
        for deployed in deployment.nodes:
            deployed.host.listen(HTTPS_PORT, lambda payload, context: reply)
        client = deployment.network.add_host("hello-sender", "10.66.2.2")
        with pytest.raises(GatewayError) as caught:
            client.request(
                gateway.host.ip_address, HTTPS_PORT,
                encoding.encode({"type": "client_hello"}),
            )
        assert caught.value.reason == "no_healthy_backend"
        assert {b.state for b in gateway.backends.values()} == {"evicted"}
        assert gateway.counters["evictions.backend_unreachable"] == 2
        assert gateway.counters["retries"] == 2
        assert gateway._affinity == {}

    def test_absent_routing_fields_keep_their_defaults(self, sync_world):
        deployment, gateway, _ = sync_world
        error, malformed = self._send(
            deployment, gateway, encoding.encode({"type": "record"})
        )
        assert error.reason == "session_severed"
        assert malformed == 0
        assert gateway._session_tier({"type": "client_hello"}) == "bulk"
        assert gateway._session_tier({"tier": None}) == "bulk"


class TestBackendSet:
    def _browse(self, deployment, sessions, first):
        for index in range(first, first + sessions):
            browser = fresh_browser(
                deployment, f"set-{index}", f"10.2.7.{index + 1}"
            )
            result = browser.navigate(f"https://{deployment.domain}/")
            assert result.response.body == MINIMAL_PAGE

    def test_removed_backend_gets_no_new_session(self, sync_world):
        deployment, gateway, _ = sync_world
        removed_ip = sorted(gateway.backends)[0]
        removed = gateway.remove_backend(removed_ip)
        assert removed.state == "admitted"
        assert removed_ip not in gateway.backends
        assert gateway.remove_backend(removed_ip) is None
        self._browse(deployment, 4, first=0)
        assert removed.requests_forwarded == 0
        assert removed_ip not in gateway._affinity.values()

        # Re-registered, the same IP stays pending until it is admitted.
        readded = gateway.add_backend(removed_ip)
        assert readded.state == "pending"
        self._browse(deployment, 4, first=4)
        assert readded.requests_forwarded == 0
        assert gateway.attest_and_admit(removed_ip).ok
        assert readded.state == "admitted"
        self._browse(deployment, 3, first=8)
        assert readded.requests_forwarded > 0

    def test_backends_view_is_read_only(self, sync_world):
        _, gateway, _ = sync_world
        ip = sorted(gateway.backends)[0]
        with pytest.raises(TypeError):
            gateway.backends[ip] = BackendState(ip)
        with pytest.raises(AttributeError):
            gateway.backends.pop(ip)
        assert ip in gateway.backends
