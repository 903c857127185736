"""The gateway mesh: hash routing, verdict gossip, lite fleet (DESIGN.md
invariant 14).  Region-serial rollouts over the mesh are covered by
``test_provision``."""

import pytest

from repro.core import RevelioDeployment
from repro.crypto import ec, sigcache
from repro.fleet import (
    ConsistentHashRing,
    GatewayMesh,
    GossipedVerdict,
    LiteFleet,
    MeshWorkload,
)
from repro.sim import EventKernel, SimRng

REGIONS = ("east", "west")
LITE_FAMILIES = ("sev-snp", "tdx", "arm-cca", "e-vtpm")


def make_sync_mesh(build, num_nodes=4):
    """Kernel-less mesh (gossip applies synchronously) for unit tests."""
    deployment = RevelioDeployment(build, num_nodes=num_nodes).deploy()
    mesh = GatewayMesh.for_deployment(deployment, regions=REGIONS)
    verdicts = mesh.admit_all()
    assert all(v.ok for v in verdicts), [
        (v.ip_address, v.reason) for v in verdicts if not v.ok
    ]
    return deployment, mesh


def make_event_mesh(build, num_nodes=2, lite=4, seed=0):
    """Event-mode mesh with a mixed-family lite fleet attached."""
    deployment = RevelioDeployment(build, num_nodes=num_nodes).deploy()
    kernel = EventKernel(deployment.network.clock, SimRng(seed))
    deployment.network.enable_event_mode(kernel)
    deployment.latency.region_rtt[REGIONS] = 0.06
    mesh = GatewayMesh.for_deployment(deployment, kernel, regions=REGIONS)
    fleet = LiteFleet(deployment)
    for index in range(lite):
        fleet.add_backend(
            f"10.8.0.{index + 1}",
            LITE_FAMILIES[index % len(LITE_FAMILIES)],
            region=REGIONS[index % len(REGIONS)],
        )
    fleet.adopt_deployment_nodes()
    mesh.attach_lite_fleet(fleet)
    verdicts = mesh.admit_all()
    assert all(v.ok for v in verdicts), [
        (v.ip_address, v.reason) for v in verdicts if not v.ok
    ]
    kernel.run(until=kernel.clock.now + 1.0)  # let gossip land
    return deployment, mesh, fleet, kernel


def run_storm(mesh, kernel, sessions, arrival_rate=50.0, seed=1, rollout=None):
    workload = MeshWorkload(mesh, kernel, rng=SimRng(seed))
    storm = kernel.spawn(
        workload.open_loop(sessions, arrival_rate), name="storm"
    )
    rollout_process = None
    if rollout is not None:
        rollout_process = kernel.spawn(rollout, name="rollout")
    while not storm.finished or (
        rollout_process is not None and not rollout_process.finished
    ):
        kernel.run(until=kernel.clock.now + 10.0)
    kernel.run()
    if storm.error is not None:
        raise storm.error
    if rollout_process is not None and rollout_process.error is not None:
        raise rollout_process.error
    return workload, rollout_process


class TestConsistentHashRing:
    def test_lookup_deterministic_and_covers_all_nodes(self):
        ring = ConsistentHashRing()
        for node in ("a", "b", "c"):
            ring.add(node)
        keys = [b"key-%d" % index for index in range(500)]
        owners = [ring.node_for(key) for key in keys]
        assert owners == [ring.node_for(key) for key in keys]
        assert set(owners) == {"a", "b", "c"}

    def test_adding_a_node_moves_only_its_share(self):
        ring = ConsistentHashRing()
        for node in ("a", "b", "c"):
            ring.add(node)
        keys = [b"key-%d" % index for index in range(1000)]
        before = {key: ring.node_for(key) for key in keys}
        ring.add("d")
        moved = [key for key in keys if ring.node_for(key) != before[key]]
        # Every moved key lands on the new node, and only ~1/4 move.
        assert all(ring.node_for(key) == "d" for key in moved)
        assert 0 < len(moved) < 500

    def test_removing_a_node_restores_prior_owners(self):
        ring = ConsistentHashRing()
        for node in ("a", "b", "c"):
            ring.add(node)
        keys = [b"key-%d" % index for index in range(300)]
        before = {key: ring.node_for(key) for key in keys}
        ring.add("d")
        ring.remove("d")
        assert {key: ring.node_for(key) for key in keys} == before

    def test_empty_ring_raises(self):
        with pytest.raises(ValueError, match="empty"):
            ConsistentHashRing().node_for(b"key")

    def test_replicas_must_be_positive(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(replicas=0)


class TestVerdictGossip:
    def test_one_probe_per_backend_admits_fleet_wide(self, fleet_build):
        deployment, mesh = make_sync_mesh(fleet_build)
        backends = [d.host.ip_address for d in deployment.nodes]
        probes = sum(
            gateway.counters.get("attestations_ok", 0)
            for gateway in mesh.gateways.values()
        )
        assert probes == len(backends)  # one home probe each, no dupes
        for gateway in mesh.gateways.values():
            for ip_address in backends:
                assert gateway.backends[ip_address].state == "admitted"
        remote_admissions = sum(
            gateway.counters.get("gossip.admissions", 0)
            for gateway in mesh.gateways.values()
        )
        assert remote_admissions == len(backends) * (len(mesh.gateways) - 1)

    def _peer_and_backend(self, deployment, mesh):
        ip_address = deployment.nodes[0].host.ip_address
        home = mesh.home_gateway(ip_address)
        peer = next(
            gateway for gateway in mesh.gateways.values() if gateway is not home
        )
        return peer, ip_address

    def test_stale_gossip_never_honored(self, fleet_build):
        deployment, mesh = make_sync_mesh(fleet_build)
        peer, ip_address = self._peer_and_backend(deployment, mesh)
        clock = deployment.network.clock
        clock.advance(500.0)
        record = GossipedVerdict(
            ip_address, "sev-snp", True, "", clock.now - mesh.max_staleness - 1
        )
        assert not peer.accept_gossip(record, mesh.max_staleness)
        assert peer.counters["gossip.rejected.stale"] == 1

    def test_future_dated_gossip_rejected(self, fleet_build):
        deployment, mesh = make_sync_mesh(fleet_build)
        peer, ip_address = self._peer_and_backend(deployment, mesh)
        record = GossipedVerdict(
            ip_address, "sev-snp", True, "", deployment.network.clock.now + 10.0
        )
        assert not peer.accept_gossip(record, mesh.max_staleness)
        assert peer.counters["gossip.rejected.stale"] == 1

    def test_family_mismatch_rejected(self, fleet_build):
        deployment, mesh = make_sync_mesh(fleet_build)
        peer, ip_address = self._peer_and_backend(deployment, mesh)
        deployment.network.clock.advance(1.0)
        record = GossipedVerdict(
            ip_address, "tdx", True, "", deployment.network.clock.now
        )
        assert not peer.accept_gossip(record, mesh.max_staleness)
        assert peer.counters["gossip.rejected.family_mismatch"] == 1

    def test_unknown_backend_rejected(self, fleet_build):
        deployment, mesh = make_sync_mesh(fleet_build)
        peer = mesh.gateways[sorted(mesh.gateways)[0]]
        record = GossipedVerdict(
            "10.99.99.99", "sev-snp", True, "", deployment.network.clock.now
        )
        assert not peer.accept_gossip(record, mesh.max_staleness)
        assert peer.counters["gossip.rejected.unknown_backend"] == 1

    def test_gossip_never_overrides_local_family_policy(self, fleet_build):
        deployment, mesh = make_sync_mesh(fleet_build)
        peer, ip_address = self._peer_and_backend(deployment, mesh)
        peer.revoke_family("sev-snp")
        deployment.network.clock.advance(1.0)
        record = GossipedVerdict(
            ip_address, "sev-snp", True, "", deployment.network.clock.now
        )
        assert not peer.accept_gossip(record, mesh.max_staleness)
        assert peer.counters["gossip.rejected.family_not_allowed"] == 1
        assert not peer.backends[ip_address].active()

    def test_older_verdict_rejected(self, fleet_build):
        deployment, mesh = make_sync_mesh(fleet_build)
        peer, ip_address = self._peer_and_backend(deployment, mesh)
        held = peer.backends[ip_address].verdict_time
        record = GossipedVerdict(ip_address, "sev-snp", True, "", held)
        assert not peer.accept_gossip(record, mesh.max_staleness)
        assert peer.counters["gossip.rejected.older"] == 1

    def test_failing_gossip_evicts_active_backend(self, fleet_build):
        deployment, mesh = make_sync_mesh(fleet_build)
        peer, ip_address = self._peer_and_backend(deployment, mesh)
        deployment.network.clock.advance(1.0)
        record = GossipedVerdict(
            ip_address, "sev-snp", False, "tcb_too_old",
            deployment.network.clock.now,
        )
        assert peer.accept_gossip(record, mesh.max_staleness)
        backend = peer.backends[ip_address]
        assert not backend.active()
        assert peer.counters["evictions.tcb_too_old"] == 1

    def test_failing_reattestation_propagates_mesh_wide(self, fleet_build):
        """The home gateway's failing verdict evicts on every shard,
        even shards that still allow the family."""
        deployment, mesh = make_sync_mesh(fleet_build)
        ip_address = deployment.nodes[0].host.ip_address
        home = mesh.home_gateway(ip_address)
        deployment.network.clock.advance(1.0)
        home.revoke_family("sev-snp")  # this shard's policy only
        verdict = home.attest_and_admit(ip_address)
        assert not verdict.ok
        mesh.flush_gossip()
        for gateway in mesh.gateways.values():
            assert not gateway.backends[ip_address].active()


class TestMeshFamilyRevocation:
    def test_revocation_reaches_every_gateway(self, fleet_build):
        """DESIGN.md invariant 13, mesh-wide: one revocation evicts the
        family on every shard, and each shard refuses its re-attestation
        and passing gossip for it."""
        deployment, mesh = make_sync_mesh(fleet_build)
        snp_ips = [deployed.host.ip_address for deployed in deployment.nodes]

        mesh.revoke_family("sev-snp")

        assert sorted(mesh.gateways) == ["gateway-east", "gateway-west"]
        for gateway in mesh.gateways.values():
            assert all(
                gateway.backends[ip].state == "evicted" for ip in snp_ips
            )
            assert gateway.counters["evictions.family_not_allowed"] == len(
                snp_ips
            )
        for gateway in mesh.gateways.values():
            ip_address = snp_ips[0]
            gateway.add_backend(ip_address)
            verdict = gateway.attest_and_admit(ip_address)
            assert verdict.reason == "family_not_allowed"

            deployment.network.clock.advance(1.0)
            record = GossipedVerdict(
                snp_ips[1], "sev-snp", True, "", deployment.network.clock.now
            )
            assert not gateway.accept_gossip(record, mesh.max_staleness)
            assert gateway.counters["gossip.rejected.family_not_allowed"] == 1


class TestMeshStorm:
    def test_lite_storm_completes_without_failures(self, fleet_build):
        deployment, mesh, fleet, kernel = make_event_mesh(fleet_build)
        workload, _ = run_storm(mesh, kernel, sessions=150)
        assert workload.sessions_completed == 150
        assert workload.sessions_failed == 0
        snapshot = workload.snapshot()
        assert snapshot.get("requests_failed", 0) == 0
        assert snapshot["requests_ok"] == 150 * 3  # hello + 2 records
        # Sessions closed their affinity on completion (bounded memory).
        for name, gateway in mesh.gateways.items():
            assert gateway.counters_snapshot()["sessions_active"] == 0
        # Both lite and deployment backends served traffic.
        assert sum(b.sessions_opened for b in fleet.backends) > 0

    def test_sessions_spread_across_gateways(self, fleet_build):
        deployment, mesh, fleet, kernel = make_event_mesh(fleet_build)
        workload, _ = run_storm(mesh, kernel, sessions=150)
        opened = {
            name: gateway.counters.get("sessions_opened", 0)
            for name, gateway in mesh.gateways.items()
        }
        assert sum(opened.values()) == 150
        assert all(count > 0 for count in opened.values()), opened

    def test_same_seed_identical_snapshot(self, fleet_build):
        def one_run():
            # Warm global crypto caches shift admission timing by ulps;
            # determinism is per fresh process, so reset them.
            sigcache.reset_cache()
            ec.reset_point_cache()
            deployment, mesh, fleet, kernel = make_event_mesh(
                fleet_build, seed=7
            )
            workload, _ = run_storm(mesh, kernel, sessions=80, seed=7)
            return workload.snapshot()

        assert one_run() == one_run()
