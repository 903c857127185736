"""The fleet provisioner: signed delta updates rolled region-serially
across a gateway mesh with a mixed-family lite fleet, under live
traffic, without a single request reaching a non-re-attested node."""

import pytest

from repro.attest import reset_tracer
from repro.attest.trace import get_tracer
from repro.build import ChannelError, build_revelio_image
from repro.core.rollout import RolloutError
from repro.crypto.drbg import HmacDrbg
from repro.crypto.keys import PrivateKey
from repro.fleet import FleetProvisioner, MeshWorkload, ProvisionReport
from repro.sim import SimRng, sleep
from tests.conftest import make_spec
from tests.fleet.test_mesh import REGIONS, make_event_mesh, run_storm


@pytest.fixture(autouse=True)
def _fresh_tracer():
    reset_tracer()
    yield
    reset_tracer()


def make_provisioner(deployment, mesh, fleet, seed=b"provision-tests"):
    key = PrivateKey.generate_ecdsa(HmacDrbg(seed), "P-256")
    return FleetProvisioner(mesh, deployment, key, lite_fleet=fleet)


def run_post_storm(mesh, kernel, sessions, seed=3):
    """A second storm in the same world: distinct client IPs."""
    workload = MeshWorkload(
        mesh, kernel, rng=SimRng(seed), client_ip_prefix="10.4"
    )
    storm = kernel.spawn(
        workload.open_loop(sessions, arrival_rate=50.0), name="post-storm"
    )
    while not storm.finished:
        kernel.run(until=kernel.clock.now + 10.0)
    kernel.run()
    if storm.error is not None:
        raise storm.error
    return workload


def run_provision(kernel, provisioner, target_build, **kwargs):
    process = kernel.spawn(
        provisioner.provision(target_build, **kwargs), name="provision"
    )
    while not process.finished:
        kernel.run(until=kernel.clock.now + 10.0)
    kernel.run()
    if process.error is not None:
        raise process.error
    return process.value


class TestProvisionUnderStorm:
    def test_full_pipeline_with_live_traffic(
        self, fleet_build, fleet_build_v2
    ):
        deployment, mesh, fleet, kernel = make_event_mesh(fleet_build)
        provisioner = make_provisioner(deployment, mesh, fleet)
        old = bytes(fleet_build.expected_measurement)
        new = bytes(fleet_build_v2.expected_measurement)

        def delayed_provision():
            yield sleep(2.0)
            report = yield from provisioner.provision(fleet_build_v2)
            return report

        workload, process = run_storm(
            mesh, kernel, sessions=200, arrival_rate=25.0,
            rollout=delayed_provision(),
        )
        assert workload.sessions_completed == 200
        assert workload.sessions_failed == 0
        assert workload.snapshot().get("requests_failed", 0) == 0

        report = process.value
        deployment_ips = {d.host.ip_address for d in deployment.nodes}
        fleet_size = len(deployment.nodes) + sum(
            1 for b in fleet.backends if b.ip_address not in deployment_ips
        )
        assert report.phase_counters() == {
            "discovered": fleet_size,
            "delivered": fleet_size,
            "verified": fleet_size,
            "applied": fleet_size,
            # Every node shares the same (delta, base) pair: one real
            # patch + re-root, the rest served from the apply cache.
            "apply_cache_hits": fleet_size - 1,
            "reattested": fleet_size,
            "admitted": fleet_size,
        }
        assert report.requests_to_unattested == 0
        assert report.epoch == 1
        assert 0 < report.delta_ratio <= 0.25
        assert [entry["region"] for entry in report.regions] == sorted(REGIONS)

        # The whole world moved: deployment build swapped, the old
        # measurement revoked everywhere, every backend re-admitted.
        assert deployment.build is fleet_build_v2
        for gateway in mesh.gateways.values():
            assert new in gateway.golden_measurements["sev-snp"]
            assert old not in gateway.golden_measurements["sev-snp"]
            assert old in gateway.revoked_measurements
            for backend in gateway.backends.values():
                assert backend.state == "admitted"
        # Only the old world was revoked: a fresh attestation of every
        # backend, on every shard, still passes.
        for name in sorted(mesh.gateways):
            gateway = mesh.gateways[name]
            for ip_address in sorted(gateway.backends):
                verdict = gateway.attest_and_admit(ip_address)
                assert verdict.ok, (name, ip_address, verdict.reason)

        # And the moved fleet still serves.
        post = run_post_storm(mesh, kernel, sessions=60)
        assert post.sessions_completed == 60
        assert post.sessions_failed == 0

    def test_rejected_update_leaves_fleet_serving_old_build(
        self, fleet_build, fleet_build_v2
    ):
        deployment, mesh, fleet, kernel = make_event_mesh(fleet_build)
        provisioner = make_provisioner(deployment, mesh, fleet)
        old = bytes(fleet_build.expected_measurement)

        # A tampered blob store: every delivered blob has one bit
        # flipped, so the first node's digest check must fail closed.
        genuine_blob = provisioner.channel.blob

        def corrupted_blob(digest):
            blob = bytearray(genuine_blob(digest))
            blob[0] ^= 0x01
            return bytes(blob)

        provisioner.channel.blob = corrupted_blob

        with pytest.raises(ChannelError) as info:
            run_provision(kernel, provisioner, fleet_build_v2)
        assert info.value.code == "delta_corrupt"
        assert get_tracer().update.rejections["delta_corrupt"] == 1

        # Nothing moved: old build, old goldens, no retired backend.
        assert deployment.build is fleet_build
        for gateway in mesh.gateways.values():
            assert old in gateway.golden_measurements["sev-snp"]
            assert old not in gateway.revoked_measurements
        workload, _ = run_storm(mesh, kernel, sessions=60)
        assert workload.sessions_completed == 60
        assert workload.sessions_failed == 0

    def test_identical_target_is_refused(self, fleet_build):
        deployment, mesh, fleet, kernel = make_event_mesh(fleet_build)
        provisioner = make_provisioner(deployment, mesh, fleet)
        with pytest.raises(RolloutError, match="identical measurement"):
            run_provision(kernel, provisioner, fleet_build)
        assert provisioner.channel.epoch == 0

    def test_failed_publish_widens_no_trust(self, registry_and_pins, fleet_build):
        registry, pins = registry_and_pins
        foreign = build_revelio_image(make_spec(registry, pins, name="cryptpad"))
        deployment, mesh, fleet, kernel = make_event_mesh(fleet_build)
        provisioner = make_provisioner(deployment, mesh, fleet)
        node_registries = [d.node.trusted_registry for d in deployment.nodes]
        target = bytes(foreign.expected_measurement)

        # A delta never crosses image identities, so nothing is
        # published and no node, SP or gateway learns the target.
        with pytest.raises(ValueError, match="image identities"):
            run_provision(kernel, provisioner, foreign)
        assert provisioner.channel.epoch == 0
        assert target not in deployment.sp.expected_measurements
        for gateway in mesh.gateways.values():
            assert target not in gateway.golden_measurements["sev-snp"]
        assert [d.node.trusted_registry for d in deployment.nodes] == (
            node_registries
        )


class TestSuccessiveRuns:
    def test_epochs_stay_monotonic_across_provisions(
        self, registry_and_pins, fleet_build, fleet_build_v2
    ):
        registry, pins = registry_and_pins
        fleet_build_v3 = build_revelio_image(
            make_spec(registry, pins, version="3.0.0")
        )
        deployment, mesh, fleet, kernel = make_event_mesh(fleet_build)
        provisioner = make_provisioner(deployment, mesh, fleet)

        first = run_provision(kernel, provisioner, fleet_build_v2)
        second = run_provision(
            kernel, provisioner, fleet_build_v3,
            report=ProvisionReport(),
        )
        assert (first.epoch, second.epoch) == (1, 2)
        assert second.requests_to_unattested == 0
        assert deployment.build is fleet_build_v3
        # The whole epoch-1 world is now revoked.
        v2 = bytes(fleet_build_v2.expected_measurement)
        for gateway in mesh.gateways.values():
            assert v2 in gateway.revoked_measurements
        workload, _ = run_storm(mesh, kernel, sessions=60)
        assert workload.sessions_completed == 60
        assert workload.sessions_failed == 0
