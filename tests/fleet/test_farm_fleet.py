"""Fleet-level verify-farm wiring: batched admission, batched health
re-attestation, and the mesh's shared farm."""

import pytest

from repro.attest import VerifyFarm, get_tracer, reset_tracer
from repro.core import RevelioDeployment
from repro.crypto import sigcache
from repro.fleet import FleetGateway, GatewayMesh, HealthMonitor
from repro.scenarios.injectors import KdsBlackhole
from repro.sim import EventKernel, SimRng
from repro.sim.kernel import run_until_complete, sleep

REGIONS = ("east", "west")


@pytest.fixture(autouse=True)
def clean_seams():
    """Every test builds its own farm (a process-wide oracle) and reads
    the process-wide tracer; reset both around each test."""
    reset_tracer()
    sigcache.reset_cache()
    yield
    sigcache.set_oracle(None)
    sigcache.reset_cache()
    reset_tracer()


def make_farm_world(build, num_nodes=3, with_kernel=False, seed=0):
    """A deployed fleet fronted by a farm-wired gateway (not admitted)."""
    deployment = RevelioDeployment(build, num_nodes=num_nodes).deploy()
    kernel = None
    if with_kernel:
        kernel = EventKernel(deployment.network.clock, SimRng(seed))
        deployment.network.enable_event_mode(kernel)
    farm = VerifyFarm(
        clock=deployment.network.clock,
        latency=deployment.network.latency,
        seed=b"fleet-farm",
    )
    gateway = FleetGateway.for_deployment(deployment, kernel=kernel, farm=farm)
    return deployment, gateway, kernel, farm


class TestBatchedAdmission:
    def test_attest_and_admit_many_admits_the_fleet_in_one_batch(
        self, fleet_build
    ):
        _, gateway, _, farm = make_farm_world(fleet_build)
        verdicts = gateway.attest_and_admit_many(sorted(gateway.backends))
        assert all(v.ok for v in verdicts), [
            (v.ip_address, v.reason) for v in verdicts if not v.ok
        ]
        assert all(
            b.state == "admitted" for b in gateway.backends.values()
        )
        assert gateway.counters["attestations_ok"] == 3
        counters = get_tracer().farm
        # 3 backends x (2 chain links + report signature) settle in one
        # flush; each node has its own chip/VCEK, so the fleet-shared
        # ASK<-ARK link is the duplicated term (3 copies -> 2 dropped).
        assert counters.batches == 1
        assert counters.jobs == 9
        assert counters.deduplicated == 2
        assert farm.stats()["jobs"] == 9

    def test_batched_admission_matches_sequential_verdicts(self, fleet_build):
        _, batched_gateway, _, farm = make_farm_world(fleet_build)
        batched = batched_gateway.attest_and_admit_many(
            sorted(batched_gateway.backends)
        )
        farm.uninstall()
        sequential_world = RevelioDeployment(fleet_build, num_nodes=3).deploy()
        sequential_gateway = FleetGateway.for_deployment(sequential_world)
        sequential = [
            sequential_gateway.attest_and_admit(ip)
            for ip in sorted(sequential_gateway.backends)
        ]
        assert [v.ok for v in batched] == [v.ok for v in sequential]
        assert [v.reason for v in batched] == [v.reason for v in sequential]

    def test_unknown_backend_rejected_before_any_probe(self, fleet_build):
        from repro.fleet import GatewayError

        _, gateway, _, _ = make_farm_world(fleet_build)
        with pytest.raises(GatewayError, match="unknown_backend"):
            gateway.attest_and_admit_many(["10.0.0.99"])


class TestBatchedReattestation:
    def test_health_monitor_reattests_due_backends_in_one_batch(
        self, fleet_build
    ):
        _, gateway, kernel, _ = make_farm_world(fleet_build, with_kernel=True)
        assert all(v.ok for v in gateway.admit_all())
        admission_batches = get_tracer().farm.batches
        monitor = HealthMonitor(gateway, interval=5.0, reattest_every=0.0)

        def driver():
            yield sleep(monitor.interval)
            monitor.probe_all()

        run_until_complete(kernel, driver())
        assert monitor.reattestations == 3
        assert all(
            b.state == "admitted" for b in gateway.backends.values()
        )
        # All three due backends re-attested through one farm flush.
        assert get_tracer().farm.batches == admission_batches + 1

    def test_fresh_verdicts_are_not_reattested(self, fleet_build):
        _, gateway, kernel, _ = make_farm_world(fleet_build, with_kernel=True)
        assert all(v.ok for v in gateway.admit_all())
        monitor = HealthMonitor(gateway, interval=5.0, reattest_every=1e9)

        def driver():
            yield sleep(monitor.interval)
            monitor.probe_all()

        run_until_complete(kernel, driver())
        assert monitor.reattestations == 0
        assert monitor.probes_ok == 3

    def test_blackholed_kds_fails_the_whole_batch_closed(self, fleet_build):
        """DESIGN.md invariant 11 through the batched path: freshness
        unconfirmable => every due backend evicts, none passes."""
        _, gateway, kernel, _ = make_farm_world(fleet_build, with_kernel=True)
        assert all(v.ok for v in gateway.admit_all())
        monitor = HealthMonitor(gateway, interval=5.0, reattest_every=0.0)
        client = gateway.verifier.kds
        client.clear_cache()
        gateway.verifier.kds = KdsBlackhole(client)
        assert gateway.verifier.farm is not None  # farm survives the swap

        def driver():
            yield sleep(monitor.interval)
            monitor.probe_all()

        run_until_complete(kernel, driver())
        assert all(
            b.state == "evicted" for b in gateway.backends.values()
        )
        assert {
            b.verdict_reason for b in gateway.backends.values()
        } == {"kds_unreachable"}
        gateway.verifier.kds = client


class TestMeshSharedFarm:
    def test_shared_farm_spans_every_regional_gateway(self, fleet_build):
        deployment = RevelioDeployment(fleet_build, num_nodes=4).deploy()
        mesh = GatewayMesh.for_deployment(
            deployment, regions=REGIONS, shared_farm=True
        )
        farms = {
            id(gateway.verifier.farm) for gateway in mesh.gateways.values()
        }
        assert len(farms) == 1
        assert None not in {
            gateway.verifier.farm for gateway in mesh.gateways.values()
        }
        verdicts = mesh.admit_all()
        assert all(v.ok for v in verdicts)
        assert get_tracer().farm.jobs > 0

    def test_explicit_farm_kwarg_wins(self, fleet_build):
        deployment = RevelioDeployment(fleet_build, num_nodes=2).deploy()
        mine = VerifyFarm(
            clock=deployment.network.clock,
            latency=deployment.network.latency,
            seed=b"mine",
        )
        mesh = GatewayMesh.for_deployment(
            deployment, regions=REGIONS, shared_farm=True, farm=mine
        )
        assert all(
            gateway.verifier.farm is mine
            for gateway in mesh.gateways.values()
        )

    def test_mesh_without_flag_has_no_farm(self, fleet_build):
        deployment = RevelioDeployment(fleet_build, num_nodes=2).deploy()
        mesh = GatewayMesh.for_deployment(deployment, regions=REGIONS)
        assert all(
            gateway.verifier.farm is None
            for gateway in mesh.gateways.values()
        )
