"""Connection draining and the zero-downtime rolling rollout under load."""

import pytest

from repro.core.rollout import RolloutError
from repro.fleet import (
    FleetWorkload,
    HeterogeneousFleet,
    UserPool,
    drain_backend,
    rolling_rollout,
)
from repro.sim.kernel import run_until_complete, sleep
from tests.fleet.conftest import make_world


class TestDrain:
    def test_idle_backend_drains_immediately(self, event_world):
        _, gateway, kernel = event_world
        ip = sorted(gateway.backends)[0]
        rounds = run_until_complete(kernel, drain_backend([gateway], ip))
        assert rounds == 0
        assert gateway.backends[ip].state == "retired"
        assert gateway.counters["drains_started"] == 1
        assert gateway.counters["retirements"] == 1

    def test_drain_waits_for_outstanding_work(self, event_world):
        _, gateway, kernel = event_world
        ip = sorted(gateway.backends)[0]
        backend = gateway.backends[ip]

        def busy_job():
            yield from backend.server.process(1.0)

        kernel.spawn(busy_job(), name="busy")

        def drain():
            rounds = yield from drain_backend([gateway], ip, poll_interval=0.25)
            return rounds

        rounds = run_until_complete(kernel, drain())
        assert rounds >= 1  # had to poll while the job was in flight
        assert backend.state == "retired"
        assert kernel.clock.now >= 1.0  # retired only after the job finished

    def test_draining_backend_takes_no_new_sessions(self, event_world):
        deployment, gateway, kernel = event_world
        draining_ip = sorted(gateway.backends)[0]
        gateway.mark_draining(draining_ip)
        before = gateway.backends[draining_ip].requests_forwarded
        for index in range(4):
            browser, _ = deployment.make_user(
                name=f"drain-user-{index}", ip_address=f"10.2.6.{index + 1}"
            )
            result = browser.navigate(f"https://{deployment.domain}/")
            assert not result.blocked
        assert gateway.backends[draining_ip].requests_forwarded == before


class TestRollingRollout:
    def test_rollout_replaces_fleet_and_revokes_old_measurement(
        self, fleet_build, fleet_build_v2
    ):
        deployment, gateway, kernel = make_world(fleet_build, with_kernel=True)
        old_m = bytes(fleet_build.expected_measurement)
        new_m = bytes(fleet_build_v2.expected_measurement)

        report = run_until_complete(
            kernel, rolling_rollout(gateway, deployment, fleet_build_v2)
        )

        assert len(report.replacements) == 3
        assert report.new_measurement == new_m.hex()
        assert report.sim_seconds > 0
        for deployed in deployment.nodes:
            assert deployed.vm.name.endswith("-v2.0.0")
            assert deployed.node.serving
        assert deployment.build is fleet_build_v2
        assert gateway.golden_measurements == {"sev-snp": [new_m]}
        assert old_m in gateway.revoked_measurements
        assert old_m not in deployment.sp.expected_measurements
        assert new_m in deployment.sp.expected_measurements
        for backend in gateway.backends.values():
            assert backend.state == "admitted"
            assert backend.requests_after_retired == 0

    def test_every_backend_reattests_after_rollout(
        self, fleet_build, fleet_build_v2
    ):
        """The finish step revokes the deployment's old image and keeps
        every other golden: a fleet's SNP backend, whose golden sits
        next to the deployment's, still re-attests afterwards."""
        deployment, gateway, kernel = make_world(fleet_build, with_kernel=True)
        fleet = HeterogeneousFleet(deployment)
        fleet.add_backend("10.1.0.10", "sev-snp")
        fleet.add_backend("10.1.0.11", "tdx")
        assert all(v.ok for v in fleet.attach_gateway(gateway))

        run_until_complete(
            kernel, rolling_rollout(gateway, deployment, fleet_build_v2)
        )
        assert bytes(fleet_build.expected_measurement) not in (
            gateway.golden_measurements["sev-snp"]
        )
        for ip_address in sorted(gateway.backends):
            verdict = gateway.attest_and_admit(ip_address)
            assert verdict.ok, (ip_address, verdict.reason)

    def test_identical_measurement_is_refused(self, event_world, fleet_build):
        deployment, gateway, kernel = event_world

        def driver():
            yield from rolling_rollout(gateway, deployment, fleet_build)

        with pytest.raises(RolloutError, match="identical measurement"):
            run_until_complete(kernel, driver())

    def test_rollout_under_load_loses_zero_requests(
        self, fleet_build, fleet_build_v2
    ):
        """The acceptance scenario at test scale: a closed-loop storm
        rides through a full fleet replacement with zero failed and zero
        blocked requests, and no request ever reaches a retired backend."""
        deployment, gateway, kernel = make_world(fleet_build, with_kernel=True)
        pool = UserPool(
            deployment,
            kernel,
            size=6,
            expected_measurements=[
                fleet_build.expected_measurement,
                fleet_build_v2.expected_measurement,
            ],
        )
        workload = FleetWorkload(
            kernel, gateway, pool, think_time_mean=0.5, revisits_per_session=2
        )
        storm = kernel.spawn(
            workload.closed_loop(sessions=12, workers=4), name="storm"
        )

        def delayed_rollout():
            yield sleep(1.0)
            report = yield from rolling_rollout(
                gateway, deployment, fleet_build_v2
            )
            return report

        rollout = kernel.spawn(delayed_rollout(), name="rollout")
        kernel.run()
        assert storm.finished and storm.error is None
        assert rollout.finished and rollout.error is None

        snapshot = workload.snapshot()
        assert snapshot["requests_total"] == 12 * 3
        assert snapshot["requests_ok"] == snapshot["requests_total"]
        assert snapshot.get("requests_failed", 0) == 0
        assert snapshot.get("requests_blocked", 0) == 0
        for backend in gateway.backends.values():
            assert backend.requests_after_retired == 0
        assert len(rollout.value.replacements) == 3
        assert workload.sessions_completed == 12
