"""The health monitor: liveness probes, thresholds, re-attestation."""

from repro.fleet import HealthMonitor
from repro.scenarios.injectors import KdsBlackhole
from repro.sim.kernel import run_until_complete, sleep


def run_probe_rounds(kernel, monitor, rounds):
    def driver():
        for _ in range(rounds):
            yield sleep(monitor.interval)
            monitor.probe_all()

    run_until_complete(kernel, driver())


class TestProbes:
    def test_healthy_fleet_probes_clean(self, event_world):
        _, gateway, kernel = event_world
        monitor = HealthMonitor(gateway, interval=5.0, reattest_every=1e9)
        run_probe_rounds(kernel, monitor, 3)
        assert monitor.probes_ok == 9  # 3 rounds x 3 backends
        assert monitor.probes_failed == 0
        assert all(b.state == "admitted" for b in gateway.backends.values())

    def test_dead_backend_evicted_at_failure_threshold(self, event_world):
        _, gateway, kernel = event_world
        monitor = HealthMonitor(
            gateway, interval=5.0, failure_threshold=2, reattest_every=1e9
        )
        dead_ip = sorted(gateway.backends)[0]
        gateway.network.remove_host(dead_ip)

        run_probe_rounds(kernel, monitor, 1)
        assert gateway.backends[dead_ip].state == "admitted"  # one strike
        run_probe_rounds(kernel, monitor, 1)
        assert gateway.backends[dead_ip].state == "evicted"
        assert gateway.backends[dead_ip].verdict_reason == "backend_unreachable"
        assert gateway.counters["evictions.backend_unreachable"] == 1

    def test_slow_probe_counts_as_health_timeout(self, event_world):
        _, gateway, kernel = event_world
        # Any real probe (handshake + fetch) takes longer than 1 ms.
        monitor = HealthMonitor(
            gateway, interval=5.0, timeout=0.001, failure_threshold=1,
            reattest_every=1e9,
        )
        run_probe_rounds(kernel, monitor, 1)
        assert all(b.state == "evicted" for b in gateway.backends.values())
        assert gateway.counters["evictions.health_timeout"] == 3

    def test_probe_loop_process_stops_on_interrupt(self, event_world):
        _, gateway, kernel = event_world
        monitor = HealthMonitor(gateway, interval=2.0, reattest_every=1e9)
        process = kernel.spawn(monitor.process(), name="health")
        kernel.run(until=kernel.clock.now + 7.0)
        assert monitor.probes_ok == 9  # probes at +2, +4, +6
        process.interrupt("test over")
        kernel.run()
        assert process.finished and process.error is None


class TestReattestation:
    def test_stale_verdicts_are_refreshed_by_the_monitor(self, event_world):
        _, gateway, kernel = event_world
        monitor = HealthMonitor(gateway, interval=5.0, reattest_every=0.0)
        before = {
            ip: gateway.backends[ip].verdict_time for ip in gateway.backends
        }
        run_probe_rounds(kernel, monitor, 1)
        assert monitor.reattestations == 3
        for ip, old_time in before.items():
            assert gateway.backends[ip].verdict_time > old_time
            assert gateway.backends[ip].state == "admitted"

    def test_blackholed_kds_during_reattestation_evicts(self, event_world):
        """DESIGN.md invariant 11: if freshness cannot be confirmed the
        backend stops serving — kds_unreachable, via the health loop."""
        _, gateway, kernel = event_world
        monitor = HealthMonitor(gateway, interval=5.0, reattest_every=0.0)
        gateway.verifier.kds.clear_cache()
        gateway.verifier.kds = KdsBlackhole(gateway.verifier.kds)
        run_probe_rounds(kernel, monitor, 1)
        assert all(b.state == "evicted" for b in gateway.backends.values())
        assert gateway.counters["evictions.kds_unreachable"] == 3
