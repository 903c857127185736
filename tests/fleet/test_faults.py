"""Gateway reactions to faults: dead backends, a black-holed KDS, a
raised TCB floor, a revoked TEE family — each armed on the component
itself, each surfacing its stable reason code and zero end-user damage.
The registered injectors' revert symmetry is tested through the
registry, in ``tests/scenarios/test_revert_symmetry.py``."""


import pytest

from repro.amd.tcb import TcbVersion
from repro.attest import AMD_FAMILIES
from repro.core.deployment import MINIMAL_PAGE
from repro.fleet import HeterogeneousFleet
from repro.scenarios.injectors import KdsBlackhole
from repro.storage.dm import VerityError
from repro.storage.partition import PartitionTable


def blackhole(gateway, clear_cache=False):
    """Put a black-holed KDS double on the gateway's verifier; returns
    the real client, for the test to put back."""
    client = gateway.verifier.kds
    if clear_cache:
        client.clear_cache()
    gateway.verifier.kds = KdsBlackhole(client)
    return client


def raise_amd_floor(gateway, floor):
    """Mandate *floor* for both AMD families (SEV-SNP and the e-vTPM)."""
    for family in AMD_FAMILIES:
        gateway.tcb_floors[str(family)] = floor


def navigate_ok(browser, domain):
    result = browser.navigate(f"https://{domain}/")
    assert not result.blocked, result.block_reason
    assert result.response.body == MINIMAL_PAGE
    return result


class TestBackendDeath:
    def test_mid_session_kill_evicts_and_client_recovers(self, sync_world):
        deployment, gateway, _ = sync_world
        browser, _ = deployment.make_user(name="victim-user", ip_address="10.2.7.1")
        navigate_ok(browser, deployment.domain)
        (victim_ip,) = set(gateway._affinity.values())

        gateway.network.remove_host(victim_ip)

        # The revisit's record forward dies on the wire; the gateway
        # evicts with the stable code and the client's automatic
        # re-handshake lands on a healthy peer: zero failed page loads.
        navigate_ok(browser, deployment.domain)
        victim = gateway.backends[victim_ip]
        assert victim.state == "evicted"
        assert victim.verdict_reason == "backend_unreachable"
        assert gateway.counters["evictions.backend_unreachable"] == 1

    def test_new_sessions_retry_past_a_dead_backend(self, sync_world):
        deployment, gateway, _ = sync_world
        dead_ip = sorted(gateway.backends)[0]
        gateway.network.remove_host(dead_ip)
        # Three fresh sessions: round-robin guarantees the dead backend
        # is attempted, evicted, and silently retried on a live one.
        for index in range(3):
            browser, _ = deployment.make_user(
                name=f"retry-user-{index}", ip_address=f"10.2.7.{10 + index}"
            )
            navigate_ok(browser, deployment.domain)
        assert gateway.backends[dead_ip].state == "evicted"
        assert gateway.counters["retries"] >= 1
        assert gateway.counters["evictions.backend_unreachable"] == 1

    def test_whole_fleet_dead_is_a_stable_routing_failure(self, sync_world):
        deployment, gateway, _ = sync_world
        for ip in sorted(gateway.backends):
            gateway.network.remove_host(ip)
        browser, _ = deployment.make_user(name="left-out", ip_address="10.2.7.20")
        result = browser.navigate(f"https://{deployment.domain}/")
        assert result.blocked
        assert all(b.state == "evicted" for b in gateway.backends.values())
        assert gateway.counters["routing_failed.no_healthy_backend"] >= 1


class TestKdsBlackhole:
    def test_warm_vcek_cache_rides_out_the_outage(self, sync_world):
        """The PR-3 story: cached VCEKs keep re-attestation working
        while AMD's KDS is unreachable."""
        _, gateway, _ = sync_world
        blackhole(gateway)  # cache intact
        for ip in sorted(gateway.backends):
            verdict = gateway.attest_and_admit(ip)
            assert verdict.ok, verdict.reason
        assert all(b.state == "admitted" for b in gateway.backends.values())

    def test_cold_cache_blackhole_evicts_with_kds_unreachable(self, sync_world):
        _, gateway, _ = sync_world
        client = blackhole(gateway, clear_cache=True)
        ip = sorted(gateway.backends)[0]
        verdict = gateway.attest_and_admit(ip)
        assert not verdict.ok
        assert verdict.reason == "kds_unreachable"
        assert gateway.backends[ip].state == "evicted"
        assert gateway.counters["evictions.kds_unreachable"] == 1

        # Service restored: a replacement registration re-admits.
        gateway.verifier.kds = client
        gateway.add_backend(ip)
        assert gateway.attest_and_admit(ip).ok
        assert gateway.backends[ip].state == "admitted"

    def test_blackhole_spares_non_snp_families(self, sync_world):
        """An AMD KDS outage must not take down TDX/CCA re-attestation:
        their trust material survives the KDS client swap."""
        deployment, gateway, _ = sync_world
        fleet = HeterogeneousFleet(deployment)
        fleet.add_backend("10.1.0.10", "tdx")
        fleet.add_backend("10.1.0.40", "arm-cca")
        assert all(v.ok for v in fleet.attach_gateway(gateway))

        blackhole(gateway, clear_cache=True)
        assert gateway.attest_and_admit("10.1.0.10").ok
        assert gateway.attest_and_admit("10.1.0.40").ok
        snp_ip = sorted(gateway.backends)[0]
        assert gateway.attest_and_admit(snp_ip).reason == "kds_unreachable"


class TestTcbFloor:
    def test_raised_floor_evicts_with_tcb_too_old(self, sync_world):
        _, gateway, _ = sync_world
        # Fleet chips report TCB 3.0.8.115; mandate a newer bootloader.
        raise_amd_floor(gateway, TcbVersion(4, 0, 8, 115))
        ip = sorted(gateway.backends)[0]
        verdict = gateway.attest_and_admit(ip)
        assert not verdict.ok
        assert verdict.reason == "tcb_too_old"
        assert gateway.backends[ip].state == "evicted"
        assert gateway.counters["evictions.tcb_too_old"] == 1

    def test_met_floor_keeps_the_backend_admitted(self, sync_world):
        _, gateway, _ = sync_world
        raise_amd_floor(gateway, TcbVersion(3, 0, 8, 115))
        ip = sorted(gateway.backends)[0]
        assert gateway.attest_and_admit(ip).ok
        assert gateway.backends[ip].state == "admitted"


class TestFamilyFaults:
    def _hetero(self, deployment, gateway):
        fleet = HeterogeneousFleet(deployment)
        fleet.add_backend("10.1.0.10", "tdx")
        fleet.add_backend("10.1.0.40", "arm-cca")
        verdicts = fleet.attach_gateway(gateway)
        assert all(v.ok for v in verdicts), [
            (v.ip_address, v.reason) for v in verdicts if not v.ok
        ]
        return fleet

    def test_revoke_family_evicts_with_family_scoped_code(self, sync_world):
        deployment, gateway, _ = sync_world
        self._hetero(deployment, gateway)

        gateway.revoke_family("tdx")

        tdx = gateway.backends["10.1.0.10"]
        assert tdx.state == "evicted"
        assert tdx.verdict_reason == "family_not_allowed"
        assert (
            gateway.counters["family.tdx.evictions.family_not_allowed"] == 1
        )
        # Other families are untouched; the revoked one fails closed.
        assert gateway.backends["10.1.0.40"].state == "admitted"
        verdict = gateway.attest_and_admit("10.1.0.10")
        assert not verdict.ok
        assert verdict.reason == "family_not_allowed"
        assert (
            gateway.counters["family.tdx.attestations_failed.family_not_allowed"]
            >= 1
        )

    def test_tcb_floor_fails_only_that_family(self, sync_world):
        deployment, gateway, _ = sync_world
        self._hetero(deployment, gateway)

        # Fleet TDX platforms report TCB SVN 3; mandate newer firmware.
        gateway.tcb_floors["tdx"] = 4

        verdict = gateway.attest_and_admit("10.1.0.10")
        assert not verdict.ok
        assert verdict.reason == "tcb_too_old"
        assert gateway.backends["10.1.0.10"].state == "evicted"
        assert gateway.counters["family.tdx.evictions.tcb_too_old"] == 1
        # SNP and CCA backends still re-attest fine under their floors.
        assert gateway.attest_and_admit("10.1.0.40").ok
        assert gateway.attest_and_admit(sorted(gateway.backends)[0]).ok

    def test_amd_floor_reaches_vtpm_evidence(self, sync_world):
        deployment, gateway, _ = sync_world
        fleet = self._hetero(deployment, gateway)
        fleet.add_backend("10.1.0.70", "e-vtpm")
        assert all(v.ok for v in fleet.attach_gateway(gateway))

        # An AMD floor covers the e-vTPM's SNP endorsement, not TDX/CCA.
        raise_amd_floor(gateway, TcbVersion(4, 0, 8, 115))

        verdict = gateway.attest_and_admit("10.1.0.70")
        assert verdict.reason == "tcb_too_old"
        assert gateway.attest_and_admit(sorted(gateway.backends)[0]).reason == (
            "tcb_too_old"
        )
        assert gateway.attest_and_admit("10.1.0.10").ok
        assert gateway.attest_and_admit("10.1.0.40").ok


class TestSymmetricRevert:
    """A hypervisor hook's undo restores reads (the registered
    injectors' revert symmetry is tested through the registry)."""

    def test_runtime_tamper_undo_restores_reads(self, sync_world):
        deployment, _, _ = sync_world
        deployed = deployment.nodes[0]
        vm = deployed.vm
        volume = vm.storage.open("verity")
        entry = PartitionTable.read_from(vm.disk).find("rootfs")
        offset = (entry.first_block + 1) * vm.disk.block_size + 7

        undo = deployed.hypervisor.tamper_disk_at_runtime(vm, offset, 0x20)
        with pytest.raises(VerityError):
            volume.read_block(1)

        undo()
        volume.read_block(1)
