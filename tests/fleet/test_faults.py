"""Fault injection: dead backends, a black-holed KDS, a raised TCB
floor, a revoked TEE family — each surfacing its stable reason code
and zero end-user damage."""


import pytest

from repro.amd.tcb import TcbVersion
from repro.core.deployment import MINIMAL_PAGE
from repro.fleet import (
    HeterogeneousFleet,
    blackhole_kds,
    corrupt_disk,
    kill_backend,
    raise_tcb_floor,
    revoke_family,
    slow_disk,
)
from repro.storage.dm import VerityError
from repro.storage.partition import PartitionTable


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

        kill_backend(gateway, victim_ip)

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
        kill_backend(gateway, dead_ip)
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
            kill_backend(gateway, ip)
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
        hole = blackhole_kds(gateway)  # cache intact
        for ip in sorted(gateway.backends):
            verdict = gateway.attest_and_admit(ip)
            assert verdict.ok, verdict.reason
        assert all(b.state == "admitted" for b in gateway.backends.values())
        hole.active = False

    def test_cold_cache_blackhole_evicts_with_kds_unreachable(self, sync_world):
        _, gateway, _ = sync_world
        hole = blackhole_kds(gateway, clear_cache=True)
        ip = sorted(gateway.backends)[0]
        verdict = gateway.attest_and_admit(ip)
        assert not verdict.ok
        assert verdict.reason == "kds_unreachable"
        assert gateway.backends[ip].state == "evicted"
        assert gateway.counters["evictions.kds_unreachable"] == 1

        # Service restored: a replacement registration re-admits.
        hole.active = False
        gateway.add_backend(ip)
        assert gateway.attest_and_admit(ip).ok
        assert gateway.backends[ip].state == "admitted"

    def test_blackhole_spares_non_snp_families(self, sync_world):
        """An AMD KDS outage must not take down TDX/CCA re-attestation:
        their trust material survives the verifier swap."""
        deployment, gateway, _ = sync_world
        fleet = HeterogeneousFleet(deployment)
        fleet.add_backend("10.1.0.10", "tdx")
        fleet.add_backend("10.1.0.40", "arm-cca")
        assert all(v.ok for v in fleet.attach_gateway(gateway))

        hole = blackhole_kds(gateway, clear_cache=True)
        assert gateway.attest_and_admit("10.1.0.10").ok
        assert gateway.attest_and_admit("10.1.0.40").ok
        snp_ip = sorted(gateway.backends)[0]
        assert gateway.attest_and_admit(snp_ip).reason == "kds_unreachable"
        hole.active = False


class TestTcbFloor:
    def test_raised_floor_evicts_with_tcb_too_old(self, sync_world):
        _, gateway, _ = sync_world
        # Fleet chips report TCB 3.0.8.115; mandate a newer bootloader.
        raise_tcb_floor(gateway, TcbVersion(4, 0, 8, 115))
        ip = sorted(gateway.backends)[0]
        verdict = gateway.attest_and_admit(ip)
        assert not verdict.ok
        assert verdict.reason == "tcb_too_old"
        assert gateway.backends[ip].state == "evicted"
        assert gateway.counters["evictions.tcb_too_old"] == 1

    def test_met_floor_keeps_the_backend_admitted(self, sync_world):
        _, gateway, _ = sync_world
        raise_tcb_floor(gateway, TcbVersion(3, 0, 8, 115))
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

        revoke_family(gateway, "tdx")

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
        raise_tcb_floor(gateway, 4, families=("tdx",))

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
        raise_tcb_floor(gateway, TcbVersion(4, 0, 8, 115))

        verdict = gateway.attest_and_admit("10.1.0.70")
        assert verdict.reason == "tcb_too_old"
        assert gateway.attest_and_admit(sorted(gateway.backends)[0]).reason == (
            "tcb_too_old"
        )
        assert gateway.attest_and_admit("10.1.0.10").ok
        assert gateway.attest_and_admit("10.1.0.40").ok


class TestSymmetricRevert:
    """Every injector's ``revert()`` restores pre-attack admission
    behaviour: after the undo, a re-registration + re-attestation (the
    same path a recovered machine takes) admits the backend again, and
    storage reads verify again."""

    def test_kill_backend_revert_restores_admission(self, sync_world):
        _, gateway, _ = sync_world
        ip = sorted(gateway.backends)[0]
        handle = kill_backend(gateway, ip)
        assert not gateway.attest_and_admit(ip).ok
        assert gateway.backends[ip].state == "evicted"

        handle.revert()
        gateway.add_backend(ip)
        assert gateway.attest_and_admit(ip).ok
        assert gateway.backends[ip].state == "admitted"
        handle.revert()  # idempotent
        assert gateway.attest_and_admit(ip).ok

    def test_blackhole_revert_swaps_client_and_verifier_back(self, sync_world):
        _, gateway, _ = sync_world
        original_kds, original_verifier = gateway.kds, gateway.verifier
        hole = blackhole_kds(gateway, clear_cache=True)
        ip = sorted(gateway.backends)[0]
        assert gateway.attest_and_admit(ip).reason == "kds_unreachable"

        hole.revert()
        assert gateway.kds is original_kds
        assert gateway.verifier is original_verifier
        gateway.add_backend(ip)
        assert gateway.attest_and_admit(ip).ok

    def test_tcb_floor_revert_restores_previous_floor(self, sync_world):
        _, gateway, _ = sync_world
        gateway.tcb_floors["sev-snp"] = TcbVersion(1, 0, 0, 0)
        previous = dict(gateway.tcb_floors)
        handle = raise_tcb_floor(gateway, TcbVersion(255, 255, 255, 255))
        ip = sorted(gateway.backends)[0]
        assert gateway.attest_and_admit(ip).reason == "tcb_too_old"

        handle.revert()
        assert gateway.tcb_floors == previous
        gateway.add_backend(ip)
        assert gateway.attest_and_admit(ip).ok

    def test_family_floor_revert_removes_the_floor(self, sync_world):
        deployment, gateway, _ = sync_world
        fleet = HeterogeneousFleet(deployment)
        fleet.add_backend("10.1.0.10", "tdx")
        assert all(v.ok for v in fleet.attach_gateway(gateway))
        handle = raise_tcb_floor(gateway, 4, families=("tdx",))
        assert gateway.attest_and_admit("10.1.0.10").reason == "tcb_too_old"

        handle.revert()
        assert "tdx" not in gateway.tcb_floors
        gateway.add_backend("10.1.0.10", family="tdx")
        assert gateway.attest_and_admit("10.1.0.10").ok

    def test_revoke_family_revert_lifts_the_revocation(self, sync_world):
        deployment, gateway, _ = sync_world
        fleet = HeterogeneousFleet(deployment)
        fleet.add_backend("10.1.0.10", "tdx")
        assert all(v.ok for v in fleet.attach_gateway(gateway))
        handle = revoke_family(gateway, "tdx")
        assert gateway.backends["10.1.0.10"].state == "evicted"
        assert not gateway.attest_and_admit("10.1.0.10").ok

        handle.revert()
        assert "tdx" not in gateway.revoked_families
        gateway.add_backend("10.1.0.10", family="tdx")
        assert gateway.attest_and_admit("10.1.0.10").ok

    def test_corrupt_disk_revert_restores_reads(self, sync_world):
        deployment, _, _ = sync_world
        vm = deployment.nodes[0].vm
        volume = vm.storage.open("verity")
        volume.read_block(2)  # clean
        handle = corrupt_disk(
            vm, "rootfs", block_index=2, byte_offset=3, xor_mask=0x40
        )
        with pytest.raises(VerityError):
            volume.read_block(2)

        handle.revert()
        volume.read_block(2)  # verifies again
        handle.revert()  # idempotent: no double re-XOR
        volume.read_block(2)

    def test_slow_disk_revert_unsplices_the_delay(self, sync_world):
        deployment, _, _ = sync_world
        vm = deployment.nodes[0].vm
        original = vm.storage.open("verity")
        handle = slow_disk(vm, "verity", read_ms=5.0)
        assert vm.storage.open("verity") is handle.target

        handle.revert()
        assert vm.storage.open("verity") is original

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
