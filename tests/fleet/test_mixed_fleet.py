"""Mixed-fleet serving: SNP + TDX + CCA + e-vTPM backends behind one
tier-aware gateway, tiered traffic, and a mid-storm family revocation
that costs the survivors nothing."""

import json

import pytest

from repro.attest import Evidence
from repro.core import WELL_KNOWN_ATTESTATION_PATH
from repro.crypto import ec, sigcache
from repro.fleet import FleetWorkload, HeterogeneousFleet, UserPool
from repro.fleet.drain import begin_rollout, finish_rollout
from repro.net.http import HTTPS_PORT, HttpRequest, HttpResponse
from repro.net.tls import tls_connect
from repro.sim import SimRng
from repro.sim.kernel import sleep
from tests.fleet.conftest import make_world

FAMILIES = ("sev-snp", "tdx", "arm-cca", "e-vtpm")
TIER_WEIGHTS = {"high": 0.3, "bulk": 0.7}
HIGH_TIER_FAMILIES = {"sev-snp", "e-vtpm"}


def attach_hetero(deployment, gateway):
    """Two TDX + one CCA + one e-vTPM backend joined to the fleet."""
    fleet = HeterogeneousFleet(deployment)
    fleet.add_backend("10.1.0.10", "tdx")
    fleet.add_backend("10.1.0.11", "tdx")
    fleet.add_backend("10.1.0.40", "arm-cca")
    fleet.add_backend("10.1.0.70", "e-vtpm")
    verdicts = fleet.attach_gateway(gateway)
    assert all(v.ok for v in verdicts), [
        (v.ip_address, v.reason) for v in verdicts if not v.ok
    ]
    return fleet


def extension_setup_for(deployment, fleet):
    def setup(extension):
        extension.verifier.contexts.update(fleet.contexts())
        extension.register_site(
            deployment.domain, family_measurements=fleet.goldens
        )

    return setup


def run_mixed_storm(build, seed=0, sessions=80, revoke_at=3.0):
    """Seeded open-loop storm over the mixed fleet with the tdx family
    revoked mid-storm; returns (gateway, workload snapshot)."""
    sigcache.reset_cache()
    ec.reset_point_cache()
    deployment, gateway, kernel = make_world(
        build, num_nodes=2, with_kernel=True, seed=seed
    )
    fleet = attach_hetero(deployment, gateway)
    pool = UserPool(
        deployment,
        kernel,
        size=16,
        expected_measurements=[build.expected_measurement],
        extension_setup=extension_setup_for(deployment, fleet),
    )
    workload = FleetWorkload(
        kernel, gateway, pool, rng=SimRng(seed), tier_weights=TIER_WEIGHTS
    )

    def revocation():
        yield sleep(revoke_at)
        gateway.revoke_family("tdx")

    storm = kernel.spawn(
        workload.open_loop(sessions=sessions, arrival_rate=10.0),
        name="storm",
    )
    kernel.spawn(revocation(), name="revocation")
    kernel.run()
    assert storm.finished
    if storm.error is not None:
        raise storm.error
    return gateway, workload.snapshot()


class TestMixedAdmission:
    def test_every_family_admits_with_per_family_counters(self, sync_world):
        deployment, gateway, _ = sync_world
        attach_hetero(deployment, gateway)
        for family in ("sev-snp", "tdx", "arm-cca", "e-vtpm"):
            assert gateway.counters[f"admissions.{family}"] >= 1, family
            assert (
                gateway.counters[f"family.{family}.attestations_ok"] >= 1
            ), family

    def test_high_tier_routes_only_to_snp_and_vtpm(self, sync_world):
        deployment, gateway, _ = sync_world
        fleet = attach_hetero(deployment, gateway)
        setup = extension_setup_for(deployment, fleet)
        for index in range(6):
            browser, extension = deployment.make_user(
                name=f"high-user-{index}", ip_address=f"10.2.9.{index + 1}"
            )
            setup(extension)
            browser.session_tier = "high"
            browser.new_session()
            result = browser.navigate(f"https://{deployment.domain}/")
            assert not result.blocked, result.block_reason
        used = {
            gateway.backends[ip].family for ip in gateway._affinity.values()
        }
        assert used <= HIGH_TIER_FAMILIES, used
        assert gateway.counters["tier.high.sessions_opened"] >= 6

    def test_family_without_goldens_fails_closed(self, sync_world):
        """Trust material but no goldens for the family: the backend is
        checked against an empty golden set and rejected."""
        deployment, gateway, _ = sync_world
        fleet = HeterogeneousFleet(deployment)
        fleet.add_backend("10.1.0.10", "tdx")
        gateway.verifier.contexts.update(fleet.contexts())
        gateway.add_backend("10.1.0.10", family="tdx")
        verdict = gateway.attest_and_admit("10.1.0.10")
        assert verdict.reason == "measurement_mismatch"
        assert gateway.backends["10.1.0.10"].state == "rejected"

    def test_every_endpoint_serves_its_family_envelope(self, sync_world):
        """One well-known payload: SNP nodes and every lite family serve
        an encoded Evidence tagged with the backend's family."""
        deployment, gateway, _ = sync_world
        attach_hetero(deployment, gateway)
        probe = deployment.network.add_host("wk-probe", "10.9.9.40")
        rng = deployment.rng.fork(b"wk-probe")
        for backend in gateway.backends.values():
            connection = tls_connect(
                probe, backend.ip_address, HTTPS_PORT, deployment.domain,
                [deployment.web_pki.trust_anchor], rng,
                now=deployment.network.clock.epoch_seconds(),
            )
            response = HttpResponse.decode(connection.request(
                HttpRequest("GET", WELL_KNOWN_ATTESTATION_PATH).encode()
            ))
            evidence = Evidence.decode(response.body)
            assert evidence.family == backend.family, backend.ip_address
        families = {backend.family for backend in gateway.backends.values()}
        assert families == set(FAMILIES)

    def test_unknown_tier_falls_back_to_bulk(self, sync_world):
        deployment, gateway, _ = sync_world
        fleet = attach_hetero(deployment, gateway)
        browser, extension = deployment.make_user(
            name="odd-tier-user", ip_address="10.2.9.50"
        )
        extension_setup_for(deployment, fleet)(extension)
        browser.session_tier = "platinum"
        browser.new_session()
        result = browser.navigate(f"https://{deployment.domain}/")
        assert not result.blocked, result.block_reason
        assert gateway.counters["tier.bulk.sessions_opened"] >= 1


class TestLauncher:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_add_relaunch_retire(self, sync_world, family):
        """One launcher per family: a relaunched backend re-attests at
        the new golden while its sibling keeps passing on the old one,
        and retiring the old golden leaves only the new."""
        deployment, gateway, _ = sync_world
        fleet = HeterogeneousFleet(deployment)
        moved = fleet.add_backend("10.1.0.10", family)
        sibling = fleet.add_backend("10.1.0.11", family)
        verdicts = fleet.attach_gateway(gateway)
        assert all(v.ok for v in verdicts), [
            (v.ip_address, v.reason) for v in verdicts if not v.ok
        ]
        old = moved.measurement
        assert sibling.measurement == old
        assert fleet.goldens[family] == {old}

        new = fleet.relaunch(moved, token=b"target-image")
        assert new != old and moved.measurement == new
        assert fleet.goldens[family] == {old, new}
        fleet.sync_gateway(gateway)
        gateway.add_backend(moved.ip_address, family=family)
        for backend in (moved, sibling):
            verdict = gateway.attest_and_admit(backend.ip_address)
            assert verdict.ok, (backend.ip_address, verdict.reason)

        fleet.relaunch(sibling, token=b"target-image")
        assert sibling.measurement == new
        fleet.retire_measurement(family, old)
        assert fleet.goldens[family] == {new}
        fleet.sync_gateway(gateway)
        gateway.add_backend(sibling.ip_address, family=family)
        verdict = gateway.attest_and_admit(sibling.ip_address)
        assert verdict.ok, verdict.reason

    @pytest.mark.parametrize("family", FAMILIES)
    def test_finish_rollout_revokes_the_retired_image(
        self, sync_world, fleet_build_v2, family
    ):
        """Whatever its family, an image no backend runs after a
        rollout's finish is revoked: a backend booted from it again is
        refused with ``measurement_revoked``."""
        deployment, gateway, _ = sync_world
        fleet = HeterogeneousFleet(deployment)
        moved = fleet.add_backend("10.1.0.10", family)
        assert all(v.ok for v in fleet.attach_gateway(gateway))
        old = moved.measurement

        begin_rollout(deployment, [gateway], fleet_build_v2)
        fleet.relaunch(moved, token=b"target-image")
        fleet.sync_gateway(gateway)
        assert gateway.attest_and_admit(moved.ip_address).ok
        finish_rollout(deployment, [gateway], fleet_build_v2, fleet=fleet)
        assert gateway.attest_and_admit(moved.ip_address).ok

        stale = fleet.add_backend("10.1.0.11", family)
        assert stale.measurement == old
        gateway.add_backend(stale.ip_address, family=family)
        verdict = gateway.attest_and_admit(stale.ip_address)
        assert verdict.reason == "measurement_revoked"


class TestMixedStorm:
    def test_mid_storm_family_revocation_costs_survivors_nothing(
        self, fleet_build
    ):
        gateway, snapshot = run_mixed_storm(fleet_build)
        assert snapshot.get("requests_failed", 0) == 0
        assert snapshot.get("requests_blocked", 0) == 0
        assert snapshot["requests_ok"] == snapshot["requests_total"]
        # Both tdx backends evicted under the family-scoped stable code.
        assert (
            snapshot["gateway.family.tdx.evictions.family_not_allowed"] == 2
        )
        for ip, backend in sorted(gateway.backends.items()):
            if backend.family == "tdx":
                assert backend.state == "evicted", ip
                assert backend.verdict_reason == "family_not_allowed", ip
            else:
                assert backend.state == "admitted", ip
        # A revoked family stays out: re-attestation fails closed.
        verdict = gateway.attest_and_admit("10.1.0.10")
        assert not verdict.ok
        assert verdict.reason == "family_not_allowed"
        # Tiered traffic actually flowed, with per-tier tails recorded.
        for tier in TIER_WEIGHTS:
            assert snapshot[f"gateway.tier.{tier}.sessions_opened"] > 0
            assert snapshot[f"latency.tier.{tier}.p99"] > 0

    def test_same_seed_storms_are_byte_identical(self, fleet_build):
        _, first = run_mixed_storm(fleet_build, seed=7, sessions=40)
        _, second = run_mixed_storm(fleet_build, seed=7, sessions=40)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
