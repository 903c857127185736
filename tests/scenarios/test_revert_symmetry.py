"""Revert symmetry through the registry (DESIGN.md invariant 16).

Every ``storm-core`` injection, attack arm and benign twin with the
catalog's own params, runs against a fresh :class:`StormWorld` wired
with a health monitor the way :class:`CampaignRunner` wires it.  Once
reverted it must leave the gateway exactly as it found it: the same
verifier and KDS client, the same TCB floors and revoked families, the
same golden and revoked measurements, the same registered backends and
the same hosts on the network.  Then ``recovered()`` must hold.  A
floor or revocation already in force survives a policy injection's
revert, and ``storage_bitflip`` arms only inside its partition.
"""

import pytest

from repro.amd.tcb import TcbVersion
from repro.fleet import HealthMonitor
from repro.scenarios import get_campaign, injectors
from repro.scenarios.arena import StormWorld

CAMPAIGN = get_campaign("storm-core")

ARMS = [
    pytest.param(spec.injector, params, id=f"{spec.name}-{arm}")
    for spec in CAMPAIGN.scenarios
    for arm, params in (
        ("attack", spec.params_dict()),
        ("benign", spec.benign_params_dict()),
    )
]

POLICY_ARMS = [
    arm for arm in ARMS if arm.values[0] in ("tcb_rollback", "family_revocation")
]


def gateway_state(world) -> dict:
    """What an injection may touch, compared by value after revert."""
    gateway = world.gateway
    return {
        "tcb_floors": dict(gateway.tcb_floors),
        "revoked_families": set(gateway.revoked_families),
        "golden_measurements": {
            family: list(values)
            for family, values in gateway.golden_measurements.items()
        },
        "revoked_measurements": list(gateway.revoked_measurements),
        "backend_ips": sorted(gateway.backends),
    }


def inject_provoke_revert(world, injector, params):
    """Run one injection's armed window and assert the revert put the
    gateway back; returns the injection for its recovery check."""
    verifier = world.gateway.verifier
    kds = verifier.kds
    state = gateway_state(world)
    hosts = dict(world.network._hosts_by_ip)

    injection = injectors.create(injector, world, params)
    injection.inject()
    injection.provoke()
    injection.revert()

    assert world.gateway.verifier is verifier
    assert world.gateway.verifier.kds is kds
    assert gateway_state(world) == state
    after = dict(world.network._hosts_by_ip)
    assert sorted(after) == sorted(hosts)
    assert all(after[ip] is host for ip, host in hosts.items())
    return injection


@pytest.fixture
def world(scenario_build):
    world = StormWorld(scenario_build, CAMPAIGN, seed=0)
    world.monitor = HealthMonitor(
        world.gateway, interval=10.0, timeout=2.0, reattest_every=120.0
    )
    yield world
    world.close()


@pytest.mark.parametrize("injector,params", ARMS)
def test_revert_is_symmetric(world, injector, params):
    injection = inject_provoke_revert(world, injector, params)
    assert injection.recovered()


@pytest.mark.parametrize("injector,params", POLICY_ARMS)
def test_revert_keeps_prior_policy(world, injector, params):
    """A floor or a revocation in force before the injection (a met
    floor on both AMD families, a revoked family with no backends) is
    still in force after its revert."""
    gateway = world.gateway
    for family in ("sev-snp", "e-vtpm"):
        gateway.tcb_floors[family] = TcbVersion(1, 0, 0, 0)
    gateway.revoke_family("arm-cca")

    injection = inject_provoke_revert(world, injector, params)
    assert injection.recovered()


def test_bitflip_refuses_a_block_outside_the_partition(world):
    """The flip must land inside the named partition's extent; a block
    past its end is refused before the disk is touched."""
    disk = world.node_for(world.victim_ip()).vm.disk
    mutations = disk.mutation_count
    injection = injectors.create(
        "storage_bitflip", world, {"partition": "rootfs", "block": 10**6}
    )
    with pytest.raises(ValueError, match="outside partition 'rootfs'"):
        injection.inject()
    assert disk.mutation_count == mutations
