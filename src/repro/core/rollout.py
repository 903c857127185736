"""Fleet lifecycle operations: image rollouts and certificate renewal.

Two operational procedures the paper describes but the prototype leaves
implicit:

* **Image rollout** (section 6.1.4): "the obsolete cryptographic hashes
  are being revoked every time there is a newer image rollout to
  prevent rollback attacks."  :func:`roll_out_image` replaces every
  fleet VM with the new build, updates the SP's golden set, revokes the
  old measurement, and re-provisions certificates.  Old-image VMs can
  no longer join the fleet, and verifiers consulting a registry stop
  accepting them.  Under load the fleet layer instead replaces one node
  at a time with :func:`rejoin_node` — :func:`replace_node` plus the
  SP's per-node ``admit_node`` — from both
  :func:`repro.fleet.drain.rolling_rollout` (one gateway) and
  :class:`repro.fleet.provision.FleetProvisioner` (a gateway mesh).

* **Certificate renewal** (section 6.3.2): "this happens typically once
  every 90 days when the SSL certificate needs to be renewed and
  redistributed."  :func:`renew_certificate` re-issues against the same
  leader CSR — the TLS key pair is unchanged, so end-users' pinned keys
  stay valid and no browser session is disrupted.

Note on sealed state: sealing keys are measurement-derived (F6), so a
new image *cannot* decrypt volumes sealed by the old one.  That is the
security property working as intended.  The attested hand-over at the
bottom of this module (:func:`migrate_sealed_state`) closes the gap:
the *running* old VM releases its volume key only to a successor that
attests as the endorsed new image, mutual-attestation style.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..build.image_builder import BuildResult
from ..storage.blockdev import RamBlockDevice
from .deployment import AppFactory, DeployedNode, RevelioDeployment, default_app
from .guest import RevelioNode
from .sp_node import ProvisioningResult


class RolloutError(RuntimeError):
    """A rollout or renewal failed."""


@dataclass
class RolloutResult:
    """Outcome of :func:`roll_out_image`."""

    old_measurement: bytes
    new_measurement: bytes
    provisioning: ProvisioningResult
    #: The pre-rollout disks, keyed by node name (sealed state the new
    #: image cannot open; kept for application-layer migration/audit).
    retired_disks: Dict[str, RamBlockDevice]


def replace_node(
    deployment: RevelioDeployment,
    index: int,
    new_build: BuildResult,
    app_factory: AppFactory = default_app,
    node_registry=None,
) -> RamBlockDevice:
    """Replace one fleet VM with *new_build* on the same host address.

    Shuts down the old VM, launches the new image on the same
    host/chip with a fresh disk, rebinds the host firewall and app, and
    swaps ``deployment.nodes[index]`` in place.  Returns the retired
    disk (sealed state the new image cannot open).  The new node is
    *not* provisioned — callers follow up with fleet-wide
    ``provision_certificates`` (cold rollout) or use
    :func:`rejoin_node` (rolling rollout under load).
    """
    deployed = deployment.nodes[index]
    old_vm = deployed.vm
    if old_vm.state == "running":
        old_vm.shutdown()
    retired_disk = deployed.hypervisor.disk_store[old_vm.name]
    new_vm = deployed.hypervisor.launch(
        new_build.image,
        name=f"{new_build.image.name}-{index}-v{new_build.image.version}",
        ip_address=deployed.host.ip_address,
    )
    new_vm.boot()
    deployed.host.close_port(443)
    deployed.host.close_port(8080)
    deployed.host.firewall = _firewall_of(new_vm)
    node = RevelioNode(
        new_vm, deployed.host, deployment._new_kds_client(), deployment.latency
    )
    if node_registry is not None:
        node.trusted_registry = node_registry
    app_factory(node)
    deployment.nodes[index] = DeployedNode(
        vm=new_vm,
        host=deployed.host,
        node=node,
        hypervisor=deployed.hypervisor,
    )
    return retired_disk


def rejoin_node(
    deployment: RevelioDeployment,
    index: int,
    new_build: BuildResult,
    app_factory: AppFactory = default_app,
    node_registry=None,
) -> DeployedNode:
    """Replace one node of a *serving* fleet and admit the replacement.

    The newcomer pulls the existing TLS private key from a
    still-serving peer over the mutually attested bootstrap channel
    (``ServiceProviderNode.admit_node``), so end-users' pinned keys
    never change.  Returns the new :class:`DeployedNode`."""
    ip_address = deployment.nodes[index].host.ip_address
    # Every provisioned node holds the shared TLS key, so any other
    # serving one can hand it over.
    key_holder = next(
        (
            deployed.host.ip_address
            for deployed in deployment.nodes
            if deployed.host.ip_address != ip_address
            and deployed.node.serving
            and deployed.vm.state == "running"
        ),
        None,
    )
    if key_holder is None:
        raise RolloutError("no serving node left to hand over the TLS key")
    replace_node(
        deployment, index, new_build, app_factory, node_registry=node_registry
    )
    deployment.sp.admit_node(
        ip_address, key_holder, deployment.provisioning.certificate_chain
    )
    return deployment.nodes[index]


def update_golden_set(
    deployment: RevelioDeployment,
    old_measurement: bytes,
    new_measurement: bytes,
) -> None:
    """Accept the new image at the SP and revoke the old one
    (section 6.1.4's rollback-attack prevention)."""
    deployment.sp.expected_measurements = [
        m for m in deployment.sp.expected_measurements if m != old_measurement
    ]
    deployment.sp.expected_measurements.append(new_measurement)
    deployment.sp.revoke_measurement(old_measurement)


def roll_out_image(
    deployment: RevelioDeployment,
    new_build: BuildResult,
    app_factory: AppFactory = default_app,
    leader_index: int = 0,
) -> RolloutResult:
    """Replace the fleet with *new_build* and revoke the old golden.

    The deployment object is updated in place: ``deployment.build``,
    the per-node VMs/apps, the SP's golden set, and DNS all reflect the
    new image afterwards.  This is the *cold* rollout (no traffic in
    flight); :func:`repro.fleet.drain.rolling_rollout` does the same
    thing zero-downtime under load, one :func:`rejoin_node` at a time.
    """
    if deployment.sp is None or not deployment.nodes:
        raise RolloutError("deployment has no provisioned fleet to roll out")
    old_build = deployment.build
    old_measurement = bytes(old_build.expected_measurement)
    new_measurement = bytes(new_build.expected_measurement)
    if old_measurement == new_measurement:
        raise RolloutError("new image has the identical measurement; nothing to do")

    retired_disks: Dict[str, RamBlockDevice] = {}
    for index, deployed in enumerate(deployment.nodes):
        old_name = deployed.vm.name
        retired_disks[old_name] = replace_node(
            deployment, index, new_build, app_factory
        )

    deployment.build = new_build
    update_golden_set(deployment, old_measurement, new_measurement)

    provisioning = deployment.provision_certificates(leader_index)
    return RolloutResult(
        old_measurement=old_measurement,
        new_measurement=new_measurement,
        provisioning=provisioning,
        retired_disks=retired_disks,
    )


def renew_certificate(
    deployment: RevelioDeployment,
) -> ProvisioningResult:
    """The 90-day renewal: re-issue for the existing leader CSR and
    redistribute.  The TLS key pair is unchanged, so pinned keys in
    end-user sessions remain valid."""
    if deployment.provisioning is None or deployment.sp is None:
        raise RolloutError("nothing to renew: fleet not provisioned")
    leader_ip = deployment.provisioning.leader_ip
    node_ips = [deployed.host.ip_address for deployed in deployment.nodes]
    try:
        leader_index = node_ips.index(leader_ip)
    except ValueError:
        raise RolloutError("previous leader left the fleet") from None
    result = deployment.sp.provision_fleet(node_ips, leader_index)
    deployment.provisioning = result
    return result


def _firewall_of(vm):
    from ..net.firewall import Firewall

    return vm.firewall if vm.firewall is not None else Firewall.open_firewall()


# -- attested sealed-state migration ------------------------------------------


def export_sealed_master_key(
    old_vm,
    peer_bundle,
    kds,
    now: int,
    accepted_measurements,
) -> bytes:
    """Old-image side of a state hand-over.

    The outgoing VM re-derives its data-volume master key from the
    AMD-SP sealing key and releases it **only** to a peer that proves —
    via a key-endorsing attestation report — that it runs an image on
    the *accepted* list (the successor's golden value, typically
    endorsed by the trusted registry before the rollout).  The key is
    ECIES-encrypted to the attested peer key; the transport would be
    the bootstrap channel, and the payload is self-protecting either
    way.
    """
    from ..crypto.kdf import hkdf
    from ..crypto.keys import PublicKey
    from .key_sharing import encrypt_to_public_key, verify_report_bundle

    old_vm.require_running()
    verify_report_bundle(
        peer_bundle,
        kds,
        now=now,
        expected_measurements=accepted_measurements,
    )
    peer_key = PublicKey.decode(peer_bundle.payload)
    sealing_key = old_vm.guest.derive_sealing_key(b"disk-encryption")
    master_key = hkdf(sealing_key, info=b"luks-master-key", length=64)
    return encrypt_to_public_key(peer_key.inner, master_key, old_vm.rng)


def import_sealed_state(
    new_vm,
    encrypted_master_key: bytes,
    old_disk: RamBlockDevice,
    old_bundle,
    kds,
    now: int,
    accepted_measurements,
) -> int:
    """New-image side: verify the *old* VM's bundle (mutual
    attestation), unwrap the key, open the retired disk's data volume,
    and copy its contents into the new VM's own sealed volume.

    Returns the number of blocks migrated."""
    from ..storage.dm import DmContext, DmTable
    from .key_sharing import decrypt_with_private_key, verify_report_bundle

    new_vm.require_running()
    verify_report_bundle(
        old_bundle,
        kds,
        now=now,
        expected_measurements=accepted_measurements,
    )
    master_key = decrypt_with_private_key(
        new_vm.identity.private_key, encrypted_master_key
    )
    old_volume = DmTable.parse(
        "retired-data", "linear partition=data ; crypt key=master"
    ).open(DmContext(disk=old_disk, keys={"master": master_key}))
    new_volume = new_vm.storage["data"]
    blocks = min(old_volume.num_blocks, new_volume.num_blocks)
    for index in range(blocks):
        new_volume.write_block(index, old_volume.read_block(index))
    return blocks


def migrate_sealed_state(old_deployed, new_vm, kds_factory, now: int,
                         old_accepts, new_accepts,
                         old_disk: Optional[RamBlockDevice] = None) -> int:
    """Full hand-over between a running old-image node and a booted
    new-image VM: mutual attestation in both directions, then the
    data-volume copy.  *old_accepts* / *new_accepts* are each side's
    golden sets (registry-endorsed successor / predecessor values)."""
    encrypted = export_sealed_master_key(
        old_deployed.vm,
        new_vm.identity.key_bundle(),
        kds_factory(),
        now,
        old_accepts,
    )
    disk = old_disk if old_disk is not None else old_deployed.vm.disk
    return import_sealed_state(
        new_vm,
        encrypted,
        disk,
        old_deployed.vm.identity.key_bundle(),
        kds_factory(),
        now,
        new_accepts,
    )
