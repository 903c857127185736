"""Connection draining and the zero-downtime rolling rollout.

The drain protocol: mark the backend *draining* (the gateway stops
sending it new sessions; existing sessions keep working), poll until
its outstanding request count hits zero (session think-time guarantees
gaps), then *retire* it — remaining idle sessions are severed and their
clients transparently re-handshake onto a healthy peer, losing zero
requests because every fleet node serves the same attested TLS key.

Every rollout — :func:`rolling_rollout` behind one gateway, and
:class:`~repro.fleet.provision.FleetProvisioner` across a gateway mesh
— is the same three steps:

1. :func:`begin_rollout` widens trust to the new measurement (nodes,
   SP, and gateways endorse both images while the fleet is mixed);
2. one backend at a time is drained (:func:`drain_backend`), replaced
   (deployment nodes via :func:`repro.core.rollout.rejoin_node`, which
   admits the newcomer through the SP so it pulls the *existing* TLS
   key from a still-serving peer), and re-attested by the gateway
   before it takes traffic again;
3. :func:`finish_rollout` revokes the old measurement fleet-wide, and
   keeps every other golden.

Prerequisite (documented in PROTOCOLS.md): during the transition both
measurements must be endorsed — old nodes attest new peers during key
hand-over and vice versa, so a cross-version trusted registry (or the
equivalent baked goldens) is installed on the nodes, and end-users'
extensions must know both goldens to ride through without disruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..attest import TeeFamily
from ..core.deployment import AppFactory, default_app
from ..core.rollout import RolloutError, rejoin_node, update_golden_set
from ..core.trusted_registry import StaticRegistry
from ..sim.kernel import sleep
from .gateway import FleetGateway


@dataclass
class RollingRolloutReport:
    """What a rollout under load did, in simulated time."""

    old_measurement: str
    new_measurement: str
    replacements: List[dict] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def sim_seconds(self) -> float:
        return self.finished_at - self.started_at


def drain_backend(
    gateways: List[FleetGateway],
    ip_address: str,
    poll_interval: float = 0.05,
    deadline: float = 60.0,
):
    """Kernel process: drain one backend on every gateway in
    *gateways* (they share its service station), then retire it there.

    Returns the number of poll rounds waited.
    """
    server = gateways[0].backends[ip_address].server
    for gateway in gateways:
        gateway.mark_draining(ip_address)
    clock = gateways[0].network.clock
    started = clock.now
    rounds = 0
    while server is not None and server.outstanding > 0:
        if clock.now - started >= deadline:
            break
        rounds += 1
        yield sleep(poll_interval)
    for gateway in gateways:
        gateway.retire(ip_address)
    return rounds


def check_rollout(deployment, new_build) -> None:
    """Refuse a rollout with nothing to do: an unprovisioned fleet, or
    a *new_build* with the deployment's own measurement."""
    if deployment.sp is None or deployment.provisioning is None:
        raise RolloutError("fleet not provisioned; nothing to roll out")
    if bytes(deployment.build.expected_measurement) == bytes(
        new_build.expected_measurement
    ):
        raise RolloutError("new image has the identical measurement; nothing to do")


def begin_rollout(deployment, gateways: List[FleetGateway], new_build,
                  node_registry=None):
    """Widen trust to *new_build*'s measurement before any node moves.

    After :func:`check_rollout`, every node gets a registry endorsing
    both images (*node_registry*, or a static one), the SP accepts the
    new measurement, and every gateway adds it to its goldens.  Returns
    the node registry."""
    check_rollout(deployment, new_build)
    old_measurement = bytes(deployment.build.expected_measurement)
    new_measurement = bytes(new_build.expected_measurement)
    registry = node_registry
    if registry is None:
        registry = StaticRegistry(
            golden={deployment.domain: [old_measurement, new_measurement]}
        )
    for deployed in deployment.nodes:
        deployed.node.trusted_registry = registry
    if new_measurement not in deployment.sp.expected_measurements:
        deployment.sp.expected_measurements.append(new_measurement)
    for gateway in gateways:
        gateway.golden_measurements = sorted(
            {*gateway.golden_measurements, new_measurement}
        )
    return registry


def finish_rollout(deployment, gateways: List[FleetGateway], new_build,
                   fleet=None):
    """Revoke the old world once every node runs *new_build* (section
    6.1.4 rollback prevention).

    The deployment's old measurement is revoked at the SP and on every
    gateway.  With a *fleet*, each of its goldens that no backend still
    runs is retired; a retired SNP golden is revoked too.  Every other
    golden stays."""
    old_measurement = bytes(deployment.build.expected_measurement)
    new_measurement = bytes(new_build.expected_measurement)
    update_golden_set(deployment, old_measurement, new_measurement)
    deployment.build = new_build
    revoked = {old_measurement}
    if fleet is not None:
        live = {backend.measurement for backend in fleet.backends}
        for family, goldens in sorted(fleet.goldens.items()):
            for golden in goldens - live:
                fleet.retire_measurement(family, golden)
                if family == str(TeeFamily.SEV_SNP):
                    revoked.add(golden)
    for gateway in gateways:
        gateway.golden_measurements = sorted(
            (set(gateway.golden_measurements) - revoked) | {new_measurement}
        )
        gateway.revoked_measurements = sorted(
            {*gateway.revoked_measurements, *revoked}
        )
        if fleet is not None:
            fleet.sync_gateway(gateway)


def rolling_rollout(
    gateway: FleetGateway,
    deployment,
    new_build,
    app_factory: AppFactory = default_app,
    node_registry=None,
    drain_poll: float = 0.05,
    drain_deadline: float = 60.0,
    concurrency: int = 4,
    report: Optional[RollingRolloutReport] = None,
):
    """Kernel process: replace every deployment node under load, one at
    a time, with zero failed end-user requests.  Pass *report* to
    observe progress; it is also the generator's return value."""
    clock = gateway.network.clock
    old_measurement = bytes(deployment.build.expected_measurement)
    registry = begin_rollout(deployment, [gateway], new_build, node_registry)
    if report is None:
        report = RollingRolloutReport(
            old_measurement=old_measurement.hex(),
            new_measurement=bytes(new_build.expected_measurement).hex(),
        )
    report.started_at = clock.now

    for index in range(len(deployment.nodes)):
        ip_address = deployment.nodes[index].host.ip_address
        node_started = clock.now
        rounds = yield from drain_backend(
            [gateway], ip_address, poll_interval=drain_poll,
            deadline=drain_deadline,
        )
        rejoin_node(deployment, index, new_build, app_factory, registry)
        gateway.add_backend(ip_address, concurrency=concurrency)
        verdict = gateway.attest_and_admit(ip_address)
        if not verdict.ok:
            raise RolloutError(
                f"replacement node {ip_address} failed admission: "
                f"{verdict.reason} ({verdict.detail})"
            )
        report.replacements.append(
            {
                "ip_address": ip_address,
                "drain_poll_rounds": rounds,
                "sim_seconds": clock.now - node_started,
            }
        )

    finish_rollout(deployment, [gateway], new_build)
    report.finished_at = clock.now
    return report
