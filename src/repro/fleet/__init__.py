"""Attestation-aware fleet serving: gateway, health, drains, workloads.

The paper's deployments (CryptPad, IC boundary nodes — sections
6.2-6.3) are *fleets* behind a load balancer, serving end-users at
scale.  This package puts a gateway in front of N
:class:`~repro.core.guest.RevelioNode` VMs that admits a backend only
while its :mod:`repro.attest` verdict is fresh and passing (DESIGN.md
invariant 11), probes liveness and re-attests periodically, drains
connections for zero-downtime rollouts under load, and generates open-
and closed-loop end-user traffic on the :mod:`repro.sim` event kernel.
"""

from repro.fleet.drain import RollingRolloutReport, drain_backend, rolling_rollout
from repro.fleet.gateway import (
    GATEWAY_REASON_CODES,
    AdmissionVerdict,
    BackendState,
    FleetGateway,
    GatewayError,
)
from repro.fleet.health import HealthMonitor
from repro.fleet.hetero import Backend, HeterogeneousFleet
from repro.fleet.mesh import (
    GOSSIP_REJECT_REASONS,
    ConsistentHashRing,
    GatewayMesh,
    GossipedVerdict,
    LiteFleet,
    MeshWorkload,
)
from repro.fleet.provision import FleetProvisioner, ProvisionReport
from repro.fleet.workload import FleetWorkload, UserPool

__all__ = [
    "GATEWAY_REASON_CODES",
    "GOSSIP_REJECT_REASONS",
    "AdmissionVerdict",
    "Backend",
    "BackendState",
    "ConsistentHashRing",
    "FleetGateway",
    "FleetProvisioner",
    "FleetWorkload",
    "GatewayError",
    "GatewayMesh",
    "GossipedVerdict",
    "HealthMonitor",
    "HeterogeneousFleet",
    "LiteFleet",
    "MeshWorkload",
    "ProvisionReport",
    "RollingRolloutReport",
    "UserPool",
    "drain_backend",
    "rolling_rollout",
]
