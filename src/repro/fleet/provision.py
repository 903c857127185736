"""Fleet provisioning: signed delta updates across the gateway mesh.

The last mile of "confidential VMs for the masses": one measured build
has to reach a thousand nodes without the fleet ever serving traffic
from a machine whose new software is not yet attested.  A
:class:`FleetProvisioner` drives the full pipeline as a kernel process:

discover → build → deliver → apply → re-attest → admit

* **discover** — enumerate every backend the mesh routes to (the
  deployment's real SNP nodes plus the lite fleet's mixed families),
  grouped by region;
* **build** — compute the block-level delta between the installed and
  target builds (:func:`repro.build.delta.compute_delta`) and publish
  it on the signed, epoch-versioned update channel
  (:class:`repro.build.channel.UpdateChannel`);
* **deliver / apply** — every node runs the client pipeline
  (:class:`repro.build.channel.UpdateClient`): pinned-key signature,
  epoch monotonicity, base-measurement chain, blob digest, block
  hashes, then the delta apply that re-roots the verity tree and
  replays the signed target measurement.  A shared content-addressed
  apply cache deduplicates the patch + re-root across nodes on the
  same base — verification still runs per node;
* **re-attest / admit** — regions update serially, nodes inside a
  region roll one at a time: drained on every gateway, retired,
  relaunched at the new measurement, re-admitted by the SP, attested
  by the home gateway, and gossiped mesh-wide.  A replacement is
  routable only after its *new* measurement verifies — the gateway's
  admission machinery (``pending`` until a fresh verdict) enforces the
  zero-unattested-requests property rather than the provisioner
  promising it.

Old measurements are revoked (globally and per family) only after the
whole fleet has moved, so a region mid-rollout keeps serving from
still-golden bases — DESIGN.md invariant 17's "reachable from golden
via signed-manifest epochs", operationally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from ..attest.trace import get_tracer
from ..build.channel import SignedManifest, UpdateChannel, UpdateClient
from ..build.delta import compute_delta
from ..core.deployment import AppFactory, default_app
from ..core.rollout import RolloutError, rejoin_node
from ..crypto.keys import PrivateKey
from .drain import begin_rollout, check_rollout, finish_rollout
from .mesh import GatewayMesh, LiteFleet


@dataclass
class ProvisionReport:
    """Per-phase counters for one fleet provisioning run."""

    image_name: str = ""
    base_version: str = ""
    target_version: str = ""
    old_measurement: str = ""
    new_measurement: str = ""
    epoch: int = 0
    #: Phase counters, in pipeline order.
    discovered: int = 0
    delivered: int = 0
    verified: int = 0
    applied: int = 0
    apply_cache_hits: int = 0
    reattested: int = 0
    admitted: int = 0
    #: Bytes actually shipped (encoded delta blob × deliveries) vs the
    #: bytes a full-image push would have moved.
    delta_bytes_shipped: int = 0
    full_bytes_equivalent: int = 0
    #: Requests any gateway routed to a retired backend during the run
    #: (the zero-unattested property; must be 0).
    requests_to_unattested: int = 0
    regions: List[dict] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def sim_seconds(self) -> float:
        return self.finished_at - self.started_at

    @property
    def delta_ratio(self) -> float:
        """Shipped bytes as a fraction of a full-image push."""
        if not self.full_bytes_equivalent:
            return 0.0
        return self.delta_bytes_shipped / self.full_bytes_equivalent

    def phase_counters(self) -> Dict[str, int]:
        """The per-phase counter summary, in pipeline order."""
        return {
            "discovered": self.discovered,
            "delivered": self.delivered,
            "verified": self.verified,
            "applied": self.applied,
            "apply_cache_hits": self.apply_cache_hits,
            "reattested": self.reattested,
            "admitted": self.admitted,
        }

    def to_dict(self) -> dict:
        """A plain-data (JSON-ready) snapshot."""
        return {
            "image": self.image_name,
            "base_version": self.base_version,
            "target_version": self.target_version,
            "old_measurement": self.old_measurement,
            "new_measurement": self.new_measurement,
            "epoch": self.epoch,
            "phases": self.phase_counters(),
            "delta_bytes_shipped": self.delta_bytes_shipped,
            "full_bytes_equivalent": self.full_bytes_equivalent,
            "delta_ratio": self.delta_ratio,
            "requests_to_unattested": self.requests_to_unattested,
            "regions": list(self.regions),
            "sim_seconds": self.sim_seconds,
        }


class FleetProvisioner:
    """Drives signed delta updates across a :class:`GatewayMesh`.

    One provisioner serves one deployment; its :class:`UpdateChannel`
    is created on first use and keeps the monotonic epoch across
    successive :meth:`provision` runs (so a re-served old manifest is a
    ``stale_epoch`` everywhere, forever).
    """

    def __init__(
        self,
        mesh: GatewayMesh,
        deployment,
        signing_key: PrivateKey,
        lite_fleet: Optional[LiteFleet] = None,
    ):
        self.mesh = mesh
        self.deployment = deployment
        self.lite_fleet = lite_fleet
        self.channel = UpdateChannel(
            signing_key, image_name=deployment.build.image.name
        )
        self.trusted_key = self.channel.signer
        #: Content-addressed apply results shared across every node of
        #: every run (keyed by delta digest + base measurement).
        self._apply_cache: Dict[bytes, object] = {}

    # -- phases ------------------------------------------------------

    def _discover(self) -> Dict[Optional[str], list]:
        """Group the fleet by region: the deployment's SNP nodes first,
        then the lite fleet's backends.  Each member is ``(ip, kind,
        node index or lite backend)``."""
        plan: Dict[Optional[str], list] = {}
        deployment_ips = set()
        for index, deployed in enumerate(self.deployment.nodes):
            deployment_ips.add(deployed.host.ip_address)
            plan.setdefault(deployed.host.region, []).append(
                (deployed.host.ip_address, "deployment", index)
            )
        if self.lite_fleet is not None:
            for backend in self.lite_fleet.backends:
                if backend.ip_address not in deployment_ips:
                    plan.setdefault(backend.region, []).append(
                        (backend.ip_address, f"lite-{backend.family}", backend)
                    )
        return plan

    def _node_update(self, installed, signed: SignedManifest, blob: bytes,
                     report: ProvisionReport, node_measurement=None):
        """One node's deliver → verify → apply, with the shared cache."""
        tracer = get_tracer()
        report.delivered += 1
        report.delta_bytes_shipped += len(blob)
        report.full_bytes_equivalent += len(installed.disk_image)
        client = UpdateClient(
            self.trusted_key, epoch=signed.manifest.epoch - 1,
            apply_cache=self._apply_cache,
        )
        hits_before = tracer.update.apply_cache_hits
        applied = client.apply(
            installed, signed, blob, node_measurement=node_measurement
        )
        report.verified += 1
        report.applied += 1
        report.apply_cache_hits += tracer.update.apply_cache_hits - hits_before
        return applied

    def provision(
        self,
        target_build,
        app_factory: AppFactory = default_app,
        node_registry=None,
        drain_poll: float = 0.05,
        drain_deadline: float = 60.0,
        concurrency: int = 4,
        report: Optional[ProvisionReport] = None,
        regions: Optional[List[str]] = None,
    ):
        """Kernel process: move the whole fleet to *target_build*.

        Regions update serially; inside a region, deployment nodes and
        then lite backends roll one at a time through
        :meth:`GatewayMesh.replace_backend` (drain → retire → relaunch →
        home-gateway attestation → gossip).  A deployment node is
        relaunched by :func:`~repro.core.rollout.rejoin_node` (SP
        re-admission) and re-taught the lite protocol; a lite backend
        by :meth:`LiteFleet.relaunch` at the new token.  Raises
        :class:`RolloutError` if any replacement fails admission;
        raises :class:`~repro.build.channel.ChannelError` if any node
        rejects the update — in both cases the fleet keeps serving from
        the old, still-golden measurement.
        """
        deployment, mesh, lite = self.deployment, self.mesh, self.lite_fleet
        gateways = [mesh.gateways[name] for name in sorted(mesh.gateways)]
        base_build = deployment.build
        old_measurement = bytes(base_build.expected_measurement)
        new_measurement = bytes(target_build.expected_measurement)
        check_rollout(deployment, target_build)
        clock = mesh.network.clock
        if report is None:
            report = ProvisionReport()
        report.image_name = base_build.image.name
        report.base_version = base_build.image.version
        report.target_version = target_build.image.version
        report.old_measurement = old_measurement.hex()
        report.new_measurement = new_measurement.hex()
        report.started_at = clock.now

        # -- discover ------------------------------------------------
        plan = self._discover()
        report.discovered = sum(len(members) for members in plan.values())

        # -- build + publish -----------------------------------------
        delta = compute_delta(base_build.image, target_build.image)
        signed = self.channel.publish(delta, old_measurement, new_measurement)
        report.epoch = signed.manifest.epoch
        blob = self.channel.blob(signed.manifest.delta_digest)
        # Widen trust to the target *before* any node moves (both must
        # be golden while the fleet is mixed), and only once the update
        # is published.
        registry = begin_rollout(
            deployment, gateways, target_build, node_registry
        )
        retired_requests_before = self._retired_requests()

        def relaunch(kind, member):
            if kind == "deployment":
                rejoin_node(
                    deployment, member, target_build, app_factory, registry
                )
                if lite is not None:
                    # The replacement re-bound port 443; restore the
                    # lite dispatcher in front of its fresh TLS handler.
                    lite.adopt_node(deployment.nodes[member])
                return
            # The new workload's golden joins the fleet's map; sync it
            # to every shard before the home gateway re-attests.
            lite.relaunch(member, token=new_measurement)
            for gateway in gateways:
                lite.sync_gateway(gateway)

        update_regions = regions
        if update_regions is None:
            update_regions = sorted(
                (region for region in plan if region is not None), key=str
            )
            if None in plan:
                update_regions.append(None)

        # -- deliver / apply / re-attest / admit, region-serial ------
        for region in update_regions:
            if region not in plan:
                continue
            region_started = clock.now
            replaced: List[dict] = []
            for ip_address, kind, member in plan[region]:
                node_started = clock.now
                applied = self._node_update(
                    base_build.image, signed, blob, report,
                    node_measurement=old_measurement,
                )
                if applied.disk_image != target_build.image.disk_image:
                    raise RolloutError(
                        f"applied image for {ip_address} is not the target"
                    )
                rounds, verdict = yield from mesh.replace_backend(
                    ip_address, partial(relaunch, kind, member),
                    drain_poll=drain_poll, drain_deadline=drain_deadline,
                    concurrency=concurrency,
                )
                report.reattested += 1
                if not verdict.ok:
                    raise RolloutError(
                        f"replacement {ip_address} failed admission: "
                        f"{verdict.reason} ({verdict.detail})"
                    )
                report.admitted += 1
                replaced.append(
                    {
                        "ip_address": ip_address,
                        "kind": kind,
                        "drain_poll_rounds": rounds,
                        "sim_seconds": clock.now - node_started,
                    }
                )
            report.regions.append(
                {
                    "region": region,
                    "replacements": replaced,
                    "sim_seconds": clock.now - region_started,
                }
            )

        # -- finalize: revoke the old world --------------------------
        finish_rollout(deployment, gateways, target_build, fleet=lite)
        report.requests_to_unattested = (
            self._retired_requests() - retired_requests_before
        )
        report.finished_at = clock.now
        return report

    # -- instrumentation --------------------------------------------

    def _retired_requests(self) -> int:
        """Total requests any gateway routed to a retired backend."""
        total = 0
        for name in sorted(self.mesh.gateways):
            for counter, value in (
                self.mesh.gateways[name].counters_snapshot().items()
            ):
                if counter.endswith(".requests_after_retired"):
                    total += value
        return total
