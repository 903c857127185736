"""The sharded control plane: gateway mesh, verdict gossip, lite fleet.

One gateway cannot front "the masses".  A :class:`GatewayMesh` shards
the control plane across N regional :class:`~repro.fleet.gateway.
FleetGateway` instances behind **consistent-hash session routing**
(clients land on a stable gateway per session key, so affinity never
crosses shards) and keeps their admission state coherent with
**verdict gossip**: every locally produced attestation verdict is
broadcast to the peer gateways, which honor it only within a bounded
staleness window and inside their own family policy (DESIGN.md
invariant 14).  One re-attestation of a backend — any TEE family —
therefore admits it fleet-wide without N duplicate probes; SNPGuard's
argument (arXiv:2406.01186) that attestation scales only when
verification work is shared across deployments, made concrete.

Scale pieces for the million-session storm:

* :class:`LiteFleet` — ~100 mixed-family
  :class:`~repro.fleet.hetero.HeterogeneousFleet` backends that serve
  the deployment's real shared TLS identity and real per-family
  evidence at the well-known URL (attestation probes are the genuine
  article) but answer storm traffic through a cheap *lite* session
  protocol: cleartext envelopes tagged ``lite`` that skip the
  per-session TLS handshake while still exercising the gateway's
  cleartext routing (hello -> affinity -> records) unchanged.
* :class:`MeshWorkload` — an open-loop storm over the mesh that holds
  O(pool) memory instead of O(sessions): a countdown plus one
  completion event replaces the per-process handle list, and sessions
  close their gateway affinity when they end.
* :meth:`GatewayMesh.replace_backend` — one rollout step over the
  mesh: the backend is drained on **every** gateway, relaunched,
  registered on a fresh service station, re-attested by its home
  gateway, and the verdict is gossiped to the rest of the mesh.
  :class:`~repro.fleet.provision.FleetProvisioner` drives it region by
  region, node by node.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..attest import TeeFamily
from ..crypto import encoding
from ..net.http import HTTPS_PORT
from ..net.simnet import Network
from ..sim.kernel import EventKernel, Interrupt, sleep, spawn, wait
from ..sim.metrics import MetricsRegistry
from ..sim.resources import Server
from ..sim.rng import SimRng
from .drain import drain_backend
from .gateway import FleetGateway
from .health import HealthMonitor
from .hetero import Backend, HeterogeneousFleet
from .workload import pick_tier, replay_routes


def _hash_point(key: bytes) -> int:
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


class ConsistentHashRing:
    """A sha256 hash ring with virtual nodes.

    Adding or removing one gateway moves only ~1/N of the keyspace, so
    session->gateway placement stays stable as the mesh grows."""

    def __init__(self, replicas: int = 64):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._points: List[int] = []
        self._owners: List[str] = []
        self._nodes: set = set()

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        pairs = list(zip(self._points, self._owners))
        for replica in range(self.replicas):
            point = _hash_point(f"{node}#{replica}".encode())
            pairs.append((point, node))
        pairs.sort()
        self._points = [point for point, _ in pairs]
        self._owners = [owner for _, owner in pairs]

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        pairs = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [point for point, _ in pairs]
        self._owners = [owner for _, owner in pairs]

    def node_for(self, key: bytes) -> str:
        """The owner of *key*: first virtual node clockwise of its hash."""
        if not self._points:
            raise ValueError("empty hash ring")
        index = bisect_right(self._points, _hash_point(bytes(key)))
        if index == len(self._points):
            index = 0
        return self._owners[index]


#: Stable rejection codes for gossiped verdicts (the ``gossip.rejected.*``
#: counter namespace on every gateway).  Forged, replayed, or stale
#: records must land on exactly one of these — campaign taxonomy tests
#: assert each is reached by at least one abuse scenario.
GOSSIP_REJECT_REASONS = frozenset({
    "family_mismatch",       # record's family != local registration
    "family_not_allowed",    # family revoked on the receiving gateway
    "older",                 # not newer than the verdict already held
    "stale",                 # aged past min(verdict_ttl, max_staleness)
    "unknown_backend",       # backend not registered on this shard
})


@dataclass(frozen=True)
class GossipedVerdict:
    """One attestation verdict travelling between gateways.

    ``verdict_time`` is the **origin's** verification time — receivers
    age the record against it, so a verdict expires at the same
    simulated instant on every gateway that honored it."""

    backend_ip: str
    family: str
    ok: bool
    reason: str
    verdict_time: float


#: Simulated seconds a backend spends answering one lite envelope.
LITE_PROCESSING_TIME = 0.002


class LiteFleet(HeterogeneousFleet):
    """Mixed-family storm backends sharing the deployment's identity.

    A :class:`~repro.fleet.hetero.HeterogeneousFleet` whose backends
    also speak the lite envelope protocol (``{"lite": True, "type":
    "client_hello" | "record", ...}``), dispatched *before* TLS on the
    same port.  Gateway attestation probes still fetch each workload's
    real evidence, indistinguishable from the full fleet's, while
    per-request cost stays flat enough for a million-session run."""

    label = "lite"

    def add_backend(self, ip_address: str, family,
                    region: Optional[str] = None) -> Backend:
        backend = super().add_backend(ip_address, family, region)
        self._wrap_lite(backend)
        return backend

    def adopt_deployment_nodes(self) -> List[Backend]:
        """Teach the deployment's real SNP nodes the lite protocol too
        (their TLS serving and attestation endpoint stay untouched), so
        a storm can span the whole mixed fleet."""
        return [
            self.adopt_node(deployed) for deployed in self.deployment.nodes
        ]

    def adopt_node(self, deployed) -> Backend:
        """Wrap one deployed SNP node's current TLS handler with the
        lite dispatcher (used again after a rollout replaces it)."""
        host = deployed.host
        backend = Backend(
            ip_address=host.ip_address,
            family=str(TeeFamily.SEV_SNP),
            region=host.region,
            host=host,
            server=None,
            measurement=bytes(self.deployment.build.expected_measurement),
        )
        self._wrap_lite(backend)
        return backend

    def _wrap_lite(self, backend: Backend) -> None:
        """Dispatch lite envelopes ahead of the TLS handler on 443."""
        tls_handler = backend.host.handler_for(HTTPS_PORT)
        suffix = backend.ip_address.encode()

        def dispatch(payload: bytes, context) -> bytes:
            try:
                message = encoding.decode(payload)
            except ValueError:
                message = None
            if not (isinstance(message, dict) and message.get("lite")):
                return tls_handler(payload, context)
            context.add_processing_time(LITE_PROCESSING_TIME)
            if message.get("type") == "client_hello":
                backend.sessions_opened += 1
                session_id = (
                    b"lite:" + suffix + b":"
                    + str(backend.sessions_opened).encode()
                )
                return encoding.encode(
                    {"type": "server_hello", "lite": True,
                     "session_id": session_id}
                )
            backend.records_served += 1
            return encoding.encode(
                {"type": "record", "lite": True,
                 "session_id": message.get("session_id"), "data": b"ok"}
            )

        backend.host.listen(HTTPS_PORT, dispatch)


class GatewayMesh:
    """N regional gateways sharing one admission truth via gossip."""

    def __init__(
        self,
        network: Network,
        kernel: Optional[EventKernel] = None,
        max_staleness: float = 120.0,
        gossip_interval: float = 5.0,
        ring_replicas: int = 64,
    ):
        self.network = network
        self.kernel = kernel
        #: A gossiped verdict older than this is never honored, even if
        #: the receiver's ``verdict_ttl`` would still accept it.
        self.max_staleness = max_staleness
        self.gossip_interval = gossip_interval
        self.gateways: Dict[str, FleetGateway] = {}
        self._ring = ConsistentHashRing(ring_replicas)
        self._pending: List[Tuple[str, GossipedVerdict]] = []
        self._servers: Dict[str, Server] = {}
        self.counters: Dict[str, int] = {}

    # -- construction -----------------------------------------------

    @classmethod
    def for_deployment(
        cls,
        deployment,
        kernel: Optional[EventKernel] = None,
        regions: Tuple[str, ...] = ("region-a", "region-b"),
        concurrency: int = 4,
        shared_farm: bool = False,
        **gateway_kwargs,
    ) -> "GatewayMesh":
        """One gateway per region; the deployment's nodes are placed
        round-robin across *regions* and registered on every gateway
        (sharing one service station per backend).  DNS points the
        service domain at the first region's gateway; storm clients
        route by consistent hash instead.

        ``shared_farm=True`` wires one
        :class:`~repro.attest.farm.VerifyFarm` across every regional
        gateway, so any gateway's re-attestation round batches against
        the same blinder DRBG and counter stream (an explicit ``farm``
        in *gateway_kwargs* wins)."""
        mesh = cls(deployment.network, kernel)
        if shared_farm and "farm" not in gateway_kwargs:
            from ..attest.farm import VerifyFarm

            gateway_kwargs["farm"] = VerifyFarm(
                clock=deployment.network.clock,
                latency=deployment.network.latency,
                seed=b"mesh-verify-farm",
            )
        for index, region in enumerate(regions):
            name = f"gateway-{region}"
            gateway = FleetGateway(
                network=deployment.network,
                ip_address=f"10.9.{index}.1",
                domain=deployment.domain,
                kds=deployment._new_kds_client(),
                trust_anchors=[deployment.web_pki.trust_anchor],
                golden_measurements={
                    str(TeeFamily.SEV_SNP):
                        [deployment.build.expected_measurement]
                },
                rng=deployment.rng.fork(b"mesh-gateway:" + name.encode()),
                kernel=kernel,
                name=name,
                region=region,
                **gateway_kwargs,
            )
            mesh.add_gateway(gateway)
        for index, deployed in enumerate(deployment.nodes):
            region = regions[index % len(regions)]
            deployed.host.region = region
            mesh.add_backend(
                deployed.host.ip_address,
                concurrency=concurrency,
                region=region,
            )
        deployment.network.dns.register(deployment.domain, "10.9.0.1")
        return mesh

    def add_gateway(self, gateway: FleetGateway) -> None:
        """Join a gateway to the mesh (and the hash ring) and start
        forwarding its locally produced verdicts into the gossip queue."""
        if gateway.name in self.gateways:
            raise ValueError(f"gateway {gateway.name!r} already in mesh")
        self.gateways[gateway.name] = gateway
        gateway.on_verdict = self._on_verdict
        self._ring.add(gateway.name)

    def add_backend(self, ip_address: str, concurrency: int = 4,
                    family=TeeFamily.SEV_SNP,
                    region: Optional[str] = None) -> None:
        """Register a backend on **every** gateway, all sharing one
        kernel service station — the VM has one concurrency limit no
        matter which shard routes to it."""
        server = self._servers.get(ip_address)
        if server is None and self.kernel is not None:
            server = Server(
                self.kernel, concurrency, name=f"backend-{ip_address}"
            )
            self._servers[ip_address] = server
        for name in sorted(self.gateways):
            self.gateways[name].add_backend(
                ip_address, concurrency=concurrency, family=family,
                region=region, server=server,
            )

    def attach_lite_fleet(self, fleet: LiteFleet) -> None:
        """Sync every gateway with the lite fleet's trust and register
        each of its backends mesh-wide."""
        for name in sorted(self.gateways):
            fleet.sync_gateway(self.gateways[name])
        for backend in fleet.backends:
            self.add_backend(
                backend.ip_address, family=backend.family,
                region=backend.region,
            )

    # -- lookup ------------------------------------------------------

    def gateway_for(self, session_key: bytes) -> FleetGateway:
        """The shard owning a session key (consistent hash)."""
        return self.gateways[self._ring.node_for(session_key)]

    def _registration(self, ip_address: str):
        """The backend's state on the first gateway that registered it."""
        for name in sorted(self.gateways):
            backend = self.gateways[name].backends.get(ip_address)
            if backend is not None:
                return backend
        return None

    def home_gateway(self, ip_address: str) -> FleetGateway:
        """The gateway responsible for probing a backend: the first
        gateway in its region, or its hash owner if no region matches."""
        registration = self._registration(ip_address)
        region = registration.region if registration is not None else None
        if region is not None:
            for name in sorted(self.gateways):
                if self.gateways[name].region == region:
                    return self.gateways[name]
        return self.gateway_for(ip_address.encode())

    def backend_regions(self) -> List[str]:
        regions = set()
        for name in sorted(self.gateways):
            for backend in self.gateways[name].backends.values():
                if backend.region is not None:
                    regions.add(backend.region)
        return sorted(regions)

    # -- admission + gossip -----------------------------------------

    def admit_all(self) -> List:
        """Initial bring-up: each backend is attested **once**, by its
        home gateway; the verdicts gossip to the other shards (which is
        the point — N gateways, one probe per backend)."""
        verdicts = []
        seen = set()
        for name in sorted(self.gateways):
            for ip_address in sorted(self.gateways[name].backends):
                if ip_address in seen:
                    continue
                seen.add(ip_address)
                home = self.home_gateway(ip_address)
                if home.backends[ip_address].state == "pending":
                    verdicts.append(home.attest_and_admit(ip_address))
        self.flush_gossip()
        return verdicts

    def _on_verdict(self, gateway: FleetGateway, ip_address: str,
                    family: str, ok: bool, reason: str,
                    verdict_time: float) -> None:
        self._pending.append(
            (
                gateway.name,
                GossipedVerdict(ip_address, family, ok, reason, verdict_time),
            )
        )
        self._count("gossip.published")

    def flush_gossip(self) -> int:
        """Broadcast every queued verdict to the peer gateways.  With a
        kernel, each delivery is a process that pays the one-way
        inter-gateway network delay; synchronously it applies at once.
        Returns the number of deliveries initiated."""
        records, self._pending = self._pending, []
        deliveries = 0
        for origin_name, record in records:
            origin = self.gateways[origin_name]
            for name in sorted(self.gateways):
                if name == origin_name:
                    continue
                target = self.gateways[name]
                deliveries += 1
                if self.kernel is None:
                    target.accept_gossip(record, self.max_staleness)
                    continue
                delay = self.network.rtt_between(origin.host, target.host) / 2.0
                self.kernel.spawn(
                    self._deliver(target, record, delay),
                    name=f"gossip:{origin_name}->{name}:{record.backend_ip}",
                )
        if deliveries:
            self._count("gossip.deliveries", deliveries)
        return deliveries

    def _deliver(self, target: FleetGateway, record: GossipedVerdict,
                 delay: float):
        if delay > 0:
            yield sleep(delay)
        target.accept_gossip(record, self.max_staleness)

    def gossip_process(self):
        """Kernel process: flush the gossip queue periodically."""
        try:
            while True:
                yield sleep(self.gossip_interval)
                self.flush_gossip()
        except Interrupt:
            return

    def monitors(self, **monitor_kwargs) -> List[HealthMonitor]:
        """One health monitor per gateway, scoped (in a regioned mesh)
        to that gateway's own region — each backend is probed and
        re-attested by exactly one shard per round, and gossip keeps
        the others fresh."""
        monitors = []
        for name in sorted(self.gateways):
            gateway = self.gateways[name]
            backend_filter = None
            if gateway.region is not None:
                home = self.home_gateway
                backend_filter = (
                    lambda backend, _gw=gateway: home(
                        backend.ip_address
                    ) is _gw
                )
            monitors.append(
                HealthMonitor(
                    gateway, backend_filter=backend_filter, **monitor_kwargs
                )
            )
        return monitors

    def replace_backend(self, ip_address: str, relaunch,
                        drain_poll: float = 0.05,
                        drain_deadline: float = 60.0,
                        concurrency: int = 4):
        """Kernel process: one rollout step.  Drain the backend on every
        gateway and retire it, call ``relaunch()``, register the
        replacement (same family and region) on a fresh service
        station, have its home gateway attest it, and gossip the verdict
        to the other shards.  Returns ``(drain poll rounds, verdict)``;
        the replacement serves only once its fresh verdict passes."""
        registration = self._registration(ip_address)
        rounds = yield from drain_backend(
            [self.gateways[name] for name in sorted(self.gateways)],
            ip_address, poll_interval=drain_poll, deadline=drain_deadline,
        )
        relaunch()
        self._servers.pop(ip_address, None)
        self.add_backend(
            ip_address, concurrency=concurrency,
            family=registration.family, region=registration.region,
        )
        verdict = self.home_gateway(ip_address).attest_and_admit(ip_address)
        self.flush_gossip()
        return rounds, verdict

    # -- faults ------------------------------------------------------

    def revoke_family(self, family, reason: str = "family_not_allowed") -> None:
        """Fleet-wide family revocation on every shard at once (policy
        changes are control-plane config, not gossip)."""
        for name in sorted(self.gateways):
            self.gateways[name].revoke_family(family, reason)

    # -- instrumentation --------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def counters_snapshot(self) -> Dict[str, int]:
        """Mesh counters plus every gateway's, namespaced and sorted."""
        out = dict(self.counters)
        for name in sorted(self.gateways):
            for key, value in self.gateways[name].counters_snapshot().items():
                out[f"{name}.{key}"] = value
        return {key: out[key] for key in sorted(out)}


#: Sentinel returned by :meth:`MeshWorkload._exchange` when the gateway
#: severed the session's affinity (a drain/retire mid-session) — the
#: client recovers by re-handshaking, it is not a request failure.
_SEVERED = object()


class MeshWorkload:
    """An open-loop lite-session storm over a :class:`GatewayMesh`.

    Unlike :class:`~repro.fleet.workload.FleetWorkload`, memory stays
    bounded at million-session scale: no per-session process handles
    are retained (a countdown fires one completion event) and each
    session closes its gateway affinity when it ends.  A session whose
    affinity is severed by a rollout transparently re-handshakes onto a
    healthy backend (the paper's end-user contract) instead of failing."""

    def __init__(
        self,
        mesh: GatewayMesh,
        kernel: EventKernel,
        rng: Optional[SimRng] = None,
        metrics: Optional[MetricsRegistry] = None,
        think_time_mean: float = 2.0,
        records_per_session: int = 2,
        client_regions: Optional[Tuple[str, ...]] = None,
        client_ip_prefix: str = "10.3",
        tier_weights=None,
    ):
        self.mesh = mesh
        self.kernel = kernel
        rng = rng or SimRng(0)
        self._think_rng = rng.fork("think")
        self._arrival_rng = rng.fork("arrivals")
        self._tier_rng = rng.fork("tiers")
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            kernel.clock, rng=rng.fork("metrics")
        )
        self.think_time_mean = think_time_mean
        self.records_per_session = records_per_session
        self.tier_weights = dict(tier_weights) if tier_weights else None
        regions = tuple(client_regions or mesh.backend_regions() or (None,))
        self._clients = []
        for index, region in enumerate(regions):
            label = region if region is not None else "flat"
            self._clients.append(
                mesh.network.add_host(
                    f"mesh-client-{label}",
                    f"{client_ip_prefix}.{index}.1",
                    region=region,
                )
            )
        self.sessions_completed = 0
        self.sessions_failed = 0
        self._remaining = 0
        self._done = None

    # -- one exchange -----------------------------------------------

    def _exchange(self, client, gateway: FleetGateway, message: dict,
                  kind: str):
        """Send one lite envelope through *gateway*, replay the
        backend's share against its shared service station, sleep the
        client-side remainder, and record latency.  Returns the decoded
        response, or None on a routing failure."""
        network = self.mesh.network
        started = network.clock.now
        payload = encoding.encode(message)
        failure = None
        raw = b""
        with network.measure() as scope:
            try:
                raw = client.request(
                    gateway.host.ip_address, HTTPS_PORT, payload
                )
            except ConnectionError as exc:
                failure = getattr(exc, "reason", "") or "connection_error"
        yield from replay_routes(gateway, scope.elapsed)
        metrics = self.metrics
        metrics.increment("requests_total")
        if failure == "session_severed":
            metrics.increment("requests_severed")
            return _SEVERED
        if failure is not None:
            metrics.increment("requests_failed")
            return None
        metrics.increment("requests_ok")
        metrics.reservoir("latency.all").observe(network.clock.now - started)
        metrics.reservoir(f"latency.{kind}").observe(
            network.clock.now - started
        )
        return encoding.decode(raw)

    def _session(self, index: int):
        client = self._clients[index % len(self._clients)]
        session_key = b"session:%d" % index
        gateway = self.mesh.gateway_for(session_key)
        hello = {"type": "client_hello", "lite": True, "n": index}
        tier = pick_tier(self.tier_weights, self._tier_rng)
        if tier is not None:
            hello["tier"] = tier
        session_id = None
        try:
            response = yield from self._exchange(
                client, gateway, hello, "hello"
            )
            if response is None or response is _SEVERED:
                self.sessions_failed += 1
                return
            session_id = response["session_id"]
            for _ in range(self.records_per_session):
                yield sleep(
                    self._think_rng.expovariate(1.0 / self.think_time_mean)
                )
                for attempt in range(3):
                    record = {
                        "type": "record", "lite": True,
                        "session_id": session_id,
                    }
                    response = yield from self._exchange(
                        client, gateway, record, "record"
                    )
                    if response is not _SEVERED:
                        break
                    # A rollout severed our affinity mid-session:
                    # re-handshake onto a healthy backend and resend.
                    self.metrics.increment("sessions_rehandshaked")
                    response = yield from self._exchange(
                        client, gateway, dict(hello), "hello"
                    )
                    if response is None or response is _SEVERED:
                        break
                    session_id = response["session_id"]
                    response = _SEVERED  # not yet resent
                if response is None or response is _SEVERED:
                    self.sessions_failed += 1
                    return
            self.sessions_completed += 1
        finally:
            if session_id is not None:
                gateway.close_session(session_id)
            self._remaining -= 1
            if self._remaining == 0 and self._done is not None:
                self._done.succeed()

    # -- drive -------------------------------------------------------

    def open_loop(self, sessions: int, arrival_rate: float):
        """Kernel process: Poisson arrivals at *arrival_rate* per
        virtual second; finishes when the last session does."""
        if sessions < 1:
            return
        self._remaining = sessions
        self._done = self.kernel.event("mesh-storm-done")
        for index in range(sessions):
            yield sleep(self._arrival_rng.expovariate(arrival_rate))
            yield spawn(self._session(index), name=f"lite-session-{index}")
        yield wait(self._done)

    # -- results -----------------------------------------------------

    def snapshot(self) -> dict:
        """Workload metrics + mesh counters, sorted and JSON-safe."""
        out = dict(self.metrics.snapshot())
        for key, value in self.mesh.counters_snapshot().items():
            out[f"mesh.{key}"] = value
        out["sessions_completed"] = self.sessions_completed
        out["sessions_failed"] = self.sessions_failed
        return {key: out[key] for key in sorted(out)}
