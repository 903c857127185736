"""The attestation-aware L7 gateway.

An opaque-forwarding load balancer: TLS terminates on the *backends*
(every fleet node serves the shared attested identity), so the gateway
routes on the cleartext envelope fields only — ``client_hello`` starts
a session on a backend chosen by the balancing policy, ``record``
messages follow their session's affinity.  End-to-end the client still
pins the fleet TLS key through the attested well-known flow; the
gateway cannot read or forge traffic.

Admission is attestation-gated: a backend serves *new* sessions only
while its latest :mod:`repro.attest` verdict is passing and fresh
(``verdict_ttl``).  On verification failure, health-check timeout, or a
dead peer the backend is evicted with a stable reason code from the
PR-2 taxonomy (extended with the gateway-level codes
``backend_unreachable``, ``health_timeout``, ``kds_unreachable``,
``family_mismatch``, ``no_healthy_backend``), its sessions are
severed, and clients transparently re-handshake onto a healthy peer
(the fleet key is shared, so their pinned key stays valid).

The fleet may be **heterogeneous**: every backend is registered with
its TEE family (SEV-SNP, TDX, CCA, e-vTPM), and each probe runs the
family-dispatched pipeline under one flat
:class:`~repro.attest.VerificationPolicy` built for the evidence's
family from plain ``family -> value`` maps: that family's goldens
(``golden_measurements``; a family without an entry is checked against
an empty set and fails closed) and TCB floor (``tcb_floors``), plus the
revocations every family shares.  Sessions are **tier-routed** — the
cleartext ``tier`` tag in the client hello picks which families may
serve the session (``tier_families``; e.g. high-sensitivity sessions
only land on SNP or SNP-endorsed e-vTPM backends, bulk sessions on any
passing family).  Fleet-wide family revocation
(:meth:`FleetGateway.revoke_family`) evicts with ``family_not_allowed``;
a raised TCB floor fails the family's next re-attestation with
``tcb_too_old``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..attest import (
    ALL_FAMILIES,
    AttestationVerifier,
    TeeFamily,
    VerificationPolicy,
)
from ..core.guest import WELL_KNOWN_ATTESTATION_PATH, decode_attestation_evidence
from ..core.key_sharing import report_data_for
from ..crypto import encoding
from ..net.http import HTTPS_PORT, HttpRequest, HttpResponse
from ..net.simnet import Network, NetworkError
from ..net.tls import tls_connect
from ..sim.resources import Server

#: Balancing policies (pluggable via the ``balancer`` argument).
BALANCERS = ("round_robin", "least_outstanding", "weighted_latency")

#: The gateway layer's own stable reason codes — everything the probe,
#: routing, and health machinery can emit *in addition to* the
#: pipeline's ``ATTEST_REASON_CODES``.  Campaign taxonomy tests diff
#: this set against the codes their scenarios actually reached, so a
#: new code added here without a scenario fails loudly.
GATEWAY_REASON_CODES = frozenset({
    "backend_unreachable",   # probe/forward TLS connect failed
    "family_mismatch",       # evidence family != registered family
    "health_timeout",        # liveness probe exceeded the monitor budget
    "kds_unreachable",       # verdict freshness unconfirmable (fail closed)
    "malformed_report",      # well-known body undecodable
    "malformed_request",     # client envelope undecodable
    "no_healthy_backend",    # zero admitted backends for the session tier
    "report_unavailable",    # well-known endpoint non-200
    "session_severed",       # record for a session whose backend died
    "unknown_backend",       # operation on an unregistered address
})


class GatewayError(NetworkError):
    """A routing failure with a stable machine-readable reason code."""

    def __init__(self, reason: str, detail: str = ""):
        message = f"gateway: {reason}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.reason = reason


@dataclass
class AdmissionVerdict:
    """Outcome of one backend attestation probe."""

    ip_address: str
    ok: bool
    reason: str = ""
    detail: str = ""


@dataclass
class BackendState:
    """What the gateway knows about one fleet VM."""

    ip_address: str
    #: pending -> admitted -> draining -> retired, or -> evicted/rejected
    state: str = "pending"
    #: Kernel service station replaying this backend's share of each
    #: request (models its concurrency limit); None in synchronous mode.
    server: Optional[Server] = None
    verdict_ok: bool = False
    verdict_reason: str = ""
    verdict_time: Optional[float] = None
    #: EWMA of recent forward latency (the weighted_latency signal).
    ewma_latency: Optional[float] = None
    consecutive_failures: int = 0
    requests_forwarded: int = 0
    #: Forwards attempted after retirement — the rollout acceptance
    #: criterion requires this to stay 0 for every drained backend.
    requests_after_retired: int = 0
    #: The TEE family this backend was registered under; its evidence
    #: must match (``family_mismatch`` otherwise) and tier routing
    #: filters on it.
    family: str = str(TeeFamily.SEV_SNP)
    #: Topology placement (mesh routing + hierarchical drains).
    region: Optional[str] = None

    def admittable(self, now: float, verdict_ttl: float) -> bool:
        """Eligible for *new* sessions: admitted + fresh passing verdict."""
        return (
            self.state == "admitted"
            and self.verdict_ok
            and self.verdict_time is not None
            and now - self.verdict_time <= verdict_ttl
        )

    def active(self) -> bool:
        """Still allowed to serve existing sessions."""
        return self.state in ("admitted", "draining")


class FleetGateway:
    """The gateway host plus its admission and routing state."""

    def __init__(
        self,
        network: Network,
        ip_address: str,
        domain: str,
        kds,
        trust_anchors,
        golden_measurements,
        rng=None,
        balancer: str = "round_robin",
        verdict_ttl: float = 300.0,
        max_retries: int = 3,
        kernel=None,
        name: str = "fleet-gateway",
        tier_families=None,
        default_tier: str = "bulk",
        contexts=None,
        region: Optional[str] = None,
        farm=None,
    ):
        if balancer not in BALANCERS:
            raise ValueError(f"unknown balancer {balancer!r}; pick from {BALANCERS}")
        self.network = network
        self.domain = domain
        self.kds = kds
        self.trust_anchors = list(trust_anchors)
        #: family -> golden measurements (sorted); a family without an
        #: entry is checked against an empty set and fails closed.
        self.golden_measurements: Dict[str, List[bytes]] = {
            str(family): sorted(bytes(m) for m in values)
            for family, values in golden_measurements.items()
        }
        #: Revoked measurements (sorted), refused in every family.
        self.revoked_measurements: List[bytes] = []
        #: family -> TCB floor in the family's native form (an AMD
        #: ``TcbVersion`` for SEV-SNP and the e-vTPM, an SVN for TDX
        #: and CCA).
        self.tcb_floors: Dict[str, object] = {}
        self._rng = rng
        self.balancer = balancer
        self.verdict_ttl = verdict_ttl
        self.max_retries = max_retries
        self.kernel = kernel
        #: Families revoked fleet-wide (re-attestation of their
        #: backends fails closed with ``family_not_allowed``).
        self.revoked_families: set = set()
        if tier_families is None:
            tier_families = {
                "high": (str(TeeFamily.SEV_SNP), str(TeeFamily.VTPM)),
                "bulk": None,
            }
        #: Session tier -> families allowed to serve it (None = any).
        self.tier_families: Dict[str, Optional[Tuple[str, ...]]] = {
            tier: (
                None
                if families is None
                else tuple(str(family) for family in families)
            )
            for tier, families in tier_families.items()
        }
        self.default_tier = default_tier
        #: Optional :class:`~repro.attest.farm.VerifyFarm` shared by
        #: this gateway's verifier (and, in a mesh, its peers): health
        #: re-attestation rounds settle every backend's signature
        #: checks in one batch equation.
        self.farm = farm
        self.verifier = AttestationVerifier(
            kds, site=name, contexts=contexts, farm=farm
        )
        self.name = name
        self.region = region
        #: Mesh hook: called as ``on_verdict(gateway, ip, family, ok,
        #: reason, verdict_time)`` after every locally produced verdict,
        #: so a :class:`~repro.fleet.mesh.GatewayMesh` can gossip it.
        self.on_verdict = None

        self.host = network.add_host(name, ip_address, region=region)
        self.host.listen(HTTPS_PORT, self._handle)

        self._backends: Dict[str, BackendState] = {}
        self._affinity: Dict[bytes, str] = {}
        self._rr_cursor = 0
        self._route_log: List[Tuple[str, float]] = []
        self.counters: Dict[str, int] = {}

    # -- construction -----------------------------------------------

    @classmethod
    def for_deployment(
        cls,
        deployment,
        kernel=None,
        ip_address: str = "10.9.0.1",
        concurrency: int = 4,
        register_dns: bool = True,
        **kwargs,
    ) -> "FleetGateway":
        """Front an existing :class:`RevelioDeployment`: one backend per
        fleet node, the service domain pointed at the gateway."""
        gateway = cls(
            network=deployment.network,
            ip_address=ip_address,
            domain=deployment.domain,
            kds=deployment._new_kds_client(),
            trust_anchors=[deployment.web_pki.trust_anchor],
            golden_measurements={
                str(TeeFamily.SEV_SNP): [deployment.build.expected_measurement]
            },
            rng=deployment.rng.fork(b"fleet-gateway"),
            kernel=kernel,
            **kwargs,
        )
        for deployed in deployment.nodes:
            gateway.add_backend(deployed.host.ip_address, concurrency=concurrency)
        if register_dns:
            deployment.network.dns.register(deployment.domain, ip_address)
        return gateway

    # -- backend lifecycle ------------------------------------------

    @property
    def backends(self) -> Dict[str, BackendState]:
        return self._backends

    def add_backend(self, ip_address: str, concurrency: int = 4,
                    family=TeeFamily.SEV_SNP, region: Optional[str] = None,
                    server: Optional[Server] = None) -> BackendState:
        """Register (or re-register, after a replacement) a backend in
        the ``pending`` state; it serves nothing until admitted.
        *family* declares the TEE technology the backend must prove.
        Pass an existing *server* to share one service station across
        every gateway of a mesh (the backend VM has one concurrency
        limit no matter how many gateways route to it)."""
        if server is None and self.kernel is not None:
            server = Server(
                self.kernel, concurrency, name=f"backend-{ip_address}"
            )
        backend = BackendState(
            ip_address=ip_address, server=server, family=str(family),
            region=region,
        )
        self._backends[ip_address] = backend
        return backend

    def _admission_policy(self, connection, family: str) -> VerificationPolicy:
        """The policy for one probe of *family* evidence: that family's
        goldens and TCB floor, the shared revocations, and the
        admissible family set after fleet-wide family revocations."""
        allowed = None
        if self.revoked_families:
            allowed = tuple(sorted(
                {str(each) for each in ALL_FAMILIES} - self.revoked_families
            ))
        return VerificationPolicy(
            golden_measurements=tuple(self.golden_measurements.get(family, ())),
            revoked_measurements=tuple(self.revoked_measurements),
            expected_report_data=report_data_for(
                connection.peer_public_key.fingerprint()
            ),
            minimum_tcb=self.tcb_floors.get(family),
            allowed_families=allowed,
        )

    def _probe_evidence(self, ip_address: str):
        """The probe half of an attestation: fresh TLS handshake,
        well-known evidence fetch, family sanity check.  Returns
        ``(evidence, policy)`` on success or a failure
        :class:`AdmissionVerdict` (already recorded)."""
        clock = self.network.clock
        try:
            connection = tls_connect(
                self.host,
                ip_address,
                HTTPS_PORT,
                self.domain,
                self.trust_anchors,
                self._rng,
                now=clock.epoch_seconds(),
            )
            raw = connection.request(
                HttpRequest("GET", WELL_KNOWN_ATTESTATION_PATH).encode()
            )
            response = HttpResponse.decode(raw)
        except ConnectionError as exc:
            return self._verdict(ip_address, False, "backend_unreachable", str(exc))
        if response.status != 200:
            return self._verdict(
                ip_address, False, "report_unavailable",
                f"well-known endpoint returned {response.status}",
            )
        try:
            evidence = decode_attestation_evidence(response.body)
        except Exception as exc:
            return self._verdict(ip_address, False, "malformed_report", str(exc))
        backend = self._backends.get(ip_address)
        if backend is not None and str(evidence.family) != backend.family:
            return self._verdict(
                ip_address, False, "family_mismatch",
                f"backend registered as {backend.family}, "
                f"evidence is {evidence.family}",
            )
        return evidence, self._admission_policy(connection, str(evidence.family))

    def attest_backend(self, ip_address: str) -> AdmissionVerdict:
        """Probe one backend through the full end-user flow: fresh TLS
        handshake, well-known evidence fetch, family-dispatched pipeline
        verification with the REPORT_DATA bound to the *probed
        connection's* key."""
        probe = self._probe_evidence(ip_address)
        if isinstance(probe, AdmissionVerdict):
            return probe
        evidence, policy = probe
        try:
            outcome = self.verifier.verify(
                evidence, now=self.network.clock.epoch_seconds(), policy=policy
            )
        except ConnectionError as exc:
            return self._verdict(ip_address, False, "kds_unreachable", str(exc))
        if not outcome.ok:
            return self._verdict(
                ip_address, False, outcome.reason, outcome.detail
            )
        return self._verdict(ip_address, True, "", "")

    def attest_many(self, ip_addresses) -> list:
        """Probe a group of backends, then settle every probe's
        signature equations in one verify-farm batch — shared ARK/ASK
        chain terms across the fleet are verified once per *round*, not
        once per backend.  Without a farm this degrades to sequential
        :meth:`attest_backend` semantics.  Returns one
        :class:`AdmissionVerdict` per address, in order."""
        ips = list(ip_addresses)
        verdicts: list = [None] * len(ips)
        pending = []  # (slot, ip, evidence, policy)
        for slot, ip_address in enumerate(ips):
            probe = self._probe_evidence(ip_address)
            if isinstance(probe, AdmissionVerdict):
                verdicts[slot] = probe
            else:
                pending.append((slot, ip_address, probe[0], probe[1]))
        if pending:
            now = self.network.clock.epoch_seconds()
            try:
                outcomes = self.verifier.verify_batch(
                    [evidence for _, _, evidence, _ in pending],
                    now=now,
                    policies=[policy for _, _, _, policy in pending],
                )
            except ConnectionError as exc:
                for slot, ip_address, _, _ in pending:
                    verdicts[slot] = self._verdict(
                        ip_address, False, "kds_unreachable", str(exc)
                    )
            else:
                for (slot, ip_address, _, _), outcome in zip(pending, outcomes):
                    verdicts[slot] = (
                        self._verdict(ip_address, True, "", "")
                        if outcome.ok
                        else self._verdict(
                            ip_address, False, outcome.reason, outcome.detail
                        )
                    )
        return verdicts

    def _verdict(self, ip_address: str, ok: bool, reason: str,
                 detail: str) -> AdmissionVerdict:
        backend = self._backends.get(ip_address)
        if backend is not None:
            backend.verdict_ok = ok
            backend.verdict_reason = reason
            backend.verdict_time = self.network.clock.now
        self._count("attestations_ok" if ok else f"attestations_failed.{reason}")
        if backend is not None:
            self._count(
                f"family.{backend.family}.attestations_ok"
                if ok
                else f"family.{backend.family}.attestations_failed.{reason}"
            )
            if self.on_verdict is not None:
                self.on_verdict(
                    self, ip_address, backend.family, ok, reason,
                    backend.verdict_time,
                )
        return AdmissionVerdict(ip_address, ok, reason, detail)

    def _apply_admission(
        self, ip_address: str, verdict: AdmissionVerdict
    ) -> AdmissionVerdict:
        """State transition for one attestation verdict: admit on pass,
        evict/reject (with the verdict's reason code) on fail."""
        backend = self._backends[ip_address]
        if verdict.ok:
            if backend.state in ("pending", "admitted"):
                if backend.state == "pending":
                    self._count(f"admissions.{backend.family}")
                backend.state = "admitted"
                backend.consecutive_failures = 0
        elif backend.state in ("admitted", "draining"):
            self.evict(ip_address, verdict.reason, verdict.detail)
        elif backend.state == "pending":
            backend.state = "rejected"
            self._count(f"admissions_rejected.{verdict.reason}")
        return verdict

    def attest_and_admit(self, ip_address: str) -> AdmissionVerdict:
        """Attest; admit on pass, evict/reject (with the verdict's
        reason code) on fail."""
        if ip_address not in self._backends:
            raise GatewayError("unknown_backend", ip_address)
        return self._apply_admission(ip_address, self.attest_backend(ip_address))

    def attest_and_admit_many(self, ip_addresses) -> list:
        """Group :meth:`attest_and_admit`: one verify-farm settlement
        covers the whole round's signature checks."""
        ips = list(ip_addresses)
        for ip_address in ips:
            if ip_address not in self._backends:
                raise GatewayError("unknown_backend", ip_address)
        return [
            self._apply_admission(ip_address, verdict)
            for ip_address, verdict in zip(ips, self.attest_many(ips))
        ]

    def accept_gossip(self, record, max_staleness: float) -> bool:
        """Apply a verdict gossiped by a peer gateway (DESIGN.md
        invariant 14: never honored past its TTL or outside this
        gateway's family policy).

        *record* carries ``backend_ip``, ``family``, ``ok``, ``reason``
        and the **origin's** ``verdict_time`` — freshness is judged
        against when the origin verified, not when the gossip arrived,
        so TTL expiry stays fleet-uniform.  A record is honored only if

        * the backend is registered here under the same family,
        * its age is within ``min(verdict_ttl, max_staleness)``,
        * the family is not revoked on *this* gateway, and
        * it is newer than the verdict this gateway already holds.

        Passing records admit pending backends (one re-attestation
        anywhere admits fleet-wide); failing records evict, propagating
        the origin's reason code.  Returns whether it was applied."""
        now = self.network.clock.now
        backend = self._backends.get(record.backend_ip)
        if backend is None:
            self._count("gossip.rejected.unknown_backend")
            return False
        if record.family != backend.family:
            self._count("gossip.rejected.family_mismatch")
            return False
        age = now - record.verdict_time
        if age < 0 or age > min(self.verdict_ttl, max_staleness):
            self._count("gossip.rejected.stale")
            return False
        if record.family in self.revoked_families:
            self._count("gossip.rejected.family_not_allowed")
            return False
        if (
            backend.verdict_time is not None
            and record.verdict_time <= backend.verdict_time
        ):
            self._count("gossip.rejected.older")
            return False
        backend.verdict_ok = record.ok
        backend.verdict_reason = record.reason
        backend.verdict_time = record.verdict_time
        self._count("gossip.applied")
        if record.ok:
            if backend.state == "pending":
                backend.state = "admitted"
                backend.consecutive_failures = 0
                self._count(f"admissions.{backend.family}")
                self._count("gossip.admissions")
        elif backend.active():
            self.evict(record.backend_ip, record.reason, "gossiped verdict")
        return True

    def admit_all(self) -> List[AdmissionVerdict]:
        """Attest every pending backend (initial fleet bring-up)."""
        return [
            self.attest_and_admit(ip)
            for ip in sorted(self._backends)
            if self._backends[ip].state == "pending"
        ]

    def evict(self, ip_address: str, reason: str, detail: str = "") -> None:
        """Stop routing to a backend and sever its sessions."""
        backend = self._backends.get(ip_address)
        if backend is None or backend.state in ("evicted", "retired"):
            return
        backend.state = "evicted"
        backend.verdict_ok = False
        backend.verdict_reason = reason
        self._count(f"evictions.{reason}")
        self._count(f"family.{backend.family}.evictions.{reason}")
        self._sever_sessions(ip_address)

    def revoke_family(self, family, reason: str = "family_not_allowed") -> None:
        """Fleet-wide family revocation (e.g. an architectural break
        disclosed for one vendor's TEE): remove *family* from the
        admissible set — its backends fail re-attestation with
        ``family_not_allowed`` from now on — and evict every active
        backend of that family immediately."""
        family = str(family)
        self.revoked_families.add(family)
        for ip_address in sorted(self._backends):
            backend = self._backends[ip_address]
            if backend.family == family and backend.active():
                self.evict(
                    ip_address, reason, f"family {family} revoked fleet-wide"
                )

    def mark_draining(self, ip_address: str) -> None:
        """No new sessions; existing sessions keep being served."""
        backend = self._backends.get(ip_address)
        if backend is not None and backend.state == "admitted":
            backend.state = "draining"
            self._count("drains_started")

    def retire(self, ip_address: str) -> None:
        """Final removal after a drain: sever whatever sessions remain."""
        backend = self._backends.get(ip_address)
        if backend is None or backend.state == "retired":
            return
        backend.state = "retired"
        backend.verdict_ok = False
        self._count("retirements")
        self._sever_sessions(ip_address)

    def close_session(self, session_id) -> None:
        """Forget a finished session's affinity (storm workloads close
        sessions explicitly so affinity memory stays bounded at
        million-session scale)."""
        if self._affinity.pop(session_id, None) is not None:
            self._count("sessions_closed")

    def _sever_sessions(self, ip_address: str) -> None:
        severed = [
            sid for sid, ip in self._affinity.items() if ip == ip_address
        ]
        for sid in severed:
            del self._affinity[sid]
        if severed:
            self._count("sessions_severed", len(severed))

    # -- routing ----------------------------------------------------

    def _handle(self, payload: bytes, context) -> bytes:
        try:
            message = encoding.decode(payload)
        except ValueError:
            self._count("requests_malformed")
            raise GatewayError("malformed_request") from None
        if not isinstance(message, dict):
            self._count("requests_malformed")
            raise GatewayError("malformed_request")
        message_type = message.get("type")
        if message_type == "client_hello":
            return self._route_new_session(payload, message)
        if message_type == "record":
            return self._route_record(message, payload)
        self._count("requests_malformed")
        raise GatewayError("malformed_request", f"type={message_type!r}")

    def _session_tier(self, message: Optional[dict]) -> str:
        """The effective tier of a hello: its cleartext ``tier`` tag if
        the gateway knows that tier, the default tier otherwise."""
        tier = (message or {}).get("tier") or self.default_tier
        if tier not in self.tier_families:
            tier = self.default_tier
        return tier

    def _route_new_session(self, payload: bytes,
                           message: Optional[dict] = None) -> bytes:
        now = self.network.clock.now
        tier = self._session_tier(message)
        tier_allowed = self.tier_families.get(tier)
        candidates = [
            self._backends[ip]
            for ip in sorted(self._backends)
            if self._backends[ip].admittable(now, self.verdict_ttl)
            and (tier_allowed is None
                 or self._backends[ip].family in tier_allowed)
        ]
        if not candidates:
            self._count("routing_failed.no_healthy_backend")
            self._count(f"tier.{tier}.routing_failed")
            raise GatewayError("no_healthy_backend", f"tier={tier}")
        attempts = 0
        for backend in self._preference_order(candidates):
            if attempts >= self.max_retries:
                break
            if not backend.active():  # evicted by an earlier attempt
                continue
            attempts += 1
            try:
                raw, elapsed = self._forward(backend, payload)
            except ConnectionError as exc:
                self.evict(backend.ip_address, "backend_unreachable", str(exc))
                self._count("retries")
                continue
            response = encoding.decode(raw)
            session_id = (
                response.get("session_id") if isinstance(response, dict) else None
            )
            if session_id is not None:
                self._affinity[session_id] = backend.ip_address
            self._count("sessions_opened")
            self._count(f"tier.{tier}.sessions_opened")
            return raw
        self._count("routing_failed.no_healthy_backend")
        self._count(f"tier.{tier}.routing_failed")
        raise GatewayError(
            "no_healthy_backend", f"all forward attempts failed (tier={tier})"
        )

    def _route_record(self, message: dict, payload: bytes) -> bytes:
        session_id = message.get("session_id")
        backend_ip = self._affinity.get(session_id)
        if backend_ip is None:
            self._count("records_severed")
            raise GatewayError("session_severed")
        backend = self._backends.get(backend_ip)
        if backend is None or not backend.active():
            self._affinity.pop(session_id, None)
            self._count("records_severed")
            raise GatewayError("session_severed", backend_ip)
        try:
            raw, _elapsed = self._forward(backend, payload)
        except ConnectionError as exc:
            self.evict(backend_ip, "backend_unreachable", str(exc))
            raise GatewayError("backend_unreachable", str(exc)) from exc
        return raw

    def _forward(self, backend: BackendState, payload: bytes) -> Tuple[bytes, float]:
        if backend.state == "retired":  # accounting guard; never routed
            backend.requests_after_retired += 1
        with self.network.measure() as scope:
            raw = self.host.request(backend.ip_address, HTTPS_PORT, payload)
        elapsed = scope.elapsed
        backend.requests_forwarded += 1
        if backend.ewma_latency is None:
            backend.ewma_latency = elapsed
        else:
            backend.ewma_latency = 0.8 * backend.ewma_latency + 0.2 * elapsed
        self._route_log.append((backend.ip_address, elapsed))
        self._count("requests_routed")
        return raw, elapsed

    def _preference_order(self, candidates: List[BackendState]) -> List[BackendState]:
        if self.balancer == "round_robin":
            self._rr_cursor += 1
            pivot = self._rr_cursor % len(candidates)
            return candidates[pivot:] + candidates[:pivot]
        if self.balancer == "least_outstanding":
            return sorted(
                candidates,
                key=lambda b: (
                    b.server.outstanding if b.server is not None else 0,
                    b.ip_address,
                ),
            )
        # weighted_latency: prefer the lowest recent forward latency;
        # unmeasured backends first so every backend gets sampled.
        return sorted(
            candidates,
            key=lambda b: (
                b.ewma_latency if b.ewma_latency is not None else -1.0,
                b.ip_address,
            ),
        )

    # -- instrumentation --------------------------------------------

    def take_routes(self) -> List[Tuple[str, float]]:
        """Drain the (backend_ip, elapsed) log of forwards since the
        last call — the workload replays these against each backend's
        kernel :class:`Server` to model contention."""
        routes, self._route_log = self._route_log, []
        return routes

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def counters_snapshot(self) -> Dict[str, int]:
        """Sorted counters in the ``attest/trace`` style, including the
        per-backend post-retirement forward counts (must stay 0)."""
        out = dict(self.counters)
        for ip in sorted(self._backends):
            backend = self._backends[ip]
            out[f"backend.{ip}.requests_forwarded"] = backend.requests_forwarded
            out[f"backend.{ip}.requests_after_retired"] = (
                backend.requests_after_retired
            )
        out["sessions_active"] = len(self._affinity)
        return {key: out[key] for key in sorted(out)}
