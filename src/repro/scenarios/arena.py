"""The worlds campaigns run in.

One class per arena (see :mod:`repro.scenarios.spec`):

* :class:`StormWorld` — a deployed SNP fleet (plus optional
  heterogeneous backends) behind a :class:`~repro.fleet.FleetGateway`
  on a fresh event kernel, ready to be stormed.  It also owns the
  resources injectors share: deterministic DRBG forks, a rogue-IP
  allocator, the fleet's shared TLS identity (for serving impostor or
  rogue evidence the way real backends serve theirs), and lookups from
  backend IP to the deployed node.
* :class:`PipelineWorld` — per-family attestation infrastructure and a
  verifier holding every family's trust material, for direct-pipeline
  scenarios (the long tail of reason codes that need no traffic).
* :class:`LaunchWorld` — just the build; launch scenarios construct a
  fresh one-node deployment per boot attempt (boot attacks destroy
  their victim, so nothing is shared).

Everything is seeded: two worlds built with the same build, campaign,
and seed behave identically event for event.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from ..amd.policy import GuestPolicy
from ..attest import (
    AttestationVerifier,
    CcaTrust,
    TdxTrust,
    TeeFamily,
    VerifyFarm,
    VtpmTrust,
)
from ..amd.kds import KeyDistributionServer
from ..amd.secure_processor import AmdKeyInfrastructure
from ..cca.realms import ArmInfrastructure
from ..core import RevelioDeployment
from ..core.guest import WELL_KNOWN_ATTESTATION_PATH
from ..core.kds_client import KdsClient
from ..core.key_sharing import report_data_for
from ..crypto.drbg import HmacDrbg
from ..fleet import FleetGateway, HeterogeneousFleet
from ..net.http import HttpResponse, HttpServer
from ..net.latency import LatencyModel, SimClock
from ..sim import EventKernel, SimRng
from ..tdx.module import IntelInfrastructure, ProvisioningCertificationService
from ..vtpm.vtpm import Vtpm


class StormWorld:
    """A gateway-fronted fleet plus everything injectors need."""

    def __init__(self, build, campaign, seed: int, farm: bool = False):
        self.build = build
        self.campaign = campaign
        self.seed = seed
        self.deployment = RevelioDeployment(
            build,
            num_nodes=campaign.backends,
            seed=f"scenarios-{campaign.name}-{seed}".encode(),
        ).deploy()
        self.network = self.deployment.network
        self.kernel = EventKernel(self.network.clock, SimRng(seed))
        self.network.enable_event_mode(self.kernel)

        self.farm: Optional[VerifyFarm] = None
        if farm:
            self.farm = VerifyFarm(
                clock=self.network.clock,
                latency=self.network.latency,
                seed=f"scenarios-farm-{seed}".encode(),
            )
        tier_families = {
            "high": (str(TeeFamily.SEV_SNP), str(TeeFamily.VTPM)),
            "bulk": None,
            # A tier whose family set has no registered backends, so a
            # hello tagged with it exhausts routing (no_healthy_backend)
            # without touching the tiers real traffic uses.
            campaign.empty_tier: (str(TeeFamily.CCA),),
        }
        self.gateway = FleetGateway.for_deployment(
            self.deployment,
            kernel=self.kernel,
            farm=self.farm,
            tier_families=tier_families,
        )
        verdicts = self.gateway.admit_all()
        assert all(v.ok for v in verdicts), [
            (v.ip_address, v.reason) for v in verdicts if not v.ok
        ]

        self.hetero = HeterogeneousFleet(self.deployment)
        self.hetero_ips: Dict[str, List[str]] = {}
        subnets = {
            str(TeeFamily.TDX): "10.8.1.",
            str(TeeFamily.CCA): "10.8.2.",
            str(TeeFamily.VTPM): "10.8.3.",
        }
        for family in campaign.hetero_families:
            ip = subnets[str(family)] + "10"
            self.hetero.add_backend(ip, family)
            self.hetero_ips.setdefault(str(family), []).append(ip)
        # Attached even with no backends: family scenarios still need
        # the contexts (e.g. a rogue registered under a family with no
        # honest peers).
        verdicts = self.hetero.attach_gateway(self.gateway)
        assert all(v.ok for v in verdicts), [
            (v.ip_address, v.reason) for v in verdicts if not v.ok
        ]

        self.node_ips = [
            self.deployment.node_ip(i) for i in range(campaign.backends)
        ]

        #: The fleet's shared TLS identity and the evidence binding it.
        self.chain = self.hetero.chain
        self.tls_key = self.hetero.tls_key
        self.binding = self.hetero.binding
        #: Deterministic entropy for injectors (forked per use).
        self.drbg = self.deployment.rng.fork(b"scenario-injectors")
        #: Attacker vantage point outside the fleet.
        self.attacker = self.network.add_host("attacker", "10.66.0.1")
        self.monitor = None  # wired by the runner when it spawns one
        self._rogue_counter = 0
        self._foreign_amd: Optional[AmdKeyInfrastructure] = None

    # -- lookups ----------------------------------------------------

    def victim_ip(self, index: int = 0) -> str:
        """The attacked SNP backend: the indexed node if it is
        currently admitted, else the first admitted node (on the
        rollout axis the indexed node may be mid-replacement — attacks
        always target a healthy victim so their expected code, not a
        replacement artifact, is what lands)."""
        preferred = self.node_ips[index % len(self.node_ips)]
        candidates = [preferred] + [
            ip for ip in self.node_ips if ip != preferred
        ]
        for ip_address in candidates:
            backend = self.gateway.backends.get(ip_address)
            if backend is not None and backend.state == "admitted":
                return ip_address
        return preferred

    def node_for(self, ip_address: str):
        """The deployed node (vm/host/node) behind a backend IP —
        looked up live, because a rolling rollout replaces
        ``deployment.nodes`` entries in place."""
        for deployed in self.deployment.nodes:
            if deployed.host.ip_address == ip_address:
                return deployed
        raise KeyError(f"no deployed node at {ip_address}")

    def next_rogue_ip(self) -> str:
        self._rogue_counter += 1
        return f"10.66.1.{self._rogue_counter}"

    def foreign_amd(self) -> AmdKeyInfrastructure:
        """A second vendor root the deployment's KDS knows nothing
        about (``unknown_platform`` evidence)."""
        if self._foreign_amd is None:
            self._foreign_amd = AmdKeyInfrastructure(
                self.drbg.fork(b"foreign-amd")
            )
        return self._foreign_amd

    # -- rogue serving ----------------------------------------------

    def serve_evidence(self, ip_address: str, body: Optional[bytes],
                       status: int = 200, chain=None, tls_key=None):
        """Stand up a host at *ip_address* serving *body* at the
        well-known attestation path over the fleet's shared TLS
        identity (or an impostor's *chain*/*tls_key*).  ``status`` !=
        200 models a missing endpoint.  Returns the host."""
        name = f"rogue-{ip_address}"
        host = self.network.add_host(name, ip_address)
        server = HttpServer(name)
        if status == 200:
            payload = body if body is not None else b""
            responder = lambda request, context: HttpResponse.ok(  # noqa: E731
                payload, "application/octet-stream"
            )
        else:
            responder = lambda request, context: HttpResponse(  # noqa: E731
                status=status, body=b""
            )
        server.add_route(
            "GET", WELL_KNOWN_ATTESTATION_PATH, responder,
            processing_time=self.deployment.latency.report_endpoint_processing,
        )
        server.serve_tls(
            host,
            chain if chain is not None else self.chain,
            tls_key if tls_key is not None else self.tls_key,
            self.drbg.fork(b"rogue-tls:" + ip_address.encode()),
        )
        return host

    def remove_host(self, ip_address: str) -> None:
        self.network.remove_host(ip_address)

    def close(self) -> None:
        if self.farm is not None:
            self.farm.uninstall()


class PipelineWorld:
    """Per-family infrastructure for direct-verifier scenarios."""

    def __init__(self, seed: int = 0):
        self.rng = HmacDrbg(f"scenario-pipeline-{seed}".encode())
        self.clock = SimClock()
        self.amd = AmdKeyInfrastructure(self.rng.fork(b"amd"))
        self.kds_server = KeyDistributionServer(self.amd)
        self.kds = KdsClient(self.kds_server, self.clock, LatencyModel())
        self.chip = self.amd.provision_chip("scenario-snp")
        self.other_chip = self.amd.provision_chip("scenario-snp-2")
        self.guest = self.chip.launch_vm(b"scenario-snp-image", GuestPolicy())

        self.intel = IntelInfrastructure(self.rng.fork(b"intel"))
        self.pcs = ProvisioningCertificationService(self.intel)
        self.td = self.intel.provision_platform("scenario-tdx").launch_td(
            b"scenario-td-image"
        )

        self.arm = ArmInfrastructure(self.rng.fork(b"arm"))
        self.cca_platform = self.arm.provision_platform("scenario-cca")
        self.cca_platform_b = self.arm.provision_platform("scenario-cca-b")
        self.cpaks = {
            self.cca_platform.platform_id: self.arm.cpak_certificate(
                self.cca_platform
            ),
            self.cca_platform_b.platform_id: self.arm.cpak_certificate(
                self.cca_platform_b
            ),
        }
        self.realm = self.cca_platform.launch_realm(b"scenario-realm-image")
        self.realm_b = self.cca_platform_b.launch_realm(b"scenario-realm-b")

        self.binding = hashlib.sha256(b"scenario-pipeline").digest() + b"\x00" * 32
        self._foreign_amd: Optional[AmdKeyInfrastructure] = None
        self.verifier = self.make_verifier()

    def contexts(self, vtpm_trust=None) -> Dict[str, object]:
        return {
            str(TeeFamily.TDX): TdxTrust(self.pcs),
            str(TeeFamily.CCA): CcaTrust(
                lambda platform_id: self.cpaks[platform_id],
                (self.arm.root.certificate,),
            ),
            str(TeeFamily.VTPM): (
                vtpm_trust if vtpm_trust is not None else VtpmTrust(self.kds)
            ),
        }

    def make_verifier(self, kds=None, contexts=None) -> AttestationVerifier:
        """A verifier over the world's trust material; counters flow to
        the process tracer so campaign reports see them."""
        return AttestationVerifier(
            kds if kds is not None else self.kds,
            site="scenario-pipeline",
            contexts=self.contexts() if contexts is None else contexts,
        )

    def foreign_amd(self) -> AmdKeyInfrastructure:
        if self._foreign_amd is None:
            self._foreign_amd = AmdKeyInfrastructure(
                self.rng.fork(b"foreign-amd")
            )
        return self._foreign_amd

    def fresh_vtpm(self, label: str) -> Vtpm:
        """A vTPM with its own deterministic stream (modes that extend
        PCRs must not leak state into each other)."""
        return Vtpm(self.rng.fork(b"vtpm:" + label.encode()))

    def ak_endorsement(self, vtpm: Vtpm):
        """The AMD-SP endorsement binding this world's SNP guest to a
        vTPM's attestation key."""
        return self.guest.get_report(
            report_data_for(
                hashlib.sha256(vtpm.ak_public.encode()).digest()
            )
        )


class LaunchWorld:
    """Launch-time scenarios build a fresh deployment per boot."""

    def __init__(self, build):
        self.build = build
