"""The SP node: the service provider's isolated provisioning machine.

Runs on the provider's premises (not in the cloud), holds the DNS API
credentials and the ACME account, and orchestrates certificate
provisioning for the fleet (sections 3.4.6 and 5.3.1, Fig. 4):

1. retrieve each node's CSR + report bundle,
2. attest every node — golden measurement, REPORT_DATA = H(CSR),
   Chip-ID allow-list, IP allow-list,
3. pick a leader, obtain the SSL certificate for the leader's CSR via
   ACME DNS-01,
4. distribute the certificate (and the leader's address) to all nodes,
   which then run the mutual-attestation key exchange among themselves.

Phase timings are recorded (simulated network seconds *and* real
compute seconds) so the Table 2 benchmark can report the same rows the
paper does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..amd.verify import AttestationError
from ..attest import AttestationVerifier, snp_evidence
from ..crypto import encoding
from ..crypto.x509 import Certificate, CertificateSigningRequest
from ..net.http import HttpRequest, HttpResponse
from ..net.simnet import Host
from ..pki.certbot import CertbotClient
from .guest import BOOTSTRAP_PORT
from .kds_client import KdsClient
from .key_sharing import BUNDLE_KIND_CSR, ReportBundle, bundle_policy


class ProvisioningError(RuntimeError):
    """Fleet provisioning failed (attestation or distribution)."""


@dataclass
class PhaseTiming:
    """One provisioning phase's cost."""

    simulated_seconds: float
    real_seconds: float


@dataclass
class AttestedNode:
    """A fleet node that passed SP attestation."""

    ip_address: str
    csr: CertificateSigningRequest
    bundle: ReportBundle


@dataclass
class ProvisioningResult:
    """Outcome of one fleet provisioning round."""

    leader_ip: str
    certificate_chain: List[Certificate]
    attested: List[AttestedNode]
    timings: Dict[str, PhaseTiming] = field(default_factory=dict)


class ServiceProviderNode:
    """The SP machine (isolated from the public cloud)."""

    def __init__(
        self,
        host: Host,
        certbot: CertbotClient,
        kds: KdsClient,
        domain: str,
        expected_measurements: Iterable[bytes],
        approved_chip_ids: Optional[Iterable[bytes]] = None,
        approved_ips: Optional[Iterable[str]] = None,
    ):
        self.host = host
        self.certbot = certbot
        self.kds = kds
        self.domain = domain
        self.expected_measurements = [bytes(m) for m in expected_measurements]
        self.approved_chip_ids = (
            [bytes(c) for c in approved_chip_ids]
            if approved_chip_ids is not None
            else None
        )
        self.approved_ips = set(approved_ips) if approved_ips is not None else None
        #: Measurements revoked after image rollouts (section 6.1.4).
        self.revoked_measurements: set = set()
        self.verifier = AttestationVerifier(kds, site="sp_node")

    # -- public API -----------------------------------------------------------

    def revoke_measurement(self, measurement: bytes) -> None:
        """Revoke an obsolete golden value (rollback-attack prevention)."""
        self.revoked_measurements.add(bytes(measurement))
        self.expected_measurements = [
            m for m in self.expected_measurements if m != bytes(measurement)
        ]

    def retrieve_csr_bundle(self, node_ip: str) -> ReportBundle:
        """Fetch one node's CSR + report ("evidence retrieval")."""
        raw = self.host.request(
            node_ip,
            BOOTSTRAP_PORT,
            HttpRequest("GET", "/revelio/csr-bundle").encode(),
        )
        response = HttpResponse.decode(raw)
        if response.status != 200:
            raise ProvisioningError(f"node {node_ip} refused bundle request")
        return ReportBundle.decode(response.body)

    def attest_node(self, node_ip: str, bundle: ReportBundle) -> AttestedNode:
        """Evidence validation: chain, signature, measurement, CSR
        binding, Chip-ID and IP allow-lists (section 5.3.1)."""
        if bundle.kind != BUNDLE_KIND_CSR:
            raise ProvisioningError(f"node {node_ip} sent a non-CSR bundle")
        if self.approved_ips is not None and node_ip not in self.approved_ips:
            raise AttestationError(
                "ip_not_allowed", f"{node_ip} is not an approved node address"
            )
        policy = replace(
            bundle_policy(
                bundle,
                self.expected_measurements,
                allowed_chip_ids=self.approved_chip_ids,
            ),
            revoked_measurements=tuple(sorted(self.revoked_measurements)),
        )
        self.verifier.verify(
            snp_evidence(bundle.report),
            now=self.host.network.clock.epoch_seconds(),
            policy=policy,
        ).raise_for_failure()
        csr = CertificateSigningRequest.decode(bundle.payload)
        if not csr.verify():
            raise ProvisioningError(f"node {node_ip} sent a CSR failing PoP")
        if self.domain not in {csr.subject.common_name, *csr.san}:
            raise ProvisioningError(
                f"node {node_ip} CSR does not cover {self.domain}"
            )
        return AttestedNode(ip_address=node_ip, csr=csr, bundle=bundle)

    def provision_fleet(
        self,
        node_ips: Sequence[str],
        leader_index: int = 0,
    ) -> ProvisioningResult:
        """Run the full Fig. 4 flow for the given node addresses."""
        if not node_ips:
            raise ProvisioningError("empty fleet")
        clock = self.host.network.clock
        timings: Dict[str, PhaseTiming] = {}

        # Phase 1: evidence retrieval.
        bundles: List[Tuple[str, ReportBundle]] = []
        with _phase(clock, timings, "evidence_retrieval"):
            for node_ip in node_ips:
                bundles.append((node_ip, self.retrieve_csr_bundle(node_ip)))

        # Phase 2: evidence validation (attest the whole set).
        attested: List[AttestedNode] = []
        with _phase(clock, timings, "evidence_validation"):
            for node_ip, bundle in bundles:
                attested.append(self.attest_node(node_ip, bundle))

        # Phase 3: SSL certificate generation for the leader's CSR.
        if not (0 <= leader_index < len(attested)):
            raise ProvisioningError("leader index out of range")
        leader = attested[leader_index]
        with _phase(clock, timings, "certificate_generation"):
            chain = self.certbot.obtain_certificate(self.domain, leader.csr)

        # Phase 4: certificate distribution + leader announcement.
        with _phase(clock, timings, "certificate_distribution"):
            payload = encoding.encode(
                {
                    "chain": [cert.encode() for cert in chain],
                    "leader_ip": leader.ip_address,
                }
            )
            # The leader must install first so it can answer key requests.
            ordered = [leader] + [n for n in attested if n is not leader]
            for node in ordered:
                raw = self.host.request(
                    node.ip_address,
                    BOOTSTRAP_PORT,
                    HttpRequest(
                        "POST", "/revelio/certificate", body=payload
                    ).encode(),
                )
                response = HttpResponse.decode(raw)
                if response.status != 200:
                    raise ProvisioningError(
                        f"node {node.ip_address} failed installation: "
                        f"{response.body!r}"
                    )

        return ProvisioningResult(
            leader_ip=leader.ip_address,
            certificate_chain=chain,
            attested=attested,
            timings=timings,
        )

    def admit_node(
        self,
        node_ip: str,
        key_holder_ip: str,
        certificate_chain: List[Certificate],
    ) -> AttestedNode:
        """Attest a *single* node into an already-provisioned fleet.

        The rolling-rollout path: a replacement VM comes up on a node's
        address while the rest of the fleet keeps serving.  The SP
        re-runs the same Fig. 4 evidence retrieval + validation for just
        that node, then delivers the fleet's *existing* certificate
        chain along with the address of any node still holding the TLS
        private key — the newcomer fetches the key over the mutually
        attested bootstrap channel, so the fleet key pair (and every
        end-user's pinned key) is unchanged.
        """
        bundle = self.retrieve_csr_bundle(node_ip)
        attested = self.attest_node(node_ip, bundle)
        payload = encoding.encode(
            {
                "chain": [cert.encode() for cert in certificate_chain],
                "leader_ip": key_holder_ip,
            }
        )
        raw = self.host.request(
            node_ip,
            BOOTSTRAP_PORT,
            HttpRequest("POST", "/revelio/certificate", body=payload).encode(),
        )
        response = HttpResponse.decode(raw)
        if response.status != 200:
            raise ProvisioningError(
                f"node {node_ip} failed installation: {response.body!r}"
            )
        return attested


class _phase:
    """Context manager recording simulated + real time of a phase."""

    def __init__(self, clock, timings: Dict[str, PhaseTiming], name: str):
        self._clock = clock
        self._timings = timings
        self._name = name

    def __enter__(self):
        self._sim_start = self._clock.now
        self._real_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._timings[self._name] = PhaseTiming(
            simulated_seconds=self._clock.now - self._sim_start,
            real_seconds=time.perf_counter() - self._real_start,
        )
        return False
