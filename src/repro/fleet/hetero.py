"""Mixed-family fleet backends: one record, one launcher, one server.

The paper claims TEE portability ("Revelio can be deployed in a
hardware-agnostic fashion, as long as the TEE follows the VM model");
this module makes the fleet layer prove it.  A
:class:`HeterogeneousFleet` stands up SEV-SNP, TDX, CCA, and
SNP-endorsed e-vTPM backends *next to* an existing SNP deployment:

* every backend serves the deployment's **shared attested TLS
  identity** (same certificate chain, same private key), so end-users'
  pinned key never depends on which family served them;
* every backend answers the well-known attestation URL with a tagged
  :class:`~repro.attest.Evidence` envelope whose challenge /
  REPORT_DATA binds the shared TLS key — the same binding the SNP
  nodes prove;
* one family → launcher table starts each family's TEE workload, both
  for :meth:`HeterogeneousFleet.add_backend` and for
  :meth:`HeterogeneousFleet.relaunch` (a signed update's new image);
* the fleet keeps one golden map (family → measurements), and
  :meth:`HeterogeneousFleet.sync_gateway` joins it to a gateway's map,
  the same way for every family, with the per-family trust contexts
  (Intel PCS, ARM anchors, the e-vTPM KDS client).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..amd.policy import GuestPolicy
from ..attest import CcaTrust, Evidence, TdxTrust, TeeFamily, VtpmTrust
from ..cca.realms import ArmInfrastructure
from ..core.deployment import MINIMAL_PAGE
from ..core.guest import WELL_KNOWN_ATTESTATION_PATH
from ..core.key_sharing import report_data_for
from ..crypto.keys import PrivateKey
from ..net.http import HttpResponse, HttpServer
from ..tdx.module import IntelInfrastructure, ProvisioningCertificationService
from ..vtpm.monitoring import MonitoringEvidence
from ..vtpm.vtpm import PCR_SERVICES, Vtpm
from .gateway import FleetGateway


@dataclass
class Backend:
    """One fleet member serving real evidence for its TEE family."""

    ip_address: str
    family: str
    region: Optional[str]
    host: object
    #: The evidence server (``None`` for an adopted deployment node,
    #: which serves its own).
    server: Optional[HttpServer]
    measurement: bytes
    #: Lite-protocol counters (see :class:`~repro.fleet.mesh.LiteFleet`).
    sessions_opened: int = 0
    records_served: int = 0


def _launch_snp(fleet, ip_address, serial, state):
    guest = fleet.deployment.amd.provision_chip(serial).launch_vm(
        state, GuestPolicy()
    )
    return guest.get_report(fleet.binding).encode(), guest.measurement


def _launch_tdx(fleet, ip_address, serial, state):
    td = fleet.intel.provision_platform(serial).launch_td(state)
    return td.get_quote(fleet.binding).encode(), td.mrtd


def _launch_cca(fleet, ip_address, serial, state):
    platform = fleet.arm.provision_platform(serial)
    fleet._cpaks[platform.platform_id] = fleet.arm.cpak_certificate(platform)
    realm = platform.launch_realm(state)
    return realm.attest(fleet.binding).encode(), realm.rim


def _launch_vtpm(fleet, ip_address, serial, state):
    """An SNP guest with an attached vTPM whose AK the AMD-SP endorses:
    (quote over the TLS binding, event log, AK, endorsement)."""
    guest = fleet.deployment.amd.provision_chip(serial).launch_vm(
        state, GuestPolicy()
    )
    vtpm = Vtpm(fleet._rng.fork(b"vtpm:" + ip_address.encode()))
    endorsement = guest.get_report(
        report_data_for(hashlib.sha256(vtpm.ak_public.encode()).digest())
    )
    evidence = MonitoringEvidence(
        quote=vtpm.quote(fleet.binding, [PCR_SERVICES]),
        event_log=list(vtpm.event_log),
        ak_public=vtpm.ak_public,
        ak_endorsement=endorsement,
    )
    return evidence.encode(), guest.measurement


#: family -> (chip/platform serial tag, initial-state tag, launcher).
#: A launcher starts one workload on a fresh chip or platform and returns
#: (evidence body bound to the shared TLS key, launch measurement).
_LAUNCHERS = {
    str(TeeFamily.SEV_SNP): ("snp", b"snp", _launch_snp),
    str(TeeFamily.TDX): ("tdx", b"td", _launch_tdx),
    str(TeeFamily.CCA): ("cca", b"realm", _launch_cca),
    str(TeeFamily.VTPM): ("vtpm", b"vtpm-vm", _launch_vtpm),
}


class HeterogeneousFleet:
    """Mixed-family backends joined to an SNP deployment's fleet.

    Requires a deployed :class:`~repro.core.deployment.RevelioDeployment`
    (the shared TLS identity must already be provisioned)."""

    #: Names the fleet's DRBG fork, chip/platform serials, host names,
    #: and the initial state every workload launches from.
    label = "hetero"

    def __init__(self, deployment):
        self.deployment = deployment
        self._rng = deployment.rng.fork(self.label.encode() + b"-fleet")
        #: Intel's side of the TDX world (PCK hierarchy + PCS).
        self.intel = IntelInfrastructure(self._rng.fork(b"intel"))
        self.pcs = ProvisioningCertificationService(self.intel)
        #: ARM's side of the CCA world (CPAK endorsements).
        self.arm = ArmInfrastructure(self._rng.fork(b"arm"))
        self._cpaks: Dict[bytes, object] = {}
        #: KDS client for e-vTPM endorsement verification.
        self.kds = deployment._new_kds_client()

        leader = deployment.leader
        if leader.node.certificate_chain is None or (
            leader.node.tls_private_key is None
        ):
            raise RuntimeError(
                "deployment has no provisioned TLS identity to share"
            )
        #: The shared TLS identity every backend serves.
        self.chain = list(leader.node.certificate_chain)
        self.tls_key = PrivateKey("ecdsa", leader.node.tls_private_key)
        #: The REPORT_DATA / challenge every backend's evidence binds:
        #: the shared TLS key's fingerprint, exactly like the SNP nodes.
        self.binding = report_data_for(self.tls_key.public_key().fingerprint())

        self.backends: List[Backend] = []
        #: family -> golden measurements (launched, not yet retired).
        self.goldens: Dict[str, Set[bytes]] = {}
        self._relaunches = 0

    def _launch(self, family: str, ip_address: str,
                token: Optional[bytes] = None):
        """Start one *family* workload on a fresh chip or platform (a
        distinct serial per launch).  Every workload of a family
        launches from one initial state per fleet, suffixed ``b"@" +
        token`` after an update, so the family has one golden value.
        Returns (evidence body, measurement)."""
        try:
            serial_tag, state_tag, launch = _LAUNCHERS[family]
        except KeyError:
            raise ValueError(f"unknown TEE family {family!r}") from None
        state = b"-".join(
            (self.label.encode(), state_tag, self.deployment.domain.encode())
        )
        if token is None:
            serial = f"{self.label}-{serial_tag}-{len(self.backends)}"
        else:
            self._relaunches += 1
            serial = f"{self.label}-update-{self._relaunches}"
            state += b"@" + token
        return launch(self, ip_address, serial, state)

    # -- backend lifecycle ------------------------------------------

    def add_backend(self, ip_address: str, family,
                    region: Optional[str] = None) -> Backend:
        """Launch one backend of *family* on a fresh chip or platform
        and serve its evidence (and the shared TLS identity) at
        *ip_address*."""
        family = str(family)
        body, measurement = self._launch(family, ip_address)
        name = f"{self.label}-{family}-{ip_address}"
        host = self.deployment.network.add_host(name, ip_address, region=region)
        server = HttpServer(name)
        server.add_route(
            "GET",
            "/",
            lambda request, context: HttpResponse.ok(MINIMAL_PAGE),
            processing_time=self.deployment.latency.page_processing,
        )
        server.serve_tls(
            host,
            self.chain,
            self.tls_key,
            self._rng.fork(b"tls:" + ip_address.encode()),
        )
        backend = Backend(
            ip_address=ip_address,
            family=family,
            region=region,
            host=host,
            server=server,
            measurement=bytes(measurement),
        )
        self._publish(backend, body)
        self.backends.append(backend)
        return backend

    def relaunch(self, backend: Backend, token: bytes) -> bytes:
        """Relaunch *backend*'s TEE workload at the post-update state.

        *token* names the update (the provisioner passes the target
        launch measurement of the new image), so every family converges
        on one new golden value per update: ``initial_state + b"@" +
        token``.  The well-known endpoint is re-served with the new
        workload's evidence, the new measurement joins the family's
        goldens, and the old one stays admissible until
        :meth:`retire_measurement`.  Returns the new measurement."""
        body, measurement = self._launch(
            backend.family, backend.ip_address, token
        )
        backend.measurement = bytes(measurement)
        self._publish(backend, body)
        return backend.measurement

    def _publish(self, backend: Backend, body: bytes) -> None:
        """Serve *body* as the backend's evidence and make its
        measurement golden."""
        payload = Evidence(backend.family, body).encode()
        backend.server.add_route(
            "GET",
            WELL_KNOWN_ATTESTATION_PATH,
            lambda request, context: HttpResponse.ok(
                payload, "application/octet-stream"
            ),
            processing_time=self.deployment.latency.report_endpoint_processing,
        )
        self.goldens.setdefault(backend.family, set()).add(backend.measurement)

    def retire_measurement(self, family, measurement: bytes) -> None:
        """Drop an old golden once no backend of *family* still runs it."""
        self.goldens.get(str(family), set()).discard(bytes(measurement))

    # -- gateway wiring ---------------------------------------------

    def contexts(self) -> Dict[str, object]:
        """Per-family trust material for a verifier's ``contexts``."""
        return {
            str(TeeFamily.TDX): TdxTrust(self.pcs),
            str(TeeFamily.CCA): CcaTrust(
                lambda platform_id: self._cpaks[platform_id],
                (self.arm.root.certificate,),
            ),
            str(TeeFamily.VTPM): VtpmTrust(self.kds),
        }

    def sync_gateway(self, gateway: FleetGateway) -> None:
        """Teach *gateway* this fleet's trust: the per-family contexts,
        and each family's goldens added to the gateway's (next to the
        deployment build's, so the fleet never shadows the deployment's
        own nodes).  A golden leaves the gateway only when a rollout's
        finish revokes it."""
        gateway.verifier.contexts.update(self.contexts())
        for family, goldens in sorted(self.goldens.items()):
            gateway.golden_measurements[family] = sorted(
                {*gateway.golden_measurements.get(family, ()), *goldens}
            )

    def attach_gateway(self, gateway: FleetGateway) -> List:
        """Sync *gateway*, register every backend under its family, and
        attest-and-admit each.  Returns the admission verdicts."""
        self.sync_gateway(gateway)
        verdicts = []
        for backend in self.backends:
            if backend.ip_address not in gateway.backends:
                gateway.add_backend(
                    backend.ip_address,
                    family=backend.family,
                    region=backend.region,
                )
            verdicts.append(gateway.attest_and_admit(backend.ip_address))
        return verdicts
