"""Revelio guest services: init steps + the node server.

This module contains everything that runs *inside* a Revelio VM:

* the init steps named by the initrd descriptor — dm-verity rootfs
  setup and full verification, network lockdown, sealing-key disk
  encryption, unique identity creation (sections 5.1-5.2),
* :class:`RevelioNode` — the nginx + CGI analogue: a bootstrap HTTP
  endpoint used during certificate provisioning (Fig. 4) and, once the
  shared TLS identity is installed, the HTTPS service with the
  well-known attestation URL end-users' browsers hit (section 5.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..amd.report import AttestationReport
from ..amd.verify import AttestationError
from ..attest import AttestationVerifier, Evidence, EvidenceError, snp_evidence
from ..build.image_builder import (
    GOLDEN_CONF_PATH,
    NETWORK_CONF_PATH,
    SERVICE_CONF_PATH,
    NetworkPolicy,
)
from ..crypto import encoding
from ..crypto.ec import P256
from ..crypto.ecdsa import EcdsaPrivateKey
from ..crypto.kdf import hkdf
from ..crypto.keys import PrivateKey
from ..crypto.x509 import Certificate, CertificateSigningRequest, Name
from ..net.firewall import Firewall
from ..net.http import HttpRequest, HttpResponse, HttpServer
from ..net.latency import LatencyModel
from ..net.simnet import Host
from ..storage.dm import DmContext, DmTable
from ..storage.filesystem import FileSystem
from ..virt.image import register_init_step
from ..virt.vm import VirtualMachine
from .kds_client import KdsClient
from .key_sharing import (
    BUNDLE_KIND_CSR,
    BUNDLE_KIND_PUBLIC_KEY,
    KeySharingError,
    ReportBundle,
    decrypt_with_private_key,
    encrypt_to_public_key,
    report_data_for,
    verify_report_bundle,
)

#: The plain-HTTP port used during provisioning (Fig. 4); allowed by the
#: measured network policy, carries only self-authenticating payloads.
BOOTSTRAP_PORT = 8080
#: Where browsers fetch the attestation evidence (robots.txt-style).
WELL_KNOWN_ATTESTATION_PATH = "/.well-known/revelio-attestation"


class GuestError(RuntimeError):
    """Raised on guest service failures."""


@dataclass
class VmIdentity:
    """The unique per-VM key pair and its endorsing reports (5.2.2)."""

    private_key: EcdsaPrivateKey
    csr: CertificateSigningRequest
    key_report: AttestationReport
    csr_report: AttestationReport

    @property
    def wrapped_private_key(self) -> PrivateKey:
        """The key as an algorithm-agnostic handle."""
        return PrivateKey("ecdsa", self.private_key)

    @property
    def public_key(self):
        """The corresponding public key."""
        return self.wrapped_private_key.public_key()

    def key_bundle(self) -> ReportBundle:
        """ReportBundle endorsing this identity's public key."""
        return ReportBundle(
            kind=BUNDLE_KIND_PUBLIC_KEY,
            report=self.key_report,
            payload=self.public_key.encode(),
        )

    def csr_bundle(self) -> ReportBundle:
        """ReportBundle endorsing this identity's CSR."""
        return ReportBundle(
            kind=BUNDLE_KIND_CSR, report=self.csr_report, payload=self.csr.encode()
        )


# -- init steps ---------------------------------------------------------------


def _dm_context(vm: VirtualMachine, keys: Optional[Dict[str, bytes]] = None) -> DmContext:
    """The device-mapper open context for this VM: its host-attached
    disk, its (measured) kernel command line, and any key material."""
    return DmContext(
        disk=vm.disk,
        cmdline_args=vm.cmdline_args,
        keys=keys if keys is not None else {},
        rng=vm.rng,
        meter=vm.storage.meter,
    )


def _initrd_table(vm: VirtualMachine, param: str, name: str,
                  legacy: str) -> DmTable:
    """The named dm table from the initrd parameters, falling back to a
    table synthesised from the pre-table per-partition parameters (older
    images carry only those)."""
    text = vm.initrd_params.get(param)
    if text is None:
        text = legacy
    return DmTable.parse(name, text)


@register_init_step("verity-rootfs")
def _setup_verity_rootfs(vm: VirtualMachine) -> None:
    """Open and fully verify the integrity-protected rootfs (5.2.1).

    The stack comes from the measured initrd's ``rootfs_table`` and ends
    in a verity target whose root hash the (equally measured) kernel
    command line pins — tampering with table, hash, or data all surface
    as verification failures here."""
    if not vm.cmdline_args.get("verity_root_hash", ""):
        raise GuestError("no verity root hash on the kernel command line")
    table = _initrd_table(
        vm,
        "rootfs_table",
        "rootfs",
        legacy=(
            f"linear partition={vm.initrd_params['rootfs_partition']} ; "
            f"verity hash=partition:{vm.initrd_params['verity_partition']} "
            "root=cmdline:verity_root_hash"
        ),
    )
    volume = table.open(_dm_context(vm))
    volume.verify_all()  # Table 1's "dm-verity verify" service
    vm.storage.register("verity", volume)
    vm.rootfs = FileSystem(volume)


@register_init_step("network-lockdown")
def _setup_network_lockdown(vm: VirtualMachine) -> None:
    """Install the firewall baked into the measured rootfs (F4)."""
    if vm.rootfs is None:
        raise GuestError("network lockdown requires a mounted rootfs")
    policy = NetworkPolicy.from_dict(
        encoding.decode(vm.rootfs.read_file(NETWORK_CONF_PATH))
    )
    vm.firewall = Firewall.from_network_policy(policy)


@register_init_step("dm-crypt-data")
def _setup_encrypted_data(vm: VirtualMachine) -> None:
    """Encrypt (first boot) or re-open the data volume with the
    measurement-derived sealing key (5.2.1, F6).

    ``format=auto`` probes for an existing LUKS header; ``fill=zero``
    makes first boot encrypt the whole volume in place (what the
    paper's size-dependent "encryption service" does to its 84 MB
    volume)."""
    sealing_key = vm.guest.derive_sealing_key(b"disk-encryption")
    master_key = hkdf(sealing_key, info=b"luks-master-key", length=64)
    table = _initrd_table(
        vm,
        "data_table",
        "data",
        legacy=(
            f"linear partition={vm.initrd_params['data_partition']} ; "
            "crypt key=sealing format=auto fill=zero"
        ),
    )
    volume = table.open(_dm_context(vm, keys={"sealing": master_key}))
    vm.storage.register("data", volume)


@register_init_step("identity-creation")
def _create_identity(vm: VirtualMachine) -> None:
    """Generate the per-VM key pair, CSR, and the endorsing report pair
    (5.2.2): one report binds the public key, one binds the CSR."""
    if vm.rootfs is None:
        raise GuestError("identity creation requires a mounted rootfs")
    service_conf = encoding.decode(vm.rootfs.read_file(SERVICE_CONF_PATH))
    domain = service_conf["domain"]
    private_key = EcdsaPrivateKey.generate(P256, vm.rng)
    wrapped = PrivateKey("ecdsa", private_key)
    # The wildcard SAN lets every fleet member (nodeN.domain) serve the
    # shared certificate, mirroring a load-balanced deployment.
    csr = CertificateSigningRequest.create(
        Name(domain), wrapped, san=(domain, f"*.{domain}")
    )
    key_report = vm.guest.get_report(
        report_data_for(wrapped.public_key().fingerprint())
    )
    csr_report = vm.guest.get_report(report_data_for(csr.fingerprint()))
    vm.identity = VmIdentity(
        private_key=private_key,
        csr=csr,
        key_report=key_report,
        csr_report=csr_report,
    )


@register_init_step("start-services")
def _start_services(vm: VirtualMachine) -> None:
    """Mark the configured application services as started; their
    handlers are wired by the deployment layer."""
    if vm.rootfs is None:
        raise GuestError("services require a mounted rootfs")
    service_conf = encoding.decode(vm.rootfs.read_file(SERVICE_CONF_PATH))
    for service_name in service_conf["services"]:
        vm.services.setdefault(service_name, "started")


def golden_measurements_for(vm: VirtualMachine) -> List[bytes]:
    """The measurements this node accepts from peers: its own (fleet of
    identical images) plus any extras planted in the rootfs at build
    time (section 5.3: 'hard-coded values ... planted at build time')."""
    extras: List[bytes] = []
    if vm.rootfs is not None and vm.rootfs.exists(GOLDEN_CONF_PATH):
        conf = encoding.decode(vm.rootfs.read_file(GOLDEN_CONF_PATH))
        extras = list(conf.get("measurements", []))
    return [bytes(vm.measurement), *extras]


# -- the node server -----------------------------------------------------------


class RevelioNode:
    """The web-facing service running inside one Revelio VM."""

    def __init__(
        self,
        vm: VirtualMachine,
        host: Host,
        kds: KdsClient,
        latency: Optional[LatencyModel] = None,
        trusted_registry=None,
    ):
        vm.require_running()
        if vm.identity is None:
            raise GuestError("VM booted without an identity (bad init steps?)")
        self.vm = vm
        self.host = host
        self.kds = kds
        self._latency = latency if latency is not None else LatencyModel()
        #: Optional runtime source of golden values (section 5.3: "each
        #: node can contact a remote Trusted Registry ... where the
        #: community votes on what is a 'good' state"), consulted in
        #: addition to the values baked into the measured rootfs.
        self.trusted_registry = trusted_registry
        self.golden_measurements = golden_measurements_for(vm)
        #: Peer attestations (key sharing) run through the unified
        #: pipeline, labelled with this node's name in traces.
        self.verifier = AttestationVerifier(kds, site=f"{vm.name}:key-sharing")

        self.certificate_chain: Optional[List[Certificate]] = None
        self.leader_ip: Optional[str] = None
        self.tls_private_key: Optional[EcdsaPrivateKey] = None
        self.tls_report: Optional[AttestationReport] = None
        self.serving = False
        self._app_routes: Dict[tuple, tuple] = {}

        self._bootstrap = HttpServer(f"{vm.name}-bootstrap")
        self._bootstrap.add_route("GET", "/revelio/csr-bundle", self._serve_csr_bundle)
        self._bootstrap.add_route("POST", "/revelio/certificate", self._receive_certificate)
        self._bootstrap.add_route("POST", "/revelio/key-request", self._serve_key_request)
        self._bootstrap.serve_plain(host, BOOTSTRAP_PORT)

        self.https = HttpServer(vm.name)
        self.https.add_route(
            "GET",
            WELL_KNOWN_ATTESTATION_PATH,
            self._serve_attestation,
            processing_time=self._latency.report_endpoint_processing,
        )

    def _effective_golden_measurements(self) -> List[bytes]:
        """Baked goldens plus (if configured) registry goldens, minus
        registry revocations."""
        golden = {bytes(m) for m in self.golden_measurements}
        if self.trusted_registry is not None:
            service_conf = encoding.decode(
                self.vm.rootfs.read_file(SERVICE_CONF_PATH)
            )
            domain = service_conf["domain"]
            golden |= set(self.trusted_registry.golden_measurements(domain))
            golden -= set(self.trusted_registry.revoked_measurements(domain))
        return sorted(golden)

    # -- application wiring ----------------------------------------------------

    def add_app_route(self, method: str, path: str, handler,
                      processing_time: Optional[float] = None) -> None:
        """Register an application route on the HTTPS server."""
        if processing_time is None:
            processing_time = self._latency.page_processing
        self.https.add_route(method, path, handler, processing_time)

    # -- provisioning endpoints (Fig. 4) ----------------------------------------

    def _serve_csr_bundle(self, request: HttpRequest, context) -> HttpResponse:
        return HttpResponse.ok(
            self.vm.identity.csr_bundle().encode(), "application/octet-stream"
        )

    def _receive_certificate(self, request: HttpRequest, context) -> HttpResponse:
        """The SP node POSTs the issued certificate chain and tells us
        who holds the private key (the leader)."""
        try:
            body = encoding.decode(request.body)
            chain = [Certificate.decode(item) for item in body["chain"]]
            leader_ip = body["leader_ip"]
        except (ValueError, KeyError, TypeError):
            return HttpResponse.error("malformed certificate delivery")
        self.certificate_chain = chain
        self.leader_ip = leader_ip
        leaf_key = chain[0].public_key
        if leaf_key == self.vm.identity.public_key:
            # We are the leader: our own key pair is the TLS identity.
            self._install_tls_identity(self.vm.identity.private_key)
            return HttpResponse.ok(b"leader-installed", "text/plain")
        try:
            self._acquire_private_key()
        except (AttestationError, KeySharingError, GuestError,
                ConnectionError) as exc:
            return HttpResponse.error(f"key acquisition failed: {exc}")
        return HttpResponse.ok(b"installed", "text/plain")

    def _serve_key_request(self, request: HttpRequest, context) -> HttpResponse:
        """Leader side: attest the requesting peer, then hand over the
        TLS private key encrypted to the peer's attested public key."""
        if self.tls_private_key is None:
            return HttpResponse.error("not the leader / identity not installed")
        try:
            bundle = ReportBundle.decode(request.body)
            if bundle.kind != BUNDLE_KIND_PUBLIC_KEY:
                raise KeySharingError("expected a public-key bundle")
            verify_report_bundle(
                bundle,
                self.kds,
                now=self.host.network.clock.epoch_seconds(),
                expected_measurements=self._effective_golden_measurements(),
                verifier=self.verifier,
            )
        except (AttestationError, KeySharingError) as exc:
            return HttpResponse.forbidden(f"peer attestation failed: {exc}")
        from ..crypto.keys import PublicKey

        peer_key = PublicKey.decode(bundle.payload)
        encrypted_key = encrypt_to_public_key(
            peer_key.inner, self.tls_private_key.encode(), self.vm.rng
        )
        response = encoding.encode(
            {
                "leader_bundle": self.vm.identity.key_bundle().encode(),
                "encrypted_key": encrypted_key,
            }
        )
        return HttpResponse.ok(response, "application/octet-stream")

    def _acquire_private_key(self) -> None:
        """Peer side: mutual attestation with the leader, then unwrap
        and install the shared TLS private key."""
        if self.leader_ip is None or self.certificate_chain is None:
            raise GuestError("certificate delivery incomplete")
        raw = self.host.request(
            self.leader_ip,
            BOOTSTRAP_PORT,
            HttpRequest(
                "POST",
                "/revelio/key-request",
                body=self.vm.identity.key_bundle().encode(),
            ).encode(),
        )
        response = HttpResponse.decode(raw)
        if response.status != 200:
            raise GuestError(f"leader refused key request: {response.body!r}")
        body = encoding.decode(response.body)
        leader_bundle = ReportBundle.decode(body["leader_bundle"])
        # Attest the leader before trusting anything it sent.
        verify_report_bundle(
            leader_bundle,
            self.kds,
            now=self.host.network.clock.epoch_seconds(),
            expected_measurements=self._effective_golden_measurements(),
            verifier=self.verifier,
        )
        private_key = EcdsaPrivateKey.decode(
            decrypt_with_private_key(
                self.vm.identity.private_key, body["encrypted_key"]
            )
        )
        # The certificate must correspond to the received private key.
        leaf_key = self.certificate_chain[0].public_key
        if leaf_key != PrivateKey("ecdsa", private_key).public_key():
            raise GuestError("certificate does not match the received private key")
        # The private key is stored on the encrypted data volume at rest.
        data_volume = self.vm.storage.get("data")
        if data_volume is not None:
            key_bytes = private_key.encode()
            data_volume.write_bytes(0, len(key_bytes).to_bytes(4, "big") + key_bytes)
        self._install_tls_identity(private_key)

    def _install_tls_identity(self, private_key: EcdsaPrivateKey) -> None:
        """The incron-job analogue: install key + certificate and
        (re)start the HTTPS server with the shared identity."""
        if self.certificate_chain is None:
            raise GuestError("no certificate chain to install")
        self.tls_private_key = private_key
        wrapped = PrivateKey("ecdsa", private_key)
        # Bind the *served* TLS key to this VM's hardware identity: a
        # fresh report whose REPORT_DATA is the TLS public key hash (F3).
        self.tls_report = self.vm.guest.get_report(
            report_data_for(wrapped.public_key().fingerprint())
        )
        self.https.serve_tls(
            self.host, self.certificate_chain, wrapped, self.vm.rng
        )
        self.serving = True

    # -- end-user-facing endpoint -------------------------------------------------

    def _serve_attestation(self, request: HttpRequest, context) -> HttpResponse:
        """The well-known URL: the SEV-SNP evidence envelope around the
        attestation report binding the TLS identity of this very server
        to its measured state."""
        if self.tls_report is None:
            return HttpResponse.not_found()
        payload = snp_evidence(self.tls_report).encode()
        return HttpResponse.ok(payload, "application/octet-stream")


def decode_attestation_evidence(body: bytes) -> Evidence:
    """Parse a well-known endpoint's response body: every node, whatever
    its TEE family, serves an encoded :class:`~repro.attest.Evidence`
    (``{"family": ..., "body": ...}``)."""
    try:
        return Evidence.decode(body)
    except EvidenceError as exc:
        raise GuestError(f"malformed attestation payload: {exc}") from exc
