"""A tour of the implemented extension points beyond the paper's
prototype: the integrations its related-work section names as
compatible (RA-TLS, vTPM runtime monitoring) and the TEE portability
claim (TDX + ARM CCA backends behind one verification interface).

Run:  python examples/extensions_tour.py
"""

import hashlib

from _common import banner, boundary_node_spec, sample_registry

from repro.build import DEFAULT_INIT_STEPS, NetworkPolicy, build_revelio_image
from repro.core import RevelioDeployment
from repro.core.ra_tls import RA_TLS_PORT, RaTlsError, ra_tls_connect, serve_ra_tls
from repro.crypto.drbg import HmacDrbg
from repro.net.http import HttpRequest, HttpResponse
from repro.vtpm import RuntimeMonitor, VtpmError, measure_service_start, produce_evidence


def ra_tls_section(registry, pins):
    banner("RA-TLS: attestation evidence inside the TLS certificate")
    build = build_revelio_image(
        boundary_node_spec(
            registry, pins,
            network_policy=NetworkPolicy(
                allowed_inbound_ports=(443, 8080, RA_TLS_PORT)
            ),
        )
    )
    deployment = RevelioDeployment(build, num_nodes=1, seed=b"ext-ra").deploy()
    serve_ra_tls(deployment.nodes[0].node)
    client = deployment.network.add_host("m2m-client", "10.5.0.1")

    connection = ra_tls_connect(
        client, deployment.node_ip(0), RA_TLS_PORT,
        f"{deployment.nodes[0].vm.name}.ra-tls",
        deployment._new_kds_client(),
        [build.expected_measurement],
        HmacDrbg(b"m2m"),
    )
    response = HttpResponse.decode(connection.request(HttpRequest("GET", "/").encode()))
    print(f"  CA-less attested channel established; GET / -> {response.status}")
    print("  trust chain: AMD ARK -> VCEK -> report -> certificate key")

    try:
        ra_tls_connect(
            client, deployment.node_ip(0), RA_TLS_PORT,
            f"{deployment.nodes[0].vm.name}.ra-tls",
            deployment._new_kds_client(),
            [b"\x00" * 48],  # wrong golden value
            HmacDrbg(b"m2m2"),
        )
    except RaTlsError as error:
        print(f"  wrong golden value rejected: {error}")


def vtpm_section(registry, pins):
    banner("vTPM: runtime monitoring (the e-vTPM extension)")
    nginx, backdoor = b"\x7fELF-nginx", b"\x7fELF-backdoor"
    build = build_revelio_image(
        boundary_node_spec(
            registry, pins, init_steps=DEFAULT_INIT_STEPS + ("vtpm-init",)
        )
    )
    deployment = RevelioDeployment(build, num_nodes=1, seed=b"ext-vtpm")
    deployment.launch_fleet()
    vm = deployment.nodes[0].vm
    monitor = RuntimeMonitor(
        deployment._new_kds_client(),
        build.expected_measurement,
        allowed_service_digests=[hashlib.sha256(nginx).digest()],
    )

    measure_service_start(vm, "nginx", nginx)
    nonce = b"challenge-0001"
    monitor.verify(produce_evidence(vm, nonce), nonce, now=0)
    print("  clean runtime state: quote + event log verified against allow-list")

    measure_service_start(vm, "backdoor", backdoor)
    nonce = b"challenge-0002"
    try:
        monitor.verify(produce_evidence(vm, nonce), nonce, now=0)
    except VtpmError as error:
        print(f"  rogue service start detected: {error}")


def portability_section():
    banner("TEE portability: SNP, TDX, and CCA behind one verifier")
    from repro.amd.kds import KeyDistributionServer
    from repro.amd.policy import REVELIO_POLICY
    from repro.amd.secure_processor import AmdKeyInfrastructure
    from repro.attest import (
        AttestationVerifier, CcaTrust, TdxTrust, TeeFamily, VerificationPolicy,
        cca_evidence, snp_evidence, tdx_evidence,
    )
    from repro.cca import ArmInfrastructure
    from repro.core.kds_client import KdsClient
    from repro.net.latency import ZERO_LATENCY, SimClock
    from repro.tdx import IntelInfrastructure, ProvisioningCertificationService

    amd = AmdKeyInfrastructure(HmacDrbg(b"tour-amd"))
    intel = IntelInfrastructure(HmacDrbg(b"tour-intel"))
    arm = ArmInfrastructure(HmacDrbg(b"tour-arm"))
    chip = amd.provision_chip("tour-chip")
    td_platform = intel.provision_platform("tour-tdx")
    cca_platform = arm.provision_platform("tour-cca")
    cpak = arm.cpak_certificate(cca_platform)

    verifier = AttestationVerifier(
        KdsClient(KeyDistributionServer(amd), SimClock(), ZERO_LATENCY),
        site="tour",
        contexts={
            TeeFamily.TDX: TdxTrust(ProvisioningCertificationService(intel)),
            TeeFamily.CCA: CcaTrust(lambda pid: cpak, (arm.root.certificate,)),
        },
    )
    print(f"  verifier trust contexts: {TeeFamily.SEV_SNP} (KDS), "
          f"{', '.join(verifier.contexts)}")

    challenge = b"\x42" * 64
    workloads = {
        "SEV-SNP guest": (
            lambda: chip.launch_vm(b"revelio-image", REVELIO_POLICY),
            lambda g: (snp_evidence(g.get_report(challenge)), g.measurement),
        ),
        "TDX trust domain": (
            lambda: td_platform.launch_td(b"revelio-image"),
            lambda t: (tdx_evidence(t.get_quote(challenge)), t.mrtd),
        ),
        "CCA realm": (
            lambda: cca_platform.launch_realm(b"revelio-image"),
            lambda r: (cca_evidence(r.attest(challenge)), r.rim),
        ),
    }
    for name, (launch, evidence_of) in workloads.items():
        workload = launch()
        evidence, golden = evidence_of(workload)
        outcome = verifier.verify(
            evidence, now=0,
            policy=VerificationPolicy(
                golden_measurements=[golden], expected_report_data=challenge
            ),
        )
        outcome.raise_for_failure()
        print(f"  {name:<18s} verified: measurement "
              f"{golden.hex()[:24]}... [{outcome.family}]")


def main():
    registry, pins = sample_registry()
    ra_tls_section(registry, pins)
    vtpm_section(registry, pins)
    portability_section()
    banner("Done")


if __name__ == "__main__":
    main()
