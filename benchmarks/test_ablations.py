"""Ablations over Revelio's design choices (DESIGN.md's ablation index).

1. **Measured envelope coverage** — what each layer of the trust chain
   adds to boot time (firmware-only vs +verity vs full Revelio init).
2. **TLS key sharing vs per-node certificates** — the paper's §3.4.6
   rationale: under ACME rate limits, per-node issuance stops scaling.
3. **VCEK caching** — verifier-side cost across repeated attestations.
4. **dm-verity geometry** — hash-block-size (arity) sweep: wider trees
   are shallower and verify faster per read.
5. **Fleet size** — provisioning scales linearly in nodes with a single
   certificate issuance (requirement D3).
"""

import time
from dataclasses import replace

import pytest

from repro.bench import Reporter
from repro.build import build_revelio_image
from repro.core import RevelioDeployment
from repro.crypto.drbg import HmacDrbg
from repro.net.latency import ZERO_LATENCY
from repro.pki.acme import RateLimitError


@pytest.fixture(scope="module")
def reporter():
    reporter = Reporter("ablations", "Design-choice ablations")
    yield reporter
    reporter.finish()


def test_ablation_measured_envelope(benchmark, bench_registry, reporter):
    """Cost of each trust-chain extension at boot."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "examples"))
    from _common import boundary_node_spec

    from repro.amd.secure_processor import AmdKeyInfrastructure
    from repro.virt.hypervisor import Hypervisor

    registry, pins = bench_registry
    variants = {
        "firmware-only (no Revelio init)": (),
        "+ verity rootfs (F2 coverage)": ("verity-rootfs",),
        "+ lockdown + sealing + identity (full)": (
            "verity-rootfs", "network-lockdown", "dm-crypt-data",
            "identity-creation", "start-services",
        ),
    }
    reporter.line("\n  boot-time cost of extending the measured envelope:")
    results = {}

    def boot_all():
        for label, steps in variants.items():
            # An image spec needs an init step, so the firmware-only
            # variant boots the verity build with an initrd listing none.
            build = build_revelio_image(
                boundary_node_spec(registry, pins,
                                   init_steps=steps or ("verity-rootfs",),
                                   base_boot_services=())
            )
            image = build.image
            if not steps:
                initrd = replace(image.initrd_descriptor(), init_steps=())
                image = replace(image, initrd=initrd.encode())
            amd = AmdKeyInfrastructure(HmacDrbg(b"abl1"))
            hv = Hypervisor(amd.provision_chip("abl"), HmacDrbg(b"abl-hv"))
            vm = hv.launch(image)
            started = time.perf_counter()
            vm.boot()
            results[label] = time.perf_counter() - started
        return results

    results = benchmark.pedantic(boot_all, rounds=1, iterations=1)
    for label, seconds in results.items():
        reporter.line(f"    {label:<44s} {seconds * 1000:8.1f} ms")
    ordered = list(results.values())
    assert ordered[0] < ordered[1] <= ordered[2] * 1.05  # coverage costs time


def test_ablation_key_sharing_vs_per_node_certs(benchmark, bn_build, reporter):
    """§3.4.6: with Let's Encrypt-style limits (5/week), per-node
    certificates cap the fleet; a shared certificate does not."""
    fleet_size = 8

    deployment = RevelioDeployment(
        bn_build, num_nodes=fleet_size, latency=ZERO_LATENCY, seed=b"abl2"
    )
    deployment.launch_fleet()
    deployment.create_sp_node()
    result = benchmark.pedantic(
        lambda: deployment.provision_certificates(), rounds=1, iterations=1
    )
    shared_issuances = len(deployment.acme.issued)
    reporter.line(
        f"\n  shared certificate: fleet of {fleet_size} nodes provisioned "
        f"with {shared_issuances} ACME issuance(s)"
    )
    assert shared_issuances == 1
    assert all(d.node.serving for d in deployment.nodes)

    # Per-node strategy: each node gets its own certificate.
    from repro.crypto.x509 import CertificateSigningRequest, Name
    from repro.crypto.keys import PrivateKey
    from repro.pki.certbot import CertbotClient

    rng = HmacDrbg(b"abl2-per-node")
    certbot = CertbotClient(deployment.acme, deployment.network.dns)
    issued = 0
    hit_limit_at = None
    for index in range(fleet_size):
        key = PrivateKey.generate_ecdsa(rng)
        csr = CertificateSigningRequest.create(
            Name("per-node.example"), key, san=("per-node.example",)
        )
        try:
            certbot.obtain_certificate("per-node.example", csr)
            issued += 1
        except RateLimitError:
            hit_limit_at = index + 1
            break
    reporter.line(
        f"  per-node certificates: rate limit hit at node "
        f"{hit_limit_at} of {fleet_size} (only {issued} issued)"
    )
    assert hit_limit_at is not None and hit_limit_at <= fleet_size
    assert issued < fleet_size


def test_ablation_vcek_caching(benchmark, bn_build, reporter):
    """Verifier-side: N attestations with and without the VCEK cache."""
    deployment = RevelioDeployment(bn_build, num_nodes=1, seed=b"abl3").deploy()
    url = f"https://{deployment.domain}/"
    runs = 5

    user_counter = iter(range(1, 200))

    def sessions(kds_cache):
        index = next(user_counter)
        browser, _ = deployment.make_user(
            f"abl3-{index}", f"10.2.5.{index}", kds_cache=kds_cache
        )
        start = deployment.network.clock.now
        for _ in range(runs):
            browser.new_session()
            assert not browser.navigate(url).blocked
        return (deployment.network.clock.now - start) / runs * 1000

    cached_ms = sessions(True)
    uncached_ms = sessions(False)
    reporter.line(
        f"\n  avg fresh-session attestation over {runs} sessions: "
        f"cached VCEK {cached_ms:.0f} ms vs uncached {uncached_ms:.0f} ms"
    )
    benchmark.pedantic(lambda: sessions(True), rounds=1, iterations=1)
    assert uncached_ms > cached_ms + 0.8 * deployment.latency.kds_rtt * 1000


def test_ablation_verity_size_scaling(benchmark, reporter):
    """Boot-time verification scales linearly in rootfs size — why the
    paper's 4 GB rootfs costs 4.7 s and why Table 1's verify row
    dominates.  Throughput should be roughly constant across sizes."""
    from repro.crypto.drbg import HmacDrbg
    from repro.storage.blockdev import RamBlockDevice
    from repro.storage.dm_verity import verity_format, verity_open

    reporter.line("\n  dm-verity full verification vs rootfs size:")
    throughputs = {}
    verity = None
    for mib in (2, 8, 32):
        num_blocks = mib * 256  # 4 KiB blocks
        data = HmacDrbg(b"abl-size-%d" % mib).generate(num_blocks * 4096)
        device = RamBlockDevice(num_blocks, 4096, initial=data)
        result = verity_format(device)
        verity = verity_open(device, result.hash_device, result.root_hash)
        started = time.perf_counter()
        verity.verify_all()
        seconds = time.perf_counter() - started
        throughputs[mib] = mib / seconds
        reporter.line(
            f"    {mib:3d} MiB: {seconds * 1000:8.1f} ms "
            f"({mib / seconds:6.1f} MiB/s)"
        )
    benchmark.pedantic(lambda: verity.verify_all(), rounds=1, iterations=1)
    # Linear scaling: throughput within 3x across a 16x size range.
    assert max(throughputs.values()) < 3 * min(throughputs.values())


def test_ablation_verity_geometry(benchmark, reporter):
    """Hash-block-size sweep: smaller blocks -> deeper trees -> slower
    reads but finer-grained hashing; 4 KiB (the paper's choice) wins."""
    from repro.crypto.drbg import HmacDrbg
    from repro.storage.blockdev import RamBlockDevice
    from repro.storage.dm_verity import verity_format, verity_open

    data = HmacDrbg(b"abl4").generate(4 * 1024 * 1024)
    reporter.line("\n  dm-verity block-size sweep (4 MiB device, full scan):")
    timings = {}
    for block_size in (512, 1024, 4096):
        device = RamBlockDevice(len(data) // block_size, block_size, initial=data)
        result = verity_format(device)
        verity = verity_open(device, result.hash_device, result.root_hash)
        levels = len(result.superblock.level_block_counts())
        started = time.perf_counter()
        verity.verify_all()
        seconds = time.perf_counter() - started
        timings[block_size] = seconds
        reporter.line(
            f"    block size {block_size:5d} B ({levels} levels): "
            f"{seconds * 1000:8.1f} ms"
        )
    benchmark.pedantic(
        lambda: verity.verify_all(), rounds=1, iterations=1
    )
    assert timings[4096] < timings[512]


def test_ablation_ra_tls_vs_well_known(benchmark, bench_registry, reporter):
    """Evidence transport ablation: RA-TLS (report inside the TLS cert,
    1 connection) vs the paper's well-known URL (extra HTTPS fetch)."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "examples"))
    from _common import boundary_node_spec

    from repro.build import NetworkPolicy
    from repro.core.ra_tls import RA_TLS_PORT, ra_tls_connect, serve_ra_tls
    from repro.crypto.drbg import HmacDrbg

    registry, pins = bench_registry
    build = build_revelio_image(
        boundary_node_spec(
            registry, pins,
            network_policy=NetworkPolicy(
                allowed_inbound_ports=(443, 8080, RA_TLS_PORT)
            ),
        )
    )
    deployment = RevelioDeployment(build, num_nodes=1, seed=b"abl6").deploy()
    serve_ra_tls(deployment.nodes[0].node)

    # Well-known URL path (fresh session, warm VCEK for fairness).
    browser, _ = deployment.make_user("abl6-wk", "10.2.6.1")
    url = f"https://{deployment.domain}/"
    browser.navigate(url)  # warm the VCEK cache
    browser.new_session()
    start = deployment.network.clock.now
    browser.navigate(url)
    well_known_ms = (deployment.network.clock.now - start) * 1000

    # RA-TLS path: one handshake carries the evidence (same warm KDS).
    client = deployment.network.add_host("abl6-ra", "10.2.6.2")
    kds = deployment._new_kds_client()
    node = deployment.nodes[0]
    kds.get_vcek(node.vm.guest.processor.chip_id,
                 node.vm.guest.processor.current_tcb)
    start = deployment.network.clock.now

    def ra_tls_access():
        connection = ra_tls_connect(
            client, deployment.node_ip(0), RA_TLS_PORT,
            f"{node.vm.name}.ra-tls", kds,
            [build.expected_measurement], HmacDrbg(b"abl6"),
        )
        from repro.net.http import HttpRequest

        connection.request(HttpRequest("GET", "/").encode())
        connection.close()

    ra_tls_access()
    ra_tls_ms = (deployment.network.clock.now - start) * 1000
    reporter.line(
        f"\n  attested access: well-known URL {well_known_ms:.1f} ms vs "
        f"RA-TLS {ra_tls_ms:.1f} ms (evidence rides the handshake)"
    )
    benchmark.pedantic(ra_tls_access, rounds=3, iterations=1)
    assert ra_tls_ms < well_known_ms


def test_ablation_fleet_scaling(benchmark, bn_build, reporter):
    """Provisioning cost vs fleet size (one issuance regardless)."""
    reporter.line("\n  provisioning wall time vs fleet size:")
    timings = {}

    def run_all():
        for fleet_size in (1, 2, 4):
            deployment = RevelioDeployment(
                bn_build, num_nodes=fleet_size, latency=ZERO_LATENCY,
                seed=b"abl5-%d" % fleet_size,
            )
            deployment.launch_fleet()
            deployment.create_sp_node()
            started = time.perf_counter()
            deployment.provision_certificates()
            timings[fleet_size] = time.perf_counter() - started
            assert len(deployment.acme.issued) == 1
        return timings

    timings = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for fleet_size, seconds in timings.items():
        reporter.line(f"    {fleet_size} node(s): {seconds * 1000:8.1f} ms")
    # Roughly linear, certainly not quadratic.
    assert timings[4] < 8 * timings[1] + 0.5
