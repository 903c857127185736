"""The security analysis of paper section 6.1, executed end to end.

Every attack the paper discusses is actually mounted here via the
untrusted hypervisor / malicious provider hooks, and the test asserts
the defence the paper claims: failed boots, failed attestations, or
the web extension flagging the access.
"""

import pytest

from repro.build import build_revelio_image
from repro.core import RevelioDeployment
from repro.core.key_sharing import ReportBundle
from repro.core.sp_node import ProvisioningError
from repro.core.trusted_registry import StaticRegistry
from repro.net.latency import ZERO_LATENCY
from repro.amd.verify import AttestationError
from repro.virt.firmware import build_firmware
from repro.virt.hypervisor import LaunchAttack
from repro.virt.vm import BootFailure
from tests.conftest import make_spec


@pytest.fixture(scope="module")
def build(registry_and_pins):
    registry, pins = registry_and_pins
    return build_revelio_image(make_spec(registry, pins))


def fresh_deployment(build, seed, num_nodes=1):
    return RevelioDeployment(
        build, num_nodes=num_nodes, latency=ZERO_LATENCY, seed=seed
    )


class TestModifiedBootComponents:
    """6.1.1: loading a modified kernel or initrd."""

    def test_wrong_kernel_halts_boot(self, build):
        deployment = fresh_deployment(build, b"atk-kernel")
        from repro.virt.image import KernelBlob

        evil = KernelBlob("evil", "6.6.6").encode()
        with pytest.raises(BootFailure, match="kernel"):
            deployment.launch_fleet(
                attack_for=lambda i: LaunchAttack(
                    replace_kernel=evil, inject_expected_hashes=True
                )
            )

    def test_cmdline_with_forged_root_hash_halts_boot(self, build):
        deployment = fresh_deployment(build, b"atk-cmdline")
        evil_cmdline = build.image.cmdline.replace(
            build.root_hash.hex(), "00" * 32
        )
        with pytest.raises(BootFailure, match="cmdline"):
            deployment.launch_fleet(
                attack_for=lambda i: LaunchAttack(
                    replace_cmdline=evil_cmdline, inject_expected_hashes=True
                )
            )

    def test_honestly_hashed_evil_kernel_fails_attestation(self, build):
        # The host injects matching hashes for the evil blobs: the VM
        # boots, but its measurement deviates and the SP refuses it.
        deployment = fresh_deployment(build, b"atk-kernel2")
        from repro.virt.image import InitrdDescriptor

        honest = build.image.initrd_descriptor()
        evil_initrd = InitrdDescriptor(
            init_steps=honest.init_steps,
            parameters={**honest.parameters, "backdoor": "yes"},
        ).encode()
        deployment.launch_fleet(
            attack_for=lambda i: LaunchAttack(replace_initrd=evil_initrd)
        )
        deployment.create_sp_node()
        with pytest.raises(AttestationError) as excinfo:
            deployment.sp.provision_fleet([deployment.node_ip(0)])
        assert excinfo.value.reason == "measurement_mismatch"

    def test_malicious_firmware_fails_attestation(self, build):
        deployment = fresh_deployment(build, b"atk-ovmf")
        deployment.launch_fleet(
            attack_for=lambda i: LaunchAttack(
                replace_firmware_template=build_firmware(verify_hashes=False)
            )
        )
        deployment.create_sp_node()
        with pytest.raises(AttestationError) as excinfo:
            deployment.sp.provision_fleet([deployment.node_ip(0)])
        assert excinfo.value.reason == "measurement_mismatch"


class TestRootfsTampering:
    """6.1.2: tampering with the root filesystem."""

    def test_tampered_rootfs_fails_boot(self, build):
        deployment = fresh_deployment(build, b"atk-rootfs")

        def tamper(disk):
            # Flip one bit somewhere inside the rootfs partition.
            disk.corrupt(4096 * 3 + 123)

        with pytest.raises(BootFailure, match="integrity|root hash"):
            deployment.launch_fleet(
                attack_for=lambda i: LaunchAttack(tamper_disk=tamper)
            )

    def test_rebuilt_rootfs_with_fixed_hash_fails_attestation(
        self, build, registry_and_pins
    ):
        # The provider rebuilds the image with a backdoor and a *correct*
        # root hash for it; the VM boots, but measurement != golden.
        registry, pins = registry_and_pins
        evil_build = build_revelio_image(
            make_spec(registry, pins, extra_files={"/opt/backdoor": b"evil"})
        )
        deployment = fresh_deployment(evil_build, b"atk-rootfs2")
        deployment.launch_fleet()
        sp_host = deployment.network.add_host("sp-honest", "10.1.0.9")
        from repro.core.sp_node import ServiceProviderNode
        from repro.pki.certbot import CertbotClient

        honest_sp = ServiceProviderNode(
            host=sp_host,
            certbot=CertbotClient(deployment.acme, deployment.network.dns),
            kds=deployment._new_kds_client(),
            domain=deployment.domain,
            expected_measurements=[build.expected_measurement],  # honest golden
        )
        with pytest.raises(AttestationError) as excinfo:
            honest_sp.provision_fleet([deployment.node_ip(0)])
        assert excinfo.value.reason == "measurement_mismatch"


class TestRuntimeModification:
    """6.1.3: modifying the system during runtime."""

    def test_remote_access_blocked(self, build):
        deployment = fresh_deployment(build, b"atk-runtime1")
        deployment.launch_fleet()
        from repro.net.firewall import ConnectionRefused

        attacker = deployment.network.add_host("intruder", "10.9.9.9")
        node_ip = deployment.nodes[0].host.ip_address
        with pytest.raises(ConnectionRefused):
            attacker.request(node_ip, 22, b"ssh login attempt")

    def test_runtime_disk_tamper_detected_on_read(self, build):
        deployment = fresh_deployment(build, b"atk-runtime2")
        deployment.launch_fleet()
        deployed = deployment.nodes[0]
        from repro.storage.dm_verity import VerityError
        from repro.storage.partition import PartitionTable

        # Find a byte inside the rootfs partition and flip it while the
        # VM runs (the host can always write to the disk).
        table = PartitionTable.read_from(deployed.vm.disk)
        entry = next(e for e in table.entries if e.name == "rootfs")
        offset = (entry.first_block + 2) * 4096 + 5
        deployed.hypervisor.tamper_disk_at_runtime(deployed.vm, offset)
        with pytest.raises(VerityError):
            # Even a full rescan: dm-verity raises on the tampered block.
            deployed.vm.storage["verity"].verify_all()

    def test_single_bit_flip_anywhere_detected(self, build):
        deployment = fresh_deployment(build, b"atk-runtime3")
        deployment.launch_fleet()
        deployed = deployment.nodes[0]
        from repro.storage.dm_verity import VerityError
        from repro.storage.partition import PartitionTable

        table = PartitionTable.read_from(deployed.vm.disk)
        entry = next(e for e in table.entries if e.name == "rootfs")
        # Try several offsets across the partition.
        for block_offset in (0, entry.num_blocks // 2, entry.num_blocks - 1):
            snapshot = deployed.vm.disk.snapshot()
            deployed.hypervisor.tamper_disk_at_runtime(
                deployed.vm, (entry.first_block + block_offset) * 4096
            )
            with pytest.raises(VerityError):
                deployed.vm.storage["verity"].verify_all()
            deployed.vm.disk.restore(snapshot)


class TestRollback:
    """6.1.4: rollback attacks on the VM image."""

    def test_sp_rejects_revoked_measurement(self, build, registry_and_pins):
        registry, pins = registry_and_pins
        new_build = build_revelio_image(
            make_spec(registry, pins, version="2.0.0")
        )
        # Provider launches the *old* (buggy) image.
        deployment = fresh_deployment(build, b"atk-rollback")
        deployment.launch_fleet()
        deployment.create_sp_node(
            extra_measurements=[new_build.expected_measurement]
        )
        # The new image rolled out; the old measurement is revoked.
        deployment.sp.revoke_measurement(build.expected_measurement)
        with pytest.raises(AttestationError) as excinfo:
            deployment.sp.provision_fleet([deployment.node_ip(0)])
        assert excinfo.value.reason == "measurement_revoked"

    def test_extension_rejects_revoked_measurement(self, build):
        deployment = fresh_deployment(build, b"atk-rollback2", num_nodes=1)
        deployment.deploy()
        registry = StaticRegistry(
            golden={deployment.domain: [b"\x11" * 48]},
            revoked={deployment.domain: [build.expected_measurement]},
        )
        browser, extension = deployment.make_user(
            "rb-user", "10.2.0.30", register_service=False,
            trusted_registry=registry,
        )
        extension.register_site(deployment.domain, use_registry=True)
        result = browser.navigate(f"https://{deployment.domain}/")
        assert result.blocked
        assert "revoked" in result.block_reason


class TestImpersonation:
    def test_sp_rejects_unapproved_chip(self, build):
        # A genuine SEV platform running the genuine image, but not one
        # of the provider's approved machines (a cuckoo attack).
        deployment = fresh_deployment(build, b"atk-chip", num_nodes=2)
        deployment.launch_fleet()
        sp_host = deployment.network.add_host("sp-pin", "10.1.0.8")
        from repro.core.sp_node import ServiceProviderNode
        from repro.pki.certbot import CertbotClient

        sp = ServiceProviderNode(
            host=sp_host,
            certbot=CertbotClient(deployment.acme, deployment.network.dns),
            kds=deployment._new_kds_client(),
            domain=deployment.domain,
            expected_measurements=[build.expected_measurement],
            approved_chip_ids=[
                deployment.nodes[0].vm.guest.processor.chip_id
            ],  # only node 0 approved
        )
        with pytest.raises(AttestationError) as excinfo:
            sp.provision_fleet([deployment.node_ip(1)])
        assert excinfo.value.reason == "chip_id_not_allowed"

    def test_sp_rejects_unapproved_ip(self, build):
        deployment = fresh_deployment(build, b"atk-ip")
        deployment.launch_fleet()
        sp_host = deployment.network.add_host("sp-ip", "10.1.0.7")
        from repro.core.sp_node import ServiceProviderNode
        from repro.pki.certbot import CertbotClient

        sp = ServiceProviderNode(
            host=sp_host,
            certbot=CertbotClient(deployment.acme, deployment.network.dns),
            kds=deployment._new_kds_client(),
            domain=deployment.domain,
            expected_measurements=[build.expected_measurement],
            approved_ips=["10.0.0.99"],
        )
        with pytest.raises(AttestationError) as excinfo:
            sp.provision_fleet([deployment.node_ip(0)])
        assert excinfo.value.reason == "ip_not_allowed"

    def test_leader_rejects_unattested_peer(self, build):
        # An attacker with the bootstrap protocol but no valid report
        # cannot extract the TLS private key from the leader.
        deployment = fresh_deployment(build, b"atk-peer", num_nodes=2)
        deployment.deploy()
        from repro.core import BOOTSTRAP_PORT
        from repro.crypto.drbg import HmacDrbg
        from repro.crypto.keys import PrivateKey
        from repro.net.http import HttpRequest, HttpResponse

        attacker_key = PrivateKey.generate_ecdsa(HmacDrbg(b"attacker"))
        # Reuse a genuine node's report but swap in the attacker's key.
        genuine_bundle = deployment.nodes[1].vm.identity.key_bundle()
        from dataclasses import replace

        forged = replace(genuine_bundle, payload=attacker_key.public_key().encode())
        attacker = deployment.network.add_host("key-thief", "10.9.9.8")
        raw = attacker.request(
            deployment.provisioning.leader_ip,
            BOOTSTRAP_PORT,
            HttpRequest(
                "POST", "/revelio/key-request", body=forged.encode()
            ).encode(),
        )
        response = HttpResponse.decode(raw)
        assert response.status == 403


class TestRedirectAndMitm:
    """Section 5.3.2: certificate swap / DNS redirect detection."""

    def _evil_endpoint(self, deployment, seed=b"evil-endpoint"):
        """A non-TEE host serving the domain with a CA-valid certificate
        (the malicious provider controls DNS, so ACME issues happily)."""
        from repro.crypto.drbg import HmacDrbg
        from repro.crypto.keys import PrivateKey
        from repro.crypto.x509 import CertificateSigningRequest, Name
        from repro.net.http import HttpResponse, HttpServer
        from repro.pki.certbot import CertbotClient

        rng = HmacDrbg(seed)
        evil_key = PrivateKey.generate_ecdsa(rng)
        csr = CertificateSigningRequest.create(
            Name(deployment.domain), evil_key, san=(deployment.domain,)
        )
        chain = CertbotClient(deployment.acme, deployment.network.dns).obtain_certificate(
            deployment.domain, csr
        )
        evil_host = deployment.network.add_host("evil-endpoint", "10.6.6.6")
        server = HttpServer("evil")
        server.add_route(
            "GET", "/", lambda r, c: HttpResponse.ok(b"<html>phish</html>")
        )
        server.serve_tls(evil_host, chain, evil_key, rng.fork(b"tls"))
        return evil_host

    def test_mid_session_redirect_detected(self, build):
        deployment = fresh_deployment(build, b"atk-redirect", num_nodes=1)
        deployment.deploy()
        browser, extension = deployment.make_user("victim", "10.2.0.40")
        first = browser.navigate(f"https://{deployment.domain}/")
        assert not first.blocked

        self._evil_endpoint(deployment)
        deployment.network.dns.redirect(deployment.domain, "10.6.6.6")
        browser.client.close_all()  # connection reset forces re-resolution

        result = browser.navigate(f"https://{deployment.domain}/")
        assert result.blocked
        assert "re-keyed" in result.block_reason or "unattested" in result.block_reason

    def test_fresh_session_redirect_detected(self, build):
        # Even on first contact, the evil endpoint has no attestation
        # report binding its TLS key, so validation fails.
        deployment = fresh_deployment(build, b"atk-redirect2", num_nodes=1)
        deployment.deploy()
        self._evil_endpoint(deployment, seed=b"evil2")
        deployment.network.dns.redirect(deployment.domain, "10.6.6.6")
        browser, extension = deployment.make_user("victim2", "10.2.0.41")
        result = browser.navigate(f"https://{deployment.domain}/")
        assert result.blocked

    def test_browser_without_extension_is_fooled(self, build):
        # The contrast case motivating Revelio: a plain browser accepts
        # the redirect because the CA-issued certificate is valid.
        deployment = fresh_deployment(build, b"atk-redirect3", num_nodes=1)
        deployment.deploy()
        self._evil_endpoint(deployment, seed=b"evil3")
        deployment.network.dns.redirect(deployment.domain, "10.6.6.6")
        browser, _ = deployment.make_user(
            "naive", "10.2.0.42", with_extension=False
        )
        result = browser.navigate(f"https://{deployment.domain}/")
        assert not result.blocked
        assert result.response.body == b"<html>phish</html>"

    def test_user_override_proceeds_with_warning(self, build):
        deployment = fresh_deployment(build, b"atk-override", num_nodes=1)
        deployment.deploy()
        self._evil_endpoint(deployment, seed=b"evil4")
        deployment.network.dns.redirect(deployment.domain, "10.6.6.6")
        browser, extension = deployment.make_user(
            "risk-taker", "10.2.0.43",
            user_override=lambda domain, reason: True,
        )
        result = browser.navigate(f"https://{deployment.domain}/")
        assert not result.blocked  # user chose to proceed...
        assert any(e.kind == "violation" for e in extension.events)

    def test_record_tampering_detected_by_tls(self, build):
        deployment = fresh_deployment(build, b"atk-mitm", num_nodes=1)
        deployment.deploy()
        browser, _ = deployment.make_user("mitm-victim", "10.2.0.44",
                                          with_extension=False)
        browser.navigate(f"https://{deployment.domain}/")

        def corrupt_records(src, dst, port, payload):
            if port == 443 and len(payload) > 40:
                mutated = bytearray(payload)
                mutated[-1] ^= 0x01
                return (src, dst, port, bytes(mutated))
            return (src, dst, port, payload)

        deployment.network.add_interceptor(corrupt_records)
        from repro.net.tls import TlsError

        with pytest.raises((TlsError, ConnectionError)):
            connection = browser.client.current_connection(deployment.domain)
            from repro.net.http import HttpRequest

            connection.request(HttpRequest("GET", "/").encode())
