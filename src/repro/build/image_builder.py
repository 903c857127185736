"""The reproducible Revelio image build (paper §5.1, Fig. 3).

``build_revelio_image`` turns a fully pinned :class:`ImageSpec` into a
launch-ready :class:`~repro.virt.image.VmImage` plus its golden values:

1. resolve every :class:`~repro.build.packages.PackagePin` against the
   registry (digest-verified),
2. compose the rootfs: package files + the measured configuration
   (service conf, network policy, package manifest, optional extra
   golden measurements) + spec-level extra files,
3. serialise it into the deterministic filesystem image and build the
   dm-verity hash tree over it (fixed salt derived from the spec),
4. assemble the disk — partition table, rootfs, verity metadata, and an
   all-zero data volume the guest dm-crypts on first boot,
5. emit kernel, initrd descriptor (the init-step sequence *is* the init
   code), and a command line carrying the verity root hash — so the
   rootfs is transitively covered by the launch measurement,
6. precompute the golden measurement by replaying the AMD-SP's
   accumulation via :mod:`repro.build.measurement`.

Determinism is the headline property (requirement F5): no wall clock,
no RNG, no dict-order dependence anywhere in the pipeline, so two
builds of an identical spec are byte-identical — file paths are sorted,
mtimes squashed, partition UUIDs and the verity salt derived from the
spec identity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..crypto import encoding
from ..storage.dm_verity import verity_format
from ..storage.filesystem import build_image as build_fs_image
from ..storage.filesystem import image_to_device
from ..storage.partition import PartitionEntry, PartitionTable
from ..virt.firmware import build_firmware
from ..virt.image import InitrdDescriptor, KernelBlob, VmImage
from .cache import BuildCache, cache_key
from .measurement import expected_measurement_for_image
from .packages import Package, PackagePin, PackageRegistry

#: Where the measured service configuration lives in the rootfs.
SERVICE_CONF_PATH = "/etc/revelio/service.conf"
#: Where the measured network policy lives in the rootfs (F4).
NETWORK_CONF_PATH = "/etc/revelio/network.conf"
#: Optional extra golden measurements planted at build time (§5.3).
GOLDEN_CONF_PATH = "/etc/revelio/golden.conf"
#: The resolved package manifest, recorded for auditability.
MANIFEST_PATH = "/etc/revelio/packages.conf"

#: The standard Revelio init sequence (§5.2.1-5.2.2), in boot order.
DEFAULT_INIT_STEPS: Tuple[str, ...] = (
    "verity-rootfs",
    "network-lockdown",
    "dm-crypt-data",
    "identity-creation",
    "start-services",
)

#: Disk/rootfs block size (the 4 KiB the dm-verity tree hashes over).
BLOCK_SIZE = 4096

#: The pinned guest kernel identity every image boots.
KERNEL_NAME = "revelio-linux"
KERNEL_VERSION = "6.1.0"
KERNEL_FEATURES: Tuple[str, ...] = ("sev-snp", "dm-verity", "dm-crypt")

#: dm-crypt needs the LUKS header blocks plus at least one data block.
MIN_DATA_VOLUME_BLOCKS = 4

#: The device-mapper stacks a standard image boots from.  The tables
#: travel in the (measured) initrd descriptor, so the exact storage
#: topology — including the verity binding to the cmdline root hash and
#: the sealing-key crypt target — is covered by the launch measurement.
ROOTFS_DM_TABLE = (
    "linear partition=rootfs ; "
    "verity hash=partition:verity root=cmdline:verity_root_hash"
)
DATA_DM_TABLE = "linear partition=data ; crypt key=sealing format=auto fill=zero"


class BuildError(ValueError):
    """Raised on invalid specs or unbuildable images."""


@dataclass(frozen=True)
class NetworkPolicy:
    """The measured network lockdown configuration (requirement F4).

    Baked into the rootfs at :data:`NETWORK_CONF_PATH`, decoded by the
    ``network-lockdown`` init step, and enforced by
    :meth:`repro.net.firewall.Firewall.from_network_policy` — so "just
    open ssh" after attestation is impossible without shifting the
    measurement.  Port 443 (HTTPS) and 8080 (the provisioning bootstrap
    endpoint, Fig. 4) are open by default; ssh is off.
    """

    allowed_inbound_ports: Tuple[int, ...] = (443, 8080)
    ssh_enabled: bool = False
    allow_outbound: bool = True

    def to_dict(self) -> dict:
        """Dict form for canonical TLV embedding."""
        return {
            "allowed_inbound_ports": list(self.allowed_inbound_ports),
            "ssh_enabled": self.ssh_enabled,
            "allow_outbound": self.allow_outbound,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkPolicy":
        """Rebuild from the dict form."""
        return cls(
            allowed_inbound_ports=tuple(data["allowed_inbound_ports"]),
            ssh_enabled=data["ssh_enabled"],
            allow_outbound=data["allow_outbound"],
        )


@dataclass
class ImageSpec:
    """Everything that determines an image, and nothing else.

    Two equal specs build byte-identical images; every field below is
    either measured directly (kernel, initrd, cmdline, firmware) or
    reaches the measurement through the rootfs → verity root hash →
    cmdline chain.
    """

    name: str
    version: str
    registry: PackageRegistry
    package_pins: Sequence[PackagePin]
    service_domain: str
    services: Tuple[str, ...] = ("https",)
    data_volume_blocks: int = 16
    init_steps: Tuple[str, ...] = DEFAULT_INIT_STEPS
    network_policy: NetworkPolicy = NetworkPolicy()
    extra_files: Mapping[str, bytes] = field(default_factory=dict)
    extra_golden_measurements: Tuple[bytes, ...] = ()
    base_boot_services: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not self.version:
            raise BuildError("image name and version are required")
        if not self.service_domain:
            raise BuildError("a service domain is required")
        self.package_pins = tuple(self.package_pins)
        self.services = tuple(self.services)
        self.init_steps = tuple(self.init_steps)
        if not self.init_steps:
            raise BuildError("an image needs at least one init step")
        if not isinstance(self.network_policy, NetworkPolicy):
            raise BuildError("network_policy must be a NetworkPolicy")
        if self.data_volume_blocks < MIN_DATA_VOLUME_BLOCKS:
            raise BuildError(
                f"data volume needs >= {MIN_DATA_VOLUME_BLOCKS} blocks "
                "(LUKS header + payload)"
            )
        for path in self.extra_files:
            if not path.startswith("/"):
                raise BuildError(f"extra file paths must be absolute: {path!r}")
        self.extra_golden_measurements = tuple(
            bytes(m) for m in self.extra_golden_measurements
        )
        self.base_boot_services = tuple(
            (str(name), float(duration)) for name, duration in self.base_boot_services
        )


@dataclass(frozen=True)
class RevelioBuild:
    """The build output: the image, its golden values, and the audit
    trail (spec + resolved pins + composed rootfs contents)."""

    spec: ImageSpec
    pins: Tuple[PackagePin, ...]
    image: VmImage
    root_hash: bytes
    expected_measurement: bytes
    rootfs_files: Dict[str, bytes]
    #: The device-mapper table specs the image's initrd carries
    #: (volume name → table text), part of the audit trail.
    dm_tables: Mapping[str, str] = field(default_factory=dict)
    #: Per-stage cache hit/miss stats when a :class:`BuildCache` was
    #: used (empty for uncached builds) — purely observational.
    cache_stats: Mapping[str, object] = field(default_factory=dict)


#: Historical alias used by the deployment and rollout layers.
BuildResult = RevelioBuild


def _compose_rootfs(spec: ImageSpec, packages: Sequence[Package]) -> Dict[str, bytes]:
    """Lay out the rootfs contents: package files, the measured Revelio
    configuration, and spec-level extra files (which may override)."""
    rootfs: Dict[str, bytes] = {}
    owner: Dict[str, str] = {}
    for package in packages:
        for path, content in package.file_items:
            if path in rootfs:
                raise BuildError(
                    f"package file conflict: {path} provided by both "
                    f"{owner[path]} and {package.name}"
                )
            rootfs[path] = content
            owner[path] = package.name

    rootfs[SERVICE_CONF_PATH] = encoding.encode(
        {
            "domain": spec.service_domain,
            "services": list(spec.services),
            "image": spec.name,
            "version": spec.version,
        }
    )
    rootfs[NETWORK_CONF_PATH] = encoding.encode(spec.network_policy.to_dict())
    rootfs[MANIFEST_PATH] = encoding.encode(
        {
            "packages": [
                {"name": pin.name, "version": pin.version, "digest": pin.digest}
                for pin in spec.package_pins
            ]
        }
    )
    if spec.extra_golden_measurements:
        rootfs[GOLDEN_CONF_PATH] = encoding.encode(
            {"measurements": list(spec.extra_golden_measurements)}
        )
    # Spec-level files land last and may deliberately override package
    # contents (e.g. the IC service worker shipped by the provider).
    for path, content in spec.extra_files.items():
        rootfs[path] = bytes(content)
    return rootfs


def _verity_salt(spec: ImageSpec) -> bytes:
    """A fixed, spec-derived salt: random salts are a classic source of
    image non-determinism (§5.1.1)."""
    return hashlib.sha256(
        f"revelio-verity-salt:{spec.name}:{spec.version}".encode()
    ).digest()[:16]


def _partition_uuid(spec: ImageSpec, partition: str) -> str:
    """A fixed, spec-derived partition UUID (same reason as the salt)."""
    raw = hashlib.sha256(
        f"revelio-uuid:{spec.name}:{spec.version}:{partition}".encode()
    ).hexdigest()
    return f"{raw[0:8]}-{raw[8:12]}-{raw[12:16]}-{raw[16:20]}-{raw[20:32]}"


def _assemble_disk(
    spec: ImageSpec, rootfs_image: bytes, verity_bytes: bytes
) -> bytes:
    """Block 0: partition table; then rootfs, verity metadata, and the
    zero-filled data volume (dm-crypted by the guest on first boot)."""
    rootfs_blocks = len(rootfs_image) // BLOCK_SIZE
    verity_blocks = len(verity_bytes) // BLOCK_SIZE
    table = PartitionTable(
        [
            PartitionEntry(
                "rootfs", 1, rootfs_blocks, _partition_uuid(spec, "rootfs")
            ),
            PartitionEntry(
                "verity",
                1 + rootfs_blocks,
                verity_blocks,
                _partition_uuid(spec, "verity"),
            ),
            PartitionEntry(
                "data",
                1 + rootfs_blocks + verity_blocks,
                spec.data_volume_blocks,
                _partition_uuid(spec, "data"),
            ),
        ]
    )
    encoded_table = table.encode()
    if len(encoded_table) > BLOCK_SIZE:
        raise BuildError("partition table does not fit in one block")
    return (
        encoded_table.ljust(BLOCK_SIZE, b"\x00")
        + rootfs_image
        + verity_bytes
        + bytes(spec.data_volume_blocks * BLOCK_SIZE)
    )


def _rootfs_key(spec: ImageSpec, rootfs_files: Mapping[str, bytes]) -> bytes:
    """Cache key of the rootfs-serialisation stage: the exact file map
    plus the serialisation parameters."""
    return cache_key(
        encoding.encode(
            {
                "files": dict(rootfs_files),
                "block_size": BLOCK_SIZE,
                "label": f"{spec.name}-rootfs",
            }
        )
    )


def build_revelio_image(
    spec: ImageSpec, cache: Optional[BuildCache] = None
) -> RevelioBuild:
    """Reproducibly build a launch-ready image from a pinned spec.

    Raises :class:`~repro.build.packages.PackageError` if any pin fails
    digest verification and :class:`BuildError` on spec problems.
    Deterministic: equal specs yield byte-identical images and equal
    golden measurements — with or without a *cache*, which only memoises
    the expensive stages (rootfs serialisation, the verity tree, the
    measurement replay) across incremental rebuilds.
    """
    packages: List[Package] = [spec.registry.resolve(pin) for pin in spec.package_pins]
    rootfs_files = _compose_rootfs(spec, packages)

    def memo(stage, key, producer):
        return producer() if cache is None else cache.memo(stage, key, producer)

    rootfs_image = memo(
        "rootfs",
        _rootfs_key(spec, rootfs_files),
        lambda: build_fs_image(
            rootfs_files, block_size=BLOCK_SIZE, label=f"{spec.name}-rootfs"
        ),
    )
    salt = _verity_salt(spec)
    root_hash, verity_bytes = memo(
        "verity",
        cache_key(salt, hashlib.sha256(rootfs_image).digest()),
        lambda: (
            lambda result: (result.root_hash, result.hash_device.snapshot())
        )(verity_format(image_to_device(rootfs_image, BLOCK_SIZE), salt=salt)),
    )
    disk_image = _assemble_disk(spec, rootfs_image, verity_bytes)

    initrd = InitrdDescriptor(
        init_steps=spec.init_steps,
        parameters={"rootfs_table": ROOTFS_DM_TABLE, "data_table": DATA_DM_TABLE},
    ).encode()
    kernel = KernelBlob(KERNEL_NAME, KERNEL_VERSION, KERNEL_FEATURES).encode()
    cmdline = (
        "console=ttyS0 ro root=/dev/mapper/vroot "
        f"verity_root_hash={root_hash.hex()}"
    )
    image = VmImage(
        name=spec.name,
        version=spec.version,
        firmware_template=build_firmware(),
        kernel=kernel,
        initrd=initrd,
        cmdline=cmdline,
        disk_image=disk_image,
        disk_block_size=BLOCK_SIZE,
        base_boot_services=spec.base_boot_services,
    )
    expected_measurement = memo(
        "measurement",
        cache_key(
            image.firmware_template, image.kernel, image.initrd,
            image.cmdline.encode("utf-8"),
        ),
        lambda: expected_measurement_for_image(image),
    )
    return RevelioBuild(
        spec=spec,
        pins=tuple(spec.package_pins),
        image=image,
        root_hash=root_hash,
        expected_measurement=expected_measurement,
        rootfs_files=rootfs_files,
        dm_tables={"rootfs": ROOTFS_DM_TABLE, "data": DATA_DM_TABLE},
        cache_stats={} if cache is None else cache.stats(),
    )
