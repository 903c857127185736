"""Storage substrate: block devices, device-mapper targets, filesystem.

Simulates the Linux storage stack a Revelio VM relies on:

* :mod:`blockdev` — fixed-block devices (RAM-backed, slices, read-only
  views) with corruption/rollback primitives for attack simulation,
* :mod:`partition` — a GPT-like table with pinned UUIDs,
* :mod:`dm_verity` — verify-on-read integrity target (Merkle tree),
* :mod:`dm_crypt` — AES-XTS-plain64 encryption with a LUKS-like header,
* :mod:`dm` — declarative device-mapper tables stacking the targets
  above into named volumes,
* :mod:`filesystem` — a deterministic read-only filesystem image.
"""

from .blockdev import (
    DEFAULT_BLOCK_SIZE,
    BlockDevice,
    BlockDeviceError,
    RamBlockDevice,
    ReadOnlyDeviceError,
    ReadOnlyView,
    SliceView,
)
from .dm import (
    ZERO_STORAGE_LATENCY,
    CachedVerityDevice,
    DmContext,
    DmError,
    DmTable,
    DmVolume,
    LinearTarget,
    StorageLatencyModel,
    StorageMeter,
    TargetSpec,
    TargetStats,
    VolumeError,
    VolumeRegistry,
)
from .dm_crypt import (
    CryptDevice,
    DmCryptError,
    LuksHeader,
    is_luks,
    luks_add_key,
    luks_format,
    luks_open,
    read_header,
)
from .dm_verity import (
    VerityDevice,
    VerityError,
    VerityFormatResult,
    VeritySuperblock,
    verity_format,
    verity_open,
)
from .filesystem import (
    FileEntry,
    FileSystem,
    FileSystemError,
    build_image,
    image_to_device,
)
from .partition import PartitionEntry, PartitionError, PartitionTable

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "BlockDevice",
    "BlockDeviceError",
    "CachedVerityDevice",
    "CryptDevice",
    "DmContext",
    "DmCryptError",
    "DmError",
    "DmTable",
    "DmVolume",
    "LinearTarget",
    "FileEntry",
    "FileSystem",
    "FileSystemError",
    "LuksHeader",
    "PartitionEntry",
    "PartitionError",
    "PartitionTable",
    "RamBlockDevice",
    "ReadOnlyDeviceError",
    "ReadOnlyView",
    "SliceView",
    "StorageLatencyModel",
    "StorageMeter",
    "TargetSpec",
    "TargetStats",
    "VerityDevice",
    "VerityError",
    "VerityFormatResult",
    "VeritySuperblock",
    "VolumeError",
    "VolumeRegistry",
    "ZERO_STORAGE_LATENCY",
    "build_image",
    "image_to_device",
    "is_luks",
    "luks_add_key",
    "luks_format",
    "luks_open",
    "read_header",
    "verity_format",
    "verity_open",
]
