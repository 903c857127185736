"""Composable device-mapper tables: the one seam the storage stack goes through.

Mirrors how Linux's ``dmsetup`` assembles virtual block devices (paper
sections 5.1.2 and 6.3.1): a :class:`DmTable` is a declarative, ordered
stack of *targets* that composes any :class:`~repro.storage.blockdev.
BlockDevice` into a named volume.  The table has a one-line textual
form — targets separated by ``;`` , each ``kind key=value ...`` — that
the image builder emits next to the golden measurement and the guest's
(measured) initrd carries, so the boot-to-mount path is data, not code:

    linear partition=rootfs ; verity hash=partition:verity
    root=cmdline:verity_root_hash

Supported targets, bottom-up:

* ``linear`` — the base extent: a named partition of the context disk
  (``partition=``), a named context device (``device=``), or an
  explicit ``first=``/``blocks=`` slice.  Models physical I/O and is
  where the :class:`StorageLatencyModel` charges seek/transfer cost.
* ``crypt`` — dm-crypt (AES-XTS, LUKS header) opened with a key from
  the context (the Revelio sealing-key flow) or formatted on first
  boot (``format=auto``).
* ``verity`` — verify-on-read with hash-path memoisation: every
  hash-tree node is verified at most once per cache generation, and a
  bounded LRU of *verified* data blocks serves hot re-reads without
  re-walking the Merkle path.  Any verify failure drops the caches.

Storage attacks are not a table kind: they flip bits on the raw disk
below every target (``BlockDevice.corrupt``), where a hostile host
would, and each layer above notices through ``mutation_count``.

Every target keeps per-target I/O counters (:class:`TargetStats`) and
reports aggregates + simulated latency to the ``repro.attest`` trace
registry, so storage cost shows up in the same observability plane as
verification cost.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..attest.trace import get_tracer
from ..crypto.drbg import HmacDrbg
from .blockdev import BlockDevice, BlockDeviceError, SliceView
from .dm_crypt import CryptDevice, is_luks, luks_format, luks_open
from .dm_verity import VerityDevice, VerityError
from .partition import PartitionTable


class DmError(ValueError):
    """Raised on malformed tables or unresolvable targets."""

    def __init__(self, message: str, reason: str = "dm_error"):
        super().__init__(message)
        #: Stable machine-readable failure code.
        self.reason = reason


class VolumeError(LookupError):
    """Raised by :class:`VolumeRegistry` on role conflicts or misses."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        #: Stable machine-readable failure code
        #: (``duplicate_role`` | ``missing_role``).
        self.reason = reason


# -- latency model and metering ------------------------------------------------


@dataclass
class StorageLatencyModel:
    """Per-operation virtual storage latencies (seconds).

    Defaults model an NVMe-class device plus software crypto/hashing:
    fixed per-4KiB-block transfer cost at the physical (linear) layer,
    per-block hash cost on the verity path, per-block XTS cost on the
    crypt path, and a near-free verified-page hit.  The composition —
    verity multiplying read cost by the hash-path depth, crypt adding a
    roughly constant factor, the page cache collapsing hot reads — is
    what the paper's Figs. 5/6 report.
    """

    #: one 4 KiB block read at the physical layer
    block_read: float = 22e-6
    #: one 4 KiB block write at the physical layer
    block_write: float = 25e-6
    #: hashing one block on the verity verify path
    hash_block: float = 6e-6
    #: AES-XTS over one block (encrypt or decrypt)
    xts_block: float = 9e-6
    #: serving one block from verity's verified-page cache
    cache_hit: float = 0.5e-6


#: A model with everything zeroed, for exact-assertion unit tests.
ZERO_STORAGE_LATENCY = StorageLatencyModel(0.0, 0.0, 0.0, 0.0, 0.0)


class StorageMeter:
    """Prices storage operations on the sim clock and mirrors counters.

    One meter is shared by every layer of the volumes it opens: targets
    call :meth:`charge` with a :class:`StorageLatencyModel` field name
    and :meth:`count` with a counter name.  Charges advance the
    attached :class:`~repro.net.latency.SimClock` (when present) and
    accumulate locally; counts mirror into the process-wide
    ``repro.attest`` trace registry.
    """

    def __init__(self, model: Optional[StorageLatencyModel] = None, clock=None):
        self.model = model if model is not None else StorageLatencyModel()
        self.clock = clock
        self.sim_seconds = 0.0

    def charge(self, kind: str, count: int = 1) -> None:
        """Charge *count* operations of the model's *kind* cost."""
        cost = getattr(self.model, kind) * count
        if not cost:
            return
        self.sim_seconds += cost
        if self.clock is not None:
            self.clock.advance(cost)
        get_tracer().storage.charge(cost)

    def count(self, name: str, amount: int = 1) -> None:
        """Mirror a per-target counter into the global registry."""
        get_tracer().storage.add(name, amount)


class TargetStats:
    """Per-target I/O counters, exposed by every dm target."""

    __slots__ = ("kind", "counts")

    def __init__(self, kind: str):
        self.kind = kind
        self.counts: Counter = Counter()

    def bump(self, name: str, amount: int = 1) -> None:
        """Count *amount* operations under *name*."""
        self.counts[name] += amount

    def get(self, name: str) -> int:
        """Current value of one counter."""
        return self.counts[name]

    def as_dict(self) -> dict:
        """Plain-data view: the target kind plus its counters."""
        return {"kind": self.kind, **dict(sorted(self.counts.items()))}


# -- table specification -------------------------------------------------------


@dataclass(frozen=True)
class TargetSpec:
    """One target line: a kind plus ordered ``key=value`` parameters."""

    kind: str
    params: Tuple[Tuple[str, str], ...] = ()

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """The value of parameter *key*, or *default*."""
        for name, value in self.params:
            if name == key:
                return value
        return default

    def require(self, key: str) -> str:
        """The value of parameter *key*; raises :class:`DmError` if absent."""
        value = self.get(key)
        if value is None:
            raise DmError(
                f"target {self.kind!r} requires parameter {key!r}",
                reason="missing_param",
            )
        return value

    def to_text(self) -> str:
        """The ``kind key=value ...`` line form."""
        parts = [self.kind]
        parts.extend(f"{key}={value}" for key, value in self.params)
        return " ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "TargetSpec":
        """Parse one target line."""
        tokens = text.split()
        if not tokens:
            raise DmError("empty target line", reason="bad_table")
        params = []
        for token in tokens[1:]:
            if "=" not in token:
                raise DmError(
                    f"malformed parameter {token!r} (expected key=value)",
                    reason="bad_table",
                )
            key, _, value = token.partition("=")
            params.append((key, value))
        return cls(kind=tokens[0], params=tuple(params))


@dataclass(frozen=True)
class DmTable:
    """A named, ordered stack of targets — the ``dmsetup table`` analogue."""

    name: str
    targets: Tuple[TargetSpec, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise DmError("a table needs a name", reason="bad_table")
        if not self.targets:
            raise DmError("a table needs at least one target", reason="bad_table")

    def to_text(self) -> str:
        """The one-line form the image builder emits and initrds carry."""
        return " ; ".join(target.to_text() for target in self.targets)

    @classmethod
    def parse(cls, name: str, text: str) -> "DmTable":
        """Parse the one-line form back into a table."""
        lines = [line.strip() for line in text.split(";")]
        targets = tuple(TargetSpec.parse(line) for line in lines if line)
        return cls(name=name, targets=targets)

    def open(self, context: "DmContext",
             base: Optional[BlockDevice] = None) -> "DmVolume":
        """Compose the stack bottom-up and return the opened volume.

        *base* seeds the stack for tables whose first target is not a
        ``linear`` source (tests composing over an explicit device).
        """
        meter = context.meter if context.meter is not None else StorageMeter()
        device = base
        layers: List[BlockDevice] = []
        for spec in self.targets:
            builder = _TARGET_BUILDERS.get(spec.kind)
            if builder is None:
                raise DmError(
                    f"unknown target kind {spec.kind!r}", reason="unknown_target"
                )
            device = builder(spec, context, device, meter)
            layers.append(device)
        return DmVolume(self.name, self, device, layers, meter)


@dataclass
class DmContext:
    """Everything target resolution may need at open time.

    Device references in table parameters resolve against it:
    ``partition:<name>`` opens a partition of :attr:`disk`;
    ``device:<name>`` looks up :attr:`devices`.  Root-hash references
    are ``cmdline:<arg>`` (the measured kernel command line) or
    ``hex:<digits>``; crypt keys name entries of :attr:`keys` (the
    sealing-key flow keeps key bytes out of the table text).
    """

    disk: Optional[BlockDevice] = None
    devices: Dict[str, BlockDevice] = field(default_factory=dict)
    cmdline_args: Mapping[str, str] = field(default_factory=dict)
    keys: Dict[str, bytes] = field(default_factory=dict)
    rng: Optional[HmacDrbg] = None
    meter: Optional[StorageMeter] = None
    _partitions: Optional[PartitionTable] = None

    def partition_table(self) -> PartitionTable:
        """The (cached) partition table of the context disk."""
        if self.disk is None:
            raise DmError(
                "table references a partition but the context has no disk",
                reason="missing_device",
            )
        if self._partitions is None:
            self._partitions = PartitionTable.read_from(self.disk)
        return self._partitions

    def resolve_device(self, reference: str) -> BlockDevice:
        """Resolve a ``partition:`` / ``device:`` reference."""
        scheme, _, name = reference.partition(":")
        if scheme == "partition" and name:
            return self.partition_table().open(self.disk, name)
        if scheme == "device" and name:
            try:
                return self.devices[name]
            except KeyError:
                raise DmError(
                    f"no context device named {name!r}", reason="missing_device"
                ) from None
        raise DmError(
            f"unresolvable device reference {reference!r} "
            "(expected partition:<name> or device:<name>)",
            reason="bad_param",
        )

    def resolve_root_hash(self, reference: str) -> bytes:
        """Resolve a ``cmdline:`` / ``hex:`` root-hash reference."""
        scheme, _, value = reference.partition(":")
        if scheme == "cmdline":
            hex_digest = self.cmdline_args.get(value, "")
            if not hex_digest:
                raise DmError(
                    f"no verity root hash: cmdline argument {value!r} missing",
                    reason="missing_root_hash",
                )
            return bytes.fromhex(hex_digest)
        if scheme == "hex" and value:
            return bytes.fromhex(value)
        raise DmError(
            f"unresolvable root hash reference {reference!r}",
            reason="bad_param",
        )

    def resolve_key(self, name: str) -> bytes:
        """Resolve a named key from the context key material."""
        try:
            return self.keys[name]
        except KeyError:
            raise DmError(
                f"no context key named {name!r}", reason="missing_key"
            ) from None


# -- target devices ------------------------------------------------------------


class _TargetDevice(BlockDevice):
    """Shared plumbing: stats, metering, batched delegation."""

    kind = "target"

    def __init__(self, backing: BlockDevice, meter: StorageMeter):
        super().__init__(backing.num_blocks, backing.block_size)
        self._backing = backing
        self._meter = meter
        self.stats = TargetStats(self.kind)

    @property
    def mutation_count(self) -> int:
        return self._backing.mutation_count

    def _note(self, name: str, amount: int = 1) -> None:
        self.stats.bump(name, amount)
        self._meter.count(name, amount)


class LinearTarget(_TargetDevice):
    """The base extent; models the physical device and its I/O cost."""

    kind = "linear"

    def read_block(self, index: int) -> bytes:
        self._check_block(index)
        self._note("reads")
        self._meter.charge("block_read")
        return self._backing.read_block(index)

    def write_block(self, index: int, data: bytes) -> None:
        self._check_write(index, data)
        self._note("writes")
        self._meter.charge("block_write")
        self._backing.write_block(index, data)

    def read_blocks(self, first: int, count: int) -> bytes:
        if count < 0 or first < 0 or first + count > self.num_blocks:
            raise BlockDeviceError("block range out of bounds")
        self._note("reads", count)
        self._meter.charge("block_read", count)
        return self._backing.read_blocks(first, count)

    def write_blocks(self, first: int, data: bytes) -> None:
        count = len(data) // self.block_size
        self._note("writes", count)
        self._meter.charge("block_write", count)
        self._backing.write_blocks(first, data)


class CachedVerityDevice(VerityDevice):
    """dm-verity with hash-path memoisation and a verified-page LRU.

    Soundness of the caches rests on two rules the implementation never
    bends:

    1. A hash-tree node's content enters the node cache only after the
       chain from it to the root hash (or to an already-authenticated
       ancestor) verified; a data block enters the page cache only
       after its own path verified against authenticated nodes.
    2. Both caches are keyed to the backing devices' ``mutation_count``
       generation — any out-of-band write (including the corruption
       primitives) starts a new generation with empty caches, and any
       verify failure drops them too, so a failure is never followed by
       a stale-cache success.

    Hot re-reads therefore skip the Merkle walk entirely (page hit) or
    reduce it to one leaf hash (path hit) while retaining verify-on-read
    semantics against every modelled attacker.
    """

    kind = "verity"

    def __init__(self, data_device: BlockDevice, hash_device: BlockDevice,
                 root_hash: bytes, meter: Optional[StorageMeter] = None,
                 page_cache_blocks: int = 1024):
        super().__init__(data_device, hash_device, root_hash)
        self._meter = meter if meter is not None else StorageMeter()
        self.stats = TargetStats(self.kind)
        self.page_cache_blocks = page_cache_blocks
        self._pages: "OrderedDict[int, bytes]" = OrderedDict()
        self._leaf_digests: "OrderedDict[int, bytes]" = OrderedDict()
        self._nodes: Dict[int, bytes] = {}
        self.generation = 0
        self._expected_version = self.mutation_count

    def _note(self, name: str, amount: int = 1) -> None:
        self.stats.bump(name, amount)
        self._meter.count(name, amount)

    def invalidate(self) -> None:
        """Start a new cache generation (drops every memoised node)."""
        self._pages.clear()
        self._leaf_digests.clear()
        self._nodes.clear()
        self.generation += 1
        self._expected_version = self.mutation_count

    def _sync_generation(self) -> None:
        if self.mutation_count != self._expected_version:
            self.invalidate()

    def read_block(self, index: int) -> bytes:
        self._check_block(index)
        self._sync_generation()
        page = self._pages.get(index)
        if page is not None:
            self._pages.move_to_end(index)
            self._note("verify_hits")
            self.stats.bump("page_hits")
            self._meter.charge("cache_hit")
            return page
        data = self._data.read_block(index)
        digest = self._hash_fn(self._superblock.salt + data)
        self._meter.charge("hash_block")
        cached_leaf = self._leaf_digests.get(index)
        if cached_leaf is not None:
            if digest == cached_leaf:
                self._note("verify_hits")
                self.stats.bump("path_hits")
                self._cache_page(index, data)
                return data
            # The device no longer matches its authenticated digest:
            # reject AND invalidate so the caches never paper over it.
            self._note("corruption_rejections")
            self.invalidate()
            raise VerityError(
                f"integrity violation reading block {index} "
                "(authenticated digest mismatch)"
            )
        return self._verified_walk(index, data, digest)

    def _verified_walk(self, index: int, data: bytes, digest: bytes) -> bytes:
        """The cold path: walk up to the root (or to an authenticated
        ancestor), then memoise every node the walk proved."""
        self._note("verify_misses")
        current = digest
        position = index
        salt = self._superblock.salt
        dpb = self._superblock.digests_per_block
        path: List[Tuple[int, bytes]] = []
        authenticated = False
        for level_offset in self._offsets:
            block_index, slot = divmod(position, dpb)
            absolute = level_offset + block_index
            content = self._nodes.get(absolute)
            from_cache = content is not None
            if not from_cache:
                content = self._hashes.read_block(absolute)
            start = slot * self._digest_size
            if content[start : start + self._digest_size] != current:
                self._note("corruption_rejections")
                self.invalidate()
                raise VerityError(
                    f"integrity violation reading block {index} "
                    f"(level at hash block {absolute})"
                )
            if from_cache:
                authenticated = True
                break
            path.append((absolute, content))
            current = self._hash_fn(salt + content)
            self._meter.charge("hash_block")
            position = block_index
        if not authenticated and current != self._root_hash:
            self._note("corruption_rejections")
            self.invalidate()
            raise VerityError(f"root hash mismatch reading block {index}")
        for absolute, content in path:
            self._nodes[absolute] = content
        self._leaf_digests[index] = digest
        while len(self._leaf_digests) > 4 * self.page_cache_blocks:
            self._leaf_digests.popitem(last=False)
        self._cache_page(index, data)
        return data

    def _cache_page(self, index: int, data: bytes) -> None:
        self._pages[index] = data
        self._pages.move_to_end(index)
        while len(self._pages) > self.page_cache_blocks:
            self._pages.popitem(last=False)


class CryptTarget(_TargetDevice):
    """Instrumentation wrapper around an opened dm-crypt device."""

    kind = "crypt"

    def __init__(self, crypt: CryptDevice, meter: StorageMeter):
        super().__init__(crypt, meter)

    def read_block(self, index: int) -> bytes:
        self._note("reads")
        self._meter.charge("xts_block")
        return self._backing.read_block(index)

    def write_block(self, index: int, data: bytes) -> None:
        self._note("writes")
        self._meter.charge("xts_block")
        self._backing.write_block(index, data)

    def read_blocks(self, first: int, count: int) -> bytes:
        self._note("reads", count)
        self._meter.charge("xts_block", count)
        return self._backing.read_blocks(first, count)

    def write_blocks(self, first: int, data: bytes) -> None:
        count = len(data) // self.block_size
        self._note("writes", count)
        self._meter.charge("xts_block", count)
        self._backing.write_blocks(first, data)


# -- target builders -----------------------------------------------------------


def _require_base(spec: TargetSpec, below: Optional[BlockDevice]) -> BlockDevice:
    if below is None:
        raise DmError(
            f"target {spec.kind!r} needs a layer below it", reason="missing_base"
        )
    return below


def _int_param(spec: TargetSpec, key: str, default: int) -> int:
    raw = spec.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise DmError(
            f"parameter {key}={raw!r} is not an integer", reason="bad_param"
        ) from None


def _build_linear(spec: TargetSpec, context: DmContext,
                  below: Optional[BlockDevice], meter: StorageMeter) -> BlockDevice:
    partition = spec.get("partition")
    device_ref = spec.get("device")
    if partition is not None and device_ref is not None:
        raise DmError(
            "linear takes partition= or device=, not both", reason="bad_param"
        )
    if partition is not None:
        source = context.resolve_device(f"partition:{partition}")
    elif device_ref is not None:
        source = context.resolve_device(f"device:{device_ref}")
    elif below is not None:
        source = below
    elif context.disk is not None:
        source = context.disk
    else:
        raise DmError(
            "linear target has no source (partition=, device=, or a layer below)",
            reason="missing_device",
        )
    first = _int_param(spec, "first", 0)
    blocks = _int_param(spec, "blocks", source.num_blocks - first)
    if first != 0 or blocks != source.num_blocks:
        source = SliceView(source, first, blocks)
    return LinearTarget(source, meter)


def _build_verity(spec: TargetSpec, context: DmContext,
                  below: Optional[BlockDevice], meter: StorageMeter) -> BlockDevice:
    data_device = _require_base(spec, below)
    hash_device = context.resolve_device(spec.require("hash"))
    root_hash = context.resolve_root_hash(spec.require("root"))
    return CachedVerityDevice(
        data_device,
        hash_device,
        root_hash,
        meter=meter,
        page_cache_blocks=_int_param(spec, "cache_blocks", 1024),
    )


def _build_crypt(spec: TargetSpec, context: DmContext,
                 below: Optional[BlockDevice], meter: StorageMeter) -> BlockDevice:
    backing = _require_base(spec, below)
    key_name = spec.get("key")
    passphrase_name = spec.get("passphrase")
    if (key_name is None) == (passphrase_name is None):
        raise DmError(
            "crypt takes exactly one of key= or passphrase=", reason="bad_param"
        )
    mode = spec.get("format", "open")
    if mode not in ("open", "auto"):
        raise DmError(f"unknown crypt format mode {mode!r}", reason="bad_param")
    if passphrase_name is not None:
        crypt = luks_open(backing, passphrase=context.resolve_key(passphrase_name))
    else:
        master_key = context.resolve_key(key_name)
        if mode == "auto" and not is_luks(backing):
            if context.rng is None:
                raise DmError(
                    "crypt format=auto needs an rng in the context",
                    reason="missing_param",
                )
            crypt = luks_format(backing, context.rng, master_key=master_key)
            if spec.get("fill") == "zero":
                # First boot: encrypt the whole volume in place (the
                # paper's size-dependent "encryption service"), batched
                # to keep the XTS passes vectorised.
                batch = 256
                zero = bytes(batch * crypt.block_size)
                for start in range(0, crypt.num_blocks, batch):
                    count = min(batch, crypt.num_blocks - start)
                    crypt.write_blocks(start, zero[: count * crypt.block_size])
        else:
            crypt = luks_open(backing, master_key=master_key)
    return CryptTarget(crypt, meter)


_TARGET_BUILDERS = {
    "linear": _build_linear,
    "verity": _build_verity,
    "crypt": _build_crypt,
}


# -- the opened volume ---------------------------------------------------------


class DmVolume(BlockDevice):
    """An opened named volume: the top of the stack plus its layers."""

    def __init__(self, name: str, table: DmTable, top: BlockDevice,
                 layers: List[BlockDevice], meter: StorageMeter):
        super().__init__(top.num_blocks, top.block_size)
        self.name = name
        self.table = table
        self.meter = meter
        self._top = top
        self.layers = list(layers)

    @property
    def mutation_count(self) -> int:
        return self._top.mutation_count

    def read_block(self, index: int) -> bytes:
        return self._top.read_block(index)

    def write_block(self, index: int, data: bytes) -> None:
        self._top.write_block(index, data)

    def read_blocks(self, first: int, count: int) -> bytes:
        return self._top.read_blocks(first, count)

    def write_blocks(self, first: int, data: bytes) -> None:
        self._top.write_blocks(first, data)

    def verify_all(self) -> None:
        """Full-volume verification (boot-time rootfs check, Table 1)."""
        verify = getattr(self._top, "verify_all", None)
        if verify is None:
            raise DmError(
                f"volume {self.name!r} has no verifying target",
                reason="not_verifiable",
            )
        verify()

    def layer(self, kind: str) -> BlockDevice:
        """The topmost layer of the given target kind."""
        for device in reversed(self.layers):
            if getattr(device, "kind", None) == kind:
                return device
        raise DmError(f"volume has no {kind!r} target", reason="missing_target")

    def has_layer(self, kind: str) -> bool:
        """Whether any layer of the given kind is stacked."""
        return any(getattr(d, "kind", None) == kind for d in self.layers)

    def stats(self) -> List[dict]:
        """Per-target counters, bottom-up."""
        return [
            device.stats.as_dict()
            for device in self.layers
            if hasattr(device, "stats")
        ]


# -- the typed volume registry -------------------------------------------------


class VolumeRegistry:
    """Role → opened volume, with stable failure codes.

    Replaces the untyped ``VM.storage`` dict: registering a role twice
    raises ``duplicate_role``; looking up an unknown role raises
    ``missing_role``.  Mapping-style access (``registry["data"]``,
    ``.get``) is kept so storage consumers read naturally.
    """

    def __init__(self, meter: Optional[StorageMeter] = None):
        self.meter = meter if meter is not None else StorageMeter()
        self._volumes: "OrderedDict[str, BlockDevice]" = OrderedDict()

    def register(self, role: str, volume: BlockDevice) -> BlockDevice:
        """Attach *volume* under *role*; the role must be free."""
        if role in self._volumes:
            raise VolumeError(
                f"role {role!r} already has a volume", reason="duplicate_role"
            )
        self._volumes[role] = volume
        return volume

    def open(self, role: str) -> BlockDevice:
        """The volume registered under *role*."""
        try:
            return self._volumes[role]
        except KeyError:
            raise VolumeError(
                f"no volume registered for role {role!r}", reason="missing_role"
            ) from None

    def get(self, role: str, default=None):
        """The volume under *role*, or *default*."""
        return self._volumes.get(role, default)

    def roles(self) -> List[str]:
        """Registered roles, in registration order."""
        return list(self._volumes)

    def __getitem__(self, role: str) -> BlockDevice:
        return self.open(role)

    def __setitem__(self, role: str, volume: BlockDevice) -> None:
        self.register(role, volume)

    def __contains__(self, role: str) -> bool:
        return role in self._volumes
