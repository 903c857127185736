"""Device-mapper stack tests: tables, targets, verity's caches, and the
registry."""

import pytest

from repro.attest import get_tracer, reset_tracer
from repro.crypto.drbg import HmacDrbg
from repro.storage.blockdev import RamBlockDevice
from repro.storage.dm import (
    DmContext,
    DmError,
    DmTable,
    TargetSpec,
    VolumeError,
    VolumeRegistry,
)
from repro.storage.dm_crypt import DmCryptError, luks_format
from repro.storage.dm_verity import VerityError, verity_format
from repro.storage.partition import PartitionEntry, PartitionTable

BLOCK = 4096


def _filled_device(num_blocks=16, seed=b"dm-data"):
    rng = HmacDrbg(seed)
    return RamBlockDevice(num_blocks, BLOCK, initial=rng.generate(num_blocks * BLOCK))


def _verity_context(num_blocks=16):
    data = _filled_device(num_blocks)
    fmt = verity_format(data, salt=b"dm-salt")
    context = DmContext(
        devices={"data": data, "hash": fmt.hash_device},
        cmdline_args={"root_hash": fmt.root_hash.hex()},
    )
    return data, fmt, context


VERITY_TABLE = "linear device=data ; verity hash=device:hash root=cmdline:root_hash"
SMALL_CACHE_VERITY_TABLE = (
    "linear device=data ; "
    "verity hash=device:hash root=cmdline:root_hash cache_blocks=8"
)


class TestTableParsing:
    def test_roundtrip(self):
        text = SMALL_CACHE_VERITY_TABLE
        table = DmTable.parse("root", text)
        assert table.to_text() == text
        assert DmTable.parse("root", table.to_text()) == table

    def test_target_kinds_and_params(self):
        table = DmTable.parse("v", VERITY_TABLE)
        assert [t.kind for t in table.targets] == ["linear", "verity"]
        assert table.targets[1].get("hash") == "device:hash"
        assert table.targets[1].require("root") == "cmdline:root_hash"

    def test_missing_param_reason(self):
        spec = TargetSpec.parse("verity hash=device:hash")
        with pytest.raises(DmError) as excinfo:
            spec.require("root")
        assert excinfo.value.reason == "missing_param"

    def test_malformed_param_rejected(self):
        with pytest.raises(DmError) as excinfo:
            TargetSpec.parse("linear partition")
        assert excinfo.value.reason == "bad_table"

    def test_empty_table_rejected(self):
        with pytest.raises(DmError):
            DmTable(name="x", targets=())

    def test_unknown_target_kind(self):
        _, _, context = _verity_context()
        with pytest.raises(DmError) as excinfo:
            DmTable.parse("x", "linear device=data ; mirror").open(context)
        assert excinfo.value.reason == "unknown_target"

    def test_cache_is_not_a_target(self):
        # Verity keeps its own verified-page cache; there is no
        # separate block-cache target to stack under it.
        _, _, context = _verity_context()
        with pytest.raises(DmError) as excinfo:
            DmTable.parse(
                "x", "linear device=data ; cache blocks=8 ; "
                "verity hash=device:hash root=cmdline:root_hash",
            ).open(context)
        assert excinfo.value.reason == "unknown_target"


class TestComposition:
    def test_verity_stack_reads_verified_data(self):
        data, _, context = _verity_context()
        volume = DmTable.parse("root", VERITY_TABLE).open(context)
        assert volume.read_block(5) == data.read_block(5)
        volume.verify_all()

    def test_partition_references(self):
        rootfs = _filled_device(8, seed=b"part-rootfs")
        fmt = verity_format(rootfs, salt=b"s")
        hash_blocks = fmt.hash_device.num_blocks
        disk = RamBlockDevice(1 + 8 + hash_blocks, BLOCK)
        PartitionTable(
            [
                PartitionEntry("rootfs", 1, 8, "11111111-1-1-1-111111111111"),
                PartitionEntry("verity", 9, hash_blocks, "22222222-2-2-2-222222222222"),
            ]
        ).write_to(disk)
        disk.write_blocks(1, rootfs.read_all())
        disk.write_blocks(9, fmt.hash_device.read_all())
        context = DmContext(
            disk=disk, cmdline_args={"verity_root_hash": fmt.root_hash.hex()}
        )
        volume = DmTable.parse(
            "rootfs",
            "linear partition=rootfs ; "
            "verity hash=partition:verity root=cmdline:verity_root_hash",
        ).open(context)
        volume.verify_all()
        assert volume.read_block(0) == rootfs.read_block(0)

    def test_crypt_auto_format_then_reopen(self):
        disk = RamBlockDevice(16, BLOCK)
        key = HmacDrbg(b"seal").generate(64)
        context = DmContext(
            devices={"d": disk}, keys={"sealing": key}, rng=HmacDrbg(b"rng")
        )
        table = DmTable.parse(
            "data", "linear device=d ; crypt key=sealing format=auto fill=zero"
        )
        first = table.open(context)
        first.write_bytes(100, b"sealed state")
        # Ciphertext on the backing device, plaintext through the stack.
        assert b"sealed state" not in disk.read_all()
        reopened = table.open(context)
        assert reopened.read_bytes(100, 12) == b"sealed state"

    def test_crypt_wrong_key_rejected(self):
        disk = RamBlockDevice(16, BLOCK)
        luks_format(disk, HmacDrbg(b"r"), master_key=HmacDrbg(b"k1").generate(64))
        context = DmContext(
            devices={"d": disk}, keys={"sealing": HmacDrbg(b"k2").generate(64)}
        )
        with pytest.raises(DmCryptError):
            DmTable.parse("data", "linear device=d ; crypt key=sealing").open(context)

    def test_missing_key_reason(self):
        disk = RamBlockDevice(16, BLOCK)
        context = DmContext(devices={"d": disk})
        with pytest.raises(DmError) as excinfo:
            DmTable.parse("data", "linear device=d ; crypt key=absent").open(context)
        assert excinfo.value.reason == "missing_key"

    def test_missing_root_hash_reason(self):
        _, _, context = _verity_context()
        with pytest.raises(DmError) as excinfo:
            DmTable.parse(
                "v", "linear device=data ; verity hash=device:hash root=cmdline:nope"
            ).open(context)
        assert excinfo.value.reason == "missing_root_hash"

    def test_layer_lookup(self):
        _, _, context = _verity_context()
        volume = DmTable.parse("root", VERITY_TABLE).open(context)
        assert volume.layer("linear").kind == "linear"
        assert volume.has_layer("verity")
        assert not volume.has_layer("crypt")
        with pytest.raises(DmError):
            volume.layer("crypt")


class TestCachedVerity:
    def test_warm_reads_skip_the_walk(self):
        _, fmt, context = _verity_context()
        volume = DmTable.parse("root", VERITY_TABLE).open(context)
        volume.read_block(2)
        verity = volume.layer("verity")
        assert verity.stats.get("verify_misses") == 1
        fmt.hash_device.reads = 0
        volume.read_block(2)
        assert verity.stats.get("verify_hits") == 1
        assert fmt.hash_device.reads == 0  # no Merkle walk on the hot path

    def test_sibling_reads_share_authenticated_nodes(self):
        _, fmt, context = _verity_context()
        volume = DmTable.parse("root", VERITY_TABLE).open(context)
        volume.read_block(0)
        walk_reads = fmt.hash_device.reads
        fmt.hash_device.reads = 0
        volume.read_block(1)  # sibling leaf: path nodes already authenticated
        assert fmt.hash_device.reads < walk_reads

    def test_data_corruption_detected_cold(self):
        data, _, context = _verity_context()
        volume = DmTable.parse("root", VERITY_TABLE).open(context)
        data.corrupt(6 * BLOCK + 17)
        with pytest.raises(VerityError):
            volume.read_block(6)
        assert volume.layer("verity").stats.get("corruption_rejections") == 1

    def test_data_corruption_detected_warm(self):
        data, _, context = _verity_context()
        volume = DmTable.parse("root", SMALL_CACHE_VERITY_TABLE).open(context)
        volume.read_block(6)
        volume.read_block(6)  # warm
        data.corrupt(6 * BLOCK)
        with pytest.raises(VerityError):
            volume.read_block(6)

    def test_hash_corruption_detected_warm(self):
        _, fmt, context = _verity_context()
        volume = DmTable.parse("root", VERITY_TABLE).open(context)
        volume.read_block(3)
        fmt.hash_device.corrupt(1 * BLOCK + 3 * 32)  # leaf digest of block 3
        with pytest.raises(VerityError):
            volume.read_block(3)

    def test_failure_drops_caches(self):
        data, _, context = _verity_context()
        volume = DmTable.parse("root", VERITY_TABLE).open(context)
        volume.read_block(7)
        verity = volume.layer("verity")
        generation = verity.generation
        data.corrupt(7 * BLOCK)
        with pytest.raises(VerityError):
            volume.read_block(7)
        assert verity.generation > generation
        data.corrupt(7 * BLOCK)  # heal (xor is an involution)
        assert volume.read_block(7)  # fresh verified walk succeeds


class TestCryptByteFastPath:
    def test_byte_io_uses_batched_blocks(self):
        disk = RamBlockDevice(32, BLOCK)
        volume = luks_format(disk, HmacDrbg(b"r"),
                             master_key=HmacDrbg(b"mk").generate(64))
        span = b"x" * (3 * BLOCK)
        volume.write_bytes(BLOCK // 2, span)
        disk.reads = 0
        assert volume.read_bytes(BLOCK // 2, len(span)) == span
        # 4 touched blocks, one vectorised backing read — not one per block.
        assert disk.reads == 4


class TestCounters:
    def test_meter_mirrors_into_tracer(self):
        reset_tracer()
        _, _, context = _verity_context()
        volume = DmTable.parse("root", VERITY_TABLE).open(context)
        volume.read_block(0)
        volume.read_block(0)
        storage = get_tracer().storage
        assert storage.counts["verify_misses"] == 1
        assert storage.counts["verify_hits"] == 1
        assert storage.counts["reads"] >= 1
        assert storage.verify_hit_rate() == pytest.approx(0.5)
        assert storage.sim_seconds > 0.0
        snapshot = storage.snapshot()
        assert snapshot["io"]["verify_hits"] == 1
        reset_tracer()
        assert get_tracer().storage.counts["verify_hits"] == 0

    def test_volume_stats_are_per_target(self):
        _, _, context = _verity_context()
        volume = DmTable.parse("root", VERITY_TABLE).open(context)
        volume.read_block(0)
        kinds = [stats["kind"] for stats in volume.stats()]
        assert kinds == ["linear", "verity"]


class TestVolumeRegistry:
    def test_register_and_lookup(self):
        registry = VolumeRegistry()
        device = _filled_device(4)
        registry.register("data", device)
        assert registry["data"] is device
        assert registry.open("data") is device
        assert "data" in registry
        assert registry.roles() == ["data"]
        assert registry.get("absent") is None

    def test_duplicate_role_reason(self):
        registry = VolumeRegistry()
        registry.register("data", _filled_device(4))
        with pytest.raises(VolumeError) as excinfo:
            registry.register("data", _filled_device(4))
        assert excinfo.value.reason == "duplicate_role"

    def test_missing_role_reason(self):
        registry = VolumeRegistry()
        with pytest.raises(VolumeError) as excinfo:
            registry.open("data")
        assert excinfo.value.reason == "missing_role"

    def test_setitem_is_register(self):
        registry = VolumeRegistry()
        registry["data"] = _filled_device(4)
        with pytest.raises(VolumeError):
            registry["data"] = _filled_device(4)
