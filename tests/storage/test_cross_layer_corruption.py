"""Cross-layer corruption property: a bit flip at ANY depth of the
device-mapper stack makes reads fail loudly — never silently wrong.

Hypothesis drives a random single-bit flip at a random depth of a full
``linear -> crypt -> verity`` stack (the backing device, the hash
device, or the LUKS header) and asserts the one property the
sealed-storage design rests on: a read after tampering either raises
:class:`VerityError` / :class:`DmCryptError` (or a block-layer error)
or — when the flip landed outside the read's footprint and integrity
path — returns exactly the original bytes.  Warm caches are included:
the mutation-count protocol must invalidate verity's page and node
caches, so they never launder corruption into a success.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.storage.blockdev import BlockDeviceError, RamBlockDevice
from repro.storage.dm import DmContext, DmTable
from repro.storage.dm_crypt import DmCryptError, luks_format
from repro.storage.dm_verity import VerityError, verity_format

BLOCK = 4096
DATA_BLOCKS = 8

#: Everything a tampered read is allowed to do — fail with a typed
#: integrity/crypt/block error.  Anything else (wrong bytes, silent
#: success after an in-footprint flip) falsifies the property.
REJECTIONS = (VerityError, DmCryptError, BlockDeviceError)


def _build_stack():
    """verity(crypt(linear(ram))): plaintext goes in through the crypt
    layer, then a hash tree is built over the *plaintext* the crypt
    layer serves — every layer of the paper's storage path in one
    volume."""
    backing = RamBlockDevice(2 + DATA_BLOCKS, BLOCK)
    master_key = HmacDrbg(b"xlc-key").generate(64)
    plain = luks_format(backing, HmacDrbg(b"xlc-rng"), master_key=master_key)
    payload = HmacDrbg(b"xlc-payload").generate(DATA_BLOCKS * BLOCK)
    plain.write_blocks(0, payload)

    fmt = verity_format(plain, salt=b"xlc-salt")
    context = DmContext(
        devices={"disk": backing, "hash": fmt.hash_device},
        keys={"master": master_key},
        cmdline_args={"rh": fmt.root_hash.hex()},
    )
    table = DmTable.parse(
        "stack",
        "linear device=disk ; crypt key=master ; "
        "verity hash=device:hash root=cmdline:rh",
    )
    return backing, fmt.hash_device, context, table, payload


def _read_all_blocks(volume):
    return [volume.read_block(index) for index in range(volume.num_blocks)]


@settings(max_examples=60, deadline=None)
@given(
    depth=st.sampled_from(["backing", "hash", "luks_header"]),
    block=st.integers(min_value=0, max_value=DATA_BLOCKS - 1),
    offset=st.integers(min_value=0, max_value=BLOCK - 1),
    bit=st.integers(min_value=0, max_value=7),
    warm=st.booleans(),
)
def test_bit_flip_never_yields_wrong_bytes(depth, block, offset, bit, warm):
    backing, hash_device, context, table, payload = _build_stack()
    volume = table.open(context)
    expected = [payload[i * BLOCK : (i + 1) * BLOCK] for i in range(DATA_BLOCKS)]
    if warm:
        # Fill every cache first: verity's page cache and node memo.
        assert _read_all_blocks(volume) == expected
    mask = 1 << bit

    if depth == "backing":
        # Ciphertext (or LUKS-header-adjacent) region of the raw disk.
        backing.corrupt((2 + block) * BLOCK + offset, mask)
    elif depth == "hash":
        # Anywhere in the Merkle tree, superblock included.
        target = (offset + block * BLOCK) % (hash_device.num_blocks * BLOCK)
        hash_device.corrupt(target, mask)
    else:  # luks_header
        backing.corrupt(offset % (2 * BLOCK), mask)

    for index in range(DATA_BLOCKS):
        try:
            observed = volume.read_block(index)
        except REJECTIONS:
            continue  # loud failure: exactly what tampering must produce
        assert observed == expected[index], (
            f"silent corruption: depth={depth} flipped bit {bit} at "
            f"offset {offset}, read of block {index} returned wrong bytes"
        )


@settings(max_examples=25, deadline=None)
@given(
    block=st.integers(min_value=0, max_value=DATA_BLOCKS - 1),
    offset=st.integers(min_value=0, max_value=BLOCK - 1),
)
def test_in_footprint_flip_is_always_rejected(block, offset):
    """Sharper claim for the data path: a flip inside the ciphertext
    block a read covers is always *detected* (not just never wrong),
    cold and warm alike."""
    backing, _, context, table, _ = _build_stack()
    volume = table.open(context)
    _read_all_blocks(volume)  # warm every layer
    backing.corrupt((2 + block) * BLOCK + offset)
    with pytest.raises(REJECTIONS):
        volume.read_block(block)
    # And it stays rejected on retry (no cache resurrects the old bytes).
    with pytest.raises(REJECTIONS):
        volume.read_block(block)


def test_verity_over_crypt_detects_header_tampering_cold():
    """Deterministic spot check: LUKS header corruption surfaces as a
    crypt error at open, or a verity error on read — never a clean
    boot over a tampered header."""
    backing, _, context, table, _ = _build_stack()
    backing.corrupt(7)  # inside the LUKS header
    try:
        volume = table.open(context)
    except REJECTIONS:
        return
    with pytest.raises(REJECTIONS):
        _read_all_blocks(volume)
