"""The signed update channel: manifest round trips, the node-side gate
(signature, epoch, base chain), and the full client pipeline."""

import dataclasses

import pytest

from repro.attest import VerificationPolicy, reset_tracer
from repro.attest.trace import get_tracer
from repro.build import (
    CHANNEL_REASON_CODES,
    ChannelError,
    SignedManifest,
    UpdateChannel,
    UpdateClient,
    compute_delta,
    verify_manifest,
)
from repro.crypto.drbg import HmacDrbg
from repro.crypto.keys import PrivateKey


@pytest.fixture(autouse=True)
def _fresh_tracer():
    reset_tracer()
    yield
    reset_tracer()


@pytest.fixture(scope="module")
def channel_world(update_world):
    base, target = update_world["base"], update_world["target"]
    key = PrivateKey.generate_ecdsa(HmacDrbg(b"channel-tests"), "P-256")
    channel = UpdateChannel(key, image_name=base.image.name)
    delta = compute_delta(base.image, target.image)
    signed = channel.publish(
        delta, base.expected_measurement, target.expected_measurement
    )
    return {
        "key": key,
        "channel": channel,
        "delta": delta,
        "signed": signed,
        "blob": channel.blob(signed.manifest.delta_digest),
    }


class TestManifest:
    def test_signed_manifest_round_trips(self, channel_world):
        signed = channel_world["signed"]
        assert SignedManifest.decode(signed.encode()) == signed

    def test_epochs_are_monotonic(self, update_world, channel_world):
        key = PrivateKey.generate_ecdsa(HmacDrbg(b"epochs"), "P-256")
        channel = UpdateChannel(
            key, image_name=update_world["base"].image.name
        )
        first = channel.publish(
            channel_world["delta"],
            update_world["base"].expected_measurement,
            update_world["target"].expected_measurement,
        )
        second = channel.publish(
            channel_world["delta"],
            update_world["base"].expected_measurement,
            update_world["target"].expected_measurement,
        )
        assert (first.manifest.epoch, second.manifest.epoch) == (1, 2)
        assert channel.manifest_at(1) == first
        assert channel.latest() == second

    def test_channel_refuses_foreign_image(self, channel_world, update_world):
        foreign = dataclasses.replace(
            channel_world["delta"], image_name="someone-else"
        )
        with pytest.raises(ValueError, match="channel serves"):
            channel_world["channel"].publish(
                foreign,
                update_world["base"].expected_measurement,
                update_world["target"].expected_measurement,
            )


class TestVerifyManifest:
    def test_genuine_manifest_verifies(self, channel_world):
        manifest = verify_manifest(
            channel_world["signed"],
            trusted_key=channel_world["key"].public_key(),
            last_epoch=0,
        )
        assert manifest.epoch == 1

    def test_wrong_key_is_bad_signature(self, channel_world):
        stranger = PrivateKey.generate_ecdsa(HmacDrbg(b"stranger"), "P-256")
        with pytest.raises(ChannelError) as info:
            verify_manifest(
                channel_world["signed"],
                trusted_key=stranger.public_key(),
                last_epoch=0,
            )
        assert info.value.code == "bad_signature"
        assert get_tracer().update.rejections["bad_signature"] == 1

    def test_replayed_epoch_is_stale(self, channel_world):
        with pytest.raises(ChannelError) as info:
            verify_manifest(
                channel_world["signed"],
                trusted_key=channel_world["key"].public_key(),
                last_epoch=channel_world["signed"].manifest.epoch,
            )
        assert info.value.code == "stale_epoch"

    def test_moved_node_is_base_mismatch(self, channel_world, update_world):
        with pytest.raises(ChannelError) as info:
            verify_manifest(
                channel_world["signed"],
                trusted_key=channel_world["key"].public_key(),
                last_epoch=0,
                node_measurement=update_world["target"].expected_measurement,
            )
        assert info.value.code == "base_mismatch"

    def test_policy_golden_set_gates_the_base(
        self, channel_world, update_world
    ):
        policy = VerificationPolicy(
            golden_measurements=[
                update_world["target"].expected_measurement
            ]
        )
        with pytest.raises(ChannelError) as info:
            verify_manifest(
                channel_world["signed"],
                trusted_key=channel_world["key"].public_key(),
                last_epoch=0,
                policy=policy,
            )
        assert info.value.code == "base_mismatch"
        # The same manifest passes once its base is in the golden set.
        welcoming = VerificationPolicy(
            golden_measurements=[update_world["base"].expected_measurement]
        )
        verify_manifest(
            channel_world["signed"],
            trusted_key=channel_world["key"].public_key(),
            last_epoch=0,
            policy=welcoming,
        )


class TestUpdateClient:
    def test_full_pipeline_applies_and_advances_epoch(
        self, channel_world, update_world
    ):
        client = UpdateClient(channel_world["key"].public_key())
        applied = client.apply(
            update_world["base"].image,
            channel_world["signed"],
            channel_world["blob"],
        )
        assert applied == update_world["target"].image
        assert client.epoch == 1
        snapshot = get_tracer().update.snapshot()
        assert snapshot["applied"] == 1 and snapshot["rejections"] == {}
        # Shipped bytes are the signed blob that travels, as the fleet
        # provisioner counts them, not the decoded payload.
        assert snapshot["delta_bytes_shipped"] == len(channel_world["blob"])

    def test_tampered_blob_is_delta_corrupt(
        self, channel_world, update_world
    ):
        blob = bytearray(channel_world["blob"])
        blob[-1] ^= 0xFF
        client = UpdateClient(channel_world["key"].public_key())
        with pytest.raises(ChannelError) as info:
            client.apply(
                update_world["base"].image,
                channel_world["signed"],
                bytes(blob),
            )
        assert info.value.code == "delta_corrupt"
        assert client.epoch == 0  # never advanced

    def test_swapped_blocks_fail_the_signed_block_hashes(
        self, channel_world, update_world
    ):
        delta = channel_world["delta"]
        (a_index, a_content) = delta.changed_blocks[0]
        (b_index, b_content) = delta.changed_blocks[1]
        swapped = dataclasses.replace(
            delta,
            changed_blocks=(
                ((a_index, b_content), (b_index, a_content))
                + delta.changed_blocks[2:]
            ),
        )
        # A fresh channel signs the swapped delta so its blob digest is
        # self-consistent; the *original* signed manifest must still
        # reject it (the block hashes are position-bound).
        client = UpdateClient(channel_world["key"].public_key())
        with pytest.raises(ChannelError) as info:
            client.apply(
                update_world["base"].image,
                channel_world["signed"],
                swapped.encode(),
            )
        assert info.value.code == "delta_corrupt"

    def test_shared_apply_cache_deduplicates_work(
        self, channel_world, update_world
    ):
        cache = {}
        for _ in range(3):
            client = UpdateClient(
                channel_world["key"].public_key(), apply_cache=cache
            )
            applied = client.apply(
                update_world["base"].image,
                channel_world["signed"],
                channel_world["blob"],
            )
            assert applied.disk_image == (
                update_world["target"].image.disk_image
            )
        assert get_tracer().update.apply_cache_hits == 2
        assert len(cache) == 1

    def test_taxonomy_is_stable(self):
        assert CHANNEL_REASON_CODES == (
            "bad_signature",
            "base_mismatch",
            "delta_corrupt",
            "digest_mismatch",
            "stale_epoch",
        )
