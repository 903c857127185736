"""The signed update channel: manifests that chain deltas to goldens.

"Insecure Until Proven Updated" catalogues how fleets are actually
compromised: not by breaking the image's integrity chain but by abusing
the *update* channel — serving an old (signed!) update to roll a node
back, or slipping an unsigned payload past a client that only checks
the transport.  This module makes the channel itself attestation-grade:

* every update travels as an :class:`UpdateManifest` — base launch
  measurement → target launch measurement, the delta blob's digest and
  per-block hashes, and a **monotonic epoch** — signed by the build
  pipeline's key (:class:`SignedManifest`);
* :func:`verify_manifest` is the node-side gate, and it runs **before
  any block touches disk**: signature first, then epoch monotonicity
  (``stale_epoch`` kills rollback replays), then the base chain —
  the manifest's base measurement must equal the node's installed
  measurement *and* sit in the ``repro.attest`` policy's effective
  golden set, so every accepted update is reachable from a golden the
  verifier already trusts;
* :class:`UpdateClient` drives gate → blob integrity → delta apply
  (:func:`repro.build.delta.apply_delta`, which re-roots and replays
  the signed target measurement) and only then advances its epoch.

Every rejection raises a typed :class:`ChannelError` carrying one of
:data:`CHANNEL_REASON_CODES` and is counted on the process tracer's
``update`` counters — the same observability seam the attestation
pipeline uses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..attest.trace import get_tracer
from ..crypto import encoding
from ..crypto.keys import PrivateKey, PublicKey
from ..virt.image import VmImage
from .delta import DELTA_REASON_CODES, DeltaError, ImageDelta, apply_delta
from .measurement import expected_measurement_for_image

_MANIFEST_MAGIC = "repro-update-manifest-v1"

#: The full stable rejection taxonomy of the update path: the
#: manifest-level codes plus the delta-apply codes it shares.
CHANNEL_REASON_CODES: Tuple[str, ...] = tuple(sorted({
    "bad_signature",   # manifest signature invalid or wrong signer
    "stale_epoch",     # epoch <= the node's last applied (rollback replay)
    *DELTA_REASON_CODES,
}))


class ChannelError(ValueError):
    """An update was rejected; ``code`` is one of
    :data:`CHANNEL_REASON_CODES`."""

    def __init__(self, code: str, message: str):
        if code not in CHANNEL_REASON_CODES:
            raise ValueError(f"unknown channel reason code {code!r}")
        super().__init__(message)
        self.code = code


def _reject(code: str, message: str, tracer=None) -> ChannelError:
    (tracer or get_tracer()).update.record_reject(code)
    return ChannelError(code, message)


@dataclass(frozen=True)
class UpdateManifest:
    """One versioned, signable update description."""

    image_name: str
    base_version: str
    target_version: str
    #: Monotonic per-image epoch; clients refuse anything at or below
    #: their last applied epoch (rollback protection).
    epoch: int
    base_measurement: bytes
    target_measurement: bytes
    base_root_hash: bytes
    target_root_hash: bytes
    #: SHA-256 of the encoded delta blob.
    delta_digest: bytes
    #: Position-bound hashes of every shipped block (see
    #: :meth:`~repro.build.delta.ImageDelta.blob_hashes`).
    blob_hashes: Tuple[bytes, ...]

    def signing_bytes(self) -> bytes:
        """The canonical bytes the channel key signs."""
        return encoding.encode(
            {
                "magic": _MANIFEST_MAGIC,
                "image": self.image_name,
                "base_version": self.base_version,
                "target_version": self.target_version,
                "epoch": self.epoch,
                "base_measurement": self.base_measurement,
                "target_measurement": self.target_measurement,
                "base_root": self.base_root_hash,
                "target_root": self.target_root_hash,
                "delta_digest": self.delta_digest,
                "blob_hashes": list(self.blob_hashes),
            }
        )

    def to_dict(self) -> dict:
        """A human-readable summary (hex digests) for CLI display."""
        return {
            "image": self.image_name,
            "base_version": self.base_version,
            "target_version": self.target_version,
            "epoch": self.epoch,
            "base_measurement": self.base_measurement.hex(),
            "target_measurement": self.target_measurement.hex(),
            "base_root": self.base_root_hash.hex(),
            "target_root": self.target_root_hash.hex(),
            "delta_digest": self.delta_digest.hex(),
            "blob_count": len(self.blob_hashes),
        }


@dataclass(frozen=True)
class SignedManifest:
    """A manifest plus its channel signature."""

    manifest: UpdateManifest
    signature: bytes
    #: Fingerprint of the signing key (routing hint only — trust comes
    #: from the verifier's pinned key, never from this field).
    signer: bytes

    def encode(self) -> bytes:
        """Serialise for distribution."""
        return encoding.encode(
            {
                "magic": "repro-signed-manifest",
                "manifest": self.manifest.signing_bytes(),
                "signature": self.signature,
                "signer": self.signer,
            }
        )

    @classmethod
    def decode(cls, data: bytes) -> "SignedManifest":
        """Parse a distributed signed manifest."""
        decoded = encoding.decode(data)
        if (
            not isinstance(decoded, dict)
            or decoded.get("magic") != "repro-signed-manifest"
        ):
            raise ValueError("not a signed manifest")
        body = encoding.decode(decoded["manifest"])
        if not isinstance(body, dict) or body.get("magic") != _MANIFEST_MAGIC:
            raise ValueError("not an update manifest")
        manifest = UpdateManifest(
            image_name=body["image"],
            base_version=body["base_version"],
            target_version=body["target_version"],
            epoch=body["epoch"],
            base_measurement=body["base_measurement"],
            target_measurement=body["target_measurement"],
            base_root_hash=body["base_root"],
            target_root_hash=body["target_root"],
            delta_digest=body["delta_digest"],
            blob_hashes=tuple(body["blob_hashes"]),
        )
        return cls(
            manifest=manifest,
            signature=decoded["signature"],
            signer=decoded["signer"],
        )


class UpdateChannel:
    """The publisher side: sign manifests, store delta blobs.

    One channel serves one image name; epochs increase monotonically
    with each publication.  The blob store is content-addressed (the
    manifest's ``delta_digest`` is the lookup key), so transport-layer
    tampering is always visible as a digest mismatch.
    """

    def __init__(self, signing_key: PrivateKey, image_name: str):
        self._key = signing_key
        self.image_name = image_name
        self.manifests: List[SignedManifest] = []
        self._blobs: Dict[bytes, bytes] = {}

    @property
    def signer(self) -> PublicKey:
        """The channel's verification key (pin this on clients)."""
        return self._key.public_key()

    @property
    def epoch(self) -> int:
        """The highest epoch published so far (0 = nothing yet)."""
        return self.manifests[-1].manifest.epoch if self.manifests else 0

    def publish(
        self,
        delta: ImageDelta,
        base_measurement: bytes,
        target_measurement: bytes,
        epoch: Optional[int] = None,
    ) -> SignedManifest:
        """Sign and store one update; returns the signed manifest."""
        if delta.image_name != self.image_name:
            raise ValueError(
                f"channel serves {self.image_name!r}, delta is for "
                f"{delta.image_name!r}"
            )
        blob = delta.encode()
        manifest = UpdateManifest(
            image_name=delta.image_name,
            base_version=delta.base_version,
            target_version=delta.target_version,
            epoch=self.epoch + 1 if epoch is None else epoch,
            base_measurement=bytes(base_measurement),
            target_measurement=bytes(target_measurement),
            base_root_hash=delta.base_root_hash,
            target_root_hash=delta.target_root_hash,
            delta_digest=hashlib.sha256(blob).digest(),
            blob_hashes=delta.blob_hashes(),
        )
        signed = SignedManifest(
            manifest=manifest,
            signature=self._key.sign(manifest.signing_bytes()),
            signer=self._key.public_key().fingerprint(),
        )
        self.manifests.append(signed)
        self._blobs[manifest.delta_digest] = blob
        get_tracer().update.record_publish()
        return signed

    def latest(self) -> SignedManifest:
        """The most recently published manifest."""
        if not self.manifests:
            raise LookupError(f"channel {self.image_name!r} is empty")
        return self.manifests[-1]

    def manifest_at(self, epoch: int) -> SignedManifest:
        """The manifest published at *epoch* (rollback-replay fixture)."""
        for signed in self.manifests:
            if signed.manifest.epoch == epoch:
                return signed
        raise LookupError(f"no manifest at epoch {epoch}")

    def blob(self, delta_digest: bytes) -> bytes:
        """Fetch a delta blob by its content digest."""
        try:
            return self._blobs[delta_digest]
        except KeyError:
            raise LookupError("no blob for that digest") from None


def verify_manifest(
    signed: SignedManifest,
    trusted_key: PublicKey,
    last_epoch: int,
    node_measurement: Optional[bytes] = None,
    policy=None,
    tracer=None,
) -> UpdateManifest:
    """The node-side gate, run before any block touches disk.

    Checks, in order: the channel signature against the **pinned**
    *trusted_key*; epoch monotonicity against *last_epoch*; and the
    base chain — the manifest's base measurement must equal the node's
    installed measurement (when given) and be in the *policy*'s
    effective golden set (when given), i.e. the update departs from a
    measurement the ``repro.attest`` verifier already trusts.

    Returns the verified manifest; raises a typed, counted
    :class:`ChannelError` otherwise.
    """
    manifest = signed.manifest
    if not trusted_key.verify(manifest.signing_bytes(), signed.signature):
        raise _reject(
            "bad_signature",
            "manifest signature does not verify under the pinned channel key",
            tracer,
        )
    if manifest.epoch <= last_epoch:
        raise _reject(
            "stale_epoch",
            f"manifest epoch {manifest.epoch} <= applied epoch {last_epoch} "
            "(rollback replay)",
            tracer,
        )
    if node_measurement is not None and (
        manifest.base_measurement != bytes(node_measurement)
    ):
        raise _reject(
            "base_mismatch",
            "manifest base measurement is not this node's installed "
            "measurement",
            tracer,
        )
    if policy is not None:
        golden = policy.effective_golden()
        if golden is not None and manifest.base_measurement not in golden:
            raise _reject(
                "base_mismatch",
                "manifest base measurement is not in the trusted golden set",
                tracer,
            )
    (tracer or get_tracer()).update.record_accept()
    return manifest


class UpdateClient:
    """The node-side update pipeline: verify, check blobs, apply.

    One client per node; ``epoch`` tracks the last applied update and
    only advances after a fully successful apply.  An optional shared
    *apply cache* (a plain dict) deduplicates the expensive patch +
    re-root + measurement replay across a fleet of nodes running the
    same base — manifest verification still runs per node.
    """

    def __init__(
        self,
        trusted_key: PublicKey,
        policy=None,
        epoch: int = 0,
        apply_cache: Optional[Dict[bytes, VmImage]] = None,
        tracer=None,
    ):
        self.trusted_key = trusted_key
        self.policy = policy
        self.epoch = epoch
        self._apply_cache = apply_cache
        self._tracer = tracer

    def apply(
        self,
        installed: VmImage,
        signed: SignedManifest,
        blob: bytes,
        node_measurement: Optional[bytes] = None,
    ) -> VmImage:
        """Run the full verify-then-apply pipeline.

        Raises :class:`ChannelError` on any rejection; the installed
        image is never touched on failure.  On success returns the new
        image (byte-identical to the published target) and advances
        :attr:`epoch`.
        """
        tracer = self._tracer or get_tracer()
        if node_measurement is None:
            node_measurement = expected_measurement_for_image(installed)
        manifest = verify_manifest(
            signed,
            trusted_key=self.trusted_key,
            last_epoch=self.epoch,
            node_measurement=node_measurement,
            policy=self.policy,
            tracer=tracer,
        )
        if hashlib.sha256(blob).digest() != manifest.delta_digest:
            raise _reject(
                "delta_corrupt",
                "delta blob does not match the signed digest",
                tracer,
            )
        try:
            delta = ImageDelta.decode(blob)
        except DeltaError as exc:
            raise _reject("delta_corrupt", str(exc), tracer) from exc
        if delta.blob_hashes() != manifest.blob_hashes:
            raise _reject(
                "delta_corrupt",
                "shipped blocks do not match the signed block hashes",
                tracer,
            )

        cache_hit = False
        applied: Optional[VmImage] = None
        cache_key = None
        if self._apply_cache is not None:
            cache_key = hashlib.sha256(
                manifest.delta_digest + node_measurement
            ).digest()
            applied = self._apply_cache.get(cache_key)
            cache_hit = applied is not None
        if applied is None:
            try:
                applied = apply_delta(
                    installed, delta,
                    target_measurement=manifest.target_measurement,
                )
            except DeltaError as exc:
                raise _reject(exc.code, str(exc), tracer) from exc
            if self._apply_cache is not None and cache_key is not None:
                self._apply_cache[cache_key] = applied
        self.epoch = manifest.epoch
        tracer.update.record_apply(
            len(blob), len(applied.disk_image), cached=cache_hit
        )
        return applied
